//! perfbench: the end-to-end and per-layer benchmark of the serving stack.
//!
//! ```text
//! perfbench --workload cold-ssb|hot-rw|remote-k2 --seed N --seconds S --trace 0|1 [--smoke]
//! perfbench --self-test
//! ```
//!
//! Each run builds its inputs from the seed, measures for `--seconds`
//! (whole passes or rounds, so every run attempts the same operations),
//! checks every answer against τ-ground truth computed apart from the
//! serving path, and prints as its last stdout line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. `--smoke` runs one
//! pass or round with no warm-up. See README.md for the workloads, the
//! metrics and the faults the checks find today.

mod check;
mod fixture;
mod hot_rw;
mod passes;
mod report;
mod selftest;
mod stats;
mod traced;
mod truth;

use fixture::Fixture;
use passes::Stack;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let raw = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .ok_or_else(|| format!("missing {flag}"))?;
    raw.parse()
        .map_err(|_| format!("unparsable {flag} value {raw:?}"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let workload: String = value(args, "--workload")?;
    if !["cold-ssb", "hot-rw", "remote-k2"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = value(args, "--seconds")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace: u8 = value(args, "--trace")?;
    if trace > 1 {
        return Err("--trace must be 0 or 1".into());
    }
    Ok(Args {
        workload,
        seed: value(args, "--seed")?,
        seconds,
        trace: trace == 1,
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

fn run(fixture: &Fixture, args: &Args) -> Report {
    let mut report = Report::new();
    match args.workload.as_str() {
        "hot-rw" => {
            let run = hot_rw::run(fixture, args.seed, args.seconds, args.smoke);
            report.tally = hot_rw::check(fixture, &run);
            let mut e2e = Report::new();
            hot_rw::end_to_end(&run, &mut e2e);
            if args.trace {
                hot_rw::per_layer(fixture, &run, &mut report);
                traced::component_metrics(fixture, 2, &mut report);
                let opened = fixture::open(&fixture.sampler_snapshot);
                let samplers = opened.samplers.expect("the sampler snapshot has samplers");
                let stages =
                    traced::local_stages(fixture, 2, &samplers, &hot_rw::hot_queries(fixture));
                traced::stage_metrics(&stages, &mut report);
                traced::no_remote(&mut report);
            }
            finish(args, report, e2e)
        }
        workload => {
            let stack = if workload == "cold-ssb" {
                Stack::Cold
            } else {
                Stack::Remote
            };
            let reference = (stack == Stack::Remote).then(|| passes::k2_reference(fixture));
            let run = passes::run_passes(fixture, stack, args.seed, args.seconds, args.smoke);
            let mut oracle = truth::Oracle::new(fixture);
            report.tally =
                passes::check_reads(fixture, &mut oracle, &run.reads, reference.as_deref());
            let mut e2e = Report::new();
            passes::end_to_end(fixture, &run, &mut e2e);
            if args.trace {
                passes::service_layer(&run, &mut report);
                match &reference {
                    None => {
                        traced::component_metrics(fixture, 1, &mut report);
                        let samplers = kg_sampling::SamplerCache::new(
                            fixture.engine.strategy,
                            fixture.engine.sampler_config(),
                        );
                        let all: Vec<usize> = (0..fixture.queries.len()).collect();
                        let stages = traced::local_stages(fixture, 1, &samplers, &all);
                        traced::stage_metrics(&stages, &mut report);
                        traced::no_remote(&mut report);
                    }
                    Some(reference) => {
                        traced::component_metrics(fixture, 2, &mut report);
                        let mismatches = traced::remote_metrics(fixture, reference, &mut report);
                        if mismatches > 0 {
                            eprintln!(
                                "perfbench: {mismatches} traced remote answers differ from in-process K = 2 \
                                 or needed a retry, hedge or timeout"
                            );
                            report.accounting_ok = false;
                        }
                    }
                }
            }
            finish(args, report, e2e)
        }
    }
}

/// The traced run reports per-layer metrics and prints its own end-to-end
/// figures to stderr, for the tracing-overhead comparison.
fn finish(args: &Args, mut report: Report, e2e: Report) -> Report {
    if args.trace {
        for m in &e2e.metrics {
            eprintln!(
                "perfbench {}: traced end-to-end {} = {:.6} {} (n={})",
                args.workload, m.name, m.value, m.unit, m.samples
            );
        }
    } else {
        report.metrics = e2e.metrics;
    }
    report
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-test") {
        return selftest::run();
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cold-ssb|hot-rw|remote-k2 --seed N --seconds S \
                 --trace 0|1 [--smoke] | --self-test"
            );
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let fixture = Fixture::build(&dir);
    let before = report::host_ticks();
    let mut report = run(&fixture, &args);
    report.steal_share = Some(report::steal_since(before)).filter(|s| !s.is_nan());
    let _ = std::fs::remove_dir_all(&dir);
    report::emit(&args.workload, &report);
    ExitCode::SUCCESS
}
