//! cold-ssb and remote-k2: passes over every query, each on a freshly
//! booted service.
//!
//! A pass boots the stack from its snapshot and asks each of the 122
//! queries once, in an order drawn from the seed, from one closed-loop
//! client thread. Every pass asks the same queries at the same targets, so
//! the answers, and with them the share of failed operations, are the same
//! in every pass and every run.

use crate::check::{check_answer, check_remote, Asked, Cause, Tally};
use crate::fixture::{self, Fixture, COLD_CONF, COLD_EB};
use crate::report::{host_ticks, steal_since, Metric, Report};
use crate::stats::{median, quantile, quiet_passes, SplitMix};
use crate::truth::Oracle;
use kg_aqp::QueryAnswer;
use kg_service::{QueryRequest, ServedFrom, Service};
use std::sync::Arc;
use std::time::Instant;

/// Boots timed before the window, on top of one per pass.
const SETUP_BOOTS: usize = 15;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Stack {
    /// K = 1 in-process service from the graph-only snapshot.
    Cold,
    /// Coordinator service in front of two loopback shard servers.
    Remote,
}

/// One answered read of a pass.
pub struct Read {
    pub query: usize,
    pub result: Result<kg_service::ServiceAnswer, String>,
    pub ms: f64,
    /// Retries, hedges and timed-out attempts the shard fleet made while
    /// answering (remote-k2 only; 0 elsewhere).
    pub fleet_events: u64,
}

/// Counters read from the service at the end of each pass.
#[derive(Default, Clone, Copy)]
pub struct PassCounters {
    pub misses: u64,
    pub prepares: u64,
}

pub struct PassRun {
    pub setup_s: Vec<f64>,
    pub reads: Vec<Read>,
    /// Queries answered per second in each measured pass, boot included.
    pub pass_qps: Vec<f64>,
    /// Share of host CPU ticks stolen during each measured pass.
    pub pass_steal: Vec<f64>,
    pub counters: Vec<PassCounters>,
}

fn boot(fixture: &Fixture, stack: Stack) -> (Arc<Service>, f64) {
    match stack {
        Stack::Cold => fixture::boot_service(fixture, &fixture.graph_snapshot, 1),
        Stack::Remote => fixture::boot_remote(fixture),
    }
}

/// Retries, hedges and timed-out attempts of the service's shard fleet so
/// far (0 for an in-process service).
fn fleet_events(service: &Service) -> u64 {
    service
        .metrics()
        .remote
        .map_or(0, |r| r.retries + r.hedges + r.timeouts)
}

fn one_pass(fixture: &Fixture, stack: Stack, order: &[usize], run: &mut PassRun) {
    let start = Instant::now();
    let ticks = host_ticks();
    let answered_before = run.reads.iter().filter(|r| r.result.is_ok()).count();
    let (service, setup_s) = boot(fixture, stack);
    run.setup_s.push(setup_s);
    let remote = stack == Stack::Remote;
    let mut events = if remote { fleet_events(&service) } else { 0 };
    for &index in order {
        let request = QueryRequest::new(fixture.queries[index].query.clone(), COLD_EB, COLD_CONF);
        let t0 = Instant::now();
        let result = service.execute(request).map_err(|e| e.to_string());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let before = events;
        if remote {
            events = fleet_events(&service);
        }
        run.reads.push(Read {
            query: index,
            result,
            ms,
            fleet_events: events - before,
        });
    }
    let answered = run.reads.iter().filter(|r| r.result.is_ok()).count() - answered_before;
    run.pass_qps
        .push(answered as f64 / start.elapsed().as_secs_f64());
    run.pass_steal.push(steal_since(ticks));
    let m = service.metrics();
    run.counters.push(PassCounters {
        misses: m.cache.misses as u64,
        prepares: m.sampler_cache.misses as u64,
    });
    service.shutdown();
}

/// Runs whole passes until `seconds` have elapsed (or exactly one pass in
/// smoke mode), after one untimed warm-up pass.
pub fn run_passes(
    fixture: &Fixture,
    stack: Stack,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> PassRun {
    let mut rng = SplitMix(seed ^ 0x5EED_0001);
    let mut order: Vec<usize> = (0..fixture.queries.len()).collect();
    let mut run = PassRun {
        setup_s: Vec::new(),
        reads: Vec::new(),
        pass_qps: Vec::new(),
        pass_steal: Vec::new(),
        counters: Vec::new(),
    };
    if !smoke {
        one_pass(fixture, stack, &order, &mut run);
        run.setup_s.clear();
        run.reads.clear();
        run.pass_qps.clear();
        run.pass_steal.clear();
        run.counters.clear();
        // A boot takes milliseconds, so `setup_s` gets boots of its own
        // besides the one that starts each pass.
        for _ in 0..SETUP_BOOTS {
            let (service, setup_s) = boot(fixture, stack);
            run.setup_s.push(setup_s);
            service.shutdown();
        }
    }
    let start = Instant::now();
    loop {
        rng.shuffle(&mut order);
        one_pass(fixture, stack, &order, &mut run);
        if smoke || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run
}

/// The in-process K = 2 answers remote answers must equal bitwise.
pub fn k2_reference(fixture: &Fixture) -> Vec<QueryAnswer> {
    let (service, _) = fixture::boot_service(fixture, &fixture.graph_snapshot, 2);
    let answers = fixture
        .queries
        .iter()
        .map(|q| {
            service
                .execute(QueryRequest::new(q.query.clone(), COLD_EB, COLD_CONF))
                .expect("in-process K = 2 reference answers")
                .answer
        })
        .collect();
    service.shutdown();
    answers
}

/// Checks every read of a run against τ-GT (and, on remote-k2, against the
/// in-process K = 2 reference).
pub fn check_reads(
    fixture: &Fixture,
    oracle: &mut Oracle,
    reads: &[Read],
    reference: Option<&[QueryAnswer]>,
) -> Tally {
    let mut tally = Tally::default();
    for read in reads {
        let query = &fixture.queries[read.query];
        let outcome = match &read.result {
            Err(_) => Some(Cause::Error),
            Ok(served) => {
                let remote = reference
                    .and_then(|r| check_remote(&served.answer, &r[read.query], read.fleet_events));
                remote.or_else(|| {
                    let truth = oracle.truth(read.query).value;
                    let asked = Asked {
                        query,
                        eb: COLD_EB,
                        conf: COLD_CONF,
                        hit: served.served_from == ServedFrom::CacheHit,
                    };
                    check_answer(&asked, &served.answer, truth, &[])
                })
            }
        };
        if let (Some(cause), Ok(served)) = (outcome, &read.result) {
            if !tally.failing.contains_key(&query.id) {
                eprintln!(
                    "perfbench: {} {}: {} ± {} vs τ-GT {} (guarantee_met {})",
                    query.id,
                    cause.name(),
                    served.answer.estimate,
                    served.answer.moe,
                    oracle.truth(read.query).value,
                    served.answer.guarantee_met
                );
            }
        }
        tally.record(&query.id, outcome);
    }
    tally
}

/// The end-to-end metrics of a pass run: `setup_s` over every boot; over
/// the passes in which the host stole the least CPU (see
/// `stats::quiet_passes`), the median of their `qps` and the latency
/// quantiles of their reads, pooled.
pub fn end_to_end(fixture: &Fixture, run: &PassRun, report: &mut Report) {
    let quiet = quiet_passes(&run.pass_steal);
    let pick = |values: Vec<Vec<f64>>| -> Vec<Vec<f64>> {
        values
            .into_iter()
            .zip(&quiet)
            .filter_map(|(v, &q)| q.then_some(v))
            .collect()
    };
    report.push(Metric::new(
        "setup_s",
        median(&run.setup_s),
        "s",
        run.setup_s.len(),
    ));
    let qps: Vec<f64> = pick(run.pass_qps.iter().map(|&q| vec![q]).collect()).concat();
    report.push(Metric::new("qps", median(&qps), "1/s", qps.len()));
    let per_pass = pick(
        run.reads
            .chunks(fixture.queries.len())
            .map(|pass| {
                pass.iter()
                    .filter(|r| r.result.is_ok())
                    .map(|r| r.ms)
                    .collect()
            })
            .collect(),
    );
    let pooled = per_pass.concat();
    for (name, q) in [("query_p50_ms", 0.5), ("query_p90_ms", 0.9)] {
        report.push(Metric::new(name, quantile(&pooled, q), "ms", pooled.len()));
    }
}

/// The kg-service layer as a pass workload exercises it. Every pass boots
/// a fresh service and asks each query once, so there are no cache hits,
/// resumes, evictions, HTTP requests or writes to report here (hot-rw,
/// which is not listed in BENCHMARK.json, reports those).
pub fn service_layer(run: &PassRun, report: &mut Report) {
    let passes = run.counters.len().max(1) as f64;
    let per_pass =
        |f: fn(&PassCounters) -> u64| run.counters.iter().map(f).sum::<u64>() as f64 / passes;
    let served: Vec<&kg_service::ServiceAnswer> = run
        .reads
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .collect();
    let n = served.len();
    let queue: Vec<f64> = served.iter().map(|a| a.queue_ms).collect();
    let service: Vec<f64> = served.iter().map(|a| a.total_ms - a.queue_ms).collect();
    let c = run.counters.len();
    report.push(Metric::new(
        "kg-service.queue_ms",
        crate::stats::mean(&queue),
        "ms",
        n,
    ));
    report.push(Metric::new(
        "kg-service.service_ms",
        crate::stats::mean(&service),
        "ms",
        n,
    ));
    report.push(Metric::new(
        "kg-service.misses",
        per_pass(|p| p.misses),
        "count",
        c,
    ));
    report.push(Metric::new(
        "kg-sampling.prepares",
        per_pass(|p| p.prepares),
        "count",
        c,
    ));
}
