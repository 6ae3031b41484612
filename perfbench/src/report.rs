//! The run's result: metrics with their sample counts, the tally of
//! attempted and failed operations, and the host fingerprint.

use crate::check::Tally;
use serde_json::{Map, Value};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Whether every check that is not an operation's outcome held (for
    /// example, traced stage times adding up to the engine wall time).
    pub accounting_ok: bool,
    /// Share of host CPU ticks stolen while the run measured.
    pub steal_share: Option<f64>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            accounting_ok: true,
            ..Report::default()
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }
}

/// `(steal, total)` CPU ticks of the whole host from `/proc/stat`, when it
/// can be read. The share of ticks stolen by the hypervisor during a run
/// tells a run slowed by neighbours from one slowed by the program.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of host CPU ticks stolen since `before` was read (`NaN` when
/// `/proc/stat` cannot be read).
pub fn steal_since(before: Option<(u64, u64)>) -> f64 {
    match (before, host_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

/// nproc, `RAYON_NUM_THREADS`, build profile, rustc and git revision: the
/// agreement report refuses to compare results whose fingerprints differ.
pub fn fingerprint() -> Value {
    let mut map = Map::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    map.insert("nproc".into(), Value::Number(nproc as f64));
    map.insert(
        "rayon_num_threads".into(),
        Value::String(std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
    );
    map.insert(
        "profile".into(),
        Value::String(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    );
    map.insert(
        "rustc".into(),
        Value::String(env!("PERFBENCH_RUSTC").into()),
    );
    map.insert(
        "git_rev".into(),
        Value::String(env!("PERFBENCH_GIT_REV").into()),
    );
    Value::Object(map)
}

/// Prints the human-readable summary to stderr and the three stdout lines:
/// `fingerprint {..}`, `samples {..}` and, last, the result object.
pub fn emit(workload: &str, report: &Report) {
    let tally = &report.tally;
    eprintln!(
        "perfbench {workload}: attempted {} failed {} causes {:?}",
        tally.attempted, tally.failed, tally.causes
    );
    for (id, cause) in &tally.failing {
        eprintln!("perfbench {workload}: FAIL {id} {cause}");
    }
    let mut metrics = Map::new();
    let mut samples = Map::new();
    for m in &report.metrics {
        eprintln!(
            "perfbench {workload}: {:<36} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
        let mut entry = Map::new();
        entry.insert("value".into(), Value::Number(m.value));
        entry.insert("unit".into(), Value::String(m.unit.into()));
        metrics.insert(m.name.clone(), Value::Object(entry));
        samples.insert(m.name.clone(), Value::Number(m.samples as f64));
    }
    let mut causes = Map::new();
    for (cause, n) in &tally.causes {
        causes.insert((*cause).into(), Value::Number(*n as f64));
    }
    let mut detail = Map::new();
    detail.insert("workload".into(), Value::String(workload.into()));
    detail.insert("samples".into(), Value::Object(samples));
    detail.insert("failed_by_cause".into(), Value::Object(causes));
    if let Some(share) = report.steal_share {
        eprintln!("perfbench {workload}: host steal share {share:.4}");
        detail.insert("host_steal_share".into(), Value::Number(share));
    }
    println!(
        "fingerprint {}",
        serde_json::to_string(&fingerprint()).expect("json")
    );
    println!(
        "detail {}",
        serde_json::to_string(&Value::Object(detail)).expect("json")
    );
    let mut result = Map::new();
    let all_finite = report.metrics.iter().all(|m| m.value.is_finite());
    result.insert(
        "correct".into(),
        Value::Bool(report.accounting_ok && all_finite),
    );
    result.insert("attempted".into(), Value::Number(tally.attempted as f64));
    result.insert("failed".into(), Value::Number(tally.failed as f64));
    result.insert("metrics".into(), Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("json")
    );
}
