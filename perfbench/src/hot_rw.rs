//! hot-rw: popularity-skewed repeats of the same queries over HTTP, with
//! mixed targets and a fixed share of writes.
//!
//! One K = 2 service with prebuilt samplers serves `HttpServer` on
//! loopback; one closed-loop client thread sends the ops of a round, and
//! every round repeats the same op list. Writes come in pairs: the first
//! applies a toggle, a later one undoes it, so each round starts and ends
//! on the generated graph. Three toggles delete an edge that a popular
//! query's answer depends on (the answer changes, the cache must evict),
//! one links two new entities by a predicate no query names (nothing
//! should be evicted).
//!
//! Only simple queries without a filter are asked here. Chain and flower
//! answers miss τ-GT (README, F2); star, cycle and filtered AVG answers can
//! come back with a near-zero or zero width that misses τ-GT (F1), at K = 2
//! too once the targets differ from (0.05, 0.95). Whether a given repeat
//! misses depends on the targets and the write history the seed produced,
//! so the share of failed operations would change from seed to seed. Every
//! one of those queries is asked, and its failures counted, on cold-ssb and
//! remote-k2.

use crate::check::{check_answer, Asked, Cause, Tally};
use crate::fixture::{self, Fixture};
use crate::report::{host_ticks, steal_since, Metric, Report};
use crate::stats::{mean, median, median_of_quantiles, quantile, quiet_passes, SplitMix};
use crate::truth::{Oracle, VersionKey};
use kg_aqp::QueryAnswer;
use kg_datagen::QueryCategory;
use kg_query::{GroundTruthConfig, QueryShape, SsbEngine};
use kg_service::{http_request, QueryRequest, Service, WriteOp, WriteRequest};
use serde_json::Value;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads of the most popular query per round (Zipf: rank r gets
/// `READS_TOP / (r + 1)`), and one write after every `WRITE_EVERY` reads.
const READS_TOP: usize = 100;
const WRITE_EVERY: usize = 30;
/// Boots per run; `setup_s` is their median.
const BOOTS: usize = 21;
/// Request targets `(error_bound, confidence, share of reads)`: a mix that makes
/// hits (looser than cached), resumes (tighter) and fresh plans occur.
const TARGETS: [(f64, f64, f64); 4] = [
    (0.05, 0.95, 0.50),
    (0.10, 0.95, 0.20),
    (0.02, 0.95, 0.15),
    (0.05, 0.99, 0.15),
];
const TIMEOUT: Duration = Duration::from_secs(120);

/// An edge a write pair deletes and restores, or adds and removes.
#[derive(Clone, Debug)]
pub struct Toggle {
    pub subject: String,
    pub predicate: String,
    pub object: String,
    /// True when the edge exists in the generated graph (apply deletes it).
    pub in_base: bool,
}

impl Toggle {
    fn ops(&self, apply: bool) -> Vec<WriteOp> {
        let (subject, predicate, object) = (
            self.subject.clone(),
            self.predicate.clone(),
            self.object.clone(),
        );
        vec![if apply != self.in_base {
            WriteOp::UpsertEdge {
                subject,
                predicate,
                object,
            }
        } else {
            WriteOp::DeleteEdge {
                subject,
                predicate,
                object,
            }
        }]
    }
}

#[derive(Clone, Debug)]
pub enum Op {
    Read { query: usize, eb: f64, conf: f64 },
    Write { toggle: usize, apply: bool },
}

/// The queries hot-rw asks: simple queries without a filter (plain,
/// GROUP-BY, MAX/MIN).
pub fn hot_queries(fixture: &Fixture) -> Vec<usize> {
    (0..fixture.queries.len())
        .filter(|&i| {
            let q = &fixture.queries[i];
            q.shape == QueryShape::Simple && q.category != QueryCategory::Filtered
        })
        .collect()
}

/// One toggle per domain that changes τ-GT of the domain's first plain
/// query (the seed picks which of the hub's correct answers loses its
/// edge), plus one that touches nothing any query names.
pub fn toggles(fixture: &Fixture, rng: &mut SplitMix) -> Vec<Toggle> {
    let graph = &fixture.dataset.graph;
    let ssb = SsbEngine::new(GroundTruthConfig {
        tau: fixture.engine.tau,
        n_bound: fixture.engine.n_bound,
        ..GroundTruthConfig::default()
    });
    let mut out = Vec::new();
    let mut domains: Vec<&str> = Vec::new();
    for q in &fixture.queries {
        if q.shape != QueryShape::Simple
            || q.category != QueryCategory::Plain
            || domains.contains(&q.domain.as_str())
        {
            continue;
        }
        domains.push(&q.domain);
        let footprint = q.query.footprint();
        let (Some(hub), Some(predicate)) =
            (footprint.entities.first(), footprint.predicates.first())
        else {
            continue;
        };
        let correct: BTreeSet<_> = ssb
            .evaluate(graph, &q.query, &fixture.dataset.oracle)
            .expect("workload queries resolve")
            .ground_truth
            .correct
            .into_iter()
            .collect();
        let edges: Vec<Toggle> = graph
            .triples()
            .iter()
            .filter(|t| graph.predicate_name(t.predicate) == predicate)
            .filter(|t| {
                (graph.entity(t.subject).name == *hub && correct.contains(&t.object))
                    || (graph.entity(t.object).name == *hub && correct.contains(&t.subject))
            })
            .map(|t| Toggle {
                subject: graph.entity(t.subject).name.clone(),
                predicate: predicate.clone(),
                object: graph.entity(t.object).name.clone(),
                in_base: true,
            })
            .collect();
        if !edges.is_empty() {
            out.push(edges[rng.below(edges.len())].clone());
        }
    }
    out.push(Toggle {
        subject: "perfbench_note_a".into(),
        predicate: "perfbench_note".into(),
        object: "perfbench_note_b".into(),
        in_base: false,
    });
    out
}

/// The popularity ranking: queries interleaved across (domain, category)
/// groups, so the top ranks always span every domain and every operator
/// class and the cost of a round does not hinge on which query the seed
/// happened to make most popular.
fn ranking(fixture: &Fixture) -> Vec<usize> {
    let mut groups: Vec<((String, &'static str), Vec<usize>)> = Vec::new();
    for i in hot_queries(fixture) {
        let q = &fixture.queries[i];
        let key = (q.domain.clone(), q.category.name());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut ranked = Vec::new();
    for depth in 0.. {
        let before = ranked.len();
        ranked.extend(groups.iter().filter_map(|(_, m)| m.get(depth)));
        if ranked.len() == before {
            break;
        }
    }
    ranked
}

/// One round's op list. Query `r` of the ranking is read
/// `⌈READS_TOP / (r + 1)⌉` times (Zipf popularity); the reads take the
/// targets of `TARGETS` in their exact shares; the seed shuffles which
/// read gets which target and the order of the reads. A write lands every
/// `WRITE_EVERY` ops, applying and then undoing each toggle twice in a
/// seed-shuffled order.
pub fn round(fixture: &Fixture, toggle_count: usize, rng: &mut SplitMix) -> Vec<Op> {
    let ranked = ranking(fixture);
    let mut reads: Vec<usize> = Vec::new();
    for (r, &query) in ranked.iter().enumerate() {
        let n = (READS_TOP as f64 / (r + 1) as f64).ceil() as usize;
        reads.extend(std::iter::repeat_n(query, n));
    }
    let mut targets: Vec<(f64, f64)> = Vec::with_capacity(reads.len());
    for (i, &(eb, conf, share)) in TARGETS.iter().enumerate() {
        let n = if i + 1 == TARGETS.len() {
            reads.len() - targets.len()
        } else {
            (share * reads.len() as f64).round() as usize
        };
        targets.extend(std::iter::repeat_n((eb, conf), n));
    }
    rng.shuffle(&mut targets);
    rng.shuffle(&mut reads);
    let mut pairs: Vec<usize> = (0..toggle_count).chain(0..toggle_count).collect();
    rng.shuffle(&mut pairs);
    let writes: Vec<Op> = pairs
        .iter()
        .flat_map(|&toggle| [true, false].map(|apply| Op::Write { toggle, apply }))
        .collect();
    let mut ops = Vec::with_capacity(reads.len() + writes.len());
    let mut writes = writes.into_iter();
    for (i, (query, (eb, conf))) in reads.into_iter().zip(targets).enumerate() {
        if i % WRITE_EVERY == WRITE_EVERY - 1 {
            ops.extend(writes.next());
        }
        ops.push(Op::Read { query, eb, conf });
    }
    ops.extend(writes);
    ops
}

/// A served read as the HTTP client saw it.
pub struct Served {
    pub served_from: String,
    pub answer: QueryAnswer,
    pub queue_ms: f64,
    pub total_ms: f64,
    pub bytes: usize,
}

enum Rec {
    Read {
        query: usize,
        eb: f64,
        conf: f64,
        version: VersionKey,
        result: Result<Served, String>,
        ms: f64,
        measured: bool,
    },
    Write {
        ops: Vec<WriteOp>,
        version: VersionKey,
        ok: bool,
        ms: f64,
        measured: bool,
    },
}

fn parse_served(body: &str) -> Result<Served, String> {
    let value: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let field = |name: &str| value.get(name).and_then(Value::as_f64).unwrap_or(f64::NAN);
    Ok(Served {
        served_from: value
            .get("served_from")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        answer: QueryAnswer::from_json(value.get("answer").ok_or("no answer field")?)
            .map_err(|e| e.to_string())?,
        queue_ms: field("queue_ms"),
        total_ms: field("total_ms"),
        bytes: body.len(),
    })
}

fn read(addr: SocketAddr, request: &QueryRequest) -> Result<Served, String> {
    let body = serde_json::to_string(&request.to_json()).map_err(|e| e.to_string())?;
    match http_request(addr, "POST", "/query", &body, TIMEOUT) {
        Ok((200, text)) => parse_served(&text),
        Ok((status, text)) => Err(format!("HTTP {status}: {text}")),
        Err(e) => Err(e.to_string()),
    }
}

fn write(addr: SocketAddr, ops: &[WriteOp]) -> bool {
    let body = serde_json::to_string(&WriteRequest::new(ops.to_vec()).to_json())
        .expect("write requests serialise");
    matches!(
        http_request(addr, "POST", "/v2/write", &body, TIMEOUT),
        Ok((200, _))
    )
}

pub struct HotRun {
    recs: Vec<Rec>,
    setup_s: Vec<f64>,
    /// Wall time of each measured round.
    round_s: Vec<f64>,
    /// Share of host CPU ticks stolen during each measured round.
    round_steal: Vec<f64>,
    rounds: usize,
    toggles: Vec<Toggle>,
    schedule: Vec<Op>,
    before: kg_service::MetricsSnapshot,
    after: kg_service::MetricsSnapshot,
}

fn run_round(
    addr: SocketAddr,
    fixture: &Fixture,
    toggles: &[Toggle],
    schedule: &[Op],
    applied: &mut BTreeSet<usize>,
    measured: bool,
    recs: &mut Vec<Rec>,
) {
    for op in schedule {
        match *op {
            Op::Read { query, eb, conf } => {
                let request = QueryRequest::new(fixture.queries[query].query.clone(), eb, conf);
                let t0 = Instant::now();
                let result = read(addr, &request);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                recs.push(Rec::Read {
                    query,
                    eb,
                    conf,
                    version: applied.iter().copied().collect(),
                    result,
                    ms,
                    measured,
                });
            }
            Op::Write { toggle, apply } => {
                let ops = toggles[toggle].ops(apply);
                let t0 = Instant::now();
                let ok = write(addr, &ops);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if apply {
                    applied.insert(toggle);
                } else {
                    applied.remove(&toggle);
                }
                recs.push(Rec::Write {
                    ops,
                    version: applied.iter().copied().collect(),
                    ok,
                    ms,
                    measured,
                });
            }
        }
    }
}

pub fn run(fixture: &Fixture, seed: u64, seconds: f64, smoke: bool) -> HotRun {
    let mut rng = SplitMix(seed ^ 0x5EED_0002);
    let toggles = toggles(fixture, &mut rng);
    let schedule = round(fixture, toggles.len(), &mut rng);
    let mut setup_s = Vec::new();
    let mut stack: Option<(Arc<Service>, kg_service::HttpServer)> = None;
    for _ in 0..BOOTS {
        if let Some((service, mut server)) = stack.take() {
            server.shutdown();
            service.shutdown();
        }
        let (service, server, s) = fixture::boot_http(fixture);
        setup_s.push(s);
        stack = Some((service, server));
    }
    let (service, mut server) = stack.expect("booted at least once");
    let addr = server.local_addr();
    let mut applied = BTreeSet::new();
    let mut recs = Vec::new();
    if !smoke {
        run_round(
            addr,
            fixture,
            &toggles,
            &schedule,
            &mut applied,
            false,
            &mut recs,
        );
    }
    let before = service.metrics();
    let start = Instant::now();
    let mut round_s = Vec::new();
    let mut round_steal = Vec::new();
    loop {
        let round_start = Instant::now();
        let ticks = host_ticks();
        run_round(
            addr,
            fixture,
            &toggles,
            &schedule,
            &mut applied,
            true,
            &mut recs,
        );
        round_s.push(round_start.elapsed().as_secs_f64());
        round_steal.push(steal_since(ticks));
        if smoke || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let after = service.metrics();
    server.shutdown();
    service.shutdown();
    HotRun {
        recs,
        setup_s,
        rounds: round_s.len(),
        round_s,
        round_steal,
        toggles,
        schedule,
        before,
        after,
    }
}

/// Replays the write log on the oracle's graph, then checks every
/// measured operation.
pub fn check(fixture: &Fixture, run: &HotRun) -> Tally {
    let mut oracle = Oracle::new(fixture);
    let mut truths = Vec::with_capacity(run.recs.len());
    for rec in &run.recs {
        match rec {
            Rec::Write { ops, version, .. } => {
                oracle.replay(ops, version);
                truths.push(f64::NAN);
            }
            Rec::Read { query, version, .. } => {
                debug_assert_eq!(oracle.version(), version);
                truths.push(oracle.truth(*query).value);
            }
        }
    }
    let mut tally = Tally::default();
    for (rec, truth) in run.recs.iter().zip(truths) {
        match rec {
            Rec::Write { ok, measured, .. } => {
                if *measured {
                    tally.record("write", (!ok).then_some(Cause::Error));
                }
            }
            Rec::Read {
                query,
                eb,
                conf,
                version,
                result,
                measured,
                ..
            } => {
                if !*measured {
                    continue;
                }
                let q = &fixture.queries[*query];
                let outcome = match result {
                    Err(_) => Some(Cause::Error),
                    Ok(served) => {
                        let asked = Asked {
                            query: q,
                            eb: *eb,
                            conf: *conf,
                            hit: served.served_from == "cache_hit",
                        };
                        let earlier = oracle.other_versions(*query, version);
                        let outcome = check_answer(&asked, &served.answer, truth, &earlier);
                        if let Some(cause) = outcome {
                            eprintln!(
                                "perfbench hot-rw: {} {} at eb {eb} conf {conf} served {}: \
                                 {} ± {} vs τ-GT {truth} (version {version:?})",
                                q.id,
                                cause.name(),
                                served.served_from,
                                served.answer.estimate,
                                served.answer.moe
                            );
                        }
                        outcome
                    }
                };
                tally.record(&q.id, outcome);
            }
        }
    }
    tally
}

fn reads<'a>(run: &'a HotRun) -> impl Iterator<Item = (&'a Served, f64)> + 'a {
    run.recs.iter().filter_map(|rec| match rec {
        Rec::Read {
            result: Ok(served),
            ms,
            measured: true,
            ..
        } => Some((served, *ms)),
        _ => None,
    })
}

/// Client latencies of the measured reads that `keep` selects, one vector
/// per round.
fn per_round(run: &HotRun, keep: impl Fn(&Served) -> bool) -> Vec<Vec<f64>> {
    let measured: Vec<&Rec> = run
        .recs
        .iter()
        .filter(|rec| {
            matches!(
                rec,
                Rec::Read { measured: true, .. } | Rec::Write { measured: true, .. }
            )
        })
        .collect();
    measured
        .chunks(run.schedule.len())
        .map(|round| {
            round
                .iter()
                .filter_map(|rec| match rec {
                    Rec::Read {
                        result: Ok(served),
                        ms,
                        ..
                    } if keep(served) => Some(*ms),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// p50 and p90 of the selected reads: the quantile within each round, then
/// the median over rounds. Reports the pooled sample count.
fn round_quantiles(run: &HotRun, report: &mut Report, names: [&str; 2], keep: fn(&Served) -> bool) {
    let quiet = quiet_passes(&run.round_steal);
    let rounds: Vec<Vec<f64>> = per_round(run, keep)
        .into_iter()
        .zip(&quiet)
        .filter_map(|(round, &q)| q.then_some(round))
        .collect();
    let samples = rounds.iter().map(Vec::len).sum();
    for (name, q) in names.into_iter().zip([0.5, 0.9]) {
        report.push(Metric::new(
            name,
            median_of_quantiles(rounds.iter().map(Vec::as_slice), q),
            "ms",
            samples,
        ));
    }
}

fn is_hit(served: &Served) -> bool {
    served.served_from == "cache_hit"
}

/// `qps` counts reads only, over rounds that include the writes, and takes
/// the median of the rounds in which the host stole the least CPU (see
/// `stats::quiet_passes`). `query_p50_ms` and `query_p90_ms` are the client
/// latencies of the reads the engine answered (fresh plans and resumes),
/// as on the other workloads; hits and writes have latency modes of their
/// own and are reported by the traced run.
pub fn end_to_end(run: &HotRun, report: &mut Report) {
    let n_reads = reads(run).count();
    let reads_per_round = n_reads as f64 / run.rounds as f64;
    let quiet_s: Vec<f64> = run
        .round_s
        .iter()
        .zip(quiet_passes(&run.round_steal))
        .filter_map(|(&s, q)| q.then_some(s))
        .collect();
    report.push(Metric::new(
        "setup_s",
        median(&run.setup_s),
        "s",
        run.setup_s.len(),
    ));
    report.push(Metric::new(
        "qps",
        reads_per_round / median(&quiet_s),
        "1/s",
        quiet_s.len(),
    ));
    round_quantiles(run, report, ["query_p50_ms", "query_p90_ms"], |s| {
        !is_hit(s)
    });
}

/// The kg-service layer as hot-rw exercises it.
pub fn per_layer(fixture: &Fixture, run: &HotRun, report: &mut Report) {
    let rounds = run.rounds as f64;
    let per_round = |after: usize, before: usize| (after - before) as f64 / rounds;
    let (b, a) = (&run.before, &run.after);
    let all: Vec<(&Served, f64)> = reads(run).collect();
    let misses: Vec<&(&Served, f64)> = all.iter().filter(|(s, _)| !is_hit(s)).collect();
    let capped = all
        .iter()
        .filter(|(s, _)| {
            s.served_from == "cache_resume"
                && s.answer.sample_size >= fixture.engine.max_sample_size
        })
        .count();
    let writes: Vec<f64> = run
        .recs
        .iter()
        .filter_map(|rec| match rec {
            Rec::Write {
                ms, measured: true, ..
            } => Some(*ms),
            _ => None,
        })
        .collect();
    let n = all.len();
    let queue: Vec<f64> = all.iter().map(|(s, _)| s.queue_ms).collect();
    let service: Vec<f64> = misses
        .iter()
        .map(|(s, _)| s.total_ms - s.queue_ms)
        .collect();
    let http: Vec<f64> = all.iter().map(|(s, ms)| ms - s.total_ms).collect();
    let bytes: Vec<f64> = all.iter().map(|(s, _)| s.bytes as f64).collect();
    let push = |report: &mut Report, name: &str, v: f64, unit: &'static str, n: usize| {
        report.push(Metric::new(name, v, unit, n))
    };
    push(report, "kg-service.queue_ms", mean(&queue), "ms", n);
    push(
        report,
        "kg-service.service_ms",
        mean(&service),
        "ms",
        service.len(),
    );
    push(
        report,
        "kg-service.hits",
        per_round(a.cache.hits, b.cache.hits),
        "count",
        run.rounds,
    );
    push(
        report,
        "kg-service.resumes",
        per_round(a.cache.resumes, b.cache.resumes),
        "count",
        run.rounds,
    );
    push(
        report,
        "kg-service.misses",
        per_round(a.cache.misses, b.cache.misses),
        "count",
        run.rounds,
    );
    push(
        report,
        "kg-service.resumes_capped",
        capped as f64 / rounds,
        "count",
        run.rounds,
    );
    push(
        report,
        "kg-service.answers_evicted",
        (a.answers_evicted - b.answers_evicted) as f64 / rounds,
        "count",
        run.rounds,
    );
    push(
        report,
        "kg-service.samplers_evicted",
        (a.samplers_evicted - b.samplers_evicted) as f64 / rounds,
        "count",
        run.rounds,
    );
    push(
        report,
        "kg-sampling.prepares",
        per_round(a.sampler_cache.misses, b.sampler_cache.misses),
        "count",
        run.rounds,
    );
    push(report, "kg-service.http_ms", mean(&http), "ms", n);
    push(report, "kg-service.response_bytes", mean(&bytes), "B", n);
    round_quantiles(
        run,
        report,
        ["kg-service.hit_p50_ms", "kg-service.hit_p90_ms"],
        is_hit,
    );
    push(
        report,
        "kg-service.write_p50_ms",
        quantile(&writes, 0.5),
        "ms",
        writes.len(),
    );
    push(
        report,
        "kg-service.apply_write_ms",
        apply_write_ms(fixture, run),
        "ms",
        run.schedule.len() / WRITE_EVERY,
    );
}

/// Median time of `Service::apply_write` for the round's writes, replayed
/// in order on an in-process replica of the hot-rw service.
fn apply_write_ms(fixture: &Fixture, run: &HotRun) -> f64 {
    let (replica, _) = fixture::boot_service(fixture, &fixture.sampler_snapshot, 2);
    let mut times = Vec::new();
    for op in &run.schedule {
        if let Op::Write { toggle, apply } = *op {
            let request = WriteRequest::new(run.toggles[toggle].ops(apply));
            let t0 = Instant::now();
            replica
                .apply_write(request)
                .expect("an in-process K = 2 service accepts writes");
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    replica.shutdown();
    median(&times)
}
