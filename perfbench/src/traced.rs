//! The traced run's per-layer measurements.
//!
//! Nothing inside the program is switched on: the benchmark times its own
//! calls into each module's public functions. The engine stages come from
//! driving each query through `BatchEngine::open_sharded_sessions_cached`
//! (or the remote session the coordinator opens) and
//! `ShardedSession::step_with`, reading the `StepTimings` the session keeps
//! after every round. RPCs go through a counting `ShardTransport` wrapped
//! around `TcpTransport`; the captured frames are then replayed through
//! the protocol's encode and decode and through `ShardServerCore::serve`,
//! which splits an RPC into codec, server and transport time.

use crate::check::check_remote;
use crate::fixture::{self, Fixture, COLD_CONF, COLD_EB};
use crate::report::{Metric, Report};
use crate::stats::{mean, median};
use kg_aqp::remote::{ShardRequest, ShardResponse};
use kg_aqp::{
    config_fingerprint, graph_fingerprint, AqpEngine, BatchEngine, FleetPolicy, QueryAnswer,
    RoundOutcome, ShardFleet, ShardTransport, ShardedSession, TcpTransport, TransportError,
};
use kg_core::snapshot::{section_kind, Snapshot};
use kg_core::{Codec, DegreeBalancedPartitioner, KgResult, KnowledgeGraph, ShardedGraph};
use kg_embed::PredicateVectorStore;
use kg_query::AggregateQuery;
use kg_sampling::{SamplerCache, ShardSamplerCache};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const REPS: usize = 7;

/// How far a query's plan and round timers may fall short of its engine
/// wall time: a fixed allowance for a preemption between two timers, plus
/// a share of the wall time.
const GAP_MS: f64 = 1.0;
const GAP_SHARE: f64 = 0.05;

fn timed_ms<R>(op: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = op();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn median_ms<R>(mut op: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| timed_ms(&mut op).1).collect();
    median(&samples)
}

/// Stage times of one query, summed over its rounds.
#[derive(Default, Clone, Copy)]
pub struct QueryStages {
    pub plan_ms: f64,
    pub rounds: usize,
    pub round_ms: f64,
    pub draw_ms: f64,
    pub validate_ms: f64,
    pub bootstrap_ms: f64,
    pub draws: usize,
    /// One timer around the open and every step, read-outs included.
    pub wall_ms: f64,
    /// Time in the benchmark's own `snapshot_answer` read-outs inside
    /// `wall_ms`.
    pub readout_ms: f64,
}

impl QueryStages {
    /// Round wall time no stage timer covers.
    pub fn unattributed_ms(&self) -> f64 {
        self.round_ms - (self.draw_ms + self.validate_ms + self.bootstrap_ms)
    }

    pub fn engine_ms(&self) -> f64 {
        self.plan_ms + self.round_ms
    }

    /// Engine wall time, measured by the outer timer, that neither the plan
    /// nor a round timer covers. It is never negative, since the inner
    /// timers measure disjoint parts of the outer interval.
    pub fn gap_ms(&self) -> f64 {
        self.wall_ms - self.readout_ms - self.engine_ms()
    }

    /// Whether plan + stage times + unattributed time account for the
    /// engine wall time the outer timer measured.
    pub fn adds_up(&self) -> bool {
        let gap = self.gap_ms();
        gap >= -1e-6 && gap <= GAP_MS + GAP_SHARE * self.wall_ms
    }
}

/// Opens one session (timed as plan) and steps it to completion the way the
/// service's worker does, reading the stage deltas after each round.
pub fn drive(
    sharded: &ShardedGraph,
    similarity: &PredicateVectorStore,
    eb: f64,
    conf: f64,
    open: impl FnOnce() -> KgResult<ShardedSession>,
) -> (QueryStages, QueryAnswer) {
    let wall = Instant::now();
    let (session, plan_ms) = timed_ms(open);
    let mut session = session.expect("workload queries plan");
    let mut stages = QueryStages {
        plan_ms,
        ..QueryStages::default()
    };
    let (first, readout_ms) = timed_ms(|| session.snapshot_answer(sharded));
    let mut prev = first.timings;
    stages.readout_ms += readout_ms;
    loop {
        let (outcome, ms) = timed_ms(|| session.step_with(sharded, similarity, eb, conf));
        stages.rounds += 1;
        stages.round_ms += ms;
        let (answer, readout_ms) = timed_ms(|| session.snapshot_answer(sharded));
        stages.readout_ms += readout_ms;
        let now = answer.timings;
        stages.draw_ms += now.sampling_ms - prev.sampling_ms;
        stages.validate_ms += now.estimation_ms - prev.estimation_ms;
        stages.bootstrap_ms += now.guarantee_ms - prev.guarantee_ms;
        prev = now;
        if outcome != RoundOutcome::Continue || stages.rounds >= session.max_rounds() {
            break;
        }
    }
    stages.wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let answer = session.snapshot_answer(sharded);
    stages.draws = answer.sample_size;
    (stages, answer)
}

/// Local engine decomposition of `queries` at K shards, sampler cache as
/// given (fresh for cold-ssb, the snapshot's for hot-rw).
pub fn local_stages(
    fixture: &Fixture,
    shards: usize,
    samplers: &SamplerCache,
    queries: &[usize],
) -> Vec<QueryStages> {
    let opened = fixture::open(&fixture.graph_snapshot);
    let sharded = if shards == 1 {
        ShardedGraph::single(opened.graph)
    } else {
        ShardedGraph::new(opened.graph, &DegreeBalancedPartitioner, shards)
    };
    let batch = BatchEngine::new(fixture.engine.clone());
    let shard_samplers = ShardSamplerCache::new();
    queries
        .iter()
        .map(|&i| {
            let query: &AggregateQuery = &fixture.queries[i].query;
            drive(&sharded, &opened.similarity, COLD_EB, COLD_CONF, || {
                let (mut sessions, _) = batch.open_sharded_sessions_cached(
                    &sharded,
                    std::slice::from_ref(query),
                    &*opened.similarity,
                    samplers,
                    &shard_samplers,
                );
                sessions.pop().expect("one session per query")
            })
            .0
        })
        .collect()
}

/// Engine-stage metrics, means per query. Checks that, for every query,
/// plan + stage times + unattributed time add up to the engine wall time
/// one outer timer measured (less the benchmark's read-outs), and counts the queries whose stage timers exceed their round wall time
/// (at K ≥ 2 the session sums the stage times of strata that run in
/// parallel, so unattributed time goes negative there).
pub fn stage_metrics(stages: &[QueryStages], report: &mut Report) {
    let n = stages.len();
    let col =
        |f: fn(&QueryStages) -> f64| -> f64 { mean(&stages.iter().map(f).collect::<Vec<_>>()) };
    let mut overrun = 0;
    for (i, s) in stages.iter().enumerate() {
        if !s.adds_up() {
            eprintln!(
                "perfbench: query {i}: plan + rounds = {:.3} ms, but the engine wall time \
                 less read-outs is {:.3} ms",
                s.engine_ms(),
                s.wall_ms - s.readout_ms
            );
            report.accounting_ok = false;
        }
        overrun += usize::from(s.unattributed_ms() < 0.0);
    }
    let gaps: Vec<f64> = stages.iter().map(QueryStages::gap_ms).collect();
    eprintln!(
        "perfbench: engine wall time no plan or round timer covers: mean {:.4} ms, max {:.4} ms",
        mean(&gaps),
        gaps.iter().cloned().fold(0.0, f64::max)
    );
    if overrun > 0 {
        eprintln!(
            "perfbench: {overrun} of {n} queries' stage timers sum past their round wall time"
        );
    }
    let rounds: usize = stages.iter().map(|s| s.rounds).sum();
    let engine = col(QueryStages::engine_ms);
    eprintln!(
        "perfbench: engine split per query: plan {:.3} draw {:.3} validate {:.3} bootstrap {:.3} \
         unattributed {:.3} = {:.3} ms wall",
        col(|s| s.plan_ms),
        col(|s| s.draw_ms),
        col(|s| s.validate_ms),
        col(|s| s.bootstrap_ms),
        col(QueryStages::unattributed_ms),
        engine
    );
    report.push(Metric::new("kg-aqp.plan_ms", col(|s| s.plan_ms), "ms", n));
    report.push(Metric::new(
        "kg-aqp.rounds",
        rounds as f64 / n as f64,
        "count",
        n,
    ));
    report.push(Metric::new(
        "kg-aqp.round_ms",
        stages.iter().map(|s| s.round_ms).sum::<f64>() / rounds as f64,
        "ms",
        rounds,
    ));
    report.push(Metric::new(
        "kg-aqp.unattributed_ms",
        col(QueryStages::unattributed_ms),
        "ms",
        n,
    ));
    report.push(Metric::new("kg-aqp.engine_ms", engine, "ms", n));
    report.push(Metric::new(
        "kg-sampling.draws",
        col(|s| s.draws as f64),
        "count",
        n,
    ));
    report.push(Metric::new(
        "kg-sampling.draw_ms",
        col(|s| s.draw_ms),
        "ms",
        n,
    ));
    report.push(Metric::new(
        "kg-estimate.validate_ms",
        col(|s| s.validate_ms),
        "ms",
        n,
    ));
    report.push(Metric::new(
        "kg-estimate.bootstrap_ms",
        col(|s| s.bootstrap_ms),
        "ms",
        n,
    ));
}

/// kg-core and kg-sampling boot and write-path functions, each timed as the
/// median of several calls, plus the service constructor.
pub fn component_metrics(fixture: &Fixture, shards: usize, report: &mut Report) {
    let open_graph = || {
        let snap = Snapshot::open(&fixture.graph_snapshot).expect("graph snapshot opens");
        KnowledgeGraph::from_snapshot(&snap).expect("graph snapshot decodes")
    };
    report.push(Metric::new(
        "kg-core.snapshot_open_ms",
        median_ms(open_graph),
        "ms",
        REPS,
    ));
    let snap = Snapshot::open(&fixture.sampler_snapshot).expect("sampler snapshot opens");
    let graph = KnowledgeGraph::from_snapshot(&snap).expect("sampler snapshot decodes");
    let section = snap
        .section(section_kind::SAMPLERS)
        .expect("the sampler snapshot has a sampler section");
    report.push(Metric::new(
        "kg-sampling.sampler_decode_ms",
        median_ms(|| {
            kg_sampling::snapshot::decode_samplers(section, &graph).expect("samplers decode")
        }),
        "ms",
        REPS,
    ));
    let base = Arc::new(fixture.dataset.graph.clone());
    report.push(Metric::new(
        "kg-core.graph_clone_ms",
        median_ms(|| (*base).clone()),
        "ms",
        REPS,
    ));
    let sharded = ShardedGraph::new(Arc::clone(&base), &DegreeBalancedPartitioner, 2);
    report.push(Metric::new(
        "kg-core.repartition_ms",
        median_ms(|| sharded.repartition_preserving(Arc::clone(&base))),
        "ms",
        REPS,
    ));
    let boot = || {
        let opened = fixture::open(&fixture.sampler_snapshot);
        let t0 = Instant::now();
        let service = kg_service::Service::new(
            opened.graph,
            opened.similarity as Arc<dyn kg_embed::PredicateSimilarity>,
            fixture.service_config(shards, None),
        );
        if let Some(samplers) = opened.samplers {
            service.install_samplers(samplers).expect("samplers match");
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        service.shutdown();
        ms
    };
    let boots: Vec<f64> = (0..REPS).map(|_| boot()).collect();
    report.push(Metric::new(
        "kg-service.boot_ms",
        median(&boots),
        "ms",
        REPS,
    ));
}

/// One captured RPC.
struct Frame {
    endpoint: String,
    codec: Codec,
    request: Vec<u8>,
    response: Vec<u8>,
    ms: f64,
}

/// `TcpTransport` with a log of every exchange.
#[derive(Default)]
struct Counting {
    frames: Mutex<Vec<Frame>>,
}

impl ShardTransport for Counting {
    fn call(
        &self,
        endpoint: &str,
        codec: Codec,
        payload: &[u8],
        deadline: Instant,
    ) -> Result<(Codec, Vec<u8>), TransportError> {
        let (result, ms) = timed_ms(|| TcpTransport.call(endpoint, codec, payload, deadline));
        if let Ok((codec, response)) = &result {
            self.frames.lock().expect("frame log lock").push(Frame {
                endpoint: endpoint.to_string(),
                codec: *codec,
                request: payload.to_vec(),
                response: response.clone(),
                ms,
            });
        }
        result
    }
}

/// remote-k2's traced pass: fresh shard servers, a fleet over the counting
/// transport, every query through the coordinator's remote session, then
/// the frame replay. Returns the number of answers that differ from the
/// in-process K = 2 reference or needed a retry, hedge or timeout.
pub fn remote_metrics(fixture: &Fixture, reference: &[QueryAnswer], report: &mut Report) -> usize {
    let endpoints: Vec<String> = (0..2)
        .map(|_| {
            kg_shard::serve_protocol(fixture::shard_core(fixture), "127.0.0.1:0")
                .expect("binding a shard listener")
                .local_addr()
                .to_string()
        })
        .collect();
    let opened = fixture::open(&fixture.graph_snapshot);
    let sharded = ShardedGraph::new(opened.graph, &DegreeBalancedPartitioner, 2);
    let transport = Arc::new(Counting::default());
    let policy = FleetPolicy {
        codec: Codec::Binary,
        ..FleetPolicy::default()
    };
    let topology = fixture::topology(&endpoints);
    let fleet = Arc::new(ShardFleet::new(
        Arc::clone(&transport) as Arc<dyn ShardTransport>,
        topology.replicas,
        FleetPolicy {
            request_timeout_ms: topology.request_timeout_ms,
            hedge_after_ms: topology.hedge_after_ms,
            retry_budget: topology.retry_budget,
            ..policy
        },
    ));
    let (handshake, handshake_ms) = timed_ms(|| {
        fleet.ping_all(
            graph_fingerprint(&sharded),
            config_fingerprint(&fixture.engine),
        )
    });
    handshake.expect("fresh shard servers accept the handshake");
    let engine = AqpEngine::new(fixture.engine.clone());
    let samplers = SamplerCache::new(fixture.engine.strategy, fixture.engine.sampler_config());
    let shard_samplers = ShardSamplerCache::new();
    let mut stages = Vec::new();
    let mut mismatches = 0;
    let fleet_events = || {
        let m = fleet.metrics().snapshot();
        m.retries + m.hedges + m.timeouts
    };
    for (i, q) in fixture.queries.iter().enumerate() {
        let before = fleet_events();
        let (s, answer) = drive(&sharded, &opened.similarity, COLD_EB, COLD_CONF, || {
            engine.open_remote_session_cached(
                &sharded,
                &q.query,
                &*opened.similarity,
                Arc::clone(&fleet),
                Some(&samplers),
                Some(&shard_samplers),
                None,
            )
        });
        stages.push(s);
        let events = fleet_events() - before;
        mismatches += usize::from(check_remote(&answer, &reference[i], events).is_some());
    }
    stage_metrics(&stages, report);
    let fleet_counts = fleet.metrics().snapshot();
    let frames = std::mem::take(&mut *transport.frames.lock().expect("frame log lock"));

    // Replay: per endpoint, a fresh core serves the captured requests in
    // order, reproducing the server's plan and session state. (Responses
    // carry the server's own stage timings, so the replayed bytes are not
    // compared with the captured ones.)
    let mut cores: BTreeMap<String, Arc<kg_aqp::ShardServerCore>> = BTreeMap::new();
    let (mut codec_ms, mut server_ms, mut transport_ms) = (Vec::new(), Vec::new(), Vec::new());
    for frame in &frames {
        let core = cores
            .entry(frame.endpoint.clone())
            .or_insert_with(|| fixture::shard_core(fixture));
        let (_, serve_ms) = timed_ms(|| core.serve(frame.codec, &frame.request));
        let (request, dec_req) = timed_ms(|| {
            ShardRequest::decode(frame.codec, &frame.request).expect("captured request")
        });
        let (_, enc_req) = timed_ms(|| request.encode(frame.codec));
        let (response, dec_resp) = timed_ms(|| {
            ShardResponse::decode(frame.codec, &frame.response).expect("captured response")
        });
        let (_, enc_resp) = timed_ms(|| response.encode(frame.codec));
        codec_ms.push(dec_req + enc_req + dec_resp + enc_resp);
        server_ms.push(serve_ms - dec_req - enc_resp);
        transport_ms.push(frame.ms - serve_ms);
    }
    let n = frames.len();
    let bytes =
        |f: fn(&Frame) -> usize| mean(&frames.iter().map(|x| f(x) as f64).collect::<Vec<_>>());
    report.push(Metric::new(
        "kg-aqp.remote.handshake_ms",
        handshake_ms,
        "ms",
        1,
    ));
    report.push(Metric::new("kg-aqp.remote.rpcs", n as f64, "count", 1));
    report.push(Metric::new(
        "kg-aqp.remote.request_bytes",
        bytes(|f| f.request.len()),
        "B",
        n,
    ));
    report.push(Metric::new(
        "kg-aqp.remote.response_bytes",
        bytes(|f| f.response.len()),
        "B",
        n,
    ));
    report.push(Metric::new(
        "kg-aqp.remote.rpc_ms",
        mean(&frames.iter().map(|f| f.ms).collect::<Vec<_>>()),
        "ms",
        n,
    ));
    report.push(Metric::new(
        "kg-aqp.remote.codec_ms",
        mean(&codec_ms),
        "ms",
        n,
    ));
    report.push(Metric::new(
        "kg-aqp.remote.server_ms",
        mean(&server_ms),
        "ms",
        n,
    ));
    report.push(Metric::new(
        "kg-aqp.remote.transport_ms",
        mean(&transport_ms),
        "ms",
        n,
    ));
    report.push(Metric::new(
        "kg-aqp.remote.retries",
        fleet_counts.retries as f64,
        "count",
        1,
    ));
    report.push(Metric::new(
        "kg-aqp.remote.hedges",
        fleet_counts.hedges as f64,
        "count",
        1,
    ));
    report.push(Metric::new(
        "kg-aqp.remote.timeouts",
        fleet_counts.timeouts as f64,
        "count",
        1,
    ));
    mismatches
}

/// The remote per-layer metrics on a workload that makes no RPC: zero.
pub fn no_remote(report: &mut Report) {
    for name in [
        "handshake_ms",
        "rpcs",
        "request_bytes",
        "response_bytes",
        "rpc_ms",
        "codec_ms",
        "server_ms",
        "transport_ms",
        "retries",
        "hedges",
        "timeouts",
    ] {
        let unit = if name.ends_with("_ms") {
            "ms"
        } else if name.ends_with("_bytes") {
            "B"
        } else {
            "count"
        };
        report.push(Metric::new(&format!("kg-aqp.remote.{name}"), 0.0, unit, 0));
    }
}
