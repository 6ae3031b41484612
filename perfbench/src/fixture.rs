//! The benchmark's inputs and the boot paths it times.
//!
//! Every workload serves the DBpedia-like profile at tiny scale, the dataset
//! `kg-serve` and `kg-shard` generate themselves. The dataset seed is fixed
//! (`DATASET_SEED`), so the set of answers the engine gets wrong does not
//! depend on `--seed`; `--seed` drives the order of the queries, the
//! popularity skew, the targets and the writes.

use kg_aqp::{BatchEngine, EngineConfig, ShardServerCore};
use kg_core::snapshot::SnapshotOptions;
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{
    build_workload, generate, profiles, DatasetScale, GeneratedDataset, QueryCategory,
    WorkloadConfig,
};
use kg_embed::{PredicateSimilarity, PredicateVectorStore};
use kg_query::{AggregateQuery, QueryShape};
use kg_sampling::{SamplerCache, SnapshotBundle};
use kg_service::{HttpServer, RemoteTopology, Service, ServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the generated dataset (the one the known-fault figures in the
/// README were measured on).
pub const DATASET_SEED: u64 = 11;
/// Targets every cold-ssb and remote-k2 query is asked at.
pub const COLD_EB: f64 = 0.05;
pub const COLD_CONF: f64 = 0.95;

/// One workload query with the metadata the checks and reports need.
#[derive(Clone, Debug)]
pub struct BenchQuery {
    pub id: String,
    pub domain: String,
    pub shape: QueryShape,
    pub category: QueryCategory,
    pub query: AggregateQuery,
}

impl BenchQuery {
    /// MAX and MIN carry no accuracy guarantee; they are only checked for
    /// having been answered.
    pub fn guaranteed(&self) -> bool {
        self.query.function.has_accuracy_guarantee()
    }

    pub fn grouped(&self) -> bool {
        self.query.group_by.is_some()
    }
}

/// Dataset, queries and the snapshot files the services boot from.
pub struct Fixture {
    pub dataset: GeneratedDataset,
    pub queries: Vec<BenchQuery>,
    pub engine: EngineConfig,
    /// Graph and similarity store, no samplers.
    pub graph_snapshot: PathBuf,
    /// Graph, similarity store and the samplers of every query, prepared.
    pub sampler_snapshot: PathBuf,
}

impl Fixture {
    pub fn build(dir: &Path) -> Fixture {
        let dataset = generate(&profiles::dbpedia_like(DatasetScale::tiny(), DATASET_SEED));
        let queries: Vec<BenchQuery> = build_workload(&dataset, &WorkloadConfig::default())
            .into_iter()
            .map(|q| BenchQuery {
                id: q.id,
                domain: q.domain,
                shape: q.shape,
                category: q.category,
                query: q.query,
            })
            .collect();
        let engine = EngineConfig {
            error_bound: COLD_EB,
            confidence: COLD_CONF,
            ..EngineConfig::default()
        };
        std::fs::create_dir_all(dir).expect("creating the benchmark scratch directory");
        let graph_snapshot = dir.join("graph.kgsnap");
        let sampler_snapshot = dir.join("samplers.kgsnap");
        let options = SnapshotOptions {
            compress_csr: false,
        };
        kg_sampling::write_bundle(
            &graph_snapshot,
            &dataset.graph,
            &options,
            Some(&dataset.oracle),
            None,
        )
        .expect("writing the graph-only snapshot");
        let samplers = SamplerCache::new(engine.strategy, engine.sampler_config());
        let all: Vec<AggregateQuery> = queries.iter().map(|q| q.query.clone()).collect();
        let _ = BatchEngine::new(engine.clone()).open_sessions_cached(
            &dataset.graph,
            &all,
            &dataset.oracle,
            &samplers,
        );
        kg_sampling::write_bundle(
            &sampler_snapshot,
            &dataset.graph,
            &options,
            Some(&dataset.oracle),
            Some(&samplers),
        )
        .expect("writing the sampler snapshot");
        Fixture {
            dataset,
            queries,
            engine,
            graph_snapshot,
            sampler_snapshot,
        }
    }

    pub fn service_config(&self, shards: usize, remote: Option<RemoteTopology>) -> ServiceConfig {
        let mut builder = ServiceConfig::builder()
            .engine(self.engine.clone())
            .workers(1)
            .shards(shards);
        if let Some(topology) = remote {
            builder = builder.remote(topology);
        }
        builder
            .build()
            .expect("benchmark service configuration is valid")
    }
}

/// A snapshot opened the way `kg-serve` opens it.
pub struct Opened {
    pub graph: Arc<kg_core::KnowledgeGraph>,
    pub similarity: Arc<PredicateVectorStore>,
    pub samplers: Option<SamplerCache>,
}

pub fn open(path: &Path) -> Opened {
    let SnapshotBundle {
        graph,
        similarity,
        samplers,
        ..
    } = kg_sampling::open_bundle(path).expect("opening a benchmark snapshot");
    Opened {
        graph: Arc::new(graph),
        similarity: Arc::new(similarity.expect("benchmark snapshots carry similarity")),
        samplers,
    }
}

/// An in-process service booted from a snapshot, with the seconds it took.
pub fn boot_service(fixture: &Fixture, path: &Path, shards: usize) -> (Arc<Service>, f64) {
    let t0 = Instant::now();
    let opened = open(path);
    let service = Service::new(
        opened.graph,
        opened.similarity as Arc<dyn PredicateSimilarity>,
        fixture.service_config(shards, None),
    );
    if let Some(samplers) = opened.samplers {
        service
            .install_samplers(samplers)
            .expect("snapshot samplers match the benchmark engine config");
    }
    service.mark_ready();
    (Arc::new(service), t0.elapsed().as_secs_f64())
}

/// The hot-rw server: a K = 2 service with prebuilt samplers behind HTTP.
pub fn boot_http(fixture: &Fixture) -> (Arc<Service>, HttpServer, f64) {
    let t0 = Instant::now();
    let (service, _) = boot_service(fixture, &fixture.sampler_snapshot, 2);
    let server = HttpServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("binding loopback");
    (service, server, t0.elapsed().as_secs_f64())
}

/// One shard server core over a freshly opened graph-only snapshot,
/// partitioned exactly as the coordinator partitions.
pub fn shard_core(fixture: &Fixture) -> Arc<ShardServerCore> {
    let opened = open(&fixture.graph_snapshot);
    let sharded = Arc::new(ShardedGraph::new(
        opened.graph,
        &DegreeBalancedPartitioner,
        2,
    ));
    Arc::new(ShardServerCore::new(
        fixture.engine.clone(),
        sharded,
        opened.similarity as Arc<dyn PredicateSimilarity + Send + Sync>,
    ))
}

/// The fleet policy `kg-serve` uses by default.
pub fn topology(endpoints: &[String]) -> RemoteTopology {
    RemoteTopology {
        replicas: endpoints.iter().map(|e| vec![e.clone()]).collect(),
        request_timeout_ms: 2000,
        hedge_after_ms: 150,
        retry_budget: 2,
        binary_codec: true,
    }
}

/// The remote-k2 stack: two fresh shard servers on loopback and a
/// coordinator service in front of them, handshaken and ready.
pub fn boot_remote(fixture: &Fixture) -> (Arc<Service>, f64) {
    let t0 = Instant::now();
    let endpoints: Vec<String> = (0..2)
        .map(|_| {
            let listener = kg_shard::serve_protocol(shard_core(fixture), "127.0.0.1:0")
                .expect("binding a shard listener on loopback");
            listener.local_addr().to_string()
        })
        .collect();
    let opened = open(&fixture.graph_snapshot);
    let service = Service::new(
        opened.graph,
        opened.similarity as Arc<dyn PredicateSimilarity>,
        fixture.service_config(2, Some(topology(&endpoints))),
    );
    service
        .remote_handshake()
        .expect("fresh loopback shard servers accept the handshake");
    service.mark_ready();
    (Arc::new(service), t0.elapsed().as_secs_f64())
}
