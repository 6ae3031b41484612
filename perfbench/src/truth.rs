//! Exact τ-ground truth, computed apart from the serving path.
//!
//! The oracle keeps its own copy of the generated graph and replays the
//! hot-rw write log on it through kg-core's public write calls, then runs
//! the exhaustive `SsbEngine` (Algorithm 1) for each pair of query and
//! graph version the run asked about. Nothing the service returns is ever
//! stored as truth. A graph version is named by the set of toggles applied
//! (see `hot_rw::Toggle`): re-adding a deleted edge restores the same edge
//! set, so versions with the same key have the same τ-ground truth.

use crate::fixture::{BenchQuery, Fixture};
use kg_core::KnowledgeGraph;
use kg_query::{GroundTruthConfig, SsbEngine};
use kg_service::WriteOp;
use std::collections::{BTreeMap, HashMap};

/// The version key: ids of the toggles applied, sorted.
pub type VersionKey = Vec<usize>;

#[derive(Clone, Debug, PartialEq)]
pub struct Truth {
    pub value: f64,
    pub groups: BTreeMap<i64, f64>,
}

pub struct Oracle<'a> {
    fixture: &'a Fixture,
    ssb: SsbEngine,
    graph: KnowledgeGraph,
    version: VersionKey,
    memo: HashMap<(usize, VersionKey), Truth>,
}

impl<'a> Oracle<'a> {
    pub fn new(fixture: &'a Fixture) -> Self {
        let config = GroundTruthConfig {
            tau: fixture.engine.tau,
            n_bound: fixture.engine.n_bound,
            ..GroundTruthConfig::default()
        };
        Oracle {
            fixture,
            ssb: SsbEngine::new(config),
            graph: fixture.dataset.graph.clone(),
            version: Vec::new(),
            memo: HashMap::new(),
        }
    }

    pub fn version(&self) -> &VersionKey {
        &self.version
    }

    /// Applies one logged write to the oracle's graph and moves to the
    /// version the write leads to.
    pub fn replay(&mut self, ops: &[WriteOp], version: &VersionKey) {
        for op in ops {
            match op {
                WriteOp::UpsertEntity { name, types } => {
                    let types: Vec<&str> = types.iter().map(String::as_str).collect();
                    self.graph.upsert_entity(name, &types);
                }
                WriteOp::UpsertEdge {
                    subject,
                    predicate,
                    object,
                } => {
                    self.graph.upsert_edge_by_name(subject, predicate, object);
                }
                WriteOp::DeleteEdge {
                    subject,
                    predicate,
                    object,
                } => {
                    self.graph.delete_edge_by_name(subject, predicate, object);
                }
            }
        }
        self.version = version.clone();
    }

    /// τ-GT of query `index` on the current version (memoised per pair).
    pub fn truth(&mut self, index: usize) -> Truth {
        let key = (index, self.version.clone());
        if let Some(t) = self.memo.get(&key) {
            return t.clone();
        }
        let query: &BenchQuery = &self.fixture.queries[index];
        let result = self
            .ssb
            .evaluate(&self.graph, &query.query, &self.fixture.dataset.oracle)
            .expect("every workload query resolves on the generated graph");
        let truth = Truth {
            value: result.value,
            groups: result.groups,
        };
        self.memo.insert(key, truth.clone());
        truth
    }

    /// Every τ-GT value already computed for `index` on other versions
    /// (used to tell a stale hit from a plain miss).
    pub fn other_versions(&self, index: usize, version: &VersionKey) -> Vec<f64> {
        self.memo
            .iter()
            .filter(|((q, v), _)| *q == index && v != version)
            .map(|(_, t)| t.value)
            .collect()
    }
}
