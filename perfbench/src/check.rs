//! The correctness checks every answer goes through, and the self-tests
//! that feed each check a known-bad case.

use crate::fixture::BenchQuery;
use kg_aqp::{QueryAnswer, StepTimings};
use std::collections::BTreeMap;

/// Why an operation counts as failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// The request errored (HTTP status, service error, transport).
    Error,
    /// No finite estimate came back.
    Unanswered,
    /// A remote answer came back degraded (a shard stratum missing).
    Degraded,
    /// The shard fleet retried, hedged or timed out an RPC while answering
    /// a remote query: loopback shards with no faults need none of these.
    FleetEvent,
    /// A remote answer is not bitwise equal to the in-process K = 2 one.
    RemoteMismatch,
    /// A cache hit carries a lower confidence than the request asked for.
    HitBelowConfidence,
    /// A cache hit's interval does not meet Theorem 2 at the requested
    /// error bound.
    HitFailsTheorem2,
    /// `guarantee_met` disagrees with Theorem 2 at the requested bound.
    GuaranteeDisagrees,
    /// GROUP-BY bucket estimates sum above the top-level estimate.
    GroupSumExceeds,
    /// A hit that matches the τ-GT of an earlier graph version but not the
    /// current one: served after a write that changed the answer.
    StaleHit,
    /// A zero-width interval that misses τ-GT.
    ZeroWidthMiss,
    /// The estimate is more than 3·moe from τ-GT.
    TauGtMiss,
}

impl Cause {
    pub fn name(self) -> &'static str {
        match self {
            Cause::Error => "error",
            Cause::Unanswered => "unanswered",
            Cause::Degraded => "degraded",
            Cause::FleetEvent => "fleet_event",
            Cause::RemoteMismatch => "remote_mismatch",
            Cause::HitBelowConfidence => "hit_below_confidence",
            Cause::HitFailsTheorem2 => "hit_fails_theorem2",
            Cause::GuaranteeDisagrees => "guarantee_disagrees",
            Cause::GroupSumExceeds => "group_sum_exceeds",
            Cause::StaleHit => "stale_hit",
            Cause::ZeroWidthMiss => "zero_width_miss",
            Cause::TauGtMiss => "tau_gt_miss",
        }
    }
}

/// Theorem 2, written out here rather than borrowed from kg-estimate: the
/// interval `V̂ ± ε` meets relative error bound `eb` when
/// `ε ≤ |V̂|·eb / (1 + eb)`.
pub fn theorem2(estimate: f64, moe: f64, eb: f64) -> bool {
    moe <= estimate.abs() * eb / (1.0 + eb)
}

/// What was asked and how it was served.
pub struct Asked<'a> {
    pub query: &'a BenchQuery,
    pub eb: f64,
    pub conf: f64,
    pub hit: bool,
}

/// Checks one answer against τ-GT (`truth`) and the service contract.
/// `earlier` holds the τ-GT of the same query on other graph versions.
pub fn check_answer(
    asked: &Asked,
    answer: &QueryAnswer,
    truth: f64,
    earlier: &[f64],
) -> Option<Cause> {
    let (est, moe) = (answer.estimate, answer.moe);
    if !est.is_finite() || !moe.is_finite() {
        return Some(Cause::Unanswered);
    }
    if !asked.query.guaranteed() {
        return None;
    }
    if asked.hit {
        if answer.confidence < asked.conf {
            return Some(Cause::HitBelowConfidence);
        }
        if !theorem2(est, moe, asked.eb) {
            return Some(Cause::HitFailsTheorem2);
        }
    }
    if answer.guarantee_met && !theorem2(est, moe, asked.eb) {
        return Some(Cause::GuaranteeDisagrees);
    }
    if asked.query.grouped() {
        let sum: f64 = answer.groups.values().sum();
        if sum > est + 1e-9 * est.abs().max(1.0) {
            return Some(Cause::GroupSumExceeds);
        }
    }
    let slack = 1e-9 * truth.abs().max(1.0);
    let within = |t: f64| (est - t).abs() <= 3.0 * moe + slack;
    if within(truth) {
        return None;
    }
    if asked.hit && earlier.iter().any(|&t| t != truth && within(t)) {
        return Some(Cause::StaleHit);
    }
    if moe == 0.0 {
        return Some(Cause::ZeroWidthMiss);
    }
    Some(Cause::TauGtMiss)
}

/// Bitwise comparison of a remote answer with the in-process K = 2 answer
/// of the same query (timings excluded: they are wall clock).
/// `fleet_events` counts the retries, hedges and timeouts the shard fleet
/// made while answering it.
pub fn check_remote(remote: &QueryAnswer, local: &QueryAnswer, fleet_events: u64) -> Option<Cause> {
    if remote.is_degraded() {
        return Some(Cause::Degraded);
    }
    if fleet_events > 0 {
        return Some(Cause::FleetEvent);
    }
    let groups_equal = remote.groups.len() == local.groups.len()
        && remote
            .groups
            .iter()
            .zip(&local.groups)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits());
    let rounds_equal = remote.rounds.len() == local.rounds.len()
        && remote.rounds.iter().zip(&local.rounds).all(|(a, b)| {
            a.estimate.to_bits() == b.estimate.to_bits()
                && a.moe.to_bits() == b.moe.to_bits()
                && a.sample_size == b.sample_size
                && a.correct_size == b.correct_size
        });
    let equal = remote.estimate.to_bits() == local.estimate.to_bits()
        && remote.moe.to_bits() == local.moe.to_bits()
        && remote.confidence.to_bits() == local.confidence.to_bits()
        && remote.guarantee_met == local.guarantee_met
        && remote.sample_size == local.sample_size
        && remote.candidate_count == local.candidate_count
        && groups_equal
        && rounds_equal;
    (!equal).then_some(Cause::RemoteMismatch)
}

/// Tallies of attempted and failed operations, by cause.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub causes: BTreeMap<&'static str, u64>,
    /// `query id → cause` of every failure, for the failure listing.
    pub failing: BTreeMap<String, &'static str>,
}

impl Tally {
    pub fn record(&mut self, id: &str, outcome: Option<Cause>) {
        self.attempted += 1;
        if let Some(cause) = outcome {
            self.failed += 1;
            *self.causes.entry(cause.name()).or_insert(0) += 1;
            self.failing.insert(id.to_string(), cause.name());
        }
    }
}

/// A hand-made answer for the self-tests.
pub fn answer(estimate: f64, moe: f64, confidence: f64, guarantee_met: bool) -> QueryAnswer {
    QueryAnswer {
        estimate,
        moe,
        confidence,
        guarantee_met,
        rounds: Vec::new(),
        groups: BTreeMap::new(),
        timings: StepTimings::default(),
        sample_size: 100,
        candidate_count: 100,
        elapsed_ms: 1.0,
        missing_shards: Vec::new(),
    }
}
