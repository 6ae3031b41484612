//! `--self-test`: feeds every check a known-bad case and asserts that it is
//! flagged (and a known-good case, that it is not). A check that never
//! fires would let every run report zero failures.

use crate::check::{self, answer, check_answer, check_remote, Asked, Cause};
use crate::fixture::{BenchQuery, Fixture};
use crate::hot_rw;
use crate::stats::SplitMix;
use crate::truth::Oracle;
use kg_datagen::QueryCategory;
use kg_query::QueryShape;
use std::path::PathBuf;
use std::process::ExitCode;

fn case(name: &str, got: Option<Cause>, want: Option<Cause>, failures: &mut usize) {
    let ok = got == want;
    if !ok {
        *failures += 1;
    }
    eprintln!(
        "self-test {:<44} want {:<22} got {:<22} {}",
        name,
        want.map_or("pass", Cause::name),
        got.map_or("pass", Cause::name),
        if ok { "ok" } else { "FAILED" }
    );
}

fn find(fixture: &Fixture, pred: impl Fn(&BenchQuery) -> bool) -> &BenchQuery {
    fixture
        .queries
        .iter()
        .find(|q| pred(q))
        .expect("the workload has a query of every kind")
}

pub fn run() -> ExitCode {
    let dir = PathBuf::from(".perfbench_tmp").join(format!("selftest-{}", std::process::id()));
    let fixture = Fixture::build(&dir);
    let mut failures = 0;
    let plain = find(&fixture, |q| q.category == QueryCategory::Plain);
    let grouped = find(&fixture, BenchQuery::grouped);
    let extreme = find(&fixture, |q| !q.guaranteed());
    let ask = |query, hit| Asked {
        query,
        eb: 0.05,
        conf: 0.95,
        hit,
    };

    case(
        "estimate within 3·moe passes",
        check_answer(
            &ask(plain, false),
            &answer(100.0, 2.0, 0.95, true),
            104.0,
            &[],
        ),
        None,
        &mut failures,
    );
    case(
        "estimate outside 3·moe",
        check_answer(
            &ask(plain, false),
            &answer(100.0, 2.0, 0.95, true),
            110.0,
            &[],
        ),
        Some(Cause::TauGtMiss),
        &mut failures,
    );
    case(
        "zero-width interval that misses",
        check_answer(
            &ask(plain, false),
            &answer(100.0, 0.0, 0.95, true),
            101.0,
            &[],
        ),
        Some(Cause::ZeroWidthMiss),
        &mut failures,
    );
    case(
        "zero-width interval that hits",
        check_answer(
            &ask(plain, false),
            &answer(100.0, 0.0, 0.95, true),
            100.0,
            &[],
        ),
        None,
        &mut failures,
    );
    case(
        "hit below the requested confidence",
        check_answer(
            &ask(plain, true),
            &answer(100.0, 2.0, 0.90, true),
            100.0,
            &[],
        ),
        Some(Cause::HitBelowConfidence),
        &mut failures,
    );
    case(
        "hit failing Theorem 2 at the requested eb",
        check_answer(
            &ask(plain, true),
            &answer(100.0, 6.0, 0.95, true),
            100.0,
            &[],
        ),
        Some(Cause::HitFailsTheorem2),
        &mut failures,
    );
    case(
        "guarantee_met without Theorem 2",
        check_answer(
            &ask(plain, false),
            &answer(100.0, 6.0, 0.95, true),
            100.0,
            &[],
        ),
        Some(Cause::GuaranteeDisagrees),
        &mut failures,
    );
    case(
        "guarantee not met, wide interval",
        check_answer(
            &ask(plain, false),
            &answer(100.0, 6.0, 0.95, false),
            100.0,
            &[],
        ),
        None,
        &mut failures,
    );
    let mut bad_groups = answer(50.0, 1.0, 0.95, true);
    bad_groups.groups.insert(0, 30.0);
    bad_groups.groups.insert(1, 30.0);
    case(
        "GROUP-BY bucket sums above the estimate",
        check_answer(&ask(grouped, false), &bad_groups, 50.0, &[]),
        Some(Cause::GroupSumExceeds),
        &mut failures,
    );
    let mut good_groups = answer(50.0, 1.0, 0.95, true);
    good_groups.groups.insert(0, 20.0);
    good_groups.groups.insert(1, 29.0);
    case(
        "GROUP-BY bucket sums below the estimate",
        check_answer(&ask(grouped, false), &good_groups, 50.0, &[]),
        None,
        &mut failures,
    );
    case(
        "MAX/MIN only needs an answer",
        check_answer(
            &ask(extreme, false),
            &answer(1.0, 0.0, 0.95, false),
            9.0,
            &[],
        ),
        None,
        &mut failures,
    );
    case(
        "MAX/MIN without a finite answer",
        check_answer(
            &ask(extreme, false),
            &answer(f64::NAN, 0.0, 0.95, false),
            9.0,
            &[],
        ),
        Some(Cause::Unanswered),
        &mut failures,
    );

    // A stale hit, end to end through the oracle: apply a toggle that
    // changes some query's τ-GT on the oracle's replayed graph, then offer
    // a hit that still carries the pre-write answer.
    let mut rng = SplitMix(1);
    let toggles = hot_rw::toggles(&fixture, &mut rng);
    let mut oracle = Oracle::new(&fixture);
    let simple_plain: Vec<usize> = (0..fixture.queries.len())
        .filter(|&i| {
            let q = &fixture.queries[i];
            q.shape == QueryShape::Simple && q.category == QueryCategory::Plain
        })
        .collect();
    let before: Vec<f64> = simple_plain
        .iter()
        .map(|&i| oracle.truth(i).value)
        .collect();
    let toggle = &toggles[0];
    let delete = vec![kg_service::WriteOp::DeleteEdge {
        subject: toggle.subject.clone(),
        predicate: toggle.predicate.clone(),
        object: toggle.object.clone(),
    }];
    oracle.replay(&delete, &vec![0]);
    let changed = simple_plain
        .iter()
        .zip(&before)
        .map(|(&i, &b)| (i, b, oracle.truth(i).value))
        .find(|(_, b, a)| a != b);
    match changed {
        None => {
            failures += 1;
            eprintln!("self-test no toggle changed a τ-GT: FAILED");
        }
        Some((index, old, new)) => {
            let query = &fixture.queries[index];
            let stale = answer(old, old.abs() * 1e-3, 0.95, true);
            let earlier = oracle.other_versions(index, &vec![0]);
            case(
                "stale hit after a write that changed τ-GT",
                check_answer(&ask(query, true), &stale, new, &earlier),
                Some(Cause::StaleHit),
                &mut failures,
            );
            let fresh = answer(new, new.abs() * 1e-3, 0.95, true);
            case(
                "fresh hit after the same write",
                check_answer(&ask(query, true), &fresh, new, &earlier),
                None,
                &mut failures,
            );
        }
    }

    let local = answer(100.0, 2.0, 0.95, true);
    let mut flipped = local.clone();
    flipped.estimate = f64::from_bits(local.estimate.to_bits() ^ 1);
    case(
        "remote answer with one bit flipped",
        check_remote(&flipped, &local, 0),
        Some(Cause::RemoteMismatch),
        &mut failures,
    );
    case(
        "remote answer equal bit for bit",
        check_remote(&local.clone(), &local, 0),
        None,
        &mut failures,
    );
    let mut degraded = local.clone();
    degraded.missing_shards = vec![1];
    case(
        "degraded remote answer",
        check_remote(&degraded, &local, 0),
        Some(Cause::Degraded),
        &mut failures,
    );
    case(
        "remote answer after a retry, hedge or timeout",
        check_remote(&local.clone(), &local, 1),
        Some(Cause::FleetEvent),
        &mut failures,
    );
    let theorem_edge = check::theorem2(105.0, 5.0, 0.05) && !check::theorem2(105.0, 5.01, 0.05);
    case(
        "Theorem 2 boundary ε = V̂·eb/(1+eb)",
        (!theorem_edge).then_some(Cause::GuaranteeDisagrees),
        None,
        &mut failures,
    );

    let _ = std::fs::remove_dir_all(&dir);
    if failures == 0 {
        eprintln!("self-test: every check flags its known-bad case");
        ExitCode::SUCCESS
    } else {
        eprintln!("self-test: {failures} case(s) FAILED");
        ExitCode::FAILURE
    }
}
