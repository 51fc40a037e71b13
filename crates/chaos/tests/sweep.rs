//! Acceptance tests for the kill-point explorer:
//!
//! * the exhaustive single-kill sweep on the CI world enumerates ≥ 30
//!   distinct `(site, rank)` kill points and every replay satisfies the
//!   chaos contract;
//! * deterministic triples replay to the same outcome;
//! * the pair sweep covers kill-during-group-rebuild and
//!   kill-during-neighbor-recopy (second injection provably fired);
//! * the `gaspi-ft/killpoint-sweep/v1` report matches its schema.

use std::time::Duration;

use ft_chaos::{
    classify, exhaustive_sweep, pair_sweep, replay, run, Backend, Json, RunClass, SweepConfig,
    SCHEMA,
};
use ft_cluster::{site_is_deterministic, FaultSchedule, Injection, SiteRecord};

/// True when `triple` fires before the victim rank's first checkpoint
/// commit — decided from the *recording* log, so the criterion is
/// deterministic (both crossings are by the same rank, hence logged in
/// that rank's program order).
///
/// Such a kill races recovery against the survivors' initial group
/// formation: depending on how far the acknowledgment gets before the
/// abandon deadline, the job either completes exactly or degrades
/// cleanly. Both endings satisfy the contract, and which one happens is a
/// property of thread scheduling — not of the triple — so only replays of
/// a triple that is *not* early may be compared class for class.
fn triple_is_early(log: &[SiteRecord], triple: &SiteRecord) -> bool {
    log.iter()
        .filter(|rec| rec.rank == triple.rank)
        .take_while(|rec| rec.site != "driver.checkpoint.commit")
        .any(|rec| rec.site == triple.site && rec.occurrence == triple.occurrence)
}

#[test]
fn exhaustive_sweep_covers_the_world_and_holds_the_contract() {
    let cfg = SweepConfig::ci();
    let report = exhaustive_sweep(&cfg, None);
    assert!(report.enumerated >= 30, "only {} triples enumerated", report.enumerated);
    assert_eq!(report.replayed.len(), report.enumerated, "unbudgeted sweep must replay all");
    assert_eq!(report.skipped_budget, 0);
    assert!(
        report.distinct_kill_points() >= 30,
        "only {} distinct (site, rank) kill points",
        report.distinct_kill_points()
    );
    assert!(report.violations.is_empty(), "contract violations: {:#?}", report.violations);
    // Both deterministic and interleaving-dependent sites must appear —
    // the sweep covers rank-thread *and* helper-thread kill points.
    assert!(report.replayed.iter().any(|t| site_is_deterministic(&t.triple.site)));
    assert!(report.replayed.iter().any(|t| !site_is_deterministic(&t.triple.site)));
}

#[test]
fn deterministic_triples_replay_to_the_same_outcome() {
    let cfg = SweepConfig::ci();
    let recording = run(&cfg, FaultSchedule::none(), Backend::InMemory);
    let class = classify(&cfg, &recording);
    assert!(class.is_ok(), "recording run failed: {class:?}");
    let det: Vec<_> = recording.log.iter().filter(|t| site_is_deterministic(&t.site)).collect();
    assert!(det.len() >= 10, "too few deterministic triples: {}", det.len());
    // Sample across the log (every k-th), two replays each. A kill
    // before the victim's first checkpoint commit races recovery against
    // initial group formation, where both exact completion and clean
    // degradation satisfy the contract — so only the other triples are
    // compared class for class (the criterion itself is deterministic,
    // decided from the recording log), which keeps this test stable under
    // load and `--test-threads` without any debug-env escape hatch.
    let stride = (det.len() / 5).max(1);
    let mut early_seen = false;
    for t in det.iter().step_by(stride).take(5) {
        let early = triple_is_early(&recording.log, t);
        early_seen |= early;
        let kill = Injection::kill(t.site.clone(), t.rank, t.occurrence);
        let again = || replay(&cfg, &kill, Backend::InMemory);
        let (a, b) = (again(), again());
        assert!(a.is_ok() && b.is_ok(), "triple {t:?}: {a:?} / {b:?}");
        if !early {
            // Post-checkpoint kills have no timing freedom.
            assert_eq!(a, b, "triple {t:?} replayed to different classes");
        }
    }
    // The stride starts at the log's first crossings, which precede any
    // checkpoint — the early-kill fold must actually engage.
    assert!(early_seen, "sample never exercised the early-kill verdict");
}

#[test]
fn sweep_covers_abft_and_replication_sites_without_violations() {
    // The same exhaustive explorer, pointed at the other two recovery
    // models: each strategy's own steady-state sites appear in the
    // enumeration (the parity-encode point for ABFT, the state-stream
    // commit point for replication) and every kill placed there — and at
    // every other site — still satisfies the chaos contract.
    for (strategy, site) in [
        (ft_core::StrategyKind::Abft, "strategy.abft.encode"),
        (ft_core::StrategyKind::Replicated, "driver.checkpoint.commit"),
    ] {
        let cfg = SweepConfig { strategy, ..SweepConfig::ci() };
        let report = exhaustive_sweep(&cfg, None);
        assert!(
            report.replayed.iter().any(|t| t.triple.site == site),
            "[{}] sweep never enumerated {site}",
            strategy.name()
        );
        assert!(
            report.violations.is_empty(),
            "[{}] contract violations: {:#?}",
            strategy.name(),
            report.violations
        );
        // The strategy's own sites are rank-thread program order —
        // deterministic, so replay comparisons stay meaningful.
        assert!(site_is_deterministic(site));
    }
}

#[test]
fn pair_sweep_reaches_inside_the_recovery_window() {
    let cfg = SweepConfig::ci();
    let pairs = pair_sweep(&cfg);
    for required in ["kill-during-group-rebuild", "kill-during-neighbor-recopy"] {
        let p = pairs
            .iter()
            .find(|p| p.scenario.label == required)
            .unwrap_or_else(|| panic!("pair sweep lost scenario {required}"));
        assert!(p.outcome.is_ok(), "{required}: {:?}", p.outcome);
        // Every injection fired — the second kill really landed inside
        // the recovery triggered by the first.
        let (fired, armed) = (p.facts.fired.len(), p.scenario.schedule.injections().len());
        assert_eq!(fired, armed, "{required}: only {fired}/{armed} injections fired");
    }
    let exhaustion = pairs.iter().find(|p| p.scenario.label == "spare-exhaustion").unwrap();
    assert_eq!(
        exhaustion.outcome,
        Ok(RunClass::Degraded),
        "three kills against one rescue + FD promotion must degrade cleanly"
    );
}

#[test]
fn report_matches_killpoint_sweep_v1_schema() {
    let cfg = SweepConfig::ci();
    // Zero budget: enumeration completes, replays are skipped — cheap,
    // and exercises the skipped_budget accounting too.
    let mut report = exhaustive_sweep(&cfg, Some(Duration::ZERO));
    report.pairs = pair_sweep(&cfg);
    let doc = Json::parse(&report.to_json().render()).expect("report must be valid JSON");

    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
    let world = doc.get("world").expect("world object");
    assert_eq!(world.get("workers").and_then(Json::as_u64), Some(4));
    assert_eq!(world.get("spares").and_then(Json::as_u64), Some(2));
    for key in ["seed", "max_iters", "checkpoint_every"] {
        assert!(world.get(key).and_then(Json::as_u64).is_some(), "world.{key} missing");
    }
    let enumerated = doc.get("enumerated").and_then(Json::as_u64).expect("enumerated");
    assert!(enumerated >= 30);
    assert_eq!(doc.get("replayed").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("skipped_budget").and_then(Json::as_u64), Some(enumerated));
    assert!(doc.get("distinct_kill_points").and_then(Json::as_u64).is_some());
    let outcomes = doc.get("outcomes").expect("outcomes object");
    for key in ["correct", "degraded", "violations"] {
        assert!(outcomes.get(key).and_then(Json::as_u64).is_some(), "outcomes.{key} missing");
    }
    assert!(doc.get("sites").and_then(Json::as_arr).is_some());
    assert!(doc.get("violations").and_then(Json::as_arr).is_some());
    let pairs = doc.get("pairs").and_then(Json::as_arr).expect("pairs array");
    assert_eq!(pairs.len(), 4);
    for p in pairs {
        assert!(p.get("label").and_then(Json::as_str).is_some());
        assert!(p.get("outcome").and_then(Json::as_str).is_some());
        assert!(p.get("fired").and_then(Json::as_u64).is_some());
        let injs = p.get("injections").and_then(Json::as_arr).expect("injections array");
        assert!(!injs.is_empty());
        for i in injs {
            assert!(i.get("site").and_then(Json::as_str).is_some());
            assert!(i.get("rank").and_then(Json::as_u64).is_some());
            assert!(i.get("occurrence").and_then(Json::as_u64).is_some());
            assert!(i.get("op").and_then(Json::as_str).is_some());
        }
    }
    assert!(doc.get("elapsed_s").and_then(Json::as_f64).is_some());
}
