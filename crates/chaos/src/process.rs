//! Process-backend conformance: the kill-point sweep's chaos contract
//! enforced over *real OS rank processes*.
//!
//! The in-memory sweep proves the recovery stack correct under
//! cooperative fail-stop (poisoned liveness flags). This module replays
//! the same job — same [`SweepApp`], same driver configuration, same
//! step-indexed injection triples — through
//! [`ft_core::process::run_supervisor`], where every rank is an OS
//! process over TCP and a kill is either an armed process exit or a
//! genuine `SIGKILL`. The contract is unchanged: a run either completes
//! with the exact expected accumulator value in every worker, or
//! degrades cleanly with the deaths on record — never a hang, never a
//! wrong number.
//!
//! Triples are enumerated by the **in-memory** recording pass (the site
//! instrumentation is backend-independent: sites are crossed by the rank
//! that owns them, so occurrence counts agree), filtered to
//! deterministic sites, and a coverage-spread subset is replayed as real
//! processes — one supervisor job per triple, in smoke-test budget.

use std::io;
use std::time::Duration;

use ft_cluster::{site_is_deterministic, FaultSchedule, Rank, SiteRecord};
use ft_core::process::{run_supervisor, ProcJobReport, SupervisorConfig};
use ft_core::{child_env, run_child};
use ft_gaspi::GaspiConfig;

use crate::app::SweepApp;
use crate::sweep::{run_with, RunClass, SweepConfig};

/// The GASPI world configuration both supervisor bookkeeping and every
/// child build from `cfg` (they must agree bit-for-bit).
pub fn sweep_gaspi_config(cfg: &SweepConfig) -> GaspiConfig {
    GaspiConfig::deterministic(cfg.ft_config().layout.total()).with_seed(cfg.seed)
}

/// Child-mode hook: when the current process is a supervised rank child,
/// run the sweep app for that one rank and return the exit code for
/// `main`. Binaries hosting the process sweep call this before anything
/// else.
pub fn maybe_run_child(cfg: &SweepConfig) -> Option<i32> {
    let env = child_env()?;
    let ft = cfg.ft_config();
    let gaspi = sweep_gaspi_config(cfg);
    Some(run_child(env, ft, gaspi, SweepApp::new, |s: &f64| s.to_le_bytes().to_vec()))
}

/// Run one sweep job over the process backend with `schedule` armed.
/// `child_args` must route the re-executed binary back into
/// [`maybe_run_child`] with the same `cfg`.
pub fn run_process(
    cfg: &SweepConfig,
    schedule: FaultSchedule,
    child_args: &[&str],
    deadline: Duration,
) -> io::Result<ProcJobReport> {
    let total = cfg.ft_config().layout.total();
    let sup = SupervisorConfig::new(total, schedule)
        .with_args(child_args.iter().copied())
        .with_deadline(deadline);
    run_supervisor(sup)
}

/// The chaos contract over a process-backend report: complete ⇒ every
/// worker summary is the exact expected value; incomplete ⇒ at least one
/// recorded kill or error, and nothing crashed, timed out, or produced a
/// wrong number.
pub fn classify_process(cfg: &SweepConfig, report: &ProcJobReport) -> Result<RunClass, String> {
    for o in &report.outcomes {
        match o {
            ft_core::ProcOutcome::TimedOut => return Err("rank timed out (hang)".into()),
            ft_core::ProcOutcome::Crashed(d) => return Err(format!("rank crashed: {d}")),
            _ => {}
        }
    }
    let expected = SweepApp::expected(cfg.workers, cfg.max_iters);
    let summaries = report.worker_summaries();
    for (app, bytes) in &summaries {
        let Ok(arr) = <[u8; 8]>::try_from(*bytes) else {
            return Err(format!("app rank {app}: malformed 8-byte summary"));
        };
        let acc = f64::from_le_bytes(arr);
        if acc != expected {
            return Err(format!("app rank {app} produced {acc}, expected {expected}"));
        }
    }
    if summaries.len() == cfg.workers as usize {
        return Ok(RunClass::Correct);
    }
    let killed = report.killed().len();
    let errored = report.first_error().is_some();
    if killed == 0 && !errored {
        return Err(format!(
            "incomplete ({}/{} summaries) without any recorded failure",
            summaries.len(),
            cfg.workers
        ));
    }
    Ok(RunClass::Degraded)
}

/// Why an enumerated triple was excluded from process replay. Exclusion
/// is decided here, at enumeration time, and carried into the
/// process-sweep report as a machine-checked reason code — never a
/// silent skip at replay time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExcludeReason {
    /// Another occurrence of the same `(site, rank)` kill point is
    /// already selected; replaying a second occurrence of the same point
    /// adds no coverage in smoke budget.
    DuplicateKillPoint,
    /// The site's occurrence index is interleaving-dependent
    /// (`site_is_deterministic` = false), so a process replay could not
    /// be compared against the in-memory reference.
    NondeterministicSite,
}

impl ExcludeReason {
    /// Stable reason code, as emitted in the JSON report.
    pub fn code(self) -> &'static str {
        match self {
            ExcludeReason::DuplicateKillPoint => "duplicate-kill-point",
            ExcludeReason::NondeterministicSite => "nondeterministic-site",
        }
    }
}

/// Result of triple selection: the replay set plus every exclusion with
/// its reason, plus the count of eligible triples beyond the `max`
/// budget.
#[derive(Debug, Default)]
pub struct TripleSelection {
    /// Triples to replay, in log order.
    pub picked: Vec<SiteRecord>,
    /// Excluded triples with their reason codes.
    pub excluded: Vec<(SiteRecord, ExcludeReason)>,
    /// Eligible triples dropped only because the budget ran out.
    pub over_budget: usize,
}

/// Pick at most `max` replay triples from an in-memory site log:
/// deterministic sites only, spread for `(site, rank)` coverage (first
/// occurrence of each kill point, breadth before depth). Everything not
/// picked is accounted for — by reason code or as over-budget.
pub fn select_triples(log: &[SiteRecord], max: usize) -> TripleSelection {
    let mut seen: Vec<(&str, Rank)> = Vec::new();
    let mut sel = TripleSelection::default();
    for rec in log {
        if !site_is_deterministic(&rec.site) {
            sel.excluded.push((rec.clone(), ExcludeReason::NondeterministicSite));
            continue;
        }
        let key = (rec.site.as_str(), rec.rank);
        if seen.contains(&key) {
            sel.excluded.push((rec.clone(), ExcludeReason::DuplicateKillPoint));
            continue;
        }
        if sel.picked.len() >= max {
            sel.over_budget += 1;
            continue;
        }
        seen.push(key);
        sel.picked.push(rec.clone());
    }
    sel
}

/// One smoke-sweep replay: the kill point, the in-memory backend's
/// classification of the same injection, and the process backend's.
pub struct SmokeOutcome {
    /// The replayed kill point.
    pub triple: SiteRecord,
    /// What the in-memory backend makes of this kill (the reference).
    pub in_memory: Result<RunClass, String>,
    /// What the process backend makes of it.
    pub process: Result<RunClass, String>,
}

impl SmokeOutcome {
    /// True when both backends agree on the classification (the strong
    /// conformance statement; the contract itself only requires that
    /// neither side *violates*).
    pub fn agree(&self) -> bool {
        matches!((&self.in_memory, &self.process), (Ok(a), Ok(b)) if a == b)
    }
}

/// Everything a smoke sweep produced: the replays plus the selection's
/// exclusion accounting (emitted in the report so the dedup is
/// machine-checkable).
pub struct SmokeSweep {
    /// One entry per replayed kill triple.
    pub outcomes: Vec<SmokeOutcome>,
    /// Triples excluded from replay, with reason codes.
    pub excluded: Vec<(SiteRecord, ExcludeReason)>,
    /// Eligible triples beyond the replay budget.
    pub over_budget: usize,
}

/// Enumerate kill points in memory, then replay `max_triples` of them
/// both in memory (the reference classification) and as real-process
/// jobs.
pub fn process_smoke_sweep(
    cfg: &SweepConfig,
    max_triples: usize,
    child_args: &[&str],
    per_job_deadline: Duration,
) -> io::Result<SmokeSweep> {
    let recording = run_with(cfg, &[], true);
    if let Err(v) = recording.class {
        return Err(io::Error::other(format!("in-memory enumeration run violated: {v}")));
    }
    let sel = select_triples(&recording.log, max_triples);
    let mut outcomes = Vec::new();
    for triple in sel.picked {
        let in_memory = crate::sweep::replay_triple(cfg, &triple);
        let schedule = FaultSchedule::none().inject(ft_cluster::Injection::kill(
            triple.site.clone(),
            triple.rank,
            triple.occurrence,
        ));
        let report = run_process(cfg, schedule, child_args, per_job_deadline)?;
        let process = classify_process(cfg, &report);
        outcomes.push(SmokeOutcome { triple, in_memory, process });
    }
    Ok(SmokeSweep { outcomes, excluded: sel.excluded, over_budget: sel.over_budget })
}

/// One partition-conformance replay: a step-indexed `BreakLink`
/// injection armed at a deterministic kill point, replayed on both
/// backends. On the process backend the break fires only on the crossing
/// rank's local fault plane (an *asymmetric* partition the TCP transport
/// enforces end to end); the in-memory backend shares one plane, so its
/// classification is a reference, not an oracle — conformance requires
/// that neither side violates the contract.
pub struct PartitionOutcome {
    /// The crossing the break was armed at.
    pub triple: SiteRecord,
    /// The severed peer.
    pub peer: Rank,
    /// In-memory classification of the same injection.
    pub in_memory: Result<RunClass, String>,
    /// Process-backend classification.
    pub process: Result<RunClass, String>,
}

/// Enumerate crossings in memory, then replay up to `max_triples` of
/// them as *network partitions*: each selected worker-rank crossing arms
/// `BreakLink(rank, next worker)` instead of a kill. Exercises the
/// paper's link-fault path over real TCP: send-side sever, receive-side
/// refusal, worker suspect reports, `proc_kill` enforcement, rebuild,
/// restore.
pub fn process_partition_sweep(
    cfg: &SweepConfig,
    max_triples: usize,
    child_args: &[&str],
    per_job_deadline: Duration,
) -> io::Result<Vec<PartitionOutcome>> {
    let recording = run_with(cfg, &[], true);
    if let Err(v) = recording.class {
        return Err(io::Error::other(format!("in-memory enumeration run violated: {v}")));
    }
    let sel = select_triples(&recording.log, usize::MAX);
    let mut out = Vec::new();
    for triple in sel.picked.into_iter().filter(|t| t.rank < cfg.workers).take(max_triples) {
        let peer = (triple.rank + 1) % cfg.workers;
        let inj = ft_cluster::Injection::at(
            triple.site.clone(),
            triple.rank,
            triple.occurrence,
            ft_cluster::FaultAction::BreakLink(triple.rank, peer),
        );
        let in_memory = run_with(cfg, std::slice::from_ref(&inj), false).class;
        let schedule = FaultSchedule::none().inject(inj);
        let report = run_process(cfg, schedule, child_args, per_job_deadline)?;
        let process = classify_process(cfg, &report);
        out.push(PartitionOutcome { triple, peer, in_memory, process });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_selection_dedups_and_filters_with_reason_codes() {
        let rec = |site: &str, rank: Rank, occ: u64| SiteRecord {
            site: site.to_string(),
            rank,
            occurrence: occ,
        };
        let log = vec![
            rec("gaspi.allreduce", 0, 1),
            rec("gaspi.allreduce", 0, 2), // same kill point: excluded as duplicate
            rec("transport.post", 1, 1),  // interleaving-dependent: excluded
            rec("gaspi.allreduce", 1, 1),
            rec("recover.begin", 0, 1), // eligible but beyond the budget
        ];
        let sel = select_triples(&log, 2);
        assert_eq!(sel.picked.len(), 2);
        assert_eq!(sel.picked[0].site, "gaspi.allreduce");
        assert_eq!(sel.picked[0].rank, 0);
        assert_eq!(sel.picked[1].rank, 1);
        // Every non-picked triple is accounted for, with a stable code.
        assert_eq!(sel.over_budget, 1);
        assert_eq!(sel.excluded.len(), 2);
        assert_eq!(sel.excluded[0].0.occurrence, 2);
        assert_eq!(sel.excluded[0].1, ExcludeReason::DuplicateKillPoint);
        assert_eq!(sel.excluded[0].1.code(), "duplicate-kill-point");
        assert_eq!(sel.excluded[1].0.site, "transport.post");
        assert_eq!(sel.excluded[1].1, ExcludeReason::NondeterministicSite);
        assert_eq!(sel.excluded[1].1.code(), "nondeterministic-site");
    }
}
