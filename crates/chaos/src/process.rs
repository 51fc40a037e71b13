//! Process-backend conformance: the kill-point sweep's chaos contract
//! enforced over *real OS rank processes*.
//!
//! The in-memory sweep proves the recovery stack correct under
//! cooperative fail-stop (poisoned liveness flags). This module replays
//! the same job — same [`SweepApp`], same driver configuration, same
//! step-indexed injection triples — as rank processes over TCP
//! ([`Backend::Process`]), where a kill is an armed process exit; the
//! contract ([`classify`]) is unchanged.
//!
//! Triples are enumerated by the **in-memory** recording pass (the site
//! instrumentation is backend-independent: sites are crossed by the rank
//! that owns them, so occurrence counts agree), filtered to
//! deterministic sites, and a coverage-spread subset is replayed as real
//! processes — one supervisor job per triple, in smoke-test budget.

use std::collections::BTreeMap;

use ft_cluster::{site_is_deterministic, FaultAction, FaultSchedule, Injection, SiteRecord, Wire};
use ft_core::{child_env, run_child};

use crate::app::SweepApp;
use crate::sweep::{classify, replay, run, Backend, RunClass, SweepConfig};

/// Child-mode hook: when the current process is a supervised rank child,
/// run the sweep app for that one rank and return the exit code for
/// `main`. Binaries hosting the process sweep call this before anything
/// else.
pub fn maybe_run_child(cfg: &SweepConfig) -> Option<i32> {
    let env = child_env()?;
    let summary = |s: &f64| s.to_bytes();
    Some(run_child(env, cfg.ft_config(), cfg.gaspi_config(), SweepApp::new, summary))
}

/// Why an enumerated triple was excluded from process replay. Exclusion
/// is decided here, at enumeration time, and carried into the
/// process-sweep report as a machine-checked reason code — never a
/// silent skip at replay time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExcludeReason {
    /// A later occurrence of a `(site, rank)` kill point, which its first
    /// crossing stands for; replaying a second occurrence of the same
    /// point adds no coverage in smoke budget.
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
    /// Triples to replay, in pick order (see [`select_triples`]).
    pub picked: Vec<SiteRecord>,
    /// Excluded triples with their reason codes.
    pub excluded: Vec<(SiteRecord, ExcludeReason)>,
    /// Eligible triples dropped only because the budget ran out.
    pub over_budget: usize,
}

/// Pick at most `max` replay triples from an in-memory site log:
/// deterministic sites only, the first crossing of each `(site, rank)`
/// kill point, ordered by `(site, rank)`, one per site before any site
/// repeats, whatever the log's order. Everything not picked is accounted
/// for — by reason code or as over-budget.
pub fn select_triples(log: &[SiteRecord], max: usize) -> TripleSelection {
    let mut sel = TripleSelection::default();
    let mut by_site: BTreeMap<&str, Vec<&SiteRecord>> = BTreeMap::new();
    for rec in log {
        if !site_is_deterministic(&rec.site) {
            sel.excluded.push((rec.clone(), ExcludeReason::NondeterministicSite));
        } else if rec.occurrence > 1 {
            sel.excluded.push((rec.clone(), ExcludeReason::DuplicateKillPoint));
        } else {
            by_site.entry(&rec.site).or_default().push(rec);
        }
    }
    by_site.values_mut().for_each(|ranks| ranks.sort_by_key(|r| r.rank));
    // Round r takes every site's r-th rank.
    let rounds = by_site.values().map(Vec::len).max().unwrap_or(0);
    let mut order = (0..rounds).flat_map(|r| by_site.values().filter_map(move |v| v.get(r)));
    sel.picked = order.by_ref().take(max).map(|&rec| rec.clone()).collect();
    sel.over_budget = order.count();
    sel
}

/// One replayed triple: the crossing, the fault armed there — a kill of
/// the crossing rank, or a `BreakLink(rank, peer)` that on the process
/// backend fires on the crossing rank's own plane only (an *asymmetric*
/// partition the TCP transport enforces end to end) — and what each
/// backend makes of it. The in-memory side shares one plane, so for a
/// break it is a reference, not an oracle: conformance requires that
/// neither side violates the contract.
#[derive(Debug)]
pub struct Replay {
    /// The fault, and the crossing it was armed at.
    pub armed: Injection,
    /// What the in-memory backend makes of it (the reference).
    pub in_memory: Result<RunClass, String>,
    /// What the process backend makes of it.
    pub process: Result<RunClass, String>,
}

impl Replay {
    /// True when both backends agree on the classification (the strong
    /// conformance statement; the contract itself only requires that
    /// neither side *violates*).
    pub fn agree(&self) -> bool {
        matches!((&self.in_memory, &self.process), (Ok(a), Ok(b)) if a == b)
    }
}

/// Enumerate crossings in memory, then replay a coverage-spread subset on
/// both backends: `max_kills` of them with a kill armed, and
/// `max_partitions` worker crossings with `BreakLink(rank, next worker)`
/// instead — the paper's link-fault path over real TCP: send-side sever,
/// receive-side refusal, worker suspect reports, `proc_kill` enforcement,
/// rebuild, restore. `child_arg` as in [`Backend::Process`]. Returns the
/// replays, kills first, and the kill selection they came from: its
/// exclusion accounting goes into the report, so the dedup is
/// machine-checkable.
pub fn process_smoke_sweep(
    cfg: &SweepConfig,
    max_kills: usize,
    max_partitions: usize,
    child_arg: &str,
) -> Result<(Vec<Replay>, TripleSelection), String> {
    let recording = run(cfg, FaultSchedule::none(), Backend::InMemory);
    classify(cfg, &recording).map_err(|v| format!("in-memory enumeration run violated: {v}"))?;
    let kills = select_triples(&recording.log, max_kills);
    let breaks = select_triples(&recording.log, usize::MAX).picked.into_iter();
    let breaks = breaks.filter(|t| t.rank < cfg.workers).take(max_partitions);
    let armed = kills
        .picked
        .iter()
        .map(|t| (FaultAction::KillRank(t.rank), t.clone()))
        .chain(breaks.map(|t| (FaultAction::BreakLink(t.rank, (t.rank + 1) % cfg.workers), t)));
    let replays = armed.map(|(action, t)| {
        let armed = Injection::at(t.site, t.rank, t.occurrence, action);
        let in_memory = replay(cfg, &armed, Backend::InMemory);
        let process = replay(cfg, &armed, Backend::Process { child_arg });
        Replay { armed, in_memory, process }
    });
    Ok((replays.collect(), kills))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_selection_dedups_and_filters_with_reason_codes() {
        let rec = |site: &str, rank: u32, occ: u64| SiteRecord {
            site: site.to_string(),
            rank,
            occurrence: occ,
        };
        let log = vec![
            rec("gaspi.allreduce", 0, 1),
            rec("gaspi.allreduce", 0, 2), // same kill point: excluded as duplicate
            rec("transport.post", 1, 1),  // interleaving-dependent: excluded
            rec("gaspi.allreduce", 1, 1), // a site's second rank: beyond the budget
            rec("recover.begin", 0, 1),
        ];
        let sel = select_triples(&log, 2);
        assert_eq!(sel.picked.len(), 2);
        assert_eq!(sel.picked[0].site, "gaspi.allreduce");
        assert_eq!(sel.picked[0].rank, 0);
        // One per site before a site repeats, whatever the log's order.
        assert_eq!((sel.picked[1].site.as_str(), sel.picked[1].rank), ("recover.begin", 0));
        let shuffled: Vec<_> = [4, 1, 3, 0, 2].map(|i| log[i].clone()).into();
        assert_eq!(select_triples(&shuffled, 2).picked, sel.picked);
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
