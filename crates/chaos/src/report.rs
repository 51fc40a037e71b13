//! The `gaspi-ft/killpoint-sweep/v1` coverage report.
//!
//! One JSON document per sweep, written into `target/telemetry/` by the
//! `killpoint_sweep` binary so CI can diff site coverage across PRs. The
//! schema is asserted in `tests/sweep.rs`.

use std::collections::BTreeMap;
use std::time::Duration;

use ft_cluster::{Injection, Rank};

use crate::json::Json;
use crate::sweep::{RunClass, SweepConfig};

/// Schema identifier of the report document.
pub const SCHEMA: &str = "gaspi-ft/killpoint-sweep/v1";

/// One replayed single-kill triple and how it ended.
#[derive(Debug)]
pub struct TripleOutcome {
    /// Injection-site name.
    pub site: String,
    /// Killed rank.
    pub rank: Rank,
    /// Occurrence the kill was armed at.
    pub occurrence: u64,
    /// Contract classification (`Err` = violation).
    pub outcome: Result<RunClass, String>,
    /// Whether this site's occurrence index replays deterministically.
    pub deterministic: bool,
    /// Whether the kill fires before the victim's first checkpoint
    /// commit (see `crate::sweep::Verdict::EarlyKill`).
    pub early: bool,
}

/// One pair-sweep scenario result.
#[derive(Debug)]
pub struct PairOutcome {
    /// Scenario name.
    pub label: &'static str,
    /// The armed injections (first kill included).
    pub injections: Vec<Injection>,
    /// How many of them actually fired.
    pub fired: usize,
    /// Contract classification (`Err` = violation).
    pub outcome: Result<RunClass, String>,
}

/// Aggregate result of an exhaustive sweep plus the pair scenarios.
#[derive(Debug)]
pub struct SweepReport {
    /// The sweep configuration (world shape and job size).
    pub cfg: SweepConfig,
    /// Triples enumerated by the recording pass.
    pub enumerated: usize,
    /// One entry per replayed triple.
    pub replayed: Vec<TripleOutcome>,
    /// Triples not replayed because the wall-clock budget ran out.
    pub skipped_budget: usize,
    /// Every contract violation, human-readable.
    pub violations: Vec<String>,
    /// Pair-sweep scenario results.
    pub pairs: Vec<PairOutcome>,
    /// Sweep wall-clock.
    pub elapsed: Duration,
}

impl SweepReport {
    /// An empty report for `cfg`.
    pub fn new(cfg: &SweepConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            enumerated: 0,
            replayed: Vec::new(),
            skipped_budget: 0,
            violations: Vec::new(),
            pairs: Vec::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// Distinct `(site, rank)` kill points among the replayed triples.
    pub fn distinct_kill_points(&self) -> usize {
        let mut set: Vec<(&str, Rank)> =
            self.replayed.iter().map(|t| (t.site.as_str(), t.rank)).collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// True when every replay (single and pair) satisfied the contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.pairs.iter().all(|p| p.outcome.is_ok())
    }

    /// Render the `gaspi-ft/killpoint-sweep/v1` document.
    pub fn to_json(&self) -> Json {
        let mut correct = 0u64;
        let mut degraded = 0u64;
        // Coverage per (site, rank): occurrences seen, replays done.
        let mut sites: BTreeMap<(String, Rank), (u64, u64)> = BTreeMap::new();
        for t in &self.replayed {
            match t.outcome {
                Ok(RunClass::Correct) => correct += 1,
                Ok(RunClass::Degraded) => degraded += 1,
                Err(_) => {}
            }
            let e = sites.entry((t.site.clone(), t.rank)).or_insert((0, 0));
            e.0 = e.0.max(t.occurrence);
            e.1 += 1;
        }
        let site_rows: Vec<Json> = sites
            .into_iter()
            .map(|((site, rank), (occ, replayed))| {
                Json::obj([
                    ("site", Json::Str(site)),
                    ("rank", Json::num_u64(u64::from(rank))),
                    ("occurrences", Json::num_u64(occ)),
                    ("replayed", Json::num_u64(replayed)),
                ])
            })
            .collect();
        let pair_rows: Vec<Json> = self
            .pairs
            .iter()
            .map(|p| {
                Json::obj([
                    ("label", Json::Str(p.label.to_string())),
                    ("outcome", Json::Str(outcome_str(&p.outcome).to_string())),
                    ("fired", Json::num_u64(p.fired as u64)),
                    ("injections", Json::Arr(p.injections.iter().map(injection_json).collect())),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            (
                "world",
                Json::obj([
                    ("workers", Json::num_u64(u64::from(self.cfg.workers))),
                    ("spares", Json::num_u64(u64::from(self.cfg.spares))),
                    ("seed", Json::num_u64(self.cfg.seed)),
                    ("max_iters", Json::num_u64(self.cfg.max_iters)),
                    ("checkpoint_every", Json::num_u64(self.cfg.checkpoint_every)),
                    ("strategy", Json::Str(self.cfg.strategy.name().to_string())),
                ]),
            ),
            ("enumerated", Json::num_u64(self.enumerated as u64)),
            ("replayed", Json::num_u64(self.replayed.len() as u64)),
            ("skipped_budget", Json::num_u64(self.skipped_budget as u64)),
            ("distinct_kill_points", Json::num_u64(self.distinct_kill_points() as u64)),
            (
                "outcomes",
                Json::obj([
                    ("correct", Json::num_u64(correct)),
                    ("degraded", Json::num_u64(degraded)),
                    ("violations", Json::num_u64(self.violations.len() as u64)),
                ]),
            ),
            ("sites", Json::Arr(site_rows)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(|v| Json::Str(v.clone())).collect()),
            ),
            ("pairs", Json::Arr(pair_rows)),
            ("elapsed_s", Json::Num(self.elapsed.as_secs_f64())),
        ])
    }
}

fn outcome_str(o: &Result<RunClass, String>) -> &'static str {
    match o {
        Ok(RunClass::Correct) => "correct",
        Ok(RunClass::Degraded) => "degraded",
        Err(_) => "violation",
    }
}

fn injection_json(inj: &Injection) -> Json {
    Json::obj([
        ("site", Json::Str(inj.site.clone())),
        ("rank", Json::num_u64(u64::from(inj.rank))),
        ("occurrence", Json::num_u64(inj.occurrence)),
        ("op", Json::Str(inj.action.to_string())),
    ])
}
