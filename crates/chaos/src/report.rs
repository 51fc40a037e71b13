//! The `gaspi-ft/killpoint-sweep/v1` coverage report (schema asserted in
//! `tests/sweep.rs`), the JSON rows both sweep documents are made of, and
//! [`write_report`], which puts a document into `target/telemetry/`.

use std::collections::BTreeMap;
use std::time::Duration;

use ft_cluster::{FaultAction, Rank, SiteRecord};

use crate::json::Json;
use crate::process::Replay;
use crate::scenario::ScenarioOutcome;
use crate::sweep::{RunClass, SweepConfig};

/// Schema identifier of the report document.
pub const SCHEMA: &str = "gaspi-ft/killpoint-sweep/v1";

/// One replayed single-kill triple and how it ended.
#[derive(Debug)]
pub struct TripleOutcome {
    /// The crossing the kill (of the crossing rank) was armed at.
    pub triple: SiteRecord,
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
    pub pairs: Vec<ScenarioOutcome>,
    /// Sweep wall-clock.
    pub elapsed: Duration,
}

impl SweepReport {
    /// Coverage per `(site, rank)` kill point among the replayed triples:
    /// (highest occurrence replayed, replays).
    fn coverage(&self) -> BTreeMap<(&str, Rank), (u64, u64)> {
        let mut sites = BTreeMap::new();
        for t in self.replayed.iter().map(|t| &t.triple) {
            let e = sites.entry((t.site.as_str(), t.rank)).or_insert((0, 0));
            *e = (t.occurrence.max(e.0), e.1 + 1);
        }
        sites
    }

    /// Distinct `(site, rank)` kill points among the replayed triples.
    pub fn distinct_kill_points(&self) -> usize {
        self.coverage().len()
    }

    /// `(correct, degraded)` among the replayed triples.
    pub fn class_counts(&self) -> (u64, u64) {
        let count = |c| self.replayed.iter().filter(|t| t.outcome == Ok(c)).count() as u64;
        (count(RunClass::Correct), count(RunClass::Degraded))
    }

    /// True when every replay (single and pair) satisfied the contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.pairs.iter().all(|p| p.outcome.is_ok())
    }

    /// Render the `gaspi-ft/killpoint-sweep/v1` document.
    pub fn to_json(&self) -> Json {
        let (correct, degraded) = self.class_counts();
        let site_rows = self.coverage().into_iter().map(|((site, rank), (occ, replayed))| {
            Json::obj([
                ("site", Json::Str(site.to_string())),
                ("rank", Json::num_u64(u64::from(rank))),
                ("occurrences", Json::num_u64(occ)),
                ("replayed", Json::num_u64(replayed)),
            ])
        });
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            ("world", world_json(&self.cfg)),
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
            ("sites", Json::Arr(site_rows.collect())),
            (
                "violations",
                Json::Arr(self.violations.iter().map(|v| Json::Str(v.clone())).collect()),
            ),
            ("pairs", Json::Arr(self.pairs.iter().map(ScenarioOutcome::row).collect())),
            ("elapsed_s", Json::Num(self.elapsed.as_secs_f64())),
        ])
    }
}

/// The `world` member of both sweep documents.
pub fn world_json(cfg: &SweepConfig) -> Json {
    Json::obj([
        ("workers", Json::num_u64(u64::from(cfg.workers))),
        ("spares", Json::num_u64(u64::from(cfg.spares))),
        ("seed", Json::num_u64(crate::sweep::SEED)),
        ("max_iters", Json::num_u64(cfg.max_iters)),
        ("checkpoint_every", Json::num_u64(cfg.checkpoint_every)),
        ("strategy", Json::Str(cfg.strategy.name().to_string())),
    ])
}

/// `correct` / `degraded` / `violation: <why>`.
pub fn class_label(c: &Result<RunClass, String>) -> String {
    match c {
        Ok(RunClass::Correct) => "correct".to_string(),
        Ok(RunClass::Degraded) => "degraded".to_string(),
        Err(v) => format!("violation: {v}"),
    }
}

/// The one rendering of a `(site, rank, occurrence)` triple: every row
/// about a crossing starts with these three members.
pub fn triple_row(
    site: &str,
    rank: Rank,
    occurrence: u64,
    more: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let triple = [
        ("site", Json::Str(site.to_string())),
        ("rank", Json::num_u64(u64::from(rank))),
        ("occurrence", Json::num_u64(occurrence)),
    ];
    Json::obj(triple.into_iter().chain(more))
}

impl Replay {
    /// The replay's row in `process-sweep.json` (`triples` for a kill,
    /// `partitions` — with the severed `peer` — for a break).
    pub fn row(&self) -> Json {
        let peer = match self.armed.action {
            FaultAction::BreakLink(_, peer) => Some(("peer", Json::num_u64(u64::from(peer)))),
            _ => None,
        };
        let verdicts = [
            ("outcome", Json::Str(class_label(&self.process))),
            ("in_memory", Json::Str(class_label(&self.in_memory))),
            ("backends_agree", Json::Bool(self.agree())),
        ];
        let t = &self.armed;
        triple_row(&t.site, t.rank, t.occurrence, peer.into_iter().chain(verdicts))
    }
}

impl ScenarioOutcome {
    /// The scenario's row (`pairs` in the killpoint document, `scenarios`
    /// in the process one). `fired` counts what the in-memory fault plane
    /// saw fire; a rank process's plane dies with it, so there it is 0.
    pub fn row(&self) -> Json {
        let injections = self.scenario.schedule.injections().iter().map(|inj| {
            let op = [("op", Json::Str(inj.action.to_string()))];
            triple_row(&inj.site, inj.rank, inj.occurrence, op)
        });
        Json::obj([
            ("label", Json::Str(self.scenario.label.to_string())),
            ("outcome", Json::Str(class_label(&self.outcome))),
            ("fired", Json::num_u64(self.facts.fired.len() as u64)),
            ("injections", Json::Arr(injections.collect())),
            ("elapsed_s", Json::Num(self.facts.elapsed.as_secs_f64())),
        ])
    }
}

/// Write `doc` as `target/telemetry/<name>` — whole or not at all: through
/// a temporary file, so no reader ever parses half a document — and say
/// where it went.
pub fn write_report(name: &str, doc: Json) -> std::io::Result<()> {
    let path = crate::telemetry_dir().join(name);
    std::fs::create_dir_all(path.parent().expect("telemetry_dir() is a directory"))?;
    let tmp = path.with_extension(format!("{}.tmp", std::process::id()));
    std::fs::write(&tmp, doc.render())?;
    std::fs::rename(&tmp, &path)?;
    println!("report written to {}", path.display());
    Ok(())
}
