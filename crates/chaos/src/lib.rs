//! # ft-chaos — deterministic kill-point exploration
//!
//! The paper validates its recovery machinery by killing processes at
//! *arbitrary moments* (§VI); the storm test in `ft-core` reproduces that
//! with seeded wall-clock kills. This crate makes the failure space
//! *enumerable* instead of sampled: it drives the step-indexed injection
//! sites (see [`ft_cluster::inject`]) through two sweeps —
//!
//! * [`sweep::exhaustive_sweep`] — a recording pass enumerates every
//!   `(site, occurrence, rank)` triple a small accumulator job crosses,
//!   then one job is replayed per triple with a kill armed there,
//!   asserting the chaos contract: a replay either completes with the
//!   exact expected value or degrades cleanly (recorded failure, no
//!   wrong number) — never a hang, never silent corruption.
//! * [`scenario::pair_sweep`] — scenarios arming a *second* failure inside
//!   the recovery window the first one opens (group rebuild, commit,
//!   rescue neighbor re-copy) plus a spare-exhaustion run, covering the
//!   failure-during-recovery paths a single kill cannot reach.
//!
//! Results aggregate into a `gaspi-ft/killpoint-sweep/v1` JSON document
//! ([`report::SweepReport`]) written to `target/telemetry/` by the
//! `killpoint_sweep` binary, so CI diffs site coverage across PRs.
//!
//! Every job runs through one [`sweep::run`] on either backend and is
//! judged by one [`sweep::classify`]. Over the **process backend** (every
//! rank an OS process over TCP, kills delivered as real `SIGKILL`s or
//! armed process exits) [`process`] replays kill and partition triples and
//! [`scenario::process_scenarios`] is the end-to-end table; the
//! `process_sweep` binary runs both — the transport seam's conformance
//! suite.

#![warn(missing_docs)]

pub mod app;
pub mod json;
pub mod process;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use app::SweepApp;
pub use json::Json;
pub use process::{
    maybe_run_child, process_smoke_sweep, select_triples, ExcludeReason, Replay, TripleSelection,
};
pub use report::{
    class_label, triple_row, world_json, write_report, SweepReport, TripleOutcome, SCHEMA,
};
pub use scenario::{
    pair_scenarios, pair_sweep, process_scenarios, Expect, Pred, Scenario, ScenarioOutcome,
};
pub use sweep::{classify, exhaustive_sweep, replay, run, Backend, Facts, RunClass, SweepConfig};

/// Where the sweep binaries leave their machine-readable reports: the
/// workspace-level `target/telemetry/` directory (`CARGO_TARGET_DIR` when
/// set), independent of the process working directory, so CI finds the
/// artifacts at one path however the binary was launched.
pub fn telemetry_dir() -> std::path::PathBuf {
    use std::path::PathBuf;
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")),
        PathBuf::from,
    );
    target.join("telemetry")
}

#[cfg(test)]
mod tests {
    #[test]
    fn telemetry_dir_is_absolute_workspace_target() {
        let d = super::telemetry_dir();
        assert!(d.is_absolute() || std::env::var_os("CARGO_TARGET_DIR").is_some());
        assert!(d.ends_with("target/telemetry"));
    }
}
