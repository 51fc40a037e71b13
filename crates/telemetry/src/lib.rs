//! # ft-telemetry — overhead decomposition and unified counters
//!
//! The paper evaluates its fault-tolerance machinery with two exhibits:
//! Fig. 4 decomposes each run's wall time into *computation*, *redo-work*,
//! *re-initialization* (group rebuild + restore) and *fault detection*;
//! Table I reports FD ping-scan and detection/acknowledgment times per
//! node count. Every harness used to reconstruct those numbers by hand
//! from the job's [`ft_core::EventLog`]; this crate centralizes that
//! spelunking once:
//!
//! * [`OverheadReport`] — consumes an event log and produces the paper's
//!   decomposition: per-epoch recovery timelines ([`EpochTimeline`]) with
//!   the three overhead factors (OHF1 = detection + acknowledgment,
//!   OHF2 = group rebuild, OHF3 = restore/re-initialization) plus the
//!   redo time, job totals, FD scan-time statistics ([`ScanStats`]), and
//!   the degraded-mode flags (FD promotion/takeover, capacity exhausted).
//! * [`TelemetrySnapshot`] — one registry over the three counter
//!   families: transport ([`ft_cluster::MetricsSnapshot`]), GASPI layer
//!   ([`ft_gaspi::GaspiSnapshot`]) and checkpoint tier
//!   ([`ft_checkpoint::CkptStats`]), with uniform delta taking.
//! * [`Json`] — a dependency-free JSON value with an emitter and a small
//!   parser, so every run can leave one machine-readable report behind
//!   ([`OverheadReport::to_json_string`]) and tests can assert its
//!   schema.
//!
//! See `ARCHITECTURE.md` at the workspace root for where each reported
//! quantity comes from in the paper.
//!
//! ```
//! use std::time::Duration;
//! use ft_core::{Event, EventKind};
//! use ft_telemetry::OverheadReport;
//!
//! // One failure epoch: killed at 10 ms, detected and acknowledged by
//! // 14 ms, signalled at 15 ms, restored at 22 ms, redone by 30 ms.
//! let ms = Duration::from_millis;
//! let ev = |t, kind| Event { t: ms(t), rank: 0, kind };
//! let log = vec![
//!     ev(10, EventKind::KillFired { iter: 5 }),
//!     ev(13, EventKind::FdDetect { epoch: 1, failed: vec![0] }),
//!     ev(14, EventKind::FdAck { epoch: 1 }),
//!     ev(15, EventKind::FailureSignal { epoch: 1 }),
//!     ev(22, EventKind::Restored { epoch: 1, iter: 4 }),
//!     ev(30, EventKind::RedoComplete { epoch: 1, iter: 5 }),
//!     ev(40, EventKind::Finished { iter: 10 }),
//! ];
//! let rep = OverheadReport::from_events(&log);
//! assert_eq!(rep.detect, ms(5)); // OHF1: kill → failure signal
//! assert_eq!(rep.reinit, ms(7)); // OHF2+OHF3: signal → restored
//! assert_eq!(rep.redo, ms(8));
//! assert_eq!(rep.total, ms(40));
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod json;
pub mod report;

pub use counters::TelemetrySnapshot;
pub use json::Json;
pub use report::{EpochTimeline, OverheadReport, ScanStats};

/// Where harnesses leave their machine-readable reports: the
/// workspace-level `target/telemetry/` directory (`CARGO_TARGET_DIR` when
/// set), independent of the process working directory — `cargo bench`
/// runs bench binaries with the *package* directory as CWD, which would
/// otherwise scatter reports into `crates/bench/target/`.
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
