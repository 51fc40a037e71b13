//! # ft-bench — experiment harnesses for the paper's evaluation
//!
//! Shared machinery for regenerating the paper's exhibits:
//!
//! * [`scenario`] — the Fig. 4 runtime scenarios (failure-free baselines,
//!   1/2/3 sequential failure recoveries, 3 simultaneous failures) over
//!   the fault-tolerant Lanczos application, with the overhead
//!   decomposition (computation / redo-work / re-initialize / fault
//!   detection) reconstructed from the job event log.
//! * [`fdscale`] — the Table I measurements: FD ping-scan time and
//!   failure detection + acknowledgment time versus node count.
//! * [`baselines`] — the two detector designs the paper rejected
//!   (§IV-A-b), for the detector ablation.
//! * [`stats`] — small mean/σ helpers.
//! * [`table`] — fixed-width table printing for harness output.
//!
//! The binaries under `benches/` drive these and print paper-style
//! tables; see `EXPERIMENTS.md` at the workspace root for the mapping.

pub mod baselines;
pub mod fdscale;
pub mod miniapp;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod table;
