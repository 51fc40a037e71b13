//! # ft-core — the paper's fault-tolerance machinery
//!
//! This crate is the reproduction of the paper's primary contribution
//! (§IV): everything needed to turn a GASPI application into one that
//! *heals itself* after fail-stop process/node failures, without
//! restarting the job.
//!
//! The moving parts, mapped to the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | idle/worker process categories, spare pool (§IV intro) | [`layout`] |
//! | fault detector process, the epoch-batched form of `glo_health_chk` (Listing 1) | [`detector`] |
//! | failure acknowledgment via one-sided writes into global memory | [`ack`] |
//! | workers checking for the ack signal before each communication | [`health`] |
//! | rescue adoption + worker-group reconstruction (Listing 2) | [`plan`], [`recovery`] |
//! | application flow with spare processes (Fig. 3) | [`driver`] |
//! | overhead decomposition OHF1/OHF2/OHF3 (§IV-E) | [`events`] |
//!
//! The entry point for applications is the [`driver::FtApp`] trait plus
//! [`driver::run_ft_job`]: provide `setup` / `step` / `rewire` and the
//! state hooks (`export_state` / `load_state` / `reset_state`), and the
//! driver runs the full Fig. 3 flow — worker group, dedicated FD, idle
//! rescues, non-shrinking recovery through the configured preset of
//! [`Checkpointed`] — over a simulated cluster with injected failures.

pub mod ack;
pub mod ckpt;
pub mod detector;
pub mod driver;
pub mod error;
pub mod events;
pub mod health;
pub mod layout;
pub mod plan;
pub mod process;
pub mod recovery;
pub mod replay;
pub mod strategy;
pub mod stripe;

pub use detector::DetectorConfig;
pub use driver::{
    run_ft_job, run_ft_rank, FtApp, FtConfig, FtConfigBuilder, FtConfigError, FtCtx, JobReport,
    RankReport, Role,
};
pub use error::{FtError, FtResult, FtSignal};
pub use events::{Event, EventKind, EventLog};
pub use health::HealthWatch;
pub use layout::{RankMap, WorldLayout};
pub use plan::RecoveryPlan;
pub use process::{
    child_env, run_child, run_supervisor, ChildEnv, ProcJobReport, ProcOutcome, ProcResult,
    SupervisorConfig,
};
pub use strategy::{Checkpointed, StrategyKind};
