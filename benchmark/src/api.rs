//! The single module through which the benchmark touches the repo's crates.
//!
//! Every item the benchmark depends on is re-exported here, once, so a later
//! PR that changes a signature knows from this list whether the benchmark is
//! a caller. Nothing here is on ROADMAP item 2/3's removal lists: no
//! `OverheadReport`, `TelemetrySnapshot`, `*Stats`, `FtApp::checkpoint` /
//! `restore`, `FtConfig::new`, `glo_health_chk`, `core::baselines` or
//! non-default kernel. The one exception is [`EventLog`]: `run_detector`
//! takes one by reference, so the benchmark constructs an empty log to pass
//! in and never reads it.
//!
//! Non-benchmark PRs may not edit `benchmark/`, so a signature listed here is
//! load-bearing: changing it needs a benchmark PR of its own first.

// -- cluster: the transports and the fault plane ---------------------------
pub use ft_cluster::{
    default_shards, Endpoint, FaultPlane, FaultSchedule, LatencyModel, QueueId, Rank, SimTransport,
    TcpTransport, Topology, Transport,
};

// -- gaspi: worlds, process handles, one-sided ops and collectives ----------
pub use ft_gaspi::{GaspiConfig, GaspiProc, GaspiWorld, ReduceOp, Timeout, ALLREDUCE_MAX_ELEMS};

// -- checkpoint: the neighbour-level checkpoint library ---------------------
pub use ft_checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy, Pfs, PfsConfig};

// -- core: the driver, the detector and the acknowledgment channel ----------
/// `ack::broadcast_plan`, probed on its own for `core.ack_broadcast_us`.
pub use ft_core::ack::broadcast_plan;
pub use ft_core::ack::{create_ctrl_segment, read_plan, signal_done, CTRL_SEG, DONE_NOTIF};
pub use ft_core::detector::{glo_health_chk_graced, run_detector};
pub use ft_core::{
    child_env, run_child, run_ft_job, run_supervisor, ChildEnv, DetectorConfig, EventLog, FtApp,
    FtConfig, FtCtx, FtError, FtResult, FtSignal, RecoveryPlan, StrategyKind, SupervisorConfig,
    WorldLayout,
};

// -- sparse / matgen / solver: the application ------------------------------
pub use ft_matgen::graphene::Graphene;
pub use ft_matgen::RowGen;
pub use ft_solver::seq::SeqLanczos;
pub use ft_solver::{
    tridiag_eigenvalues, FtLanczos, FtLanczosConfig, LanczosState, LanczosSummary,
};
pub use ft_sparse::{CommPlan, DistMatrix, KernelPolicy, RowPartition, SpmvComm};
