//! # ft-cluster — simulated HPC cluster substrate
//!
//! This crate models the hardware the paper ran on (the RRZE *LiMa*
//! cluster: nodes connected by QDR InfiniBand) inside a single OS process,
//! so that the GASPI-level fault-tolerance machinery built on top of it can
//! be exercised, failed, and benchmarked deterministically on a laptop.
//!
//! The pieces:
//!
//! * [`topology`] — ranks, nodes, and the rank↔node placement.
//! * [`fault`] — the *fault plane*: per-rank liveness, node kills, link
//!   (network) faults, and failure schedules. Fail-stop failures are
//!   modeled by poisoning a rank's liveness flag; the communication layer
//!   panics with [`fault::RankKilled`] at the rank's next call, which the
//!   runtime catches at the rank-thread boundary.
//! * [`transport`] — an in-memory network with a *sharded* timing-wheel
//!   scheduler (one heap + lock + scheduler thread per node-group shard):
//!   messages are posted with a byte count, acquire a latency from the
//!   [`time::LatencyModel`] (jitter drawn from counter-based per-stream
//!   RNG streams, so same-seed runs are bit-identical regardless of thread
//!   interleaving or shard count), and are delivered (the destination's
//!   endpoint runs, then the sender's completion) when due. Messages
//!   between the same (source, queue, target) triple are delivered in FIFO
//!   order, like a GASPI queue. Delivery to a dead rank or across a broken
//!   link completes with [`transport::Outcome::Broken`] after a
//!   configurable break-detection delay — this is what makes
//!   `gaspi_proc_ping` return an error for failed processes.
//! * [`storage`] — node-local in-memory storage that is destroyed when its
//!   node is killed; the neighbor-level checkpoint library builds on it.
//! * [`time`] — the latency model.
//! * [`monitor`] — the one blocking primitive every in-memory wait parks
//!   on.

#![warn(missing_docs)]

pub mod codec;
pub mod fault;
pub mod inject;
pub mod monitor;
pub mod storage;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod transport;

pub use codec::{CodecError, Dec, Enc, Wire};
pub use fault::{
    FaultAction, FaultPlane, FaultSchedule, RankKilled, ScheduleTimer, KILLED_EXIT_CODE,
};
pub use inject::{site_is_deterministic, Injection, SiteName, SiteRecord};
pub use monitor::{Monitor, Signal};
pub use storage::{BlobKey, NodeStorage};
pub use tcp::TcpTransport;
pub use time::LatencyModel;
pub use topology::{NodeId, Rank, Topology};
pub use transport::{
    default_shards, stream_jitter_u, Completion, Endpoint, FanoutCompletion, Outcome, QueueId,
    SimTransport, Transport, TransportOwner,
};
