//! # ft-gaspi — a GASPI/GPI-2-style PGAS runtime over a simulated cluster
//!
//! GASPI (Global Address Space Programming Interface) is the PGAS
//! communication specification the paper builds on; GPI-2 is its reference
//! implementation. This crate implements the *subset of the GASPI API the
//! paper uses*, in safe Rust, over the [`ft_cluster`] transport:
//!
//! * **Segments** — contiguous blocks of memory made remotely accessible
//!   ([`GaspiProc::segment_create`]); data to be communicated is placed in
//!   segments.
//! * **One-sided communication** — [`GaspiProc::write`],
//!   [`GaspiProc::notify`], [`GaspiProc::write_notify`]; completion via
//!   [`GaspiProc::wait`] on a queue, remote completion via
//!   [`GaspiProc::notify_waitsome`].
//! * **Groups and collectives** — [`GaspiProc::group_create_with_id`] /
//!   `group_add` / `group_commit` / `group_delete`, [`GaspiProc::barrier`],
//!   [`GaspiProc::allreduce_f64`] — the pieces Listing 2 of the paper uses
//!   to rebuild the worker group after a failure — plus
//!   [`GaspiProc::alltoall`], a one-hop personalised exchange under the
//!   same timeout/resume contract (not in the specification).
//! * **Passive communication** ([`GaspiProc::passive_send`] /
//!   [`GaspiProc::passive_receive`]).
//! * **Timeouts everywhere** — every potentially blocking procedure takes
//!   a [`Timeout`] and can return [`GaspiError::Timeout`], the first of
//!   the two GASPI fault-tolerance concepts.
//! * **The error state vector** — [`GaspiProc::state_vec_get`], set after
//!   every erroneous non-local operation, the second concept.
//! * **The paper's extensions** — [`GaspiProc::proc_ping`] (§III: "a ping
//!   message is sent to a particular process; in case a problem is
//!   detected, a GASPI_ERROR is returned") and [`GaspiProc::proc_kill`]
//!   (enforces death of false-positive suspects, §IV-B).
//!
//! Ranks are OS threads spawned by [`GaspiWorld::launch`]; fail-stop
//! failures are injected through the world's [`ft_cluster::FaultPlane`]
//! and surface exactly like on a real cluster: local calls of the victim
//! stop (the thread unwinds), remote operations targeting it time out or
//! complete with errors, and its ping starts returning `GASPI_ERROR`.

pub mod bytes;
pub mod config;
pub mod error;
pub mod proc;
pub mod runtime;
pub mod segment;

mod collectives;
mod endpoint;
mod group;
mod queue;

pub use collectives::ALLREDUCE_MAX_ELEMS;
pub use config::{GaspiConfig, APP_QUEUES};
pub use endpoint::CKPT_QUEUE_BASE;
pub use error::{GaspiError, GaspiResult, ProcState, Timeout};
pub use group::Group;
pub use proc::GaspiProc;
pub use runtime::{CkptHandler, GaspiWorld, JobHandle, RankOutcome};
pub use segment::{NotificationId, SegId};

/// Reduction operations for [`GaspiProc::allreduce_f64`] /
/// [`GaspiProc::allreduce_u64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Element-wise bitwise XOR. For `f64` buffers the XOR is applied
    /// to the IEEE-754 bit patterns, making the reduction exact and
    /// order-independent — the property a parity code needs.
    BitXor,
}
