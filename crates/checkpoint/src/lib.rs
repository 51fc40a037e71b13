//! # ft-checkpoint — fault-aware neighbor node-level checkpoint/restart
//!
//! The paper's third contribution (§IV-C): writing checkpoints to the
//! parallel file system is expensive, so this library checkpoints to the
//! **local node** first and then asynchronously replicates each checkpoint
//! to the **neighbor node**, from a library thread the application merely
//! signals (paper Fig. 2). A stream given a PFS also spills every checkpoint
//! to that (slow, simulated) tier for a higher degree of reliability.
//!
//! Each version is one self-verifying image (module [`image`]): the
//! payload plus a trailer `(magic, version, len, checksum)`, written by
//! one put that is the commit's atomic point. The neighbor and the PFS
//! keep the same image, and every restore verifies it, falling back to
//! the previous version when it does not.
//!
//! Because node-local storage dies with the node, a failed rank's state is
//! recovered from the *neighbor's* replica — and since failures change who
//! neighbors whom, the library is itself fault-aware:
//! [`Checkpointer::refresh_failed`] re-derives the neighbor ring from the
//! cumulative failed-process list the fault detector distributes, exactly
//! as the paper describes ("the C/R library refreshes its list of
//! neighboring processes based on the failed processes list provided by
//! the application thread").
//!
//! The store's surface is [`Checkpointer::commit`], [`Checkpointer::probe`]
//! (newest restorable version over all tiers) and [`Checkpointer::pull`]
//! (that version's image); [`Checkpointer::restore_latest`] takes what the
//! nearest tier holds. All three walk local node → neighbor replica → PFS
//! and ask a remote replica holder one of the two request kinds of
//! [`service`] (copy, fetch). The returned [`Provenance`] attributes
//! re-initialization cost (the paper's OHF3); [`RestoreOutcome`] says *why*
//! a restore missed (not found / timeout / checksum mismatch).

pub mod image;
pub mod neighbor;
pub mod pfs;
pub mod service;
pub mod stats;
pub mod writer;

pub use ft_cluster::codec::{CodecError, Dec, Enc, Wire};
pub use neighbor::NeighborMap;
pub use pfs::{Pfs, PfsConfig};
pub use stats::CkptStats;
pub use writer::{
    Checkpointer, CheckpointerConfig, ConfigError, CopyPolicy, MissReason, Provenance,
    RestoreOutcome, Restored,
};
