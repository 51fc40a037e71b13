//! # ft-checkpoint — fault-aware neighbor node-level checkpoint/restart
//!
//! The paper's third contribution (§IV-C): writing checkpoints to the
//! parallel file system is expensive, so this library checkpoints to the
//! **local node** first and then asynchronously replicates each checkpoint
//! to the **neighbor node**, from a library thread the application merely
//! signals (paper Fig. 2). Optionally, every k-th checkpoint also goes to
//! a (slow, simulated) PFS tier for a higher degree of reliability.
//!
//! On top of the paper's tiering, commits are **incremental and
//! chunk-deduplicated** (module [`chunk`]): payloads are split into
//! fixed-size content-hashed chunks, [`Checkpointer::commit`] writes only
//! the chunks that changed since the previous commit plus a compact
//! manifest, and the neighbor copy ships only those dirty chunks.
//! Periodic full commits bound the delta chain; every restore reassembles
//! a full image from manifest + chunks and verifies a whole-payload
//! checksum, falling back to the previous consistent version on any gap.
//!
//! Because node-local storage dies with the node, a failed rank's state is
//! recovered from the *neighbor's* replica — and since failures change who
//! neighbors whom, the library is itself fault-aware:
//! [`Checkpointer::refresh_failed`] re-derives the neighbor ring from the
//! cumulative failed-process list the fault detector distributes, exactly
//! as the paper describes ("the C/R library refreshes its list of
//! neighboring processes based on the failed processes list provided by
//! the application thread"), and additionally forces the next commit to be
//! full so a new replica holder gets a self-contained base image.
//!
//! The store's surface is [`Checkpointer::commit`], [`Checkpointer::probe`]
//! (newest restorable version over all tiers) and [`Checkpointer::pull`]
//! (that version's image); [`Checkpointer::restore_latest`] takes what the
//! nearest tier holds. All three walk local node → neighbor replica → PFS
//! and ask a remote replica holder one of the two request kinds of
//! [`service`] (copy, fetch). The returned [`Provenance`] attributes
//! re-initialization cost (the paper's OHF3); [`RestoreOutcome`] says *why*
//! a restore missed (not found / timeout / checksum mismatch).

pub mod chunk;
pub mod neighbor;
pub mod pfs;
pub mod service;
pub mod stats;
pub mod writer;

pub use chunk::{
    chunk_hashes, chunk_range, chunk_tag, Manifest, CHUNK_TAG_BIT, DEFAULT_CHUNK_SIZE,
};
pub use ft_cluster::codec::{content_hash64, CodecError, Dec, Enc, Wire};
pub use neighbor::NeighborMap;
pub use pfs::{Pfs, PfsConfig};
pub use stats::CkptStats;
pub use writer::{
    Checkpointer, CheckpointerConfig, ConfigError, CopyPolicy, MissReason, Provenance,
    RestoreOutcome, Restored,
};
