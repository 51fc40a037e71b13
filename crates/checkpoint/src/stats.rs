//! Checkpoint-tier counters as plain data.
//!
//! Each [`crate::Checkpointer`] counts its own activity (commits, neighbor
//! copies, PFS spills, restores by provenance); a [`CkptStats`] is the
//! point-in-time readout, plain `Copy` data. `bytes_local` counts payload
//! bytes; `copy_bytes` counts what crossed the wire to the neighbor, the
//! sealed images with their trailers.

/// Point-in-time checkpoint counters for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptStats {
    /// Checkpoint commits (one local image write each).
    pub local_writes: u64,
    /// Payload bytes committed.
    pub bytes_local: u64,
    /// Asynchronous neighbor copies completed.
    pub neighbor_copies: u64,
    /// Neighbor copies that failed (dead neighbor / broken link).
    pub copy_failures: u64,
    /// Image bytes shipped to the neighbor replica.
    pub copy_bytes: u64,
    /// Checkpoint versions spilled to the PFS tier.
    pub pfs_spills: u64,
    /// Restores served from the local node.
    pub restores_local: u64,
    /// Restores served from the neighbor replica.
    pub restores_neighbor: u64,
    /// Restores served from the PFS.
    pub restores_pfs: u64,
    /// Total payload bytes restored (all provenances).
    pub restore_bytes: u64,
    /// Tier answers that met an image failing verification.
    pub checksum_failures: u64,
}
