//! Checkpoint-tier counters as plain data.
//!
//! Each [`crate::Checkpointer`] counts its own activity (commits, dirty
//! chunks, neighbor copies, PFS spills, restores by provenance); a
//! [`CkptStats`] is the point-in-time readout, plain `Copy` data.
//!
//! Byte accounting of the incremental pipeline: `bytes_local` stays the
//! *logical* full-image size of every commit (what the legacy pipeline
//! shipped), while `chunk_bytes` + `manifest_bytes` is what was
//! physically written and `copy_bytes` what crossed the wire to the
//! neighbor — `dedup_bytes = bytes_local − chunk_bytes` is the win.

/// Point-in-time checkpoint counters for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptStats {
    /// Checkpoint commits (local manifest + dirty-chunk writes).
    pub local_writes: u64,
    /// Logical payload bytes committed (full-image equivalent).
    pub bytes_local: u64,
    /// Commits written as full checkpoints (every chunk dirty).
    pub full_commits: u64,
    /// Commits written incrementally (only changed chunks).
    pub incremental_commits: u64,
    /// Dirty chunks written to the local chunk store.
    pub chunks_written: u64,
    /// Bytes of dirty chunks written to the local chunk store.
    pub chunk_bytes: u64,
    /// Clean payload bytes *not* rewritten thanks to chunk dedup.
    pub dedup_bytes: u64,
    /// Manifest bytes written locally.
    pub manifest_bytes: u64,
    /// Asynchronous neighbor copies completed.
    pub neighbor_copies: u64,
    /// Neighbor copies that failed (dead neighbor / broken link).
    pub copy_failures: u64,
    /// Bytes shipped to the neighbor replica (dirty chunks + manifest).
    pub copy_bytes: u64,
    /// Checkpoint versions spilled (as reconstituted full images) to the
    /// PFS tier.
    pub pfs_spills: u64,
    /// Restores served from the local node.
    pub restores_local: u64,
    /// Restores served from the neighbor replica.
    pub restores_neighbor: u64,
    /// Restores served from the PFS.
    pub restores_pfs: u64,
    /// Total payload bytes restored (all provenances).
    pub restore_bytes: u64,
    /// Manifest versions skipped during restore because a referenced
    /// chunk was missing (fell back to an older version / another tier).
    pub restore_gaps: u64,
    /// Reassembled payloads rejected by the whole-payload checksum.
    pub checksum_failures: u64,
}

impl CkptStats {
    /// Physically written bytes (dirty chunks + manifests) as a fraction
    /// of the logical full-image bytes; 1.0 when nothing was committed.
    pub fn dedup_ratio(&self) -> f64 {
        if self.bytes_local == 0 {
            return 1.0;
        }
        (self.chunk_bytes + self.manifest_bytes) as f64 / self.bytes_local as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_ratio_of_idle_stats_is_one() {
        assert_eq!(CkptStats::default().dedup_ratio(), 1.0);
        let s = CkptStats {
            bytes_local: 100,
            chunk_bytes: 30,
            manifest_bytes: 10,
            ..Default::default()
        };
        assert!((s.dedup_ratio() - 0.4).abs() < 1e-12);
    }
}
