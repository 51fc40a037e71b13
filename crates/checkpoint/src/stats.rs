//! Checkpoint-tier counters as plain data.
//!
//! Each [`crate::Checkpointer`] counts its own activity (commits, dirty
//! chunks, neighbor copies, PFS spills, restores by provenance); a
//! [`CkptStats`] is the point-in-time readout. The struct is plain `Copy`
//! data so application summaries can carry it out of a rank thread and a
//! caller can [`CkptStats::merge`] the per-rank values into a job-wide
//! total.
//!
//! Byte accounting of the incremental pipeline: `bytes_local` stays the
//! *logical* full-image size of every commit (what the legacy pipeline
//! shipped), while `chunk_bytes` + `manifest_bytes` is what was
//! physically written and `copy_bytes` what crossed the wire to the
//! neighbor — `dedup_bytes = bytes_local − chunk_bytes` is the win.

/// Point-in-time checkpoint counters for one rank (or, after
/// [`CkptStats::merge`], a whole job).
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
    /// Accumulate `other` into `self` (field-wise sum).
    pub fn merge(&mut self, other: &CkptStats) {
        self.local_writes += other.local_writes;
        self.bytes_local += other.bytes_local;
        self.full_commits += other.full_commits;
        self.incremental_commits += other.incremental_commits;
        self.chunks_written += other.chunks_written;
        self.chunk_bytes += other.chunk_bytes;
        self.dedup_bytes += other.dedup_bytes;
        self.manifest_bytes += other.manifest_bytes;
        self.neighbor_copies += other.neighbor_copies;
        self.copy_failures += other.copy_failures;
        self.copy_bytes += other.copy_bytes;
        self.pfs_spills += other.pfs_spills;
        self.restores_local += other.restores_local;
        self.restores_neighbor += other.restores_neighbor;
        self.restores_pfs += other.restores_pfs;
        self.restore_bytes += other.restore_bytes;
        self.restore_gaps += other.restore_gaps;
        self.checksum_failures += other.checksum_failures;
    }

    /// Restores served from any tier.
    pub fn total_restores(&self) -> u64 {
        self.restores_local + self.restores_neighbor + self.restores_pfs
    }

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
    fn merge_sums_fieldwise() {
        let mut a = CkptStats { local_writes: 1, restore_bytes: 10, ..Default::default() };
        let b = CkptStats {
            local_writes: 2,
            restores_local: 1,
            restores_neighbor: 2,
            restores_pfs: 3,
            chunks_written: 4,
            chunk_bytes: 100,
            dedup_bytes: 50,
            manifest_bytes: 7,
            copy_bytes: 20,
            restore_gaps: 1,
            checksum_failures: 1,
            full_commits: 1,
            incremental_commits: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.local_writes, 3);
        assert_eq!(a.restore_bytes, 10);
        assert_eq!(a.total_restores(), 6);
        assert_eq!(a.chunks_written, 4);
        assert_eq!(a.chunk_bytes, 100);
        assert_eq!(a.dedup_bytes, 50);
        assert_eq!(a.manifest_bytes, 7);
        assert_eq!(a.copy_bytes, 20);
        assert_eq!(a.restore_gaps, 1);
        assert_eq!(a.checksum_failures, 1);
        assert_eq!(a.full_commits + a.incremental_commits, 2);
    }

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
