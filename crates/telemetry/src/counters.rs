//! The unified counter registry: one snapshot over all the counter
//! families the stack maintains.
//!
//! Counters live where they are incremented — transport counters in
//! [`ft_cluster::Metrics`], GASPI-layer counters in
//! [`ft_gaspi::GaspiMetrics`], checkpoint-tier counters in each
//! [`ft_checkpoint::Checkpointer`], halo-overlap counters in each
//! [`ft_sparse::SpmvComm`] — and a [`TelemetrySnapshot`] is the
//! point-in-time readout across all of them. Harnesses take one snapshot
//! before and one after a run and diff with [`TelemetrySnapshot::since`].

use ft_checkpoint::CkptStats;
use ft_cluster::MetricsSnapshot;
use ft_gaspi::{GaspiSnapshot, GaspiWorld};
use ft_sparse::HaloStats;

use crate::json::Json;

/// One point-in-time view over every counter family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Transport-level counters (messages, bytes, pings).
    pub transport: MetricsSnapshot,
    /// GASPI-layer counters (notifications, queue flushes, resumes).
    pub gaspi: GaspiSnapshot,
    /// Checkpoint-tier counters (writes, copies, spills, restores).
    /// Zero unless filled in with [`TelemetrySnapshot::with_ckpt`]:
    /// checkpointers are per-rank objects, so their stats arrive merged
    /// through application summaries, not through the world.
    pub ckpt: CkptStats,
    /// spMVM comm/compute-overlap counters (posts, exchanges, overlap
    /// and stall time). Zero unless filled in with
    /// [`TelemetrySnapshot::with_spmv_overlap`]: like the checkpoint
    /// tier, [`ft_sparse::SpmvComm`] is a per-rank object whose stats
    /// arrive merged through application summaries.
    pub spmv_overlap: HaloStats,
}

impl TelemetrySnapshot {
    /// Snapshot the world-held counter families (transport + GASPI).
    pub fn of_world(world: &GaspiWorld) -> Self {
        Self {
            transport: world.transport().metrics().snapshot(),
            gaspi: world.gaspi_metrics().snapshot(),
            ckpt: CkptStats::default(),
            spmv_overlap: HaloStats::default(),
        }
    }

    /// Attach the checkpoint-tier counters (merged across ranks).
    pub fn with_ckpt(mut self, ckpt: CkptStats) -> Self {
        self.ckpt = ckpt;
        self
    }

    /// Attach the spMVM overlap counters (merged across ranks).
    pub fn with_spmv_overlap(mut self, halo: HaloStats) -> Self {
        self.spmv_overlap = halo;
        self
    }

    /// Family-wise counter deltas `self - earlier` (saturating).
    pub fn since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            transport: self.transport.since(&earlier.transport),
            gaspi: self.gaspi.since(&earlier.gaspi),
            ckpt: self.ckpt.since(&earlier.ckpt),
            spmv_overlap: self.spmv_overlap.since(&earlier.spmv_overlap),
        }
    }

    /// The snapshot as a JSON object with one sub-object per family.
    pub fn to_json(&self) -> Json {
        let t = &self.transport;
        let g = &self.gaspi;
        let c = &self.ckpt;
        let s = &self.spmv_overlap;
        Json::obj([
            (
                "transport",
                Json::obj([
                    ("msg_posted", Json::num_u64(t.msg_posted)),
                    ("bytes_posted", Json::num_u64(t.bytes_posted)),
                    ("msg_delivered", Json::num_u64(t.msg_delivered)),
                    ("msg_broken", Json::num_u64(t.msg_broken)),
                    ("msg_dropped_dead_src", Json::num_u64(t.msg_dropped_dead_src)),
                    ("pings", Json::num_u64(t.pings)),
                    ("ping_errors", Json::num_u64(t.ping_errors)),
                ]),
            ),
            (
                "gaspi",
                Json::obj([
                    ("notifications_posted", Json::num_u64(g.notifications_posted)),
                    ("queue_flush_waits", Json::num_u64(g.queue_flush_waits)),
                    ("queue_flush_wait_ns", Json::num_u64(g.queue_flush_wait_ns)),
                    ("barrier_resumes", Json::num_u64(g.barrier_resumes)),
                    ("allreduce_resumes", Json::num_u64(g.allreduce_resumes)),
                    ("group_commits", Json::num_u64(g.group_commits)),
                ]),
            ),
            (
                "checkpoint",
                Json::obj([
                    ("local_writes", Json::num_u64(c.local_writes)),
                    ("bytes_local", Json::num_u64(c.bytes_local)),
                    ("full_commits", Json::num_u64(c.full_commits)),
                    ("incremental_commits", Json::num_u64(c.incremental_commits)),
                    ("chunks_written", Json::num_u64(c.chunks_written)),
                    ("chunk_bytes", Json::num_u64(c.chunk_bytes)),
                    ("dedup_bytes", Json::num_u64(c.dedup_bytes)),
                    ("manifest_bytes", Json::num_u64(c.manifest_bytes)),
                    ("dedup_ratio", Json::Num(c.dedup_ratio())),
                    ("neighbor_copies", Json::num_u64(c.neighbor_copies)),
                    ("copy_failures", Json::num_u64(c.copy_failures)),
                    ("copy_bytes", Json::num_u64(c.copy_bytes)),
                    ("pfs_spills", Json::num_u64(c.pfs_spills)),
                    ("restores_local", Json::num_u64(c.restores_local)),
                    ("restores_neighbor", Json::num_u64(c.restores_neighbor)),
                    ("restores_pfs", Json::num_u64(c.restores_pfs)),
                    ("restore_bytes", Json::num_u64(c.restore_bytes)),
                    ("restore_gaps", Json::num_u64(c.restore_gaps)),
                    ("checksum_failures", Json::num_u64(c.checksum_failures)),
                ]),
            ),
            (
                "spmv_overlap",
                Json::obj([
                    ("exchanges", Json::num_u64(s.exchanges)),
                    ("posts", Json::num_u64(s.posts)),
                    ("stale_drops", Json::num_u64(s.stale_drops)),
                    ("overlap_ns", Json::num_u64(s.overlap_ns)),
                    ("wait_stall_ns", Json::num_u64(s.wait_stall_ns)),
                    ("overlap_efficiency", Json::Num(s.overlap_efficiency())),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_diffs_every_family() {
        let a = TelemetrySnapshot {
            transport: MetricsSnapshot { msg_posted: 10, ..Default::default() },
            gaspi: GaspiSnapshot { notifications_posted: 4, ..Default::default() },
            ckpt: CkptStats { local_writes: 3, ..Default::default() },
            spmv_overlap: HaloStats { exchanges: 9, overlap_ns: 500, ..Default::default() },
        };
        let b = TelemetrySnapshot {
            transport: MetricsSnapshot { msg_posted: 7, ..Default::default() },
            gaspi: GaspiSnapshot { notifications_posted: 1, ..Default::default() },
            ckpt: CkptStats { local_writes: 1, ..Default::default() },
            spmv_overlap: HaloStats { exchanges: 4, overlap_ns: 100, ..Default::default() },
        };
        let d = a.since(&b);
        assert_eq!(d.transport.msg_posted, 3);
        assert_eq!(d.gaspi.notifications_posted, 3);
        assert_eq!(d.ckpt.local_writes, 2);
        assert_eq!(d.spmv_overlap.exchanges, 5);
        assert_eq!(d.spmv_overlap.overlap_ns, 400);
    }

    #[test]
    fn json_has_all_four_families() {
        let j = TelemetrySnapshot::default().to_json();
        for family in ["transport", "gaspi", "checkpoint", "spmv_overlap"] {
            assert!(j.get(family).is_some(), "missing {family}");
        }
        assert_eq!(
            j.get("gaspi").and_then(|g| g.get("group_commits")).and_then(Json::as_u64),
            Some(0)
        );
        // The incremental-pipeline counters are reported.
        for key in ["chunks_written", "chunk_bytes", "dedup_bytes", "manifest_bytes", "copy_bytes"]
        {
            assert_eq!(
                j.get("checkpoint").and_then(|c| c.get(key)).and_then(Json::as_u64),
                Some(0),
                "missing checkpoint.{key}"
            );
        }
        let ratio = j.get("checkpoint").and_then(|c| c.get("dedup_ratio"));
        assert!(matches!(ratio, Some(Json::Num(v)) if *v == 1.0));
        // An idle snapshot reports perfect (vacuous) overlap.
        let eff = j.get("spmv_overlap").and_then(|s| s.get("overlap_efficiency"));
        assert!(matches!(eff, Some(Json::Num(v)) if *v == 1.0));
    }
}
