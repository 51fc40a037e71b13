//! Simulated parallel file system tier.
//!
//! "Typically checkpoints are written to the parallel file system.
//! Writing and retrieving them from PFS is expensive" (§IV-C) — this tier
//! exists to *be expensive*: accesses block the caller for a modeled
//! latency plus bytes/bandwidth, so benchmarks show exactly why the
//! neighbor level is the fast path and PFS only the infrequent safety
//! net. It survives any node failure.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use ft_cluster::Rank;

/// PFS cost model.
#[derive(Debug, Clone)]
pub struct PfsConfig {
    /// Fixed per-access latency (metadata, contention).
    pub latency: Duration,
    /// Sustained bandwidth in bytes/second, shared by reads and writes.
    pub bandwidth: f64,
}

impl Default for PfsConfig {
    fn default() -> Self {
        // ~50× slower than the simulated interconnect: 2 ms seek-ish
        // latency, 200 MB/s.
        Self { latency: Duration::from_millis(2), bandwidth: 200e6 }
    }
}

impl PfsConfig {
    /// An instant PFS for unit tests.
    pub fn instant() -> Self {
        Self { latency: Duration::ZERO, bandwidth: f64::INFINITY }
    }

    /// Block for the modeled cost of moving `bytes`.
    fn charge(&self, bytes: usize) {
        std::thread::sleep(self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth));
    }
}

#[derive(Hash, PartialEq, Eq, Clone, Copy)]
struct PfsKey {
    rank: Rank,
    tag: u32,
    version: u64,
}

/// The simulated PFS: a global blob store with blocking, costed access.
pub struct Pfs {
    cfg: PfsConfig,
    store: Mutex<HashMap<PfsKey, Arc<Vec<u8>>>>,
}

impl Pfs {
    /// An empty PFS with the given cost model.
    pub fn new(cfg: PfsConfig) -> Arc<Self> {
        Arc::new(Self { cfg, store: Mutex::new(HashMap::new()) })
    }

    /// Write a checkpoint image; blocks for the modeled cost.
    pub fn write(&self, rank: Rank, tag: u32, version: u64, data: Arc<Vec<u8>>) {
        self.cfg.charge(data.len());
        self.store.lock().insert(PfsKey { rank, tag, version }, data);
    }

    /// Read a checkpoint image; blocks for the modeled cost.
    pub fn read(&self, rank: Rank, tag: u32, version: u64) -> Option<Arc<Vec<u8>>> {
        let data = self.store.lock().get(&PfsKey { rank, tag, version }).cloned()?;
        self.cfg.charge(data.len());
        Some(data)
    }

    /// Versions stored for `(rank, tag)`, newest first; naming them is free.
    pub fn versions_of(&self, rank: Rank, tag: u32) -> Vec<u64> {
        let store = self.store.lock();
        let mut vs: Vec<u64> =
            store.keys().filter(|k| k.rank == rank && k.tag == tag).map(|k| k.version).collect();
        vs.sort_unstable_by(|a, b| b.cmp(a));
        vs
    }

    /// Number of blobs resident.
    pub fn blobs(&self) -> usize {
        self.store.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_latest() {
        let pfs = Pfs::new(PfsConfig::instant());
        pfs.write(3, 1, 10, Arc::new(vec![1, 2, 3]));
        pfs.write(3, 1, 20, Arc::new(vec![4]));
        pfs.write(4, 1, 99, Arc::new(vec![5]));
        assert_eq!(pfs.versions_of(3, 1), [20, 10]);
        assert!(pfs.versions_of(3, 2).is_empty());
        assert_eq!(pfs.read(3, 1, 10).as_deref(), Some(&vec![1, 2, 3]));
        assert!(pfs.read(9, 1, 1).is_none());
        assert_eq!(pfs.blobs(), 3);
    }

    #[test]
    fn access_is_costed() {
        let pfs = Pfs::new(PfsConfig { latency: Duration::from_millis(5), bandwidth: 1e9 });
        let t0 = std::time::Instant::now();
        pfs.write(0, 0, 1, Arc::new(vec![0u8; 8]));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }
}
