//! Node-local in-memory storage.
//!
//! Models each compute node's local RAM-disk/SSD where the paper's
//! checkpoint library first writes its checkpoints (§IV-C). The defining
//! property, and the whole reason neighbor-level checkpointing exists, is
//! that **this storage dies with the node**: [`NodeStorage::attach`]
//! registers a fault-plane hook that wipes a node's blobs the moment the
//! node is killed. Checkpoints survive only where the library replicated
//! them — the neighbor node or the (slow) parallel file system.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::fault::FaultPlane;
use crate::topology::{NodeId, Rank, Topology};

/// Identifies one stored blob: which rank produced it, an application tag
/// (e.g. "lanczos-state" vs "comm-plan"), and a monotonically increasing
/// version (checkpoint number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobKey {
    /// Producing rank.
    pub rank: Rank,
    /// Application-chosen stream tag.
    pub tag: u32,
    /// Version / checkpoint counter.
    pub version: u64,
}

type Shelf = HashMap<BlobKey, Arc<Vec<u8>>>;

/// Per-node blob stores for a whole simulated cluster.
pub struct NodeStorage {
    topo: Topology,
    shelves: Vec<Mutex<Shelf>>,
}

impl NodeStorage {
    /// Empty storage for every node in the topology.
    pub fn new(topo: Topology) -> Arc<Self> {
        let shelves = (0..topo.num_nodes()).map(|_| Mutex::new(Shelf::new())).collect();
        Arc::new(Self { topo, shelves })
    }

    /// Register the kill hook that wipes a node's shelf when the node dies.
    /// Call once after construction.
    pub fn attach(self: &Arc<Self>, fault: &FaultPlane) {
        let me = Arc::clone(self);
        fault.on_kill(move |ev| {
            if let Some(node) = ev.node {
                me.clear_node(node);
            }
        });
    }

    fn shelf(&self, node: NodeId) -> &Mutex<Shelf> {
        &self.shelves[node.0 as usize]
    }

    /// Store a blob on `node`. Overwrites an existing blob with the same
    /// key.
    pub fn put(&self, node: NodeId, key: BlobKey, data: Arc<Vec<u8>>) {
        self.shelf(node).lock().insert(key, data);
    }

    /// Fetch a blob from `node`.
    pub fn get(&self, node: NodeId, key: BlobKey) -> Option<Arc<Vec<u8>>> {
        self.shelf(node).lock().get(&key).cloned()
    }

    /// All versions stored on `node` for `(rank, tag)`, newest first.
    /// The checkpoint writer walks this when restoring: try the newest
    /// image, fall back to older ones when it does not verify.
    pub fn versions_of(&self, node: NodeId, rank: Rank, tag: u32) -> Vec<u64> {
        let mut vs: Vec<u64> = self
            .shelf(node)
            .lock()
            .keys()
            .filter(|k| k.rank == rank && k.tag == tag)
            .map(|k| k.version)
            .collect();
        vs.sort_unstable_by(|a, b| b.cmp(a));
        vs
    }

    /// Drop all versions of `(rank, tag)` on `node` older than
    /// `keep_from`. Returns how many blobs were pruned. The checkpoint
    /// writer uses this to keep a bounded history.
    pub fn prune(&self, node: NodeId, rank: Rank, tag: u32, keep_from: u64) -> usize {
        let mut shelf = self.shelf(node).lock();
        let before = shelf.len();
        shelf.retain(|k, _| !(k.rank == rank && k.tag == tag && k.version < keep_from));
        before - shelf.len()
    }

    /// Wipe everything on a node (the kill hook, also useful in tests).
    pub fn clear_node(&self, node: NodeId) {
        self.shelf(node).lock().clear();
    }

    /// Total bytes resident on `node`.
    pub fn bytes_on(&self, node: NodeId) -> usize {
        self.shelf(node).lock().values().map(|v| v.len()).sum()
    }

    /// Number of blobs on `node`.
    pub fn blobs_on(&self, node: NodeId) -> usize {
        self.shelf(node).lock().len()
    }

    /// The topology this storage belongs to.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(rank: Rank, version: u64) -> BlobKey {
        BlobKey { rank, tag: 7, version }
    }

    #[test]
    fn put_get() {
        let s = NodeStorage::new(Topology::new(4, 2));
        let data = Arc::new(vec![1u8, 2, 3]);
        s.put(NodeId(0), key(0, 1), Arc::clone(&data));
        assert_eq!(s.get(NodeId(0), key(0, 1)).as_deref(), Some(&vec![1, 2, 3]));
        assert_eq!(s.bytes_on(NodeId(0)), 3);
        assert_eq!(s.get(NodeId(0), key(0, 2)), None);
    }

    #[test]
    fn prune_keeps_the_newest() {
        let s = NodeStorage::new(Topology::new(2, 1));
        for v in 1..=5 {
            s.put(NodeId(0), key(0, v), Arc::new(vec![0u8; 8]));
        }
        assert_eq!(s.prune(NodeId(0), 0, 7, 4), 3);
        assert_eq!(s.versions_of(NodeId(0), 0, 7), [5, 4]);
        // Other tags untouched by prune.
        s.put(NodeId(0), BlobKey { rank: 0, tag: 9, version: 1 }, Arc::new(vec![]));
        assert_eq!(s.prune(NodeId(0), 0, 7, 100), 2);
        assert_eq!(s.blobs_on(NodeId(0)), 1);
    }

    #[test]
    fn versions_of_lists_newest_first() {
        let s = NodeStorage::new(Topology::new(2, 1));
        for v in [3u64, 1, 5] {
            s.put(NodeId(0), key(0, v), Arc::new(vec![0u8; 4]));
        }
        s.put(NodeId(0), BlobKey { rank: 0, tag: 9, version: 8 }, Arc::new(vec![]));
        assert_eq!(s.versions_of(NodeId(0), 0, 7), vec![5, 3, 1]);
        assert!(s.versions_of(NodeId(0), 1, 7).is_empty());
    }

    #[test]
    fn node_kill_wipes_local_blobs_only() {
        let topo = Topology::new(4, 2); // nodes {0: r0,r1} {1: r2,r3}
        let fault = FaultPlane::new(topo.clone());
        let s = NodeStorage::new(topo);
        s.attach(&fault);
        s.put(NodeId(0), key(0, 1), Arc::new(vec![9u8; 16]));
        s.put(NodeId(1), key(0, 1), Arc::new(vec![9u8; 16])); // neighbor replica
        fault.kill_node(NodeId(0));
        assert_eq!(s.get(NodeId(0), key(0, 1)), None, "local copy died with the node");
        assert!(s.get(NodeId(1), key(0, 1)).is_some(), "neighbor replica survives");
    }

    #[test]
    fn rank_kill_does_not_wipe_node() {
        let topo = Topology::new(4, 2);
        let fault = FaultPlane::new(topo.clone());
        let s = NodeStorage::new(topo);
        s.attach(&fault);
        s.put(NodeId(0), key(0, 1), Arc::new(vec![1u8]));
        fault.kill_rank(0);
        assert!(s.get(NodeId(0), key(0, 1)).is_some());
    }
}
