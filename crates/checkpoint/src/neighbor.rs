//! The fault-aware neighbor ring.
//!
//! A rank's checkpoints are replicated to the *next working node* in a
//! ring over the topology. "Working" is derived from the cumulative
//! failed-process list distributed by the fault detector, so every rank —
//! including a rescue process that just joined — derives exactly the same
//! ring from the same list (the map is a pure function of the failed set).
//!
//! The replication traffic this ring routes is counted by the writer's
//! [`crate::CkptStats`] (`neighbor_copies` / `copy_failures`).

use std::collections::HashSet;

use ft_cluster::{NodeId, Rank, Topology};

/// Pure function of (topology, cumulative failed ranks) → neighbor ring.
#[derive(Debug, Clone)]
pub struct NeighborMap {
    topo: Topology,
    failed: HashSet<Rank>,
}

impl NeighborMap {
    /// A ring with no failures.
    pub fn new(topo: Topology) -> Self {
        Self { topo, failed: HashSet::new() }
    }

    /// A ring derived from a cumulative failed list.
    pub fn from_failed(topo: Topology, failed: impl IntoIterator<Item = Rank>) -> Self {
        Self { topo, failed: failed.into_iter().collect() }
    }

    /// Record additional failures (the paper's refresh after recovery).
    pub fn mark_failed(&mut self, ranks: &[Rank]) {
        self.failed.extend(ranks.iter().copied());
    }

    /// The cumulative failed set.
    pub fn failed(&self) -> &HashSet<Rank> {
        &self.failed
    }

    /// A node is considered dead when every rank placed on it has failed
    /// (its local storage is then presumed lost).
    pub fn node_dead(&self, node: NodeId) -> bool {
        self.topo.ranks_on(node).all(|r| self.failed.contains(&r))
    }

    /// The next working node after `node` in the ring — where `node`'s
    /// checkpoints are replicated. `None` if no other working node exists.
    pub fn neighbor_of(&self, node: NodeId) -> Option<NodeId> {
        self.topo.next_live_node(node, |n| self.node_dead(n))
    }

    /// Whom to address on `node`: its lowest rank not known to have failed.
    pub fn endpoint_on(&self, node: NodeId) -> Option<Rank> {
        self.topo.ranks_on(node).find(|r| !self.failed.contains(r))
    }

    /// The topology this map is over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_ring_is_successor() {
        let m = NeighborMap::new(Topology::one_per_node(4));
        assert_eq!(m.neighbor_of(NodeId(0)), Some(NodeId(1)));
        assert_eq!(m.neighbor_of(NodeId(3)), Some(NodeId(0)));
    }

    #[test]
    fn failures_shift_the_ring() {
        let mut m = NeighborMap::new(Topology::one_per_node(5));
        m.mark_failed(&[1, 2]);
        assert!(m.node_dead(NodeId(1)));
        assert_eq!(m.neighbor_of(NodeId(0)), Some(NodeId(3)));
        // The dead node's own neighbor is still well-defined (used to find
        // its replica holder).
        assert_eq!(m.neighbor_of(NodeId(1)), Some(NodeId(3)));
    }

    #[test]
    fn multi_rank_nodes_die_only_fully() {
        let mut m = NeighborMap::new(Topology::new(6, 2)); // 3 nodes × 2 ranks
        m.mark_failed(&[2]); // node1 half dead
        assert!(!m.node_dead(NodeId(1)));
        assert_eq!(m.neighbor_of(NodeId(0)), Some(NodeId(1)));
        m.mark_failed(&[3]); // node1 fully dead
        assert!(m.node_dead(NodeId(1)));
        assert_eq!(m.neighbor_of(NodeId(0)), Some(NodeId(2)));
    }

    #[test]
    fn no_working_neighbor_left() {
        let mut m = NeighborMap::new(Topology::one_per_node(2));
        m.mark_failed(&[1]);
        assert_eq!(m.neighbor_of(NodeId(0)), None);
    }

    #[test]
    fn pure_function_of_failed_set() {
        let topo = Topology::one_per_node(8);
        let mut a = NeighborMap::new(topo.clone());
        a.mark_failed(&[3]);
        a.mark_failed(&[5, 6]);
        let b = NeighborMap::from_failed(topo, [6, 3, 5]);
        for n in 0..8 {
            assert_eq!(a.neighbor_of(NodeId(n)), b.neighbor_of(NodeId(n)));
        }
    }
}
