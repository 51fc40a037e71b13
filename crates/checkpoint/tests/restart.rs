//! Integration tests: checkpoint, kill, restore — over a live world.

use std::sync::Arc;
use std::time::Duration;

use ft_checkpoint::{
    Checkpointer, CheckpointerConfig, CopyPolicy, Pfs, PfsConfig, Provenance, RestoreOutcome,
};
use ft_cluster::NodeId;
use ft_gaspi::{GaspiConfig, GaspiWorld};

const T: Duration = Duration::from_secs(5);

#[test]
fn local_restore_is_fast_path() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let p = world.proc_handle(0);
    let ck = Checkpointer::new(&p, CheckpointerConfig::for_tag(1), None);
    ck.commit(1, vec![1, 2, 3], CopyPolicy::Replicate);
    ck.commit(2, vec![4, 5, 6], CopyPolicy::Replicate);
    assert!(ck.drain(T));
    let r = ck.restore_latest(0, T).hit().expect("restore");
    assert_eq!(r.version, 2);
    assert_eq!(r.data, vec![4, 5, 6]);
    assert_eq!(r.provenance, Provenance::Local);
}

#[test]
fn neighbor_replica_survives_node_kill() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let fault = world.fault();
    // Rank 1 checkpoints; its neighbor (node 2) receives the replica.
    let p1 = world.proc_handle(1);
    let ck1 = Checkpointer::new(&p1, CheckpointerConfig::for_tag(7), None);
    ck1.commit(5, vec![9u8; 64], CopyPolicy::Replicate);
    assert!(ck1.drain(T), "async neighbor copy must land");
    assert_eq!(ck1.stats().neighbor_copies, 1);
    assert_eq!(ck1.neighbor_node(), Some(NodeId(2)));

    // Node 1 dies; its local checkpoint is wiped.
    fault.kill_node(NodeId(1));

    // A rescue process (rank 3) adopts rank 1 and restores its state.
    let p3 = world.proc_handle(3);
    let ck3 = Checkpointer::new(&p3, CheckpointerConfig::for_tag(7), None);
    ck3.refresh_failed(&[1]);
    let r = ck3.restore_latest(1, T).hit().expect("neighbor restore");
    assert_eq!(r.version, 5);
    assert_eq!(r.data, vec![9u8; 64]);
    assert_eq!(r.provenance, Provenance::Neighbor(NodeId(2)));
}

#[test]
fn rescue_on_replica_node_restores_without_network() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(3));
    let fault = world.fault();
    let p0 = world.proc_handle(0);
    let ck0 = Checkpointer::new(&p0, CheckpointerConfig::for_tag(1), None);
    ck0.commit(1, b"state-of-rank-0".to_vec(), CopyPolicy::Replicate);
    assert!(ck0.drain(T));
    fault.kill_node(NodeId(0));
    // Rank 1 *is* the replica holder (node 1 is node 0's neighbor).
    let p1 = world.proc_handle(1);
    let ck1 = Checkpointer::new(&p1, CheckpointerConfig::for_tag(1), None);
    ck1.refresh_failed(&[0]);
    let r = ck1.restore_latest(0, T).hit().expect("restore");
    assert_eq!(r.provenance, Provenance::Neighbor(NodeId(1)));
    assert_eq!(r.data, b"state-of-rank-0");
}

#[test]
fn ring_skips_dead_nodes_after_refresh() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let fault = world.fault();
    let p0 = world.proc_handle(0);
    let ck0 = Checkpointer::new(&p0, CheckpointerConfig::for_tag(1), None);
    // Node 1 dies *before* the checkpoint: the copy must skip to node 2.
    fault.kill_node(NodeId(1));
    ck0.refresh_failed(&[1]);
    assert_eq!(ck0.neighbor_node(), Some(NodeId(2)));
    ck0.commit(1, vec![7u8; 16], CopyPolicy::Replicate);
    assert!(ck0.drain(T));
    let storage = world.storage();
    assert!(storage
        .get(NodeId(2), ft_cluster::storage::BlobKey { rank: 0, tag: 1, version: 1 })
        .is_some());
}

#[test]
fn pfs_fallback_when_both_nodes_dead() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let fault = world.fault();
    let pfs = Pfs::new(PfsConfig::instant());
    let p0 = world.proc_handle(0);
    let cfg = CheckpointerConfig::for_tag(3);
    let ck0 = Checkpointer::new(&p0, cfg, Some(Arc::clone(&pfs)));
    ck0.commit(4, b"pfs-me".to_vec(), CopyPolicy::Replicate);
    assert!(ck0.drain(T));
    // Both the home node and the replica holder die.
    fault.kill_node(NodeId(0));
    fault.kill_node(NodeId(1));
    let p2 = world.proc_handle(2);
    let ck2 = Checkpointer::new(&p2, CheckpointerConfig::for_tag(3), Some(pfs));
    ck2.refresh_failed(&[0, 1]);
    let r = ck2.restore_latest(0, T).hit().expect("PFS restore");
    assert_eq!(r.provenance, Provenance::Pfs);
    assert_eq!(r.data, b"pfs-me");
    assert_eq!(r.version, 4);
}

/// The restart *vote* path against the PFS tier: `probe` must count PFS
/// versions and `pull` of the agreed version
/// must fall back to PFS when both the home node and the replica holder
/// are gone — the path a group-wide consistent restore takes after a
/// two-node loss.
#[test]
fn vote_path_pull_falls_back_to_pfs() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let fault = world.fault();
    let pfs = Pfs::new(PfsConfig::instant());
    let p0 = world.proc_handle(0);
    let cfg = CheckpointerConfig::for_tag(5);
    let ck0 = Checkpointer::new(&p0, cfg, Some(Arc::clone(&pfs)));
    ck0.commit(1, b"v1".to_vec(), CopyPolicy::Replicate);
    ck0.commit(2, b"v2".to_vec(), CopyPolicy::Replicate);
    assert!(ck0.drain(T));

    // Home node and replica holder both die.
    fault.kill_node(NodeId(0));
    fault.kill_node(NodeId(1));

    let p2 = world.proc_handle(2);
    let ck2 = Checkpointer::new(&p2, CheckpointerConfig::for_tag(5), Some(pfs));
    ck2.refresh_failed(&[0, 1]);
    // The vote must still see version 2 (via PFS)…
    assert_eq!(ck2.probe(0, T), RestoreOutcome::Hit(2));
    // …and the agreed version must be restorable from PFS — both the
    // latest and the older one (a divergent-epoch vote may agree on v1).
    let r = ck2.pull(0, 2, T).hit().expect("PFS exact restore");
    assert_eq!(r.provenance, Provenance::Pfs);
    assert_eq!(r.data, b"v2");
    let r1 = ck2.pull(0, 1, T).hit().expect("PFS exact restore of older version");
    assert_eq!(r1.provenance, Provenance::Pfs);
    assert_eq!(r1.data, b"v1");
    assert_eq!(ck2.stats().restores_pfs, 2);
}

/// The library thread spills to the PFS *before* the neighbor send, so a
/// link that breaks between two commits leaves the PFS one version ahead
/// of the replica. Each entry point's contract against that split:
/// `probe` names the newest version anywhere, `pull` finds it on whichever
/// tier has it, `restore_latest` takes what the nearest tier holds.
#[test]
fn entry_points_when_the_pfs_is_ahead_of_the_replica() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let fault = world.fault();
    let pfs = Pfs::new(PfsConfig::instant());
    let cfg = CheckpointerConfig::for_tag(6);
    let p0 = world.proc_handle(0);
    let ck0 = Checkpointer::new(&p0, cfg.clone(), Some(Arc::clone(&pfs)));
    ck0.commit(1, b"v1".to_vec(), CopyPolicy::Replicate);
    assert!(ck0.drain(T));
    fault.break_link(0, 1);
    ck0.commit(2, b"v2".to_vec(), CopyPolicy::Replicate);
    assert!(ck0.drain(T));
    let st = ck0.stats();
    assert_eq!((st.neighbor_copies, st.copy_failures, st.pfs_spills), (1, 1, 2));
    fault.kill_node(NodeId(0));

    let p2 = world.proc_handle(2);
    let ck2 = Checkpointer::new(&p2, cfg, Some(pfs));
    ck2.refresh_failed(&[0]);
    assert_eq!(ck2.probe(0, T), RestoreOutcome::Hit(2));
    let r = ck2.pull(0, 2, T).hit().expect("v2 is on the PFS");
    assert_eq!((r.provenance, r.data.as_slice()), (Provenance::Pfs, &b"v2"[..]));
    let r = ck2.restore_latest(0, T).hit().expect("the replica holds v1");
    assert_eq!((r.version, r.provenance), (1, Provenance::Neighbor(NodeId(1))));
    assert_eq!(r.data, b"v1");
}

#[test]
fn keep_versions_prunes_old_checkpoints() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let p0 = world.proc_handle(0);
    let ck = Checkpointer::new(&p0, CheckpointerConfig::for_tag(1), None);
    for v in 1..=5 {
        ck.commit(v, vec![v as u8; 8], CopyPolicy::Replicate);
    }
    assert!(ck.drain(T));
    let storage = world.storage();
    // keep_versions = 2 → only v4, v5 remain locally.
    for v in 1..=3u64 {
        assert!(storage
            .get(NodeId(0), ft_cluster::storage::BlobKey { rank: 0, tag: 1, version: v })
            .is_none());
    }
    for v in 4..=5u64 {
        assert!(storage
            .get(NodeId(0), ft_cluster::storage::BlobKey { rank: 0, tag: 1, version: v })
            .is_some());
    }
}

#[test]
fn probe_sees_remote_replica() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let fault = world.fault();
    let p1 = world.proc_handle(1);
    let ck1 = Checkpointer::new(&p1, CheckpointerConfig::for_tag(1), None);
    ck1.commit(1, vec![1], CopyPolicy::Replicate);
    ck1.commit(2, vec![2], CopyPolicy::Replicate);
    assert!(ck1.drain(T));
    fault.kill_node(NodeId(1));
    let p3 = world.proc_handle(3);
    let ck3 = Checkpointer::new(&p3, CheckpointerConfig::for_tag(1), None);
    ck3.refresh_failed(&[1]);
    assert_eq!(ck3.probe(1, T), RestoreOutcome::Hit(2));
    // And pulling the agreed version works remotely.
    let r = ck3.pull(1, 2, T).hit().expect("exact restore");
    assert_eq!(r.data, vec![2]);
}

#[test]
fn exhausted_ring_restores_nothing() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let fault = world.fault();
    let p0 = world.proc_handle(0);
    let ck0 = Checkpointer::new(&p0, CheckpointerConfig::for_tag(1), None);
    ck0.commit(1, vec![1], CopyPolicy::Replicate);
    assert!(ck0.drain(T));
    fault.kill_node(NodeId(0));
    fault.kill_node(NodeId(1));
    // Nothing left anywhere, no PFS: restore must fail, not hang.
    let p1 = world.proc_handle(1);
    let ck1 = Checkpointer::new(&p1, CheckpointerConfig::for_tag(1), None);
    ck1.refresh_failed(&[0, 1]);
    assert!(matches!(ck1.restore_latest(0, Duration::from_millis(500)), RestoreOutcome::NotFound));
}
