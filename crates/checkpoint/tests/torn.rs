//! Torn-commit tests: a rank killed *mid-commit* (before its image is
//! sealed, or between sealing and the put) must leave the unfinished
//! version invisible — every tier falls back to the previous consistent
//! version, because the one image put is the atomic commit point.
//!
//! Kills are step-indexed injections at the writer's own fault sites
//! (`ckpt.chunk.write` / `ckpt.manifest.write`, each crossed once per
//! commit), the same sites the chaos sweep enumerates.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use ft_checkpoint::{
    Checkpointer, CheckpointerConfig, CopyPolicy, Pfs, PfsConfig, Provenance, RestoreOutcome,
};
use ft_cluster::{FaultAction, Injection, NodeId, RankKilled};
use ft_gaspi::{GaspiConfig, GaspiWorld};

const T: Duration = Duration::from_secs(5);

/// 64 bytes that differ per generation.
fn payload(gen: u8) -> Vec<u8> {
    (0..64u8).map(|i| i.wrapping_add(gen.wrapping_mul(101))).collect()
}

/// Run `f`, asserting it unwinds with the simulator's `RankKilled` panic.
fn expect_killed(f: impl FnOnce()) {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("commit must be killed mid-write");
    assert!(err.downcast_ref::<RankKilled>().is_some(), "panic payload must be RankKilled");
}

#[test]
fn kill_mid_chunk_write_falls_back_to_neighbor_replica() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let p1 = world.proc_handle(1);
    let ck1 = Checkpointer::new(&p1, CheckpointerConfig::for_tag(7), None);
    let v1 = payload(1);
    ck1.commit(1, v1.clone(), CopyPolicy::Replicate);
    assert!(ck1.drain(T), "v1 replica must land before the torn commit");

    // Crossing counters start at arming, so v2's commit is occurrence 1.
    // Kill rank 1's node before the image is sealed: nothing of v2 is
    // ever stored.
    world.fault().arm_injections([Injection::at(
        "ckpt.chunk.write",
        1,
        1,
        FaultAction::KillNode(NodeId(1)),
    )]);
    expect_killed(|| ck1.commit(2, payload(2), CopyPolicy::Replicate));

    // A rescue on rank 3 adopts rank 1: the neighbor replica still serves
    // the previous consistent version, bit-exact.
    let p3 = world.proc_handle(3);
    let ck3 = Checkpointer::new(&p3, CheckpointerConfig::for_tag(7), None);
    ck3.refresh_failed(&[1]);
    let r = ck3.restore_latest(1, T).hit().expect("neighbor fallback");
    assert_eq!(r.version, 1);
    assert_eq!(r.data, v1);
    assert_eq!(r.provenance, Provenance::Neighbor(NodeId(2)));
}

#[test]
fn kill_mid_manifest_write_falls_back_to_neighbor_replica() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let p1 = world.proc_handle(1);
    let ck1 = Checkpointer::new(&p1, CheckpointerConfig::for_tag(9), None);
    let v1 = payload(3);
    ck1.commit(1, v1.clone(), CopyPolicy::Replicate);
    assert!(ck1.drain(T));

    // v2 is sealed, but the node dies at the first crossing after arming,
    // right before the put: the version is never stored.
    world.fault().arm_injections([Injection::at(
        "ckpt.manifest.write",
        1,
        1,
        FaultAction::KillNode(NodeId(1)),
    )]);
    expect_killed(|| ck1.commit(2, payload(4), CopyPolicy::Replicate));

    let p3 = world.proc_handle(3);
    let ck3 = Checkpointer::new(&p3, CheckpointerConfig::for_tag(9), None);
    ck3.refresh_failed(&[1]);
    let r = ck3.restore_latest(1, T).hit().expect("neighbor fallback");
    assert_eq!((r.version, r.data), (1, v1));
    assert_eq!(r.provenance, Provenance::Neighbor(NodeId(2)));
}

/// Torn commit where the *storage survives* (only the rank dies, on a
/// two-rank node): the local tier itself serves the previous version.
#[test]
fn torn_commit_on_a_surviving_node_falls_back_locally() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4).with_ranks_per_node(2));
    let p0 = world.proc_handle(0);
    let ck0 = Checkpointer::new(&p0, CheckpointerConfig::for_tag(3), None);
    let v1 = payload(5);
    ck0.commit(1, v1.clone(), CopyPolicy::Replicate);
    assert!(ck0.drain(T));

    // Kill only rank 0 right before the v2 put: node 0's shelf keeps v1
    // and nothing of v2.
    world.fault().arm_injections([Injection::kill("ckpt.manifest.write", 0, 1)]);
    expect_killed(|| ck0.commit(2, payload(6), CopyPolicy::Replicate));

    // Rank 1 lives on the same node and restores rank 0 from the local
    // shelf.
    let p1 = world.proc_handle(1);
    let ck1 = Checkpointer::new(&p1, CheckpointerConfig::for_tag(3), None);
    ck1.refresh_failed(&[0]);
    let r = ck1.restore_latest(0, T).hit().expect("local fallback");
    assert_eq!((r.version, r.data), (1, v1));
    assert_eq!(r.provenance, Provenance::Local);
    assert_eq!(ck1.stats().checksum_failures, 0, "the torn version left no image to reject");
}

/// Both the home node (torn mid-commit) and the replica holder die: the
/// PFS tier serves the last spilled consistent version.
#[test]
fn torn_commit_with_dead_replica_falls_back_to_pfs() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let pfs = Pfs::new(PfsConfig::instant());
    let cfg = CheckpointerConfig::for_tag(5);
    let p1 = world.proc_handle(1);
    let ck1 = Checkpointer::new(&p1, cfg.clone(), Some(Arc::clone(&pfs)));
    let v1 = payload(7);
    ck1.commit(1, v1.clone(), CopyPolicy::Replicate);
    assert!(ck1.drain(T), "v1 must reach both the neighbor and the PFS");

    world.fault().arm_injections([Injection::at(
        "ckpt.chunk.write",
        1,
        1,
        FaultAction::KillNode(NodeId(1)),
    )]);
    expect_killed(|| ck1.commit(2, payload(8), CopyPolicy::Replicate));
    // The replica holder dies too.
    world.fault().kill_node(NodeId(2));

    let p3 = world.proc_handle(3);
    let ck3 = Checkpointer::new(&p3, cfg, Some(pfs));
    ck3.refresh_failed(&[1, 2]);
    let r = ck3.restore_latest(1, T).hit().expect("PFS fallback");
    assert_eq!((r.version, r.data), (1, v1));
    assert_eq!(r.provenance, Provenance::Pfs);
    // The torn v2 never reached the PFS either.
    assert!(matches!(ck3.pull(1, 2, T), RestoreOutcome::NotFound));
}
