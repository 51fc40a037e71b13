//! Whole-image checkpointing of an evolving Lanczos state, through the
//! `gaspi_ft` facade.
//!
//! A sequential Lanczos recurrence on a 1-D Laplacian grows the exact
//! state the paper checkpoints — two dense vectors that change wholesale
//! every iteration plus an append-only α/β history — and commits it once
//! per epoch. The newest image must come back bit-exact from each of the
//! three tiers in turn (local node, neighbor replica, PFS), and a commit
//! torn by a node kill must stay invisible on all of them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use gaspi_ft::checkpoint::{
    Checkpointer, CheckpointerConfig, CopyPolicy, Pfs, PfsConfig, Provenance, RestoreOutcome, Wire,
};
use gaspi_ft::cluster::{FaultAction, Injection, NodeId, RankKilled};
use gaspi_ft::gaspi::{GaspiConfig, GaspiWorld};
use gaspi_ft::solver::LanczosState;

const DIM: usize = 256;
const EPOCHS: u64 = 8;
const ITERS_PER_EPOCH: u64 = 200;
const T: Duration = Duration::from_secs(30);

/// One sequential Lanczos step on the 1-D Laplacian stencil
/// `w[i] = 2 v[i] − v[i−1] − v[i+1]` (the simplest symmetric operator
/// that keeps the recurrence — and hence the α/β history — nontrivial).
fn step(s: &mut LanczosState) {
    let n = s.v.len();
    let mut w = vec![0.0; n];
    for (i, wi) in w.iter_mut().enumerate() {
        let left = if i > 0 { s.v[i - 1] } else { 0.0 };
        let right = if i + 1 < n { s.v[i + 1] } else { 0.0 };
        *wi = 2.0 * s.v[i] - left - right;
    }
    let alpha: f64 = w.iter().zip(&s.v).map(|(a, b)| a * b).sum();
    let beta_prev = s.betas.last().copied().unwrap_or(0.0);
    for (wi, (vi, pi)) in w.iter_mut().zip(s.v.iter().zip(&s.v_prev)) {
        *wi -= alpha * vi + beta_prev * pi;
    }
    let beta = w.iter().map(|x| x * x).sum::<f64>().sqrt();
    s.alphas.push(alpha);
    s.betas.push(beta);
    std::mem::swap(&mut s.v_prev, &mut s.v);
    if beta > 0.0 {
        for (vi, wi) in s.v.iter_mut().zip(&w) {
            *vi = wi / beta;
        }
    } else {
        s.v.iter_mut().for_each(|x| *x = 0.0);
    }
    s.iter += 1;
}

#[test]
fn whole_image_round_trips_three_tiers_and_torn_commit_is_invisible() {
    // Four nodes: rank 1 writes, node 2 holds its replicas, rank 3 rescues.
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let pfs = Pfs::new(PfsConfig::instant());
    let cfg = CheckpointerConfig::for_tag(11);
    let ck1 = Checkpointer::new(&world.proc_handle(1), cfg.clone(), Some(Arc::clone(&pfs)));

    let mut state = LanczosState::init(0, DIM, 42);
    let norm = state.v.iter().map(|x| x * x).sum::<f64>().sqrt();
    state.v.iter_mut().for_each(|x| *x /= norm);
    for version in 1..=EPOCHS {
        for _ in 0..ITERS_PER_EPOCH {
            step(&mut state);
        }
        ck1.commit(version, state.encode(), CopyPolicy::Replicate);
    }
    assert!(ck1.drain(T), "replication must drain");
    let (want, image) = (state.clone(), state.encode());
    let restored_from = |ck: &Checkpointer, provenance| {
        let r = ck.restore_latest(1, T).hit().expect("restore");
        assert_eq!((r.version, r.provenance), (EPOCHS, provenance));
        assert_eq!(r.data, image, "{provenance:?}: restored image must be bit-exact");
        assert_eq!(LanczosState::from_bytes(&r.data).unwrap(), want);
    };
    restored_from(&ck1, Provenance::Local);

    // The next commit is torn right before its one put, killing node 1.
    step(&mut state);
    world.fault().arm_injections([Injection::at(
        "ckpt.manifest.write",
        1,
        1,
        FaultAction::KillNode(NodeId(1)),
    )]);
    let torn = catch_unwind(AssertUnwindSafe(|| {
        ck1.commit(EPOCHS + 1, state.encode(), CopyPolicy::Replicate);
    }));
    assert!(torn.expect_err("commit must be killed").downcast_ref::<RankKilled>().is_some());

    let ck3 = Checkpointer::new(&world.proc_handle(3), cfg, Some(pfs));
    ck3.refresh_failed(&[1]);
    restored_from(&ck3, Provenance::Neighbor(NodeId(2)));
    world.fault().kill_node(NodeId(2));
    ck3.refresh_failed(&[1, 2]);
    restored_from(&ck3, Provenance::Pfs);
    assert_eq!(ck3.probe(1, T), RestoreOutcome::Hit(EPOCHS), "the torn version is invisible");
    assert!(matches!(ck3.pull(1, EPOCHS + 1, T), RestoreOutcome::NotFound));
}
