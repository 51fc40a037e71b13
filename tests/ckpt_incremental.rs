//! Incremental (chunk-deduplicated) checkpointing of an evolving Lanczos
//! state, through the `gaspi_ft` facade.
//!
//! A sequential Lanczos recurrence on a 1-D Laplacian grows the exact
//! state the paper checkpoints — two dense vectors that change wholesale
//! every iteration plus an append-only α/β history — and commits it once
//! per epoch to a `full_every(8)` and a `full_every(1)` checkpointer. The
//! dirty ratio is taken on the *last incremental* commit because that is
//! when the clean, append-only history is largest relative to the vectors:
//! the steady state the dedup is for, not the warm-up where almost
//! everything is dirty.

use std::time::Duration;

use gaspi_ft::checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy};
use gaspi_ft::gaspi::{GaspiConfig, GaspiWorld};
use gaspi_ft::solver::LanczosState;

const DIM: usize = 256;
const CHUNK: usize = 1024;
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
fn last_incremental_commit_writes_at_most_40_percent_and_both_pipelines_restore_bit_exactly() {
    // Two simulated nodes: rank 0 writes, the other node holds the replicas.
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let p0 = world.proc_handle(0);
    let checkpointer = |tag, full_every| {
        let cfg = CheckpointerConfig {
            chunk_size: CHUNK,
            full_every,
            ..CheckpointerConfig::for_tag(tag)
        };
        Checkpointer::new(&p0, cfg, None)
    };
    let ck_inc = checkpointer(11, 8);
    let ck_full = checkpointer(12, 1);

    let mut state = LanczosState::init(0, DIM, 42);
    let norm = state.v.iter().map(|x| x * x).sum::<f64>().sqrt();
    state.v.iter_mut().for_each(|x| *x /= norm);

    let mut last = ck_inc.stats();
    let mut last_payload = Vec::new();
    let mut last_incremental = None;
    for version in 1..=EPOCHS {
        for _ in 0..ITERS_PER_EPOCH {
            step(&mut state);
        }
        let payload = state.encode();
        ck_inc.commit(version, payload.clone(), CopyPolicy::Replicate);
        ck_full.commit(version, payload.clone(), CopyPolicy::Replicate);
        let now = ck_inc.stats();
        if now.full_commits == last.full_commits {
            let written =
                (now.chunk_bytes + now.manifest_bytes) - (last.chunk_bytes + last.manifest_bytes);
            last_incremental = Some((version, written as f64 / payload.len() as f64));
        }
        last = now;
        last_payload = payload;
    }
    assert!(ck_inc.drain(T) && ck_full.drain(T), "replication must drain");

    let (version, ratio) = last_incremental.expect("full_every(8) commits incrementally");
    assert!(
        ratio <= 0.40,
        "v{version}: incremental commit wrote {ratio:.3} of the payload, bound is 0.40"
    );
    for (name, ck) in [("incremental", &ck_inc), ("full", &ck_full)] {
        let r = ck.restore_latest(0, T).hit().unwrap_or_else(|| panic!("{name} restore"));
        assert_eq!(r.version, EPOCHS, "{name}: latest version");
        assert_eq!(r.data, last_payload, "{name}: restored image must be bit-exact");
    }
}
