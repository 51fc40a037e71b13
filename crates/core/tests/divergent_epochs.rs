//! Regression pins for `consistent_restore` when surviving ranks hold
//! *different* checkpoint epochs after a mid-commit kill.
//!
//! A rank killed while writing checkpoint version `v` leaves the group
//! split: survivors finished `v`, the victim's adopter can reach only
//! `v-1`. The pinned behavior is the allreduce-min vote — everyone
//! rolls back to the newest version *every* member can restore, so the
//! group resumes from one consistent iteration and still produces the
//! exact result. Both kill flavors are pinned: the rank's own thread
//! dying at the local-write site, and the checkpoint library thread
//! being poisoned at the neighbor-copy site.

mod common;

use std::time::Duration;

use common::{expected_acc, Acc, STATE_TAG};
use ft_checkpoint::{Checkpointer, CheckpointerConfig};
use ft_cluster::{FaultSchedule, Injection};
use ft_core::{run_ft_job, EventKind, FtConfig, FtCtx, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld};

/// Synchronous replication (the app waits out each commit's copy before
/// the next step): when the group later votes, survivor versions are
/// deterministic, which is what these pins rely on.
fn draining_acc(ctx: &FtCtx) -> Acc {
    Acc::draining(Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), None))
}

fn run_divergent(inj: Injection) -> (Vec<u64>, bool) {
    let workers = 4u32;
    let iters = 16u64;
    let layout = WorldLayout::new(workers, 2);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let schedule = FaultSchedule::none().inject(inj);
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(4)
        .max_iters(iters)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    let report = run_ft_job(&world, cfg, schedule, draining_acc);

    let summaries = report.worker_summaries();
    assert_eq!(summaries.len(), workers as usize, "all app ranks must finish: {summaries:?}");
    for (app, (acc, _)) in &summaries {
        assert_eq!(*acc, expected_acc(workers, iters), "app rank {app} accumulated a wrong total");
    }
    let killed = !report.killed().is_empty();
    let restored: Vec<u64> = report
        .events
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Restored { iter, .. } => Some(iter),
            _ => None,
        })
        .collect();
    (restored, killed)
}

/// Rank 1 dies entering its *second* local checkpoint write (version 2,
/// iteration 8): survivors finish version 2, the adopter can reach only
/// version 1. The vote must agree on version 1 — every restore resumes
/// from iteration 4, not from the survivors' newer epoch.
#[test]
fn mid_commit_kill_votes_down_to_common_version() {
    let (restored, killed) = run_divergent(Injection::kill("ckpt.local.write", 1, 2));
    assert!(killed, "the injected kill must fire");
    assert!(!restored.is_empty(), "recovery must restore from a checkpoint");
    assert!(
        restored.iter().all(|&i| i == 4),
        "divergent epochs must vote down to version 1 (iteration 4), got {restored:?}"
    );
}

/// Same divergence via the library thread: rank 1's replicator is
/// poisoned at its second neighbor copy, so version 2 never reaches the
/// replica holder. The adopter again reaches only version 1 and the
/// vote must roll the whole group back to iteration 4.
#[test]
fn kill_during_replication_votes_down_to_common_version() {
    let (restored, killed) = run_divergent(Injection::kill("ckpt.neighbor.copy", 1, 2));
    assert!(killed, "the injected kill must fire");
    assert!(!restored.is_empty(), "recovery must restore from a checkpoint");
    assert!(
        restored.iter().all(|&i| i == 4),
        "divergent epochs must vote down to version 1 (iteration 4), got {restored:?}"
    );
}
