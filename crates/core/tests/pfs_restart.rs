//! Full-stack restart through the PFS checkpoint tier: a two-node loss
//! that destroys a rank's local checkpoint *and* its neighbor replica
//! must restore from the PFS copy and still finish with the exact
//! result.
//!
//! The kill is step-indexed (node kill at the 13th crossing of the
//! app's [`DRAINED_SITE`]: the top of step 12, after the drain), so the
//! version-3 checkpoint is provably on all three tiers when the nodes die.

mod common;

use std::time::Duration;

use common::{expected_acc, Acc, DRAINED_SITE, STATE_TAG};
use ft_checkpoint::{Checkpointer, CheckpointerConfig, Pfs, PfsConfig};
use ft_cluster::{FaultAction, FaultSchedule, Injection, NodeId};
use ft_core::{run_ft_job, FtConfig, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld};

#[test]
fn two_node_loss_restores_from_pfs_tier() {
    // 1 rank/node: node n hosts rank n. Node 2 holds node 1's replicas,
    // so killing nodes 1 and 2 destroys rank 1's local copy AND its
    // neighbor replica — only the PFS copy survives.
    let workers = 4u32;
    let iters = 24u64;
    let layout = WorldLayout::new(workers, 3);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let schedule = FaultSchedule::none()
        .inject(Injection::at(DRAINED_SITE, 1, 13, FaultAction::KillNode(NodeId(1))))
        .inject(Injection::at(DRAINED_SITE, 2, 13, FaultAction::KillNode(NodeId(2))));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(4)
        .max_iters(iters)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    let pfs = Pfs::new(PfsConfig::instant());
    let report = run_ft_job(&world, cfg, schedule, move |ctx| {
        // Every version spills to the PFS, and every tier is durable
        // before the step the injected node kills fire in.
        let cfg = CheckpointerConfig::for_tag(STATE_TAG);
        Acc::draining(Checkpointer::new(&ctx.proc, cfg, Some(pfs.clone())))
    });

    let mut killed = report.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 2], "both injected node kills must fire");

    let summaries = report.worker_summaries();
    assert_eq!(summaries.len(), workers as usize, "all app ranks must finish: {summaries:?}");
    for (app, (acc, _)) in &summaries {
        assert_eq!(*acc, expected_acc(workers, iters), "app rank {app} accumulated a wrong total");
    }
    // Rank 1's adopter had no local copy and no neighbor replica left:
    // at least one restore must have been served from the PFS tier.
    let pfs_restores: u64 = summaries.iter().map(|(_, (_, p))| p).sum();
    assert!(pfs_restores >= 1, "no restore came from the PFS tier");
    // And the run did restore from a real checkpoint, not from scratch.
    let ev = report.events.snapshot();
    let restored: Vec<u64> = ev
        .iter()
        .filter_map(|e| match e.kind {
            ft_core::EventKind::Restored { iter, .. } => Some(iter),
            _ => None,
        })
        .collect();
    assert!(!restored.is_empty());
    assert!(restored.iter().all(|&i| i > 0), "restores must come from checkpoints: {restored:?}");
}
