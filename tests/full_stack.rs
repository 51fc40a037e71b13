//! Cross-crate integration tests through the `gaspi_ft` facade: the full
//! stack (cluster → gaspi → checkpoint → core → sparse → solver) driven
//! the way a downstream user would.

use std::sync::Arc;
use std::time::Duration;

use gaspi_ft::checkpoint::{Pfs, PfsConfig};
use gaspi_ft::cluster::{FaultAction, FaultSchedule, NodeId};
use gaspi_ft::core::{run_ft_job, FtConfig, JobReport, Role, WorldLayout};
use gaspi_ft::gaspi::{GaspiConfig, GaspiWorld, ReduceOp, Timeout};
use gaspi_ft::matgen::graphene::Graphene;
use gaspi_ft::solver::ft_lanczos::{FtLanczos, FtLanczosConfig};
use gaspi_ft::solver::heat::{FtHeat, HeatConfig};

/// Why a job-level assert failed: the ranks that died and the first error.
fn why<S: std::fmt::Debug>(report: &JobReport<S>) -> String {
    format!("killed {:?}, first error {:?}", report.killed(), report.first_error())
}

#[test]
fn facade_quickstart_flow() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(3));
    let outs = world
        .launch(|p| {
            p.segment_create(1, 64)?;
            let g = p.group_create_with_id(1 << 32)?;
            for r in 0..p.num_ranks() {
                p.group_add(g, r)?;
            }
            p.group_commit(g, Timeout::Ms(5000))?;
            let s = p.allreduce_f64(g, &[1.0], ReduceOp::Sum, Timeout::Ms(5000))?;
            Ok(s[0])
        })
        .join();
    for o in outs {
        assert_eq!(o.completed().unwrap(), 3.0);
    }
}

#[test]
fn lanczos_survives_node_failure_with_colocated_ranks() {
    // Two ranks per node; node 1 (ranks 2,3) dies by wall clock. The
    // neighbor-level checkpoints on node 2 carry the recovery.
    let layout = WorldLayout::new(6, 4);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()).with_ranks_per_node(2));
    let cfg = FtConfig::builder(layout)
        .max_iters(400)
        .checkpoint_every(50)
        .abandon(Duration::from_secs(30))
        .build()
        .unwrap();
    let gen = Graphene::new(10, 6).with_nnn(-0.1);
    let app_cfg = Arc::new(FtLanczosConfig {
        pfs: Some(Pfs::new(PfsConfig::instant())),
        ..FtLanczosConfig::fixed_iters(Arc::new(gen))
    });
    let schedule =
        FaultSchedule::none().timed(Duration::from_millis(60), FaultAction::KillNode(NodeId(1)));
    let report =
        run_ft_job(&world, cfg, schedule, move |ctx| FtLanczos::new(ctx, Arc::clone(&app_cfg)));
    let mut killed = report.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![2, 3], "{}", why(&report));
    let s = report.worker_summaries();
    assert_eq!(s.len(), 6, "{}", why(&report));
    for (_, x) in &s {
        assert_eq!(x.alphas, s[0].1.alphas, "all workers must agree bitwise");
        assert_eq!(x.iters, 400);
    }
    // Two rescues were activated for the two dead ranks.
    let rescues = report.completed().into_iter().filter(|r| r.role == Role::Rescue).count();
    assert_eq!(rescues, 2);
}

#[test]
fn heat_app_converges_through_failure() {
    let layout = WorldLayout::new(4, 2);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .max_iters(6000)
        .checkpoint_every(300)
        .abandon(Duration::from_secs(30))
        .build()
        .unwrap();
    let app_cfg = Arc::new(HeatConfig {
        pfs: Some(Pfs::new(PfsConfig::instant())),
        tol: 1e-5,
        ..HeatConfig::new(24, 24)
    });
    let schedule = FaultSchedule::none().timed(Duration::from_millis(80), FaultAction::KillRank(1));
    let report =
        run_ft_job(&world, cfg, schedule, move |ctx| FtHeat::new(ctx, Arc::clone(&app_cfg)));
    assert_eq!(report.killed(), vec![1], "{}", why(&report));
    let s = report.worker_summaries();
    assert_eq!(s.len(), 4, "{}", why(&report));
    assert!(s[0].1.residual < 1e-5, "must converge, got {}", s[0].1.residual);
    for (_, x) in &s {
        assert_eq!(x.solution_norm, s[0].1.solution_norm);
    }
}

#[test]
fn failure_free_and_failed_heat_agree_on_the_physics() {
    // The solution norm is a whole-field fingerprint: a run with a failure
    // must land on the same converged field as a failure-free run.
    let run = |schedule: FaultSchedule| {
        let layout = WorldLayout::new(3, 2);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let cfg = FtConfig::builder(layout)
            .max_iters(6000)
            .checkpoint_every(400)
            .abandon(Duration::from_secs(30))
            .build()
            .unwrap();
        let app_cfg = Arc::new(HeatConfig {
            pfs: Some(Pfs::new(PfsConfig::instant())),
            tol: 1e-6,
            ..HeatConfig::new(16, 16)
        });
        let report =
            run_ft_job(&world, cfg, schedule, move |ctx| FtHeat::new(ctx, Arc::clone(&app_cfg)));
        let s = report.worker_summaries();
        assert_eq!(s.len(), 3, "{}", why(&report));
        (s[0].1.iters, s[0].1.solution_norm)
    };
    let (clean_iters, clean_norm) = run(FaultSchedule::none());
    let (faulty_iters, faulty_norm) =
        run(FaultSchedule::none().timed(Duration::from_millis(50), FaultAction::KillRank(2)));
    assert_eq!(clean_norm, faulty_norm, "recovered run must land on the same field");
    assert_eq!(clean_iters, faulty_iters, "same convergence trajectory");
}
