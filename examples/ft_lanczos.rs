//! The paper's demonstration application, end to end: a fault-tolerant
//! Lanczos eigensolver on a graphene tight-binding matrix, healing itself
//! through injected process failures — once per recovery strategy.
//!
//! For each [`StrategyKind`] two runs are performed — failure-free, then
//! with kills injected at fixed iterations — and the α/β histories are
//! compared: they match **bit for bit**, the strongest possible evidence
//! that detection, recovery, restore, and redo are correct. Selecting
//! the strategy is *pure configuration*: the application code is
//! identical in all six runs.
//!
//! Run: `cargo run --release --example ft_lanczos`

use std::sync::Arc;
use std::time::Instant;

use gaspi_ft::checkpoint::{Pfs, PfsConfig};
use gaspi_ft::cluster::FaultSchedule;
use gaspi_ft::core::{run_ft_job, EventKind, FtConfig, JobReport, StrategyKind, WorldLayout};
use gaspi_ft::gaspi::{GaspiConfig, GaspiWorld};
use gaspi_ft::matgen::graphene::Graphene;
use gaspi_ft::solver::ft_lanczos::{FtLanczos, FtLanczosConfig, LanczosSummary};

fn run(schedule: FaultSchedule, strategy: StrategyKind, label: &str) -> JobReport<LanczosSummary> {
    let workers = 8;
    let spares = 4; // 3 rescues + the fault detector
    let layout = WorldLayout::new(workers, spares);
    let world = GaspiWorld::new(GaspiConfig::new(layout.total()).with_seed(7));
    let cfg = FtConfig::builder(layout)
        .max_iters(300)
        .checkpoint_every(50)
        .abandon(std::time::Duration::from_secs(30))
        .strategy(strategy)
        .build()
        .expect("example config must validate");

    let gen = Graphene::new(48, 32).with_nnn(-0.1); // 3072 sites
    let app_cfg = Arc::new(FtLanczosConfig {
        pfs: Some(Pfs::new(PfsConfig::instant())),
        ..FtLanczosConfig::fixed_iters(Arc::new(gen))
    });

    println!("== [{}] {label} ==", strategy.name());
    let t0 = Instant::now();
    let report =
        run_ft_job(&world, cfg, schedule, move |ctx| FtLanczos::new(ctx, Arc::clone(&app_cfg)));
    println!("  wall time: {:?}", t0.elapsed());
    report
}

fn demo(strategy: StrategyKind) {
    // ---- failure-free baseline -------------------------------------
    let clean = run(FaultSchedule::none(), strategy, "failure-free run");
    let clean_s = clean.worker_summaries();
    let eigs = &clean_s[0].1.eigenvalues;
    println!(
        "  {} workers finished {} iterations; lowest eigenvalues: {:.6} {:.6} {:.6}",
        clean_s.len(),
        clean_s[0].1.iters,
        eigs[0],
        eigs[1],
        eigs[2]
    );

    // ---- run with two injected failures -----------------------------
    let schedule = FaultSchedule::none()
        .kill_rank_at_iteration(2, 130) // exit(-1) at iteration 130
        .kill_rank_at_iteration(5, 220);
    let faulty =
        run(schedule, strategy, "run with kills at iterations 130 (rank 2) and 220 (rank 5)");

    println!("  killed ranks: {:?}", faulty.killed());
    println!("  recovery timeline:");
    for e in faulty.events.snapshot() {
        match &e.kind {
            EventKind::KillFired { iter } => {
                println!("    {:>9.3?}  rank {} exits at iteration {iter}", e.t, e.rank)
            }
            EventKind::FdDetect { epoch, failed } => {
                println!("    {:>9.3?}  FD detects {failed:?} (epoch {epoch})", e.t)
            }
            EventKind::FdAck { epoch } => {
                println!("    {:>9.3?}  FD acknowledges epoch {epoch} to all healthy ranks", e.t)
            }
            EventKind::Activated { app_rank } => {
                println!(
                    "    {:>9.3?}  rank {} activated as rescue for app rank {app_rank}",
                    e.t, e.rank
                )
            }
            EventKind::GroupRebuilt { epoch } if e.rank == 0 => {
                println!("    {:>9.3?}  worker group rebuilt (epoch {epoch})", e.t)
            }
            EventKind::Restored { epoch, iter } if e.rank == 0 => {
                println!("    {:>9.3?}  state restored to iteration {iter} (epoch {epoch})", e.t)
            }
            EventKind::Replayed { from, to, .. } if e.rank == 0 => {
                println!("    {:>9.3?}  steps {from}..{to} replayed from the logs", e.t)
            }
            EventKind::RedoComplete { iter, .. } if e.rank == 0 => {
                println!("    {:>9.3?}  redo complete, back at iteration {iter}", e.t)
            }
            _ => {}
        }
    }

    // ---- the punchline ----------------------------------------------
    let faulty_s = faulty.worker_summaries();
    assert_eq!(clean_s.len(), faulty_s.len(), "all app ranks must finish in both runs");
    let identical =
        clean_s[0].1.alphas == faulty_s[0].1.alphas && clean_s[0].1.betas == faulty_s[0].1.betas;
    println!(
        "\n[{}] α/β histories of failure-free vs recovered run: {}",
        strategy.name(),
        if identical { "IDENTICAL (bit for bit)" } else { "DIFFERENT (bug!)" }
    );
    assert!(identical);
    println!("lowest eigenvalue (both runs): {:.12}\n", faulty_s[0].1.eigenvalues[0]);
}

fn main() {
    for strategy in [StrategyKind::CheckpointRestart, StrategyKind::Abft, StrategyKind::Replicated]
    {
        demo(strategy);
    }
}
