//! Fig. 4 scenario runner: the fault-tolerant Lanczos application under
//! the paper's seven runtime scenarios, with the overhead decomposition
//! reconstructed from the job event log.

use std::sync::Arc;
use std::time::Duration;

use ft_checkpoint::{CkptStats, Pfs, PfsConfig};
use ft_cluster::{FaultAction, FaultSchedule, Rank};
use ft_core::{run_ft_job, DetectorConfig, FtConfig, JobReport, StrategyKind, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld};
use ft_matgen::graphene::Graphene;
use ft_solver::ft_lanczos::{FtLanczos, FtLanczosConfig, LanczosSummary};
use ft_telemetry::{OverheadReport, TelemetrySnapshot};

/// How failures are injected in a scenario.
#[derive(Debug, Clone)]
pub enum Kills {
    /// Failure-free.
    None,
    /// `exit(-1)` at fixed iterations for deterministic redo-work
    /// (paper Fig. 4 methodology).
    AtIterations(Vec<(Rank, u64)>),
    /// Simultaneous kills at a wall-clock offset (the node-failure case).
    SimultaneousAt(Vec<Rank>, Duration),
}

/// One Fig. 4 bar.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (matches the paper's x-axis labels).
    pub name: &'static str,
    /// Health check on (FD scanning) — `false` models the "w/o HC" bars.
    pub health_check: bool,
    /// Checkpointing on — `false` models the "w/o CP" bars.
    pub checkpointing: bool,
    /// Failure injection.
    pub kills: Kills,
}

/// Shared workload parameters for all scenarios of one figure.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Worker count (the paper uses 252 workers + 4 idle on 256 nodes).
    pub workers: u32,
    /// Spare count including the FD (the paper reserves 4).
    pub spares: u32,
    /// Graphene sheet extent (dim = 2·lx·ly).
    pub lx: u64,
    /// Graphene sheet extent.
    pub ly: u64,
    /// Fixed iteration count (the paper uses 3500).
    pub iters: u64,
    /// Checkpoint interval (the paper uses 500).
    pub checkpoint_every: u64,
    /// FD scan interval.
    pub scan_interval: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Recovery model the whole run uses (the strategy matrix reruns
    /// the same scenarios once per kind).
    pub strategy: StrategyKind,
}

impl Default for Workload {
    fn default() -> Self {
        Self {
            workers: 16,
            spares: 4,
            lx: 48,
            ly: 32,
            iters: 600,
            checkpoint_every: 100,
            scan_interval: Duration::from_millis(30),
            seed: 0xF164,
            strategy: StrategyKind::CheckpointRestart,
        }
    }
}

/// Decomposed result of one scenario run (one Fig. 4 bar).
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// Total wall time (job start → last worker finished).
    pub total: Duration,
    /// Σ over epochs of fault detection + acknowledgment time.
    pub detect: Duration,
    /// Σ over epochs of re-initialization (group rebuild + restore).
    pub reinit: Duration,
    /// Σ over epochs of redo-work time.
    pub redo: Duration,
    /// Remainder: pure computation (incl. checkpoint writes).
    pub compute: Duration,
    /// Recovery rounds observed.
    pub recoveries: usize,
    /// Failures detected in total.
    pub failures: usize,
    /// All workers finished with bit-identical α/β.
    pub consistent: bool,
    /// The full telemetry report behind the decomposition (per-epoch
    /// timelines, scan statistics, counter registry, JSON rendering).
    pub telemetry: OverheadReport,
}

/// The paper's seven scenarios for a workload. Kills are placed a fixed
/// 60 %-of-interval past a checkpoint, so every failure costs the same
/// redo-work — the paper's "killed using exit(-1) at a specific iteration
/// in order to have a deterministic redo-work time".
pub fn fig4_scenarios(w: &Workload) -> Vec<Scenario> {
    let workers = w.workers;
    let iv = w.checkpoint_every;
    let kill_after = |ckpt_no: u64| ckpt_no * iv + (6 * iv) / 10;
    vec![
        Scenario {
            name: "w/o HC, w/o CP",
            health_check: false,
            checkpointing: false,
            kills: Kills::None,
        },
        Scenario {
            name: "w/o HC, with CP",
            health_check: false,
            checkpointing: true,
            kills: Kills::None,
        },
        Scenario {
            name: "with HC, with CP",
            health_check: true,
            checkpointing: true,
            kills: Kills::None,
        },
        Scenario {
            name: "1 fail recovery",
            health_check: true,
            checkpointing: true,
            kills: Kills::AtIterations(vec![(2, kill_after(3))]),
        },
        Scenario {
            name: "2 fail recovery",
            health_check: true,
            checkpointing: true,
            kills: Kills::AtIterations(vec![(2, kill_after(2)), (5 % workers, kill_after(4))]),
        },
        Scenario {
            name: "3 fail recovery",
            health_check: true,
            checkpointing: true,
            kills: Kills::AtIterations(vec![
                (2, kill_after(1)),
                (5 % workers, kill_after(3)),
                (7 % workers, kill_after(5)),
            ]),
        },
        Scenario {
            name: "3 sim. fail recovery",
            health_check: true,
            checkpointing: true,
            // Non-adjacent ranks so the neighbor replicas survive.
            kills: Kills::SimultaneousAt(
                vec![1, workers / 2, workers - 2],
                Duration::from_millis(120),
            ),
        },
    ]
}

/// Run one scenario and decompose its runtime.
pub fn run_scenario(w: &Workload, sc: &Scenario) -> ScenarioResult {
    let layout = WorldLayout::new(w.workers, w.spares);
    let world = GaspiWorld::new(GaspiConfig::new(layout.total()).with_seed(w.seed));
    let cfg = FtConfig::builder(layout)
        .max_iters(w.iters)
        .checkpoint_every(if sc.checkpointing { w.checkpoint_every } else { 0 })
        .detector(DetectorConfig {
            scan_interval: if sc.health_check {
                w.scan_interval
            } else {
                Duration::from_secs(3600)
            },
            ..Default::default()
        })
        .abandon(Duration::from_secs(60))
        .strategy(w.strategy)
        .build()
        .expect("scenario config must validate");

    let gen = Graphene::new(w.lx, w.ly).with_nnn(-0.1);
    let app_cfg = Arc::new(FtLanczosConfig {
        pfs: Some(Pfs::new(PfsConfig::instant())),
        ..FtLanczosConfig::fixed_iters(Arc::new(gen))
    });

    let mut schedule = FaultSchedule::none();
    match &sc.kills {
        Kills::None => {}
        Kills::AtIterations(ks) => {
            for &(r, i) in ks {
                schedule = schedule.kill_rank_at_iteration(r, i);
            }
        }
        Kills::SimultaneousAt(ranks, at) => {
            for &r in ranks {
                schedule = schedule.timed(*at, FaultAction::KillRank(r));
            }
        }
    }

    let before = TelemetrySnapshot::of_world(&world);
    let report =
        run_ft_job(&world, cfg, schedule, move |ctx| FtLanczos::new(ctx, Arc::clone(&app_cfg)));
    let after = TelemetrySnapshot::of_world(&world);

    let mut result = decompose(sc.name, &report);
    // decompose() attached the per-rank checkpoint counters; widen the
    // registry with the world-held families now that we have the world.
    let ckpt = result.telemetry.counters.map(|c| c.ckpt).unwrap_or_default();
    result.telemetry.counters = Some(after.since(&before).with_ckpt(ckpt));
    result
}

/// Reconstruct the Fig. 4 stacked components from the event log, via the
/// telemetry reporter. The checkpoint counter family is merged from the
/// worker summaries; the transport/GASPI families need the world and are
/// attached by [`run_scenario`].
pub fn decompose(name: &'static str, report: &JobReport<LanczosSummary>) -> ScenarioResult {
    let summaries = report.worker_summaries();
    let mut ckpt = CkptStats::default();
    for (_, s) in &summaries {
        ckpt.merge(&s.ckpt);
    }
    let telemetry = OverheadReport::from_log(&report.events)
        .with_counters(TelemetrySnapshot::default().with_ckpt(ckpt));

    // Consistency: every worker finished and α histories agree.
    let consistent =
        !summaries.is_empty() && summaries.iter().all(|(_, s)| s.alphas == summaries[0].1.alphas);

    ScenarioResult {
        name,
        total: telemetry.total,
        detect: telemetry.detect,
        reinit: telemetry.reinit,
        redo: telemetry.redo,
        compute: telemetry.compute,
        recoveries: telemetry.recoveries(),
        failures: telemetry.failures,
        consistent,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature Fig. 4: baseline vs 1-failure scenario shapes hold.
    #[test]
    fn tiny_fig4_shapes() {
        let w = Workload {
            workers: 4,
            spares: 2,
            lx: 8,
            ly: 4,
            iters: 60,
            checkpoint_every: 20,
            ..Workload::default()
        };
        let base = run_scenario(
            &w,
            &Scenario { name: "base", health_check: true, checkpointing: true, kills: Kills::None },
        );
        assert!(base.consistent, "baseline must complete consistently");
        assert_eq!(base.recoveries, 0);
        assert_eq!(base.redo, Duration::ZERO);

        let one = run_scenario(
            &w,
            &Scenario {
                name: "1 fail",
                health_check: true,
                checkpointing: true,
                kills: Kills::AtIterations(vec![(1, 45)]),
            },
        );
        assert!(one.consistent, "1-failure run must complete consistently");
        assert_eq!(one.recoveries, 1);
        assert_eq!(one.failures, 1);
        assert!(one.total > base.total, "failure adds overhead");
        assert!(one.redo > Duration::ZERO, "redo-work must be visible");
    }
}
