//! Tests of the shadow fault detector (the paper's §VIII future work:
//! "the redundancy approach can be implemented to make the FD process
//! fault tolerant"), reusing the deterministic toy app from `ft_job.rs`.

use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, Dec, Enc, Pfs, PfsConfig};
use std::sync::{mpsc, Arc};

use ft_cluster::{FaultAction, FaultPlane, FaultSchedule};
use ft_core::{
    run_ft_job, EventKind, FtApp, FtConfig, FtCtx, FtResult, RecoveryPlan, Role, WorldLayout,
};
use ft_gaspi::{GaspiConfig, GaspiWorld, ReduceOp};

const STATE_TAG: u32 = 1;
const FETCH: Duration = Duration::from_secs(5);

/// Same deterministic accumulator app as in `ft_job.rs`, minus the plan
/// blob (nothing to reload here).
struct Acc {
    acc: f64,
    /// When set, app rank 0 kills the primary FD from `finalize`: after
    /// the last iteration's collectives, before the driver's done signal.
    /// (A step-indexed `Injection` can only kill the rank that crosses the
    /// site, so the app's own hook stands in for one in that window.)
    primary_dies_at_finalize: Option<Arc<FaultPlane>>,
    ck: Checkpointer,
}

impl Acc {
    fn new(ctx: &FtCtx) -> Self {
        Self {
            acc: 0.0,
            primary_dies_at_finalize: None,
            ck: Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), None),
        }
    }
}

impl FtApp for Acc {
    type Summary = f64;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        ctx.barrier_ft()?;
        Ok(())
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let x = f64::from(ctx.app_rank() + 1) * (iter + 1) as f64;
        self.acc += ctx.allreduce_f64_ft(&[x], ReduceOp::Sum)?[0];
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.ck, FETCH))
    }

    fn export_state(&self, _ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        let mut e = Enc::new();
        e.u64(iter).f64(self.acc);
        Ok(Some(e.finish()))
    }

    fn load_state(&mut self, _ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let mut d = Dec::new(data);
        let iter = d.u64().unwrap();
        self.acc = d.f64().unwrap();
        Ok(iter)
    }

    fn reset_state(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        self.acc = 0.0;
        Ok(())
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.ck.refresh_failed(&plan.failed);
        let _ = ctx;
        Ok(())
    }

    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<f64> {
        if let Some(fault) = self.primary_dies_at_finalize.as_ref().filter(|_| ctx.app_rank() == 0)
        {
            fault.kill_rank(ctx.layout.fd_rank());
        }
        Ok(self.acc)
    }
}

fn expected_acc(workers: u32, iters: u64) -> f64 {
    f64::from(workers) * f64::from(workers + 1) / 2.0 * (iters * (iters + 1) / 2) as f64
}

fn redundant_job(
    workers: u32,
    spares: u32,
    iters: u64,
    schedule: FaultSchedule,
) -> ft_core::JobReport<f64> {
    let layout = WorldLayout::new(workers, spares);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(iters)
        .redundant_fd(true)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    let _unused_pfs = Pfs::new(PfsConfig::instant());
    run_ft_job(&world, cfg, schedule, Acc::new)
}

fn assert_correct(report: &ft_core::JobReport<f64>, workers: u32, iters: u64) {
    let s = report.worker_summaries();
    assert_eq!(s.len(), workers as usize, "all app ranks must finish");
    for (app, acc) in s {
        assert_eq!(*acc, expected_acc(workers, iters), "app rank {app}");
    }
}

#[test]
fn shadow_stays_quiet_when_primary_survives() {
    // layout: workers 0..3, idle 3, shadow 4, FD 5
    let report = redundant_job(3, 3, 40, FaultSchedule::none());
    assert_correct(&report, 3, 40);
    let ev = report.events.snapshot();
    assert!(!ev.iter().any(|e| matches!(e.kind, EventKind::FdTakeover { .. })));
}

#[test]
fn shadow_takes_over_after_primary_dies_then_handles_a_worker_failure() {
    // Kill the primary FD early, then a worker later: the shadow must
    // detect and recover the worker failure.
    let layout = WorldLayout::new(3, 3); // idle 3, shadow 4, primary FD 5
    let schedule = FaultSchedule::none()
        .timed(Duration::from_millis(20), FaultAction::KillRank(5))
        .kill_rank_at_iteration(1, 150);
    let report = redundant_job(3, 3, 300, schedule);
    let mut killed = report.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 5]);
    assert_correct(&report, 3, 300);
    let ev = report.events.snapshot();
    assert!(
        ev.iter().any(|e| matches!(e.kind, EventKind::FdTakeover { dead_fd: 5 } if e.rank == 4)),
        "shadow (rank 4) must record the takeover"
    );
    // The worker failure was detected by the *shadow* acting as FD.
    let detect = ev
        .iter()
        .find(|e| matches!(&e.kind, EventKind::FdDetect { failed, .. } if failed.contains(&1)))
        .expect("worker failure must be detected");
    assert_eq!(detect.rank, 4, "the shadow must be the detector by then");
    // The rescue for the worker is the remaining idle (rank 3).
    let rescue = report
        .completed()
        .into_iter()
        .find(|r| r.role == Role::Rescue && r.summary.is_some())
        .expect("rescue");
    assert_eq!(rescue.rank, 3);
    let _ = layout;
}

#[test]
fn fd_takeover_does_not_roll_workers_back() {
    // FD death alone must not trigger group rebuild / restore / redo.
    // (Enough iterations that the kill lands well inside the run.)
    let schedule = FaultSchedule::none().timed(Duration::from_millis(25), FaultAction::KillRank(5));
    let report = redundant_job(3, 3, 2000, schedule);
    assert_correct(&report, 3, 2000);
    let ev = report.events.snapshot();
    assert!(ev.iter().any(|e| matches!(e.kind, EventKind::FdTakeover { .. })));
    assert!(
        !ev.iter().any(|e| matches!(e.kind, EventKind::Restored { .. })),
        "a pure FD failure must be benign for the workers"
    );
    assert!(!ev.iter().any(|e| matches!(e.kind, EventKind::GroupRebuilt { epoch } if epoch > 0)));
}

#[test]
fn without_redundancy_fd_death_is_fatal_but_bounded() {
    // Baseline (paper restriction 2): no shadow, the FD dies, a worker
    // dies afterwards — nobody acknowledges, workers abandon with a
    // timeout error instead of hanging forever.
    let layout = WorldLayout::new(3, 2);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(100_000)
        .redundant_fd(false)
        .abandon(Duration::from_millis(400))
        .build()
        .unwrap();
    let schedule = FaultSchedule::none()
        .timed(Duration::from_millis(20), FaultAction::KillRank(4)) // the FD
        .timed(Duration::from_millis(40), FaultAction::KillRank(1));
    let report = run_ft_job(&world, cfg, schedule, Acc::new);
    assert!(report.worker_summaries().is_empty(), "no worker can finish");
    let errs = report
        .completed()
        .into_iter()
        .filter(|r| r.role == Role::Worker && r.error.is_some())
        .count();
    assert!(errs >= 2, "surviving workers must abandon with errors, got {errs}");
}

#[test]
fn primary_death_at_job_end_does_not_strand_the_shadow() {
    // The primary dies after every collective of the job but before app
    // rank 0 signals completion, so the done signal goes to a dead rank.
    // The shadow takes over with nobody left to tell it the job is over —
    // unless app rank 0 told it too. Before that fix the shadow scanned
    // forever and the job never returned.
    let layout = WorldLayout::new(3, 3); // idle 3, shadow 4, primary FD 5
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(40)
        .redundant_fd(true)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    let abandon = cfg.policy.abandon;
    let fault = world.fault();
    let (tx, rx) = mpsc::channel();
    let job = std::thread::spawn(move || {
        let report = run_ft_job(&world, cfg, FaultSchedule::none(), move |ctx| Acc {
            primary_dies_at_finalize: Some(Arc::clone(&fault)),
            ..Acc::new(ctx)
        });
        let _ = tx.send(report);
    });
    let report = rx
        .recv_timeout(abandon)
        .expect("job hung: the shadow took over and never learnt the application was done");
    job.join().unwrap();
    assert_eq!(report.killed(), vec![5]);
    assert_correct(&report, 3, 40);
    let ev = report.events.snapshot();
    assert!(
        ev.iter().any(|e| matches!(e.kind, EventKind::FdTakeover { dead_fd: 5 } if e.rank == 4)),
        "the shadow must have taken over"
    );
    assert!(report.first_error().is_none(), "{:?}", report.first_error());
}

#[test]
fn shadow_exits_cleanly_on_normal_completion() {
    let report = redundant_job(2, 4, 30, FaultSchedule::none());
    assert_correct(&report, 2, 30);
    // Shadow (rank 4 of 0..=5) completed as a quiet Detector.
    let detectors = report.completed().into_iter().filter(|r| r.role == Role::Detector).count();
    assert_eq!(detectors, 2, "primary and shadow must both report Detector");
}
