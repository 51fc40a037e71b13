//! Tests of the shadow fault detector (the paper's §VIII future work:
//! "the redundancy approach can be implemented to make the FD process
//! fault tolerant"), on the shared deterministic accumulator.

mod common;

use std::sync::mpsc;
use std::time::Duration;

use common::{expected_acc, Acc};
use ft_cluster::{FaultAction, FaultSchedule};
use ft_core::{run_ft_job, EventKind, FtConfig, Role, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld};

type Report = ft_core::JobReport<(f64, u64)>;

fn redundant_job(workers: u32, spares: u32, iters: u64, schedule: FaultSchedule) -> Report {
    let layout = WorldLayout::new(workers, spares);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(iters)
        .redundant_fd(true)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    run_ft_job(&world, cfg, schedule, Acc::new)
}

fn assert_correct(report: &Report, workers: u32, iters: u64) {
    let s = report.worker_summaries();
    assert_eq!(s.len(), workers as usize, "all app ranks must finish");
    for (app, (acc, _)) in s {
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
        let report = run_ft_job(&world, cfg, FaultSchedule::none(), move |ctx| {
            let mut app = Acc::new(ctx);
            app.primary_dies_at_finalize = Some(fault.clone());
            app
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
