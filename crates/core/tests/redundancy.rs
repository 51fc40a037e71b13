//! Tests of the shadow fault detector (the paper's §VIII future work:
//! "the redundancy approach can be implemented to make the FD process
//! fault tolerant"), on the shared deterministic accumulator.

mod common;

use std::sync::mpsc;
use std::time::Duration;

use common::{expected_acc, Acc, FINALIZE_SITE, REWIRE_SITE};
use ft_cluster::{FaultAction, FaultSchedule, Injection};
use ft_core::{
    run_ft_job, EventKind, FtApp, FtConfig, FtCtx, FtResult, RecoveryPlan, Role, WorldLayout,
};
use ft_gaspi::{GaspiConfig, GaspiWorld, ReduceOp};

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

/// What the FD-kill tests arm at one crossing of app rank 0: the primary
/// FD's death, then a pause in which the shadow's takeover plan reaches the
/// other ranks where that crossing left them waiting.
fn kill_fd_and_pause(site: &str, occurrence: u64, fd: u32) -> FaultSchedule {
    let pause = FaultAction::Delay(Duration::from_millis(300));
    FaultSchedule::none()
        .inject(Injection::at(site, 0, occurrence, FaultAction::KillRank(fd)))
        .inject(Injection::at(site, 0, occurrence, pause))
}

/// Two collectives per step and a site between them.
struct TwoSums {
    a: f64,
    b: f64,
}

const BETWEEN_SUMS_SITE: &str = "test.twosums.between";

impl FtApp for TwoSums {
    type Summary = (f64, f64);

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        ctx.barrier_ft()
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let x = f64::from(ctx.app_rank() + 1) * (iter + 1) as f64;
        self.a += ctx.allreduce_f64_ft(&[x], ReduceOp::Sum)?[0];
        ctx.proc.injection_site(BETWEEN_SUMS_SITE);
        self.b += ctx.allreduce_f64_ft(&[1000.0 * x], ReduceOp::Sum)?[0];
        Ok(false)
    }

    fn rewire(&mut self, _ctx: &FtCtx, _plan: &RecoveryPlan) -> FtResult<()> {
        Ok(())
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<(f64, f64)> {
        Ok((self.a, self.b))
    }
}

#[test]
fn takeover_plan_between_two_collectives_of_a_step_interrupts_nothing() {
    // A detector-only plan must not unwind the step it lands in: re-entered
    // from the top, the step's first sum would be counted twice.
    let layout = WorldLayout::new(3, 3); // idle 3, shadow 4, primary FD 5
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(0)
        .max_iters(20)
        .redundant_fd(true)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    // Between the two sums of iteration 5: every rank is in the step's
    // second collective when the takeover plan arrives.
    let schedule = kill_fd_and_pause(BETWEEN_SUMS_SITE, 6, layout.fd_rank());
    let armed = schedule.injections().to_vec();
    let report = run_ft_job(&world, cfg, schedule, |_| TwoSums { a: 0.0, b: 0.0 });
    assert_eq!(world.fault().injections_fired(), armed, "the schedule must hit its window");
    assert_eq!(report.killed(), vec![5]);
    assert!(report.first_error().is_none(), "{:?}", report.first_error());
    let sums: Vec<(f64, f64)> = report.worker_summaries().into_iter().map(|(_, s)| *s).collect();
    let a = expected_acc(3, 20);
    assert_eq!(sums, vec![(a, 1000.0 * a); 3]);
    let ev = report.events.snapshot();
    assert!(ev.iter().any(|e| matches!(e.kind, EventKind::FdTakeover { dead_fd: 5 })));
    assert!(!ev.iter().any(|e| matches!(e.kind, EventKind::Restored { .. })));
    assert!(!ev.iter().any(|e| matches!(e.kind, EventKind::GroupRebuilt { epoch } if epoch > 0)));
}

#[test]
fn takeover_plan_inside_a_restore_interrupts_nothing() {
    // Worker 1 dies; when app rank 0 is in the recovery's `rewire` the
    // primary FD dies and rank 0 pauses, so the takeover plan reaches the
    // other two members inside the restore's vote. They must stay in it:
    // one group, one restore each, and the exact result.
    let layout = WorldLayout::new(3, 3); // idle 3, shadow 4, primary FD 5
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(60)
        .redundant_fd(true)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    let schedule =
        kill_fd_and_pause(REWIRE_SITE, 1, layout.fd_rank()).kill_rank_at_iteration(1, 25);
    let armed = schedule.injections().to_vec();
    let report = run_ft_job(&world, cfg, schedule, Acc::new);
    assert_eq!(world.fault().injections_fired(), armed, "the schedule must hit its window");
    let mut killed = report.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 5]);
    assert!(report.first_error().is_none(), "{:?}", report.first_error());
    assert_correct(&report, 3, 60);
    let ev = report.events.snapshot();
    assert!(ev.iter().any(|e| matches!(e.kind, EventKind::FdTakeover { dead_fd: 5 })));
    let mut restored: Vec<u32> = ev
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Restored { .. }))
        .map(|e| e.rank)
        .collect();
    restored.sort_unstable();
    assert_eq!(restored, vec![0, 2, 3], "one restore per member of the rebuilt group");
    let activations = ev.iter().filter(|e| matches!(e.kind, EventKind::Activated { .. })).count();
    assert_eq!(activations, 1, "rescue 3 joins one group, once");
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
    // The primary dies as app rank 0 enters the job's last collective, so
    // the done signal that follows it goes to a dead rank. The shadow takes
    // over with nobody left to tell it the job is over — unless app rank 0
    // told it too. Before that fix the shadow scanned forever and the job
    // never returned.
    const ITERS: u64 = 40;
    let layout = WorldLayout::new(3, 3); // idle 3, shadow 4, primary FD 5
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(ITERS)
        .redundant_fd(true)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    let abandon = cfg.abandon;
    let fault = world.fault();
    // One allreduce per step: the last step's is rank 0's ITERS-th.
    let kill = Injection::at("gaspi.allreduce", 0, ITERS, FaultAction::KillRank(layout.fd_rank()));
    let schedule = FaultSchedule::none().inject(kill.clone());
    let (tx, rx) = mpsc::channel();
    let job = std::thread::spawn(move || {
        let _ = tx.send(run_ft_job(&world, cfg, schedule, Acc::new));
    });
    let report = rx
        .recv_timeout(abandon)
        .expect("job hung: the shadow took over and never learnt the application was done");
    job.join().unwrap();
    assert_eq!(fault.injections_fired(), vec![kill], "the schedule must hit its window");
    assert_eq!(report.killed(), vec![5]);
    assert_correct(&report, 3, ITERS);
    let ev = report.events.snapshot();
    assert!(
        ev.iter().any(|e| matches!(e.kind, EventKind::FdTakeover { dead_fd: 5 } if e.rank == 4)),
        "the shadow must have taken over"
    );
    assert!(report.first_error().is_none(), "{:?}", report.first_error());
}

/// The job's end, position by position, for a worker that is a leaf of
/// every allreduce tree (nobody waits on it). Killed at its last iteration,
/// it is recovered. Killed once app rank 0 has signalled done — (b) as
/// rank 0 enters `finalize`, (c) as the detector broadcasts its end plan,
/// (d) in its own `finalize` — it is simply lost: no rescue is activated,
/// no rank errs, and every survivor's summary is exact. Rows (b)–(d) hold
/// the victim in its `finalize` (if it gets there first) so the kill finds
/// it running.
#[test]
fn a_worker_lost_at_the_job_end_has_one_stated_outcome_per_position() {
    const ITERS: u64 = 40;
    let layout = WorldLayout::new(3, 3); // idle 3, shadow 4, primary FD 5
    let victim = 2;
    let kill = || FaultAction::KillRank(victim);
    let held = || {
        let pause = FaultAction::Delay(Duration::from_millis(300));
        FaultSchedule::none().inject(Injection::at(FINALIZE_SITE, victim, 1, pause))
    };
    let rows = [
        ("(a) last iteration", FaultSchedule::none().kill_rank_at_iteration(victim, ITERS - 1)),
        ("(b) rank 0 enters finalize", held().inject(Injection::at(FINALIZE_SITE, 0, 1, kill()))),
        (
            "(c) the end broadcast",
            held().inject(Injection::at("ack.broadcast", layout.fd_rank(), 1, kill())),
        ),
        ("(d) its own finalize", held().inject(Injection::at(FINALIZE_SITE, victim, 1, kill()))),
    ];
    for (position, schedule) in rows {
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let cfg = FtConfig::builder(layout)
            .checkpoint_every(10)
            .max_iters(ITERS)
            .redundant_fd(true)
            .abandon(Duration::from_secs(20))
            .build()
            .unwrap();
        let kills: Vec<Injection> = schedule
            .injections()
            .iter()
            .filter(|i| matches!(i.action, FaultAction::KillRank(_)))
            .cloned()
            .collect();
        let report = run_ft_job(&world, cfg, schedule, Acc::new);
        let fired = world.fault().injections_fired();
        assert!(kills.iter().all(|k| fired.contains(k)), "{position}: window missed");
        assert_eq!(report.killed(), vec![victim], "{position}");
        assert!(report.first_error().is_none(), "{position}: {:?}", report.first_error());
        let ev = report.events.snapshot();
        let activated = ev.iter().any(|e| matches!(e.kind, EventKind::Activated { .. }));
        let summaries = report.worker_summaries();
        let apps: Vec<u32> = summaries.iter().map(|(app, _)| *app).collect();
        if position.starts_with("(a)") {
            assert!(activated, "{position}: the victim must be rescued");
            assert_eq!(apps, vec![0, 1, 2], "{position}");
        } else {
            assert!(!activated, "{position}: nothing may be recovered after done");
            assert_eq!(apps, vec![0, 1], "{position}");
        }
        for (app, (acc, _)) in summaries {
            assert_eq!(*acc, expected_acc(3, ITERS), "{position}: app rank {app}");
        }
    }
}

#[test]
fn shadow_exits_cleanly_on_normal_completion() {
    let report = redundant_job(2, 4, 30, FaultSchedule::none());
    assert_correct(&report, 2, 30);
    // Shadow (rank 4 of 0..=5) completed as a quiet Detector.
    let detectors = report.completed().into_iter().filter(|r| r.role == Role::Detector).count();
    assert_eq!(detectors, 2, "primary and shadow must both report Detector");
}
