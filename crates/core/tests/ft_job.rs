//! End-to-end tests of the Fig. 3 flow with a toy deterministic
//! application: every worker contributes `(app_rank+1)·(iter+1)` to a
//! group allreduce-sum and accumulates the result. The final accumulator
//! is a pure function of (num_workers, iterations), so any adoption,
//! restore, or redo mistake shows up as a wrong number.

use std::sync::mpsc;
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy, Wire};
use ft_cluster::{FaultAction, FaultSchedule, Injection};
use ft_core::ack::{self, FIRST_APP_SEG};
use ft_core::ckpt::adopt_latest;
use ft_core::detector::run_detector;
use ft_core::{
    run_ft_job, DetectorConfig, EventKind, EventLog, FtApp, FtConfig, FtCtx, FtError, FtResult,
    FtSignal, ProcJobReport, ProcOutcome, ProcResult, RecoveryPlan, Role, StrategyKind,
    WorldLayout,
};
use ft_gaspi::{GaspiConfig, GaspiWorld, ReduceOp};

const STATE_TAG: u32 = 1;
const PLAN_TAG: u32 = 2;
const PLAN_MAGIC: u64 = 0xC0FF_EE00_DEAD_BEEF;
const FETCH: Duration = Duration::from_secs(5);
/// Queue of [`ToyApp`]'s ring writes.
const RING_QUEUE: u16 = 1;
/// Crossed by a ringed [`ToyApp`] before each step's write.
const RING_SITE: &str = "test.ring.write";

struct ToyApp {
    acc: f64,
    state_ck: Checkpointer,
    plan_ck: Checkpointer,
    /// A rank the last step waits to see buried by a plan, so the job
    /// cannot end before the detector has judged it.
    ends_after_burial: Option<ft_cluster::Rank>,
    /// Give every worker a halo link: each step writes to the next app
    /// rank and flushes before the allreduce, as the halo exchange does.
    ring: bool,
}

impl ToyApp {
    /// `pfs` backs the one-time plan blobs (the paper's "infrequent
    /// PFS-level copies" for a higher degree of reliability), so even
    /// adjacent multi-node failures cannot strand a rescue without its
    /// adopted identity's plan.
    fn new(ctx: &FtCtx, pfs: &std::sync::Arc<ft_checkpoint::Pfs>) -> Self {
        Self {
            acc: 0.0,
            state_ck: Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), None),
            plan_ck: Checkpointer::new(
                &ctx.proc,
                CheckpointerConfig { keep_versions: 1, ..CheckpointerConfig::for_tag(PLAN_TAG) },
                Some(std::sync::Arc::clone(pfs)),
            ),
            ends_after_burial: None,
            ring: false,
        }
    }
}

impl FtApp for ToyApp {
    type Summary = f64;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        // Our "pre-processing result": a plan blob a rescue must be able
        // to read instead of redoing setup.
        self.plan_ck.commit(0, (PLAN_MAGIC, ctx.app_rank()).to_bytes(), CopyPolicy::Replicate);
        // Pre-processing is not done until its result is safe: a rank that
        // dies in its first iterations must leave the plan behind.
        assert!(self.plan_ck.drain(FETCH), "plan replication must land");
        // A data segment, to make the world realistic.
        ctx.proc.segment_create(FIRST_APP_SEG, 256)?;
        ctx.barrier_ft()?;
        Ok(())
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        ctx.proc.segment_create(FIRST_APP_SEG, 256)?;
        // Read the predecessor's plan blob — the paper's "the rescue
        // process reads the checkpoint of the failed process. In this way,
        // the rescue process is informed about the communicating partners"
        let r = adopt_latest(ctx, &self.plan_ck, FETCH)?;
        let (magic, app) = <(u64, u32)>::from_bytes(&r.data).expect("plan blob");
        assert_eq!(magic, PLAN_MAGIC);
        assert_eq!(app, ctx.app_rank(), "adopted the wrong identity");
        // `adopt_latest` re-homed the blob under our own rank — make that
        // safe, as in `setup`.
        assert!(self.plan_ck.drain(FETCH), "plan replication must land");
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        while let Some(r) = self.ends_after_burial {
            if iter + 1 < ctx.cfg.max_iters || ctx.plan().failed.contains(&r) {
                break;
            }
            ctx.watch.check()?;
            std::thread::sleep(Duration::from_millis(1));
        }
        // A kill must find the last checkpoint's copies landed, or where
        // the job rolls back to would depend on the library thread. (A rank
        // killed from outside fails the drain too: the collective unwinds
        // it before the assert can speak for it.)
        let landed = self.state_ck.drain(FETCH);
        if self.ring {
            let next = ctx.gaspi_of((ctx.app_rank() + 1) % ctx.num_app_ranks());
            ctx.proc.injection_site(RING_SITE);
            ctx.proc.write_notify(FIRST_APP_SEG, 0, next, FIRST_APP_SEG, 8, 8, 0, 1, RING_QUEUE)?;
            ctx.wait_ft(RING_QUEUE)?;
        }
        let x = f64::from(ctx.app_rank() + 1) * (iter + 1) as f64;
        let sum = ctx.allreduce_f64_ft(&[x], ReduceOp::Sum)?[0];
        assert!(landed, "replication must land");
        self.acc += sum;
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.state_ck, FETCH))
    }

    fn export_state(&self, _ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        Ok(Some((iter, self.acc).to_bytes()))
    }

    fn load_state(&mut self, _ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let (iter, acc) = <(u64, f64)>::from_bytes(data).expect("state");
        self.acc = acc;
        Ok(iter)
    }

    fn reset_state(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        self.acc = 0.0;
        Ok(())
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.state_ck.refresh_failed(&plan.failed);
        self.plan_ck.refresh_failed(&plan.failed);
        // A write to the dead neighbour completed as broken.
        Ok(ctx.proc.queue_purge(RING_QUEUE, ft_gaspi::Timeout::Ms(200))?)
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<f64> {
        Ok(self.acc)
    }
}

/// Expected accumulator: Σ_{i=1..iters} i · W(W+1)/2.
fn expected_acc(workers: u32, iters: u64) -> f64 {
    let s = f64::from(workers) * f64::from(workers + 1) / 2.0;
    let t = (iters * (iters + 1) / 2) as f64;
    s * t
}

fn job(
    workers: u32,
    spares: u32,
    iters: u64,
    ckpt_every: u64,
    schedule: FaultSchedule,
) -> ft_core::JobReport<f64> {
    let layout = WorldLayout::new(workers, spares);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(ckpt_every)
        .max_iters(iters)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    let pfs = ft_checkpoint::Pfs::new(ft_checkpoint::PfsConfig::instant());
    run_ft_job(&world, cfg, schedule, move |ctx| ToyApp::new(ctx, &pfs))
}

fn assert_workers_correct(report: &ft_core::JobReport<f64>, workers: u32, iters: u64) {
    let summaries = report.worker_summaries();
    if summaries.len() != workers as usize {
        for r in report.completed() {
            eprintln!("rank {} role {:?} app {:?} err {:?}", r.rank, r.role, r.app_rank, r.error);
        }
        for (i, o) in report.outcomes.iter().enumerate() {
            if o.was_killed() {
                eprintln!("rank {i}: killed");
            }
        }
        for e in report.events.snapshot() {
            eprintln!("{:>10.3?} r{} {:?}", e.t, e.rank, e.kind);
        }
        panic!("every app rank must finish exactly once: {summaries:?}");
    }
    let want = expected_acc(workers, iters);
    for (app, acc) in summaries {
        assert_eq!(*acc, want, "app rank {app} accumulated a wrong total");
    }
}

#[test]
fn failure_free_run() {
    let report = job(4, 2, 50, 10, FaultSchedule::none());
    assert_workers_correct(&report, 4, 50);
    assert!(report.killed().is_empty());
    let fd = report.completed().into_iter().find(|r| r.role == Role::Detector);
    assert!(fd.is_some_and(|r| r.error.is_none()), "the detector ends cleanly");
    let ev = report.events.snapshot();
    assert!(!ev.iter().any(|e| matches!(e.kind, EventKind::FdDetect { .. })));
    assert!(!ev.iter().any(|e| matches!(e.kind, EventKind::CapacityExhausted)));
}

/// Regression: app rank 0 leaves the last collective first and tells the
/// FD the job is done; the FD's answer used to be a shutdown broadcast to
/// *every* rank, which a leaf still waiting in that collective's down-phase
/// (6 ms links) read as `Signal(Shutdown)` and aborted on.
/// A normal end must leave the workers alone.
#[test]
fn job_end_shutdown_does_not_abort_a_worker_in_its_last_collective() {
    let layout = WorldLayout::new(8, 2);
    let model = ft_cluster::LatencyModel {
        base: Duration::from_millis(6),
        ..ft_cluster::LatencyModel::deterministic_fast()
    };
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()).with_model(model));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(0)
        .max_iters(5)
        .detector(ft_core::DetectorConfig {
            scan_interval: Duration::from_millis(1),
            ping_timeout: ft_gaspi::Timeout::Ms(2000),
            ..Default::default()
        })
        .build()
        .unwrap();
    let pfs = ft_checkpoint::Pfs::new(ft_checkpoint::PfsConfig::instant());
    let report = run_ft_job(&world, cfg, FaultSchedule::none(), move |ctx| ToyApp::new(ctx, &pfs));
    assert_workers_correct(&report, 8, 5);
    assert!(report.first_error().is_none(), "{:?}", report.first_error());
    // The idle spare, which no iteration count ever releases, was still
    // told to stop.
    assert!(report.completed().iter().any(|r| r.role == Role::Idle));
}

/// Regression: an idle spare pings the detector every few scan intervals,
/// and a detector that has left *because the job ended* fails that ping —
/// the spare used to report `RemoteBroken { rank: fd }` on a clean job
/// although the shutdown was already in its control segment. (Only a rank
/// *process* stops answering when it exits, so the window itself opens on
/// the process backend; this pins the contract on both.)
#[test]
fn idle_spares_end_a_clean_job_without_error() {
    let report = job(2, 4, 50, 10, FaultSchedule::none());
    assert_workers_correct(&report, 2, 50);
    let completed = report.completed();
    assert_eq!(completed.iter().filter(|r| r.role == Role::Idle).count(), 3);
    for r in completed {
        assert!(r.error.is_none(), "rank {} ({:?}) ended with {:?}", r.rank, r.role, r.error);
    }
}

/// Regression: an idle spare parks on its control segment between its
/// looks at the detector, and a plan that leaves the workers alone — the
/// end plan — is put in force on the way into that park. The park used to
/// go on waiting for a newer plan, so with a one-hour scan interval (an
/// idle looks every four) the job never ended.
#[test]
fn idle_spares_end_with_the_job_however_long_their_look_period() {
    let layout = WorldLayout::new(2, 3);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .max_iters(20)
        .detector(ft_core::DetectorConfig {
            scan_interval: Duration::from_secs(3600),
            ..Default::default()
        })
        .build()
        .unwrap();
    let pfs = ft_checkpoint::Pfs::new(ft_checkpoint::PfsConfig::instant());
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let report =
            run_ft_job(&world, cfg, FaultSchedule::none(), move |ctx| ToyApp::new(ctx, &pfs));
        let _ = tx.send(report);
    });
    let report = rx.recv_timeout(Duration::from_secs(30)).expect("the job must end");
    assert_workers_correct(&report, 2, 20);
    assert_eq!(report.completed().iter().filter(|r| r.role == Role::Idle).count(), 2);
}

/// Regression: an idle spare judged the detector by one ping, so a link
/// that was down for a moment made it give up on a live detector with
/// `RemoteBroken`. It now takes the detector's own two looks, the second
/// after `suspect_grace`: an idle↔FD link down for three of the idle's look
/// periods, healed well inside the grace, is forgiven by everyone.
#[test]
fn idle_forgives_a_detector_link_that_heals_within_the_grace() {
    let layout = WorldLayout::new(2, 2); // workers 0-1, idle 2, FD 3
    let (idle, fd) = (2, layout.fd_rank());
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(60)
        .abandon(Duration::from_secs(20))
        .detector(ft_core::DetectorConfig {
            // The idle looks every 4 × 10 ms.
            scan_interval: Duration::from_millis(10),
            suspect_grace: Duration::from_millis(400),
            ..Default::default()
        })
        .build()
        .unwrap();
    // At app rank 0's 20th step: cut the link for 120 ms, heal it, then hold
    // the job long enough for every second look to land before it ends.
    let at = |action| Injection::at("gaspi.allreduce", 0, 20, action);
    let schedule = [
        FaultAction::BreakLink(idle, fd),
        FaultAction::Delay(Duration::from_millis(120)),
        FaultAction::HealLink(idle, fd),
        FaultAction::Delay(Duration::from_millis(700)),
    ]
    .into_iter()
    .fold(FaultSchedule::none(), |s, a| s.inject(at(a)));
    let armed = schedule.injections().to_vec();
    let pfs = ft_checkpoint::Pfs::new(ft_checkpoint::PfsConfig::instant());
    let report = run_ft_job(&world, cfg, schedule, move |ctx| ToyApp::new(ctx, &pfs));
    assert_eq!(world.fault().injections_fired(), armed, "the schedule must hit its window");
    assert!(report.killed().is_empty());
    assert_workers_correct(&report, 2, 60);
    assert!(report.first_error().is_none(), "{:?}", report.first_error());
    let spare = report.completed().into_iter().find(|r| r.rank == idle).expect("the idle ends");
    assert_eq!((spare.role, &spare.error), (Role::Idle, &None));
}

/// Regression (the `EarlyKill` class): the lone worker is done with six
/// iterations and dead before the spare — stalled at its first
/// `gaspi.segment.create` — has a control segment for the FD's plan write
/// to land in. The write was lost and never repeated, so the spare stayed
/// idle and the job never returned; now the FD re-sends the plan in force
/// to whoever missed it, every scan, until it lands.
#[test]
fn late_spare_still_hears_of_the_plan_that_makes_it_a_rescue() {
    let layout = WorldLayout::new(1, 2); // worker 0, idle 1, FD 2
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .max_iters(12)
        .abandon(Duration::from_secs(20))
        .strategy(StrategyKind::Abft)
        .build()
        .unwrap();
    let abandon = cfg.abandon;
    let stall = FaultAction::Delay(Duration::from_millis(300));
    let stall = Injection::at("gaspi.segment.create", 1, 1, stall);
    let schedule = FaultSchedule::none().kill_rank_at_iteration(0, 6).inject(stall);
    // An idle has no abandon deadline, so a lost plan hangs the job for
    // good: bound the wait here.
    let pfs = ft_checkpoint::Pfs::new(ft_checkpoint::PfsConfig::instant());
    let (tx, rx) = mpsc::channel();
    let job = std::thread::spawn(move || {
        let _ = tx.send(run_ft_job(&world, cfg, schedule, move |ctx| ToyApp::new(ctx, &pfs)));
    });
    let report = rx
        .recv_timeout(abandon)
        .expect("job hung: no rank finished — the spare never heard it was made a rescue");
    job.join().unwrap();
    assert_eq!(report.killed(), vec![0]);
    assert_workers_correct(&report, 1, 12);
    let ev = report.events.snapshot();
    let activations = ev.iter().filter(|e| matches!(e.kind, EventKind::Activated { .. })).count();
    assert_eq!(activations, 1, "rank 1 becomes the rescue, once");
}

#[test]
fn single_failure_recovers_and_matches_failure_free() {
    let schedule = FaultSchedule::none().kill_rank_at_iteration(2, 37);
    let report = job(4, 3, 60, 10, schedule);
    assert_eq!(report.killed(), vec![2]);
    assert_workers_correct(&report, 4, 60);
    // The rescue (rank 4) must report Role::Rescue with app rank 2.
    let rescue = report
        .completed()
        .into_iter()
        .find(|r| r.role == Role::Rescue)
        .expect("a rescue must have been activated");
    assert_eq!(rescue.rank, 4);
    assert_eq!(rescue.app_rank, Some(2));
    // Event trail: detect → ack → signal → rebuilt → restored → redo.
    let ev = report.events.snapshot();
    use ft_core::EventKind as K;
    let has = |f: &dyn Fn(&K) -> bool| ev.iter().any(|e| f(&e.kind));
    assert!(has(&|k| matches!(k, K::FdDetect { epoch: 1, .. })));
    assert!(has(&|k| matches!(k, K::FdAck { epoch: 1 })));
    assert!(has(&|k| matches!(k, K::FailureSignal { epoch: 1 })));
    assert!(has(&|k| matches!(k, K::GroupRebuilt { epoch: 1 })));
    assert!(has(&|k| matches!(k, K::Restored { epoch: 1, .. })));
    assert!(has(&|k| matches!(k, K::RedoComplete { epoch: 1, .. })));
    // Restore resumed from the last checkpoint before the kill (iter 30).
    let restored = ev
        .iter()
        .find_map(|e| match e.kind {
            K::Restored { iter, .. } => Some(iter),
            _ => None,
        })
        .unwrap();
    assert_eq!(restored, 30);
}

#[test]
fn two_sequential_failures() {
    let schedule =
        FaultSchedule::none().kill_rank_at_iteration(1, 25).kill_rank_at_iteration(3, 45);
    let report = job(4, 3, 60, 10, schedule);
    let mut killed = report.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 3]);
    assert_workers_correct(&report, 4, 60);
    let detections = report.events.all_where(|e| matches!(e.kind, EventKind::FdDetect { .. }));
    assert_eq!(detections.len(), 2);
}

#[test]
fn rescue_failure_is_rescued_again() {
    // Rank 1 dies; the pool's first idle (rank 3) adopts it, then is
    // itself killed mid-compute. The pool's next idle (rank 4) must adopt
    // the same app rank transitively.
    let schedule =
        FaultSchedule::none().kill_rank_at_iteration(1, 15).kill_rank_at_iteration(3, 35); // fires once rank 3 computes as a worker
    let report = job(3, 4, 50, 10, schedule);
    assert_workers_correct(&report, 3, 50);
    let rescue = report
        .completed()
        .into_iter()
        .find(|r| r.role == Role::Rescue && r.summary.is_some())
        .expect("final rescue");
    assert_eq!(rescue.rank, 4);
    assert_eq!(rescue.app_rank, Some(1));
}

/// Detection does not wait for the next scan: a worker's flush to its dead
/// ring neighbour comes back broken, the worker reports the neighbour, and
/// the report wakes the detector out of a 2 s scan interval. The writer
/// stalls 20 ms before the write, so the write finds its target dead.
#[test]
fn a_dead_ring_neighbour_is_detected_between_scans() {
    let layout = WorldLayout::new(4, 2);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(60)
        .abandon(Duration::from_secs(20))
        .detector(DetectorConfig { scan_interval: Duration::from_secs(2), ..Default::default() })
        .build()
        .unwrap();
    let pfs = ft_checkpoint::Pfs::new(ft_checkpoint::PfsConfig::instant());
    let stall = FaultAction::Delay(Duration::from_millis(20));
    let schedule = FaultSchedule::none()
        .kill_rank_at_iteration(2, 25)
        .inject(Injection::at(RING_SITE, 1, 26, stall));
    let report = run_ft_job(&world, cfg, schedule, move |ctx| ToyApp {
        ring: true,
        ..ToyApp::new(ctx, &pfs)
    });
    assert_workers_correct(&report, 4, 60);
    let at = |f: fn(&EventKind) -> bool| report.events.first_where(|e| f(&e.kind)).map(|e| e.t);
    let killed = at(|k| matches!(k, EventKind::KillFired { .. })).expect("the kill fired");
    let detected = at(|k| matches!(k, EventKind::FdDetect { .. })).expect("the kill was detected");
    let took = detected.saturating_sub(killed);
    assert!(took < Duration::from_millis(200), "detected {took:?} after the kill");
}

#[test]
fn simultaneous_failures_single_detection_round() {
    // The paper's "3 sim. fail recovery": a node hosting three processes
    // dies, and the FD's batched scan detects all three in a single round.
    let layout = WorldLayout::new(4, 4);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()).with_ranks_per_node(3));
    // Node 0 hosts ranks {0,1,2}; kill it mid-run, at rank 0's 150th step
    // (a wall-clock kill can land inside `setup` on a loaded machine).
    let node0 = FaultAction::KillNode(ft_cluster::NodeId(0));
    let schedule = FaultSchedule::none().inject(Injection::at("gaspi.allreduce", 0, 150, node0));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(20)
        .max_iters(400)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    let pfs = ft_checkpoint::Pfs::new(ft_checkpoint::PfsConfig::instant());
    let report = run_ft_job(&world, cfg, schedule, move |ctx| ToyApp::new(ctx, &pfs));
    assert_workers_correct(&report, 4, 400);
    let mut killed = report.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![0, 1, 2]);
    let detections: Vec<Vec<u32>> = report
        .events
        .snapshot()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::FdDetect { failed, .. } => Some(failed),
            _ => None,
        })
        .collect();
    assert_eq!(detections, vec![vec![0, 1, 2]], "one detection round for simultaneous failures");
    // All three recoveries resumed from a real checkpoint (the node-local
    // copies died with node 0, the neighbor replicas on node 1 did not).
    let ev = report.events.snapshot();
    let restored: Vec<u64> = ev
        .iter()
        .filter_map(|e| match e.kind {
            ft_core::EventKind::Restored { iter, .. } => Some(iter),
            _ => None,
        })
        .collect();
    assert!(!restored.is_empty());
    assert!(restored.iter().all(|&i| *restored.first().unwrap() == i));
}

#[test]
fn fd_promotes_itself_when_pool_empty() {
    // One spare only (the FD). A worker dies; the FD must join the worker
    // group itself and the job still completes correctly.
    let schedule = FaultSchedule::none().kill_rank_at_iteration(1, 17);
    let report = job(3, 1, 30, 5, schedule);
    assert_workers_correct(&report, 3, 30);
    let promoted = report
        .completed()
        .into_iter()
        .find(|r| r.role == Role::Rescue)
        .expect("the FD must have been promoted");
    assert_eq!(promoted.rank, 3);
    let ev = report.events.snapshot();
    assert!(ev.iter().any(|e| matches!(e.kind, ft_core::EventKind::FdPromoted)));
}

#[test]
fn false_positive_network_failure_is_enforced_dead() {
    // Break the FD→worker link only: the worker is alive, the FD suspects
    // it, and recovery must proc_kill it so it cannot keep computing
    // (paper §IV-A-a).
    let layout = WorldLayout::new(3, 3);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let fault = world.fault();
    let fd = layout.fd_rank();
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(20)
        .max_iters(400)
        .abandon(Duration::from_secs(20))
        .build()
        .unwrap();
    // Break the link early enough that plenty of iterations remain, but
    // at a named step: on a loaded machine a wall-clock trigger can land
    // inside `setup`.
    let cut = Injection::at("gaspi.allreduce", 0, 50, FaultAction::BreakLink(fd, 1));
    let schedule = FaultSchedule::none().inject(cut);
    let pfs = ft_checkpoint::Pfs::new(ft_checkpoint::PfsConfig::instant());
    // The job ends only once a plan buries rank 1 (or is abandoned), so the
    // verdict does not depend on how fast the detector runs under load.
    let report = run_ft_job(&world, cfg, schedule, move |ctx| ToyApp {
        ends_after_burial: Some(1),
        ..ToyApp::new(ctx, &pfs)
    });
    assert_workers_correct(&report, 3, 400);
    assert!(!fault.is_alive(1), "false positive must be enforced dead");
    // Rank 1 was alive when killed: it appears as Killed (fail-stop), and
    // a rescue carries app rank 1 to completion.
    assert!(report.killed().contains(&1));
}

#[test]
fn capacity_exhaustion_is_reported() {
    // Two workers die, but there are zero rescue slots beyond the FD and
    // the FD can cover only one. The job must end with CapacityExhausted
    // rather than hang.
    let schedule =
        FaultSchedule::none().kill_rank_at_iteration(0, 10).kill_rank_at_iteration(1, 10);
    let layout = WorldLayout::new(3, 1);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(5)
        .max_iters(40)
        .abandon(Duration::from_secs(3))
        .build()
        .unwrap();
    let pfs = ft_checkpoint::Pfs::new(ft_checkpoint::PfsConfig::instant());
    let report = run_ft_job(&world, cfg, schedule, move |ctx| ToyApp::new(ctx, &pfs));
    let ev = report.events.snapshot();
    let fd_gave_up = ev.iter().any(|e| matches!(e.kind, ft_core::EventKind::CapacityExhausted));
    // Depending on scan timing the FD either sees both failures in one
    // round (capacity exhausted) or first covers one by promotion and the
    // second is then undetectable (no FD left) — both are the paper's
    // stated restrictions; either way no worker may report a bogus
    // success.
    let summaries = report.worker_summaries();
    let complete = summaries.len() == 3 && summaries.iter().all(|(_, &s)| s == expected_acc(3, 40));
    assert!(
        fd_gave_up || !complete,
        "job must not claim a full correct result after exhausting capacity"
    );
}

#[test]
fn failure_before_first_checkpoint_restarts_from_scratch() {
    let schedule = FaultSchedule::none().kill_rank_at_iteration(1, 3);
    let report = job(3, 2, 20, 10, schedule);
    assert_workers_correct(&report, 3, 20);
    let ev = report.events.snapshot();
    let restored = ev
        .iter()
        .find_map(|e| match e.kind {
            ft_core::EventKind::Restored { iter, .. } => Some(iter),
            _ => None,
        })
        .unwrap();
    assert_eq!(restored, 0, "no checkpoint existed; must restart from iteration 0");
}

/// A worker that gives up with an error of its own at iteration 5 when it
/// carries the highest application rank; everyone else allreduces on.
struct GivesUp;

impl FtApp for GivesUp {
    type Summary = ();

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        ctx.barrier_ft()
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        if iter == 5 && ctx.app_rank() + 1 == ctx.num_app_ranks() {
            return Err(FtError::Unsupported("gives up"));
        }
        ctx.allreduce_f64_ft(&[1.0], ReduceOp::Sum).map(|_| false)
    }

    fn rewire(&mut self, _ctx: &FtCtx, _plan: &RecoveryPlan) -> FtResult<()> {
        Ok(())
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }
}

/// Regression: a rank that ends in error aborts the job, and every other
/// rank then ends on the abort's `Signal(Shutdown)`. `first_error` used to
/// return the lowest rank's error — rank 0's `Shutdown`, the effect — and
/// hide the cause; it is the earliest error that is not a `Shutdown`.
#[test]
fn first_error_names_the_cause_not_the_shutdown_it_caused() {
    let layout = WorldLayout::new(3, 2);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout).checkpoint_every(0).max_iters(50).build().unwrap();
    let report = run_ft_job(&world, cfg, FaultSchedule::none(), |_| GivesUp);
    let ended_on = |rank: u32| {
        let completed = report.completed();
        completed.into_iter().find(|r| r.rank == rank).and_then(|r| r.error.clone())
    };
    let shutdown = FtError::Signal(FtSignal::Shutdown);
    assert_eq!(ended_on(0), Some(shutdown), "the abort must reach rank 0");
    assert_eq!(ended_on(2), Some(FtError::Unsupported("gives up")));
    assert_eq!(report.first_error(), Some(&FtError::Unsupported("gives up")));

    // The same rule over a process-backend report.
    let result = |error: &str, shutdown, ms| {
        ProcOutcome::Completed(ProcResult {
            role: Role::Worker,
            app_rank: None,
            summary: None,
            error: Some(error.to_string()),
            shutdown,
            t_end: Duration::from_millis(ms),
        })
    };
    let mut report = ProcJobReport {
        outcomes: vec![
            result("Signal(Shutdown)", true, 30),
            result("Unsupported(\"late\")", false, 20),
        ],
        events: EventLog::new(),
    };
    assert_eq!(report.first_error(), Some("Unsupported(\"late\")"));
    report.outcomes.push(result("Unsupported(\"gives up\")", false, 10));
    assert_eq!(report.first_error(), Some("Unsupported(\"gives up\")"), "earliest wins");
    report.outcomes.truncate(1);
    assert_eq!(report.first_error(), Some("Signal(Shutdown)"), "only when nothing else exists");
    // A rank whose closure failed has no completion record, but it is a
    // cause: it outranks the shutdown, not an error that ended a rank.
    report.outcomes.push(ProcOutcome::Crashed("exit code 1: rank failed: no segment".into()));
    assert_eq!(report.first_error(), Some("exit code 1: rank failed: no segment"));
    report.outcomes.push(result("Unsupported(\"late\")", false, 20));
    assert_eq!(report.first_error(), Some("Unsupported(\"late\")"));
}

/// Regression: a worker fast enough to finish before the detector created
/// its control segment said done into nothing. The write failed, the word
/// was dropped, and the detector scanned forever. Now the word is re-sent
/// to a live detector until it lands.
#[test]
fn a_done_word_sent_before_the_detector_listens_still_ends_the_job() {
    let layout = WorldLayout::new(1, 1); // worker 0, FD 1
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let (worker, fd) = (world.proc_handle(0), world.proc_handle(1));
    ack::create_ctrl_segment(&worker, &layout).unwrap();
    let cfg = DetectorConfig::default();
    let t = cfg.ack_timeout;
    let done = std::thread::spawn(move || ack::signal_done(&worker, 1, ack::ACK_QUEUE, t));
    std::thread::sleep(Duration::from_millis(50));
    ack::create_ctrl_segment(&fd, &layout).unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_detector(&fd, &layout, &cfg, &EventLog::new()));
    });
    let ended = rx.recv_timeout(Duration::from_secs(2));
    assert_eq!(ended, Ok(Ok(None)), "the detector never heard the done word");
    done.join().unwrap().unwrap();
}
