//! The fault-tolerant application driver (the paper's Fig. 3 flow chart).
//!
//! At the start of the job, processes are categorized into **workers**
//! (GASPI ranks `0..W`, carrying application ranks `0..W`), **idle**
//! processes, and the **fault detector** (the last rank). Workers compute;
//! the FD scans; idles park on their control segment. Upon a failure
//! acknowledgment, all members of the new worker group — survivors plus
//! activated rescues — reconstruct the group, rewire the application,
//! restore from the last consistent checkpoint, and redo the lost work.
//!
//! Applications implement [`FtApp`]; [`run_ft_job`] runs the whole show
//! over a [`GaspiWorld`] and returns per-rank reports plus the shared
//! [`EventLog`] the benchmark harnesses feed on.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_checkpoint::Checkpointer;
use ft_cluster::{FaultSchedule, Rank};
use ft_gaspi::{
    GaspiProc, GaspiResult, GaspiWorld, Group, NotificationId, RankOutcome, ReduceOp, SegId,
};

use crate::ack::{self, create_ctrl_segment};
use crate::detector::{glo_health_chk_graced, run_detector_from, DetectorConfig};
use crate::error::{FtError, FtResult, FtSignal};
use crate::events::{EventKind, EventLog};
use crate::health::{CommPolicy, HealthWatch};
use crate::layout::{RankMap, WorldLayout};
use crate::plan::RecoveryPlan;
use crate::recovery::execute_recovery;
use crate::strategy::{RecoveryStrategy, StrategyKind};

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Worker/spare split.
    pub layout: WorldLayout,
    /// Fault detector tuning.
    pub detector: DetectorConfig,
    /// Retry policy for fault-tolerant communication.
    pub policy: CommPolicy,
    /// Checkpoint every N iterations (0 = never; the paper uses 500).
    pub checkpoint_every: u64,
    /// Stop after this many iterations (the paper fixes 3500); `step` may
    /// also end the run early by returning `true`.
    pub max_iters: u64,
    /// Run a *shadow* detector on the second-to-last spare: it monitors
    /// the primary FD and takes over if the primary dies — the paper's
    /// §VIII "redundancy approach … to make the FD process fault
    /// tolerant". Requires `layout.num_spares >= 2`; costs one rescue
    /// slot.
    pub redundant_fd: bool,
    /// Recovery model every worker runs (all members must agree).
    pub strategy: StrategyKind,
}

impl FtConfig {
    /// Reasonable simulation defaults for a given layout.
    fn new(layout: WorldLayout) -> Self {
        Self {
            layout,
            detector: DetectorConfig::default(),
            policy: CommPolicy::default(),
            checkpoint_every: 100,
            max_iters: 1000,
            redundant_fd: false,
            strategy: StrategyKind::CheckpointRestart,
        }
    }

    /// A validating builder over the same defaults (the supported way to
    /// customize; see [`FtConfigBuilder`]).
    pub fn builder(layout: WorldLayout) -> FtConfigBuilder {
        FtConfigBuilder { cfg: Self::new(layout) }
    }

    /// The shadow detector's rank, when enabled.
    pub fn shadow_rank(&self) -> Option<Rank> {
        (self.redundant_fd && self.layout.num_spares >= 2).then(|| self.layout.total() - 2)
    }
}

/// A config rejected by [`FtConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtConfigError {
    /// `max_iters` was 0 — the job would finish before its first step.
    ZeroIters,
    /// `redundant_fd` needs at least two spares (shadow + detector).
    ShadowNeedsSpares {
        /// Spares the layout actually has.
        have: u32,
    },
    /// The replication strategy needs at least one rescue slot to host a
    /// designated shadow.
    ReplicationNeedsSpares,
}

impl fmt::Display for FtConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtConfigError::ZeroIters => write!(f, "max_iters must be > 0"),
            FtConfigError::ShadowNeedsSpares { have } => {
                write!(f, "redundant_fd requires >= 2 spares, layout has {have}")
            }
            FtConfigError::ReplicationNeedsSpares => {
                write!(f, "the replicated strategy requires >= 1 rescue slot")
            }
        }
    }
}

impl std::error::Error for FtConfigError {}

/// Fluent, validating construction of [`FtConfig`]. Invalid combinations
/// are rejected at [`build`](Self::build) time instead of failing mid-job.
#[derive(Debug, Clone)]
pub struct FtConfigBuilder {
    cfg: FtConfig,
}

impl FtConfigBuilder {
    /// Fault-detector tuning.
    pub fn detector(mut self, detector: DetectorConfig) -> Self {
        self.cfg.detector = detector;
        self
    }

    /// Retry policy for fault-tolerant communication.
    pub fn policy(mut self, policy: CommPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Checkpoint every `n` iterations (0 = never).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.cfg.checkpoint_every = n;
        self
    }

    /// Stop after `n` iterations.
    pub fn max_iters(mut self, n: u64) -> Self {
        self.cfg.max_iters = n;
        self
    }

    /// Give up on fault-tolerant communication after this long without
    /// progress (shorthand for setting `policy.abandon`).
    pub fn abandon(mut self, t: Duration) -> Self {
        self.cfg.policy.abandon = t;
        self
    }

    /// Run the shadow fault detector (paper §VIII).
    pub fn redundant_fd(mut self, on: bool) -> Self {
        self.cfg.redundant_fd = on;
        self
    }

    /// Select the recovery model.
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<FtConfig, FtConfigError> {
        if self.cfg.max_iters == 0 {
            return Err(FtConfigError::ZeroIters);
        }
        if self.cfg.redundant_fd && self.cfg.layout.num_spares < 2 {
            return Err(FtConfigError::ShadowNeedsSpares { have: self.cfg.layout.num_spares });
        }
        if self.cfg.strategy == StrategyKind::Replicated && self.cfg.layout.rescue_capacity() < 1 {
            return Err(FtConfigError::ReplicationNeedsSpares);
        }
        Ok(self.cfg)
    }
}

/// Mutable per-rank driver state visible to the application.
struct CtxState {
    group: Option<Group>,
    app_rank: Option<u32>,
    /// Set while this rank is a *freshly activated* rescue that has not
    /// yet restored: the failed predecessor whose checkpoints it must
    /// adopt. Cleared once the restore re-homed the state, after which
    /// the rank restores like any survivor.
    adopted_from: Option<Rank>,
}

/// Everything an [`FtApp`] needs: the process handle, the health watch
/// (which holds the plan in force and its rank map), the current worker
/// group, and the job event log.
pub struct FtCtx {
    /// This rank's GASPI handle.
    pub proc: GaspiProc,
    /// The job layout.
    pub layout: WorldLayout,
    /// The failure-acknowledgment watch (behind the `*_ft` methods of this
    /// context).
    pub watch: HealthWatch,
    /// Shared job event log.
    pub events: EventLog,
    /// Driver configuration.
    pub cfg: FtConfig,
    state: RefCell<CtxState>,
}

impl FtCtx {
    pub(crate) fn new(proc: GaspiProc, cfg: FtConfig, events: EventLog) -> Self {
        let layout = cfg.layout;
        let watch = HealthWatch::new(proc.clone(), cfg.policy.clone(), layout);
        let state = RefCell::new(CtxState { group: None, app_rank: None, adopted_from: None });
        Self { proc, layout, watch, events, cfg, state }
    }

    fn install(&self, group: Group) {
        self.state.borrow_mut().group = Some(group);
    }

    fn set_app_rank(&self, app: u32) {
        self.state.borrow_mut().app_rank = Some(app);
    }

    /// The current worker group.
    pub fn group(&self) -> Group {
        self.state.borrow().group.expect("no worker group installed")
    }

    /// The recovery plan in force (epoch 0 = initial world).
    pub fn plan(&self) -> RecoveryPlan {
        self.watch.plan()
    }

    /// This process's application rank.
    pub fn app_rank(&self) -> u32 {
        self.state.borrow().app_rank.expect("not a worker")
    }

    /// Number of application ranks (constant: non-shrinking recovery).
    pub fn num_app_ranks(&self) -> u32 {
        self.layout.num_workers
    }

    /// GASPI rank currently carrying `app_rank`.
    pub fn gaspi_of(&self, app_rank: u32) -> Rank {
        self.watch.gaspi_of(app_rank)
    }

    /// The rank whose checkpoints this process must restore: its failed
    /// predecessor while it is a freshly activated rescue (before its
    /// first restore re-homes the state), itself otherwise. Applications
    /// pass this to [`ft_checkpoint::Checkpointer`] lookups in
    /// `join_as_rescue`; [`crate::ckpt::consistent_restore`] reads it for
    /// the strategies.
    pub fn restore_source(&self) -> Rank {
        self.state.borrow().adopted_from.unwrap_or(self.proc.rank())
    }

    fn set_adopted_from(&self, pred: Option<Rank>) {
        self.state.borrow_mut().adopted_from = pred;
    }

    /// Snapshot of the application-rank map.
    pub fn rank_map(&self) -> RankMap {
        self.watch.rank_map()
    }

    /// Fault-tolerant barrier on the current worker group.
    pub fn barrier_ft(&self) -> FtResult<()> {
        let (group, t) = (self.group(), self.cfg.policy.attempt);
        self.watch.retry(|| self.proc.barrier(group, t))
    }

    /// Fault-tolerant allreduce on the current worker group.
    pub fn allreduce_f64_ft(&self, input: &[f64], op: ReduceOp) -> FtResult<Vec<f64>> {
        let (group, t) = (self.group(), self.cfg.policy.attempt);
        self.watch.retry(|| self.proc.allreduce_f64(group, input, op, t))
    }

    /// Fault-tolerant `u64` allreduce on the current worker group.
    pub fn allreduce_u64_ft(&self, input: &[u64], op: ReduceOp) -> FtResult<Vec<u64>> {
        let (group, t) = (self.group(), self.cfg.policy.attempt);
        self.watch.retry(|| self.proc.allreduce_u64(group, input, op, t))
    }

    /// Fault-tolerant personalised all-to-all on the current worker group
    /// (`out` indexed by group member, see [`GaspiProc::alltoall`]).
    pub fn alltoall_ft(&self, out: &[Vec<u8>]) -> FtResult<Vec<Vec<u8>>> {
        let (group, t) = (self.group(), self.cfg.policy.attempt);
        self.watch.retry(|| self.proc.alltoall(group, out, t))
    }

    /// Fault-tolerant queue wait.
    pub fn wait_ft(&self, queue: u16) -> FtResult<()> {
        self.watch.retry(|| self.proc.wait(queue, self.cfg.policy.attempt))
    }

    /// Fault-tolerant notification wait.
    pub fn notify_waitsome_ft(
        &self,
        seg: SegId,
        begin: NotificationId,
        count: u32,
    ) -> FtResult<NotificationId> {
        self.watch.retry(|| self.proc.notify_waitsome(seg, begin, count, self.cfg.policy.attempt))
    }
}

/// A fault-tolerant application, in the paper's structure.
pub trait FtApp {
    /// Per-worker result returned after completion.
    type Summary: Send + std::fmt::Debug + 'static;

    /// One-time pre-processing on a fresh worker (e.g. spMVM
    /// communication setup). Runs once at job start; rescues use
    /// [`FtApp::join_as_rescue`] instead and must *not* repeat this.
    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()>;

    /// Attach as a rescue process that adopted a failed worker's
    /// application rank: load the one-time checkpoints (communication
    /// plan) instead of redoing pre-processing (paper §V).
    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()>;

    /// One iteration. Return `Ok(true)` when converged.
    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool>;

    /// The checkpoint stream carrying this app's state, plus the fetch
    /// timeout for restores — what
    /// [`CheckpointRestart`](crate::strategy::CheckpointRestart) commits
    /// `export_state` into and votes over after a failure. `None` (the
    /// default) suits only a job that never runs under that strategy.
    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        None
    }

    /// Encode the full solver state after `iter` completed iterations as
    /// one self-describing blob. Every strategy's `prepare` starts here;
    /// `None` (the default) opts out of all three.
    fn export_state(&self, ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        let _ = (ctx, iter);
        Ok(None)
    }

    /// Install a blob previously produced by `export_state`; return the
    /// iteration it represents.
    fn load_state(&mut self, ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let _ = (ctx, data);
        Err(FtError::Unsupported("load_state"))
    }

    /// Reset to the initial (iteration-0) state, for collective
    /// fresh-start decisions.
    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let _ = ctx;
        Err(FtError::Unsupported("reset_state"))
    }

    /// React to a completed recovery: refresh communication partners and
    /// the checkpoint library's neighbor list (rank map has changed).
    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()>;

    /// Produce the per-worker summary after the run. Rank-local by
    /// contract: the job's end is announced before it, so nothing in here
    /// is recovered; what the summary needs from the group rides in a step.
    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<Self::Summary>;
}

/// The role a rank ended up playing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Computed from the start.
    Worker,
    /// Stood by; never activated.
    Idle,
    /// Activated as a rescue during the run.
    Rescue,
    /// The dedicated fault detector.
    Detector,
}

/// Per-rank result of a fault-tolerant job.
#[derive(Debug)]
pub struct RankReport<S> {
    /// GASPI rank.
    pub rank: Rank,
    /// Final role.
    pub role: Role,
    /// Application rank carried at the end (workers/rescues).
    pub app_rank: Option<u32>,
    /// Application summary (workers/rescues that finished).
    pub summary: Option<S>,
    /// Error that ended this rank's run, if any.
    pub error: Option<FtError>,
    /// Job-clock time (the event log's) at which the rank returned.
    pub t_end: Duration,
}

/// Whole-job result.
///
/// The `events` log timestamps every recovery stage (kill, detection,
/// acknowledgment, restore, redo) of the run.
pub struct JobReport<S> {
    /// Per-rank outcomes (killed ranks appear as
    /// [`RankOutcome::Killed`]).
    pub outcomes: Vec<RankOutcome<RankReport<S>>>,
    /// The shared event log.
    pub events: EventLog,
}

impl<S: std::fmt::Debug> JobReport<S> {
    /// Reports of ranks that completed.
    pub fn completed(&self) -> Vec<&RankReport<S>> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                RankOutcome::Completed(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    /// Summaries of finished workers, keyed by application rank.
    pub fn worker_summaries(&self) -> Vec<(u32, &S)> {
        let mut v: Vec<(u32, &S)> = self
            .completed()
            .into_iter()
            .filter_map(|r| match (&r.app_rank, &r.summary) {
                (Some(a), Some(s)) => Some((*a, s)),
                _ => None,
            })
            .collect();
        v.sort_by_key(|(a, _)| *a);
        v
    }

    /// Ranks killed by fault injection.
    pub fn killed(&self) -> Vec<Rank> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(r, o)| o.was_killed().then_some(r as Rank))
            .collect()
    }

    /// The earliest error that ended a completed rank, by job clock. A rank
    /// that ends in error aborts the job, and every other rank then ends on
    /// `Signal(Shutdown)` — an effect, never the cause — so a `Shutdown` is
    /// returned only when nothing else is on record.
    pub fn first_error(&self) -> Option<&FtError> {
        self.completed()
            .into_iter()
            .filter_map(|r| r.error.as_ref().map(|e| (r.t_end, e)))
            .min_by_key(|(t, e)| (matches!(e, FtError::Signal(FtSignal::Shutdown)), *t))
            .map(|(_, e)| e)
    }
}

/// Run a fault-tolerant job: spawns every rank of `world` into the Fig. 3
/// flow, applies the fault schedule, joins, and reports.
pub fn run_ft_job<A, F>(
    world: &GaspiWorld,
    cfg: FtConfig,
    schedule: FaultSchedule,
    make_app: F,
) -> JobReport<A::Summary>
where
    A: FtApp,
    F: Fn(&FtCtx) -> A + Send + Sync + 'static,
{
    install_service(world, &cfg.layout, 0);
    let events = EventLog::new();
    let events2 = events.clone();
    let timer = schedule.start_timer(world.fault());
    let make_app = Arc::new(make_app);
    let sched = Arc::new(schedule);
    let job = world.launch(move |proc| {
        let ctx = FtCtx::new(proc, cfg.clone(), events2.clone());
        run_rank(ctx, &sched, make_app.as_ref())
    });
    let outcomes = job.join();
    timer.cancel();
    JobReport { outcomes, events }
}

/// Run the Fig. 3 flow for a *single* rank of `world`, on the current
/// thread. This is the process backend's child entry: each OS process
/// hosts exactly one rank, so there is no fan-out and no join — the
/// caller (the supervisor protocol in [`crate::process`]) aggregates
/// per-process outcomes instead. Timed kill actions are applied by the
/// supervisor as real SIGKILLs; timed *link* actions run in-process on a
/// timer the child starts itself (see `crate::process::run_child`), and
/// `at_iteration` injections fire here.
pub fn run_ft_rank<A, F>(
    world: &GaspiWorld,
    rank: Rank,
    cfg: FtConfig,
    schedule: FaultSchedule,
    events: EventLog,
    make_app: F,
) -> RankOutcome<RankReport<A::Summary>>
where
    A: FtApp,
    F: Fn(&FtCtx) -> A + Send + Sync + 'static,
{
    install_service(world, &cfg.layout, rank);
    world.run_local(rank, move |proc| {
        let ctx = FtCtx::new(proc, cfg, events);
        run_rank(ctx, &schedule, &make_app)
    })
}

/// Check that `world` fits `layout` and install the world-global
/// checkpoint service through `rank`'s handle: idle spares never construct
/// a `Checkpointer`, yet their node's replica store must answer fetches.
fn install_service(world: &GaspiWorld, layout: &WorldLayout, rank: Rank) {
    assert_eq!(
        world.config().num_ranks,
        layout.total(),
        "world size must match layout (workers + spares)"
    );
    ft_checkpoint::service::install(&world.proc_handle(rank));
}

fn run_rank<A: FtApp>(
    ctx: FtCtx,
    schedule: &FaultSchedule,
    make_app: &impl Fn(&FtCtx) -> A,
) -> GaspiResult<RankReport<A::Summary>> {
    let rank = ctx.proc.rank();
    let layout = ctx.layout;
    create_ctrl_segment(&ctx.proc, &layout)?;
    let report = |role, app_rank, summary, error| {
        Ok(RankReport { rank, role, app_rank, summary, error, t_end: ctx.events.now() })
    };
    let (role, activation) = if rank < layout.num_workers {
        ctx.set_app_rank(rank);
        (Role::Worker, None)
    } else {
        let detector = rank == layout.fd_rank() || ctx.cfg.shadow_rank() == Some(rank);
        let role = if detector { Role::Detector } else { Role::Idle };
        match spare_run(&ctx) {
            // Activated — an idle the plan names, or a detector joining the
            // workers (restriction 2) under the plan it put out itself:
            // from here on it is a worker.
            Ok(Some(plan)) => {
                ctx.watch.adopt(plan.clone());
                (Role::Rescue, Some(plan))
            }
            Ok(None) => return report(role, None, None, None),
            Err(e) => return report(role, None, None, Some(e)),
        }
    };
    match worker_run(&ctx, make_app, schedule, activation) {
        Ok(summary) => report(role, Some(ctx.app_rank()), Some(summary), None),
        Err(e) => {
            abort_job(&ctx);
            report(role, ctx.state.borrow().app_rank, None, Some(e))
        }
    }
}

/// The one loop of a rank that does not compute — an idle spare, the
/// standby shadow detector, the primary detector — until the job ends
/// (`None`) or the rank joins the workers (`Some` carries the plan). A plan
/// naming this rank a rescue activates it; one with no detector standing
/// (the end plan, or the detector joined the workers) ends it; being the
/// plan's detector runs [`run_detector_from`] (the primary from the start,
/// the shadow once it takes over). Otherwise, once per look period, the FD's
/// own two-look scan ([`glo_health_chk_graced`]) says whether the detector
/// is gone, judged after the control segment is read again (a detector that
/// left at the job's end fails the look too, but its end plan landed
/// first). If so, the successor (the shadow) takes over; an idle with no
/// live successor gives up — nothing could ever activate it (restriction 2).
pub(crate) fn spare_run(ctx: &FtCtx) -> FtResult<Option<RecoveryPlan>> {
    let (proc, layout, cfg) = (&ctx.proc, &ctx.layout, &ctx.cfg.detector);
    let (me, shadow) = (proc.rank(), ctx.cfg.shadow_rank());
    let look_every = if shadow == Some(me) {
        cfg.scan_interval.min(Duration::from_millis(5))
    } else {
        cfg.scan_interval.max(Duration::from_millis(5)) * 4
    };
    let mut last_look = Instant::now();
    let mut gone = Vec::new(); // what the last look found dead
    let plan = loop {
        match ctx.watch.check() {
            Ok(()) => {}
            Err(FtError::Signal(FtSignal::Shutdown)) => return Ok(None),
            // A new worker group: mine to join if the plan names me. (The
            // shadow is withheld from the pool; the watch keeps the plan.)
            Err(FtError::Signal(FtSignal::Recover(plan))) => {
                if plan.adopted_app_rank(layout, me).is_some() {
                    return Ok(Some(plan));
                }
            }
            Err(e) => return Err(e),
        }
        let plan = ctx.plan();
        if !plan.fd_alive {
            return Ok(None);
        }
        let fd = plan.current_fd(layout);
        if fd == me {
            break plan;
        }
        let successor = shadow.filter(|&s| s != fd && !plan.failed.contains(&s));
        if gone.contains(&fd) {
            match successor {
                Some(s) if s == me => break plan,
                // The live successor's turn: its takeover plan follows.
                Some(s) if !gone.contains(&s) => {}
                _ => return Err(ft_gaspi::GaspiError::RemoteBroken { rank: fd }.into()),
            }
        }
        gone.clear();
        if last_look.elapsed() >= look_every {
            last_look = Instant::now();
            let targets: Vec<Rank> =
                std::iter::once(fd).chain(successor.filter(|&s| s != me)).collect();
            gone = glo_health_chk_graced(proc, &targets, cfg.ping_timeout, cfg.suspect_grace);
            continue;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    run_detector_from(proc, layout, cfg, &ctx.events, shadow, plan)
}

/// Best-effort "stop the job" signal sent by a rank that ends in error:
/// without it the FD (and through it the idle pool and the workers still
/// computing) would keep running forever, since an errored-but-alive rank
/// still answers pings.
fn abort_job(ctx: &FtCtx) {
    let plan = ctx.plan();
    if plan.fd_alive {
        let fd = plan.current_fd(&ctx.layout);
        let _ = ack::signal(&ctx.proc, fd, ack::DONE_ABORTED, &ctx.cfg.detector);
    }
}

fn recover_once(ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<Group> {
    // The group being replaced: none on a rescue's first attempt.
    let prev = ctx.state.borrow().group;
    execute_recovery(&ctx.watch, &ctx.layout, plan, prev, &ctx.events)
}

/// The one recovery sequence (Fig. 3): rebuild the group `plan` describes,
/// rewire the application, let the strategy restore — restarted with the
/// newer plan whenever a further failure interrupts any stage, until a
/// plan sticks. Only a plan that changes the worker group gets here or
/// interrupts it; the watch absorbs the rest. An empty `app` marks a spare
/// being activated: it adopts its application rank per plan and attaches
/// through `make_app` + `join_as_rescue` once the group stands.
///
/// Returns the iteration to resume from.
fn recover<A: FtApp>(
    ctx: &FtCtx,
    app: &mut Option<A>,
    make_app: &impl Fn(&FtCtx) -> A,
    strat: &mut dyn RecoveryStrategy<A>,
    mut plan: RecoveryPlan,
) -> FtResult<u64> {
    let rank = ctx.proc.rank();
    let activating = app.is_none();
    loop {
        if activating {
            let app_rank =
                plan.adopted_app_rank(&ctx.layout, rank).ok_or(FtError::CapacityExhausted)?;
            ctx.set_app_rank(app_rank);
            ctx.set_adopted_from(Some(crate::ckpt::restore_source(&plan, rank)));
            ctx.events.record(rank, EventKind::Activated { app_rank });
        } else {
            ctx.events.record(rank, EventKind::FailureSignal { epoch: plan.epoch });
        }
        let restored = recover_once(ctx, &plan).and_then(|group| {
            ctx.install(group);
            let app = app.get_or_insert_with(|| make_app(ctx));
            if activating {
                app.join_as_rescue(ctx)?;
            }
            // The plan in force: `plan`, or a successor the watch absorbed
            // since (same group, more ranks buried).
            app.rewire(ctx, &ctx.plan())?;
            strat.restore(ctx, app)
        });
        match restored {
            Ok(decision) => {
                let iter = decision.resume_iter();
                ctx.events.record(rank, EventKind::Restored { epoch: ctx.plan().epoch, iter });
                // A rescue's state is re-homed: from now on it restores
                // as itself.
                ctx.set_adopted_from(None);
                return Ok(iter);
            }
            Err(FtError::Signal(FtSignal::Recover(newer))) => plan = newer,
            Err(e) => return Err(e),
        }
    }
}

/// The worker compute loop with failure handling and redo accounting. A
/// worker of the initial group forms that group and starts with `setup` at
/// iteration 0; a spare activated under `activation` starts with the
/// recovery that attaches it.
fn worker_run<A: FtApp>(
    ctx: &FtCtx,
    make_app: &impl Fn(&FtCtx) -> A,
    schedule: &FaultSchedule,
    activation: Option<RecoveryPlan>,
) -> FtResult<A::Summary> {
    let rank = ctx.proc.rank();
    if activation.is_none() {
        ctx.install(recover_once(ctx, &RecoveryPlan::initial())?);
    }
    let mut strat = ctx.cfg.strategy.build::<A>(ctx);
    let mut slot = None;
    let mut iter = match activation {
        Some(plan) => recover(ctx, &mut slot, make_app, strat.as_mut(), plan)?,
        None => {
            slot.insert(make_app(ctx)).setup(ctx)?;
            0
        }
    };
    let mut max_iter = iter;
    let mut redo: Option<(u64, u64)> = None; // (epoch, target iteration)

    loop {
        let app = slot.as_mut().expect("attached above");
        if schedule.kill_at_iteration(rank, iter) {
            ctx.events.record(rank, EventKind::KillFired { iter });
            ctx.proc.exit_failure();
        }
        // The paper's pre-communication health check, once per iteration
        // at minimum (the *_ft wrappers also check inside each call).
        let stepped = match ctx.watch.check().and_then(|()| app.step(ctx, iter)) {
            Ok(done) => {
                iter += 1;
                if let Some((epoch, target)) = redo {
                    if iter >= target {
                        ctx.events.record(rank, EventKind::RedoComplete { epoch, iter });
                        redo = None;
                    }
                }
                max_iter = max_iter.max(iter);
                if done || iter >= ctx.cfg.max_iters {
                    ctx.events.record(rank, EventKind::Finished { iter });
                    break;
                }
                // The strategy's steady-state work: interval checkpoints
                // for C/R, parity encoding for ABFT, replica pushes for
                // replication.
                strat.prepare(ctx, app, iter)
            }
            Err(e) => Err(e),
        };
        match stepped {
            Ok(()) => {}
            Err(FtError::Signal(FtSignal::Recover(plan))) => {
                iter = recover(ctx, &mut slot, make_app, strat.as_mut(), plan)?;
                // A resume at the failure frontier (ABFT reconstruction,
                // replication takeover) loses no work: record a redo
                // interval only when there is one.
                if iter < max_iter {
                    redo = Some((ctx.plan().epoch, max_iter));
                }
            }
            Err(e) => return Err(e),
        }
    }
    // App rank 0 speaks for the group: the application is done, and the
    // detector answers every rank with its end plan, so `finalize` runs
    // rank-local with no detector left to misread it. The copy to a
    // standing shadow stays: it is how a shadow that takes over from a
    // primary lost before this signal learns that the job is done.
    let plan = ctx.plan();
    if ctx.app_rank() == 0 && plan.fd_alive {
        let fd = plan.current_fd(&ctx.layout);
        let shadow = ctx.cfg.shadow_rank().filter(|s| *s != fd && !plan.failed.contains(s));
        for target in std::iter::once(fd).chain(shadow) {
            let _ = ack::signal(&ctx.proc, target, 1, &ctx.cfg.detector);
        }
    }
    slot.as_mut().expect("attached above").finalize(ctx)
}
