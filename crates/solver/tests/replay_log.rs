//! The replay log's footprint, the apps' replay path and their
//! failure-atomic steps.
//!
//! Under checkpoint/restart each rank logs the blocks it posts and the sums
//! of every step since its last commit. The first interval sizes the log
//! and it never grows after that (that its appends do not allocate is
//! `ft-core`'s own unit test). No other preset, no job at interval 1 and no
//! job that never commits keeps a log. The heat solver replays like
//! Lanczos: its step talks to other ranks only through the halo exchange
//! and `det_allreduce_sums`. Both apps' steps are failure-atomic: a step
//! cut short by a failure leaves the exported state as it was, which is
//! what lets survivors keep their live state.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, Pfs, PfsConfig, Wire};
use ft_cluster::FaultSchedule;
use ft_core::{
    run_ft_job, EventKind, FtApp, FtConfig, FtCtx, FtResult, JobReport, RecoveryPlan, StrategyKind,
    WorldLayout,
};
use ft_gaspi::{GaspiConfig, GaspiWorld};
use ft_matgen::graphene::Graphene;
use ft_solver::heat::{FtHeat, HeatConfig, HeatSummary};
use ft_solver::{FtLanczos, FtLanczosConfig, LanczosSummary};

const EVERY: u64 = 10;
const HALO: usize = 96;

/// A step that posts a 96-value block, receives a 96-value halo and two
/// sums through the replay seams and computes them locally. The state is
/// the iteration count.
struct SeamsOnly {
    ck: Checkpointer,
    halo: Vec<f64>,
    iter: u64,
    /// The log's size after every step.
    bytes: Vec<usize>,
}

impl SeamsOnly {
    fn new(ctx: &FtCtx) -> Self {
        let ck = Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(7), None);
        Self { ck, halo: Vec::new(), iter: 0, bytes: Vec::new() }
    }
}

impl FtApp for SeamsOnly {
    type Summary = Vec<usize>;

    fn setup(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        ctx.logged_post((0..HALO).map(|k| (iter + k as u64) as f64));
        ctx.received_halo(&mut self.halo, HALO, |h| {
            h.fill(iter as f64);
            Ok(())
        })?;
        let mut sums = [iter as f64, 1.0];
        ctx.logged_sums(&mut sums, |s| {
            s[1] = s[0] * 2.0;
            Ok(())
        })?;
        self.iter = iter + 1;
        self.bytes.push(ctx.replay_log_bytes());
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.ck, Duration::from_secs(5)))
    }

    fn export_state(&self, _ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        Ok(Some(iter.to_bytes()))
    }

    fn load_state(&mut self, _ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        self.iter = u64::from_bytes(data)?;
        Ok(self.iter)
    }

    fn reset_state(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        self.iter = 0;
        Ok(())
    }

    fn rewire(&mut self, _ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.ck.refresh_failed(&plan.failed);
        Ok(())
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<Vec<usize>> {
        Ok(std::mem::take(&mut self.bytes))
    }
}

fn config(strategy: StrategyKind, every: u64, iters: u64) -> FtConfig {
    FtConfig::builder(WorldLayout::new(2, 2))
        .strategy(strategy)
        .checkpoint_every(every)
        .max_iters(iters)
        .abandon(Duration::from_secs(30))
        .build()
        .unwrap()
}

#[test]
fn after_the_first_interval_the_log_never_grows() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let cfg = config(StrategyKind::CheckpointRestart, EVERY, 5 * EVERY);
    let report = run_ft_job(&world, cfg, FaultSchedule::none(), SeamsOnly::new);
    let s = report.worker_summaries();
    assert_eq!(s.len(), 2);
    for (app, bytes) in s {
        // One interval of posted blocks, sums and step marks, sized by the
        // first step once it returned and never grown.
        let interval = EVERY as usize * (8 * HALO + 8 * 2 + 16);
        assert_eq!(bytes[1], interval, "app rank {app}");
        assert!(
            bytes[1..].iter().all(|&b| b == interval),
            "app rank {app}: the log grew: {bytes:?}"
        );
    }
}

#[test]
fn no_log_without_checkpoint_restart_commits() {
    for (strategy, every) in [
        (StrategyKind::CheckpointRestart, 0),
        (StrategyKind::CheckpointRestart, 1),
        (StrategyKind::CheckpointRestart, 3 * EVERY),
        (StrategyKind::Abft, EVERY),
        (StrategyKind::Replicated, EVERY),
    ] {
        let world = GaspiWorld::new(GaspiConfig::deterministic(4));
        let report = run_ft_job(
            &world,
            config(strategy, every, 3 * EVERY),
            FaultSchedule::none(),
            SeamsOnly::new,
        );
        let s = report.worker_summaries();
        assert_eq!(s.len(), 2, "{strategy:?}: {:?}", report.first_error());
        for (app, bytes) in s {
            assert!(
                bytes.iter().all(|&b| b == 0),
                "{strategy:?} every {every}, app rank {app}: {bytes:?}"
            );
        }
    }
}

/// The benchmark's `noft` variant: Lanczos with `checkpoint_every(0)`
/// keeps no log; with commits, the log stops growing after the first
/// interval.
#[test]
fn lanczos_logs_one_interval_and_nothing_without_commits() {
    for (every, logged) in [(0, false), (EVERY, true)] {
        let (report, seen) = lanczos_job(FaultSchedule::none(), every);
        assert_eq!(report.worker_summaries().len(), 4);
        let sizes = &seen.sizes;
        if logged {
            let first = sizes.iter().find(|(i, _)| *i == EVERY).map(|&(_, b)| b).unwrap();
            assert!(first > 0);
            assert!(
                sizes.iter().filter(|(i, _)| *i >= EVERY).all(|&(_, b)| b == first),
                "{sizes:?}"
            );
        } else {
            assert!(sizes.iter().all(|&(_, b)| b == 0), "{sizes:?}");
        }
    }
}

/// What a [`Watched`] app saw: `(iteration, log bytes)` after each step of
/// app rank 0, and, for each step that returned `Err`, the app rank, the
/// iteration and whether `export_state` came out of it unchanged.
#[derive(Default)]
struct Seen {
    sizes: Vec<(u64, usize)>,
    failed: Vec<(u32, u64, bool)>,
}

/// An app wrapped to record what [`Seen`] holds.
struct Watched<A>(A, Arc<Mutex<Seen>>);

impl<A: FtApp> FtApp for Watched<A> {
    type Summary = A::Summary;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.0.setup(ctx)
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.0.join_as_rescue(ctx)
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let before = self.0.export_state(ctx, iter)?;
        let r = self.0.step(ctx, iter);
        let mut seen = self.1.lock().unwrap();
        match r {
            Ok(_) if ctx.app_rank() == 0 => seen.sizes.push((iter + 1, ctx.replay_log_bytes())),
            Ok(_) => {}
            Err(_) => {
                let same = self.0.export_state(ctx, iter)? == before;
                seen.failed.push((ctx.app_rank(), iter, same));
            }
        }
        r
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        self.0.state_stream()
    }

    fn export_state(&self, ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        self.0.export_state(ctx, iter)
    }

    fn load_state(&mut self, ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        self.0.load_state(ctx, data)
    }

    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.0.reset_state(ctx)
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.0.rewire(ctx, plan)
    }

    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<A::Summary> {
        self.0.finalize(ctx)
    }
}

/// Heat replays: a kill 25 steps past a commit costs the rescue alone a
/// replay of those 25 steps, and a kill before the first commit a replay
/// from the initial state (the fresh start is commit 0); the survivors keep
/// their live state. Either way the field lands where the failure-free
/// run's does, bit for bit. Every survivor's step cut short by the kill —
/// in its halo wait or, with its halo in (app rank 3 gets its own from app
/// rank 2 alone), in the step's reduction — left the exported state
/// byte-identical.
#[test]
fn heat_replays_to_the_frontier_and_lands_on_the_same_field() {
    let (clean, _) = heat_job(FaultSchedule::none());
    for (kill, commit) in [(75, 50), (30, 0)] {
        let (faulty, seen) = heat_job(FaultSchedule::none().kill_rank_at_iteration(1, kill));
        assert_eq!(faulty.killed(), vec![1]);
        let (c, f) = (clean.worker_summaries(), faulty.worker_summaries());
        assert_eq!(f.len(), 4, "kill at {kill}: {:?}", faulty.first_error());
        for ((_, a), (_, b)) in c.iter().zip(&f) {
            let bits = |s: &HeatSummary| (s.iters, s.solution_norm.to_bits());
            assert_eq!(bits(a), bits(b), "kill at {kill}");
        }
        let replays: Vec<(u64, u64)> = faulty
            .events
            .snapshot()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Replayed { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(replays, vec![(commit, kill)], "kill at {kill}: the rescue alone replays");
        let failed = seen.failed;
        assert!(failed.iter().any(|&(a, _, _)| a == 3), "kill at {kill}: {failed:?}");
        assert!(failed.iter().all(|&(_, i, same)| same && i == kill), "{failed:?}");
    }
}

/// A job of 4 workers and 2 spares, each app [`Watched`], that runs `iters`
/// steps with a commit every `every`.
fn watched_job<A: FtApp + 'static>(
    schedule: FaultSchedule,
    every: u64,
    iters: u64,
    make: impl Fn(&FtCtx) -> A + Send + Sync + 'static,
) -> (JobReport<A::Summary>, Seen) {
    let layout = WorldLayout::new(4, 2);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(every)
        .max_iters(iters)
        .abandon(Duration::from_secs(30))
        .build()
        .unwrap();
    let seen = Arc::new(Mutex::new(Seen::default()));
    let sink = Arc::clone(&seen);
    let report =
        run_ft_job(&world, cfg, schedule, move |ctx| Watched(make(ctx), Arc::clone(&sink)));
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    (report, seen)
}

/// The heat job of the replay tests: a 16 × 16 grid, a commit every 50
/// steps, 120 steps.
fn heat_job(schedule: FaultSchedule) -> (JobReport<HeatSummary>, Seen) {
    let app_cfg = Arc::new(HeatConfig {
        pfs: Some(Pfs::new(PfsConfig::instant())),
        ..HeatConfig::new(16, 16)
    });
    watched_job(schedule, 50, 120, move |ctx| FtHeat::new(ctx, Arc::clone(&app_cfg)))
}

/// Lanczos on a 12 × 8 graphene sheet, `4 * EVERY` steps.
fn lanczos_job(schedule: FaultSchedule, every: u64) -> (JobReport<LanczosSummary>, Seen) {
    let gen = Arc::new(Graphene::new(12, 8).with_nnn(-0.1));
    let app_cfg = Arc::new(FtLanczosConfig::fixed_iters(gen));
    watched_job(schedule, every, 4 * EVERY, move |ctx| FtLanczos::new(ctx, Arc::clone(&app_cfg)))
}

/// Lanczos's step changes its state only after its last reduction: a
/// partner killed mid-step leaves every survivor's exported state as it was.
#[test]
fn a_lanczos_step_cut_short_by_a_failure_leaves_the_state_unchanged() {
    let (report, seen) = lanczos_job(FaultSchedule::none().kill_rank_at_iteration(1, 25), EVERY);
    assert_eq!(report.worker_summaries().len(), 4, "{:?}", report.first_error());
    let failed = seen.failed;
    assert!(failed.len() >= 3, "every survivor's step 25 failed: {failed:?}");
    assert!(failed.iter().all(|&(_, i, same)| same && i == 25), "{failed:?}");
}
