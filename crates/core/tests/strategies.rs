//! Conformance tests for the three recovery presets: one shared kill
//! schedule replayed under checkpoint/restart, striped parity and
//! replication, with the same exactness contract for all three.
//!
//! The deterministic accumulator makes every check bitwise: a run is
//! correct iff each worker's `f64` equals the closed-form ground truth
//! exactly, so an ABFT reconstruction that loses even one bit of the
//! failed rank's state fails the `==`.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, Wire};
use ft_cluster::FaultSchedule;
use ft_core::{
    run_ft_job, EventKind, FtApp, FtConfig, FtConfigError, FtCtx, FtResult, JobReport,
    RecoveryPlan, StrategyKind, WorldLayout,
};
use ft_gaspi::{GaspiConfig, GaspiWorld, ReduceOp};

const STATE_TAG: u32 = 1;
const FETCH: Duration = Duration::from_secs(5);

/// The deterministic accumulator, expressed purely through the state
/// hooks — the same application code runs under all three strategies.
struct Acc {
    acc: f64,
    /// Rank-local series (never reduced): per-rank state is *asymmetric*,
    /// so any restore path that corrupts one rank's block — e.g. the
    /// designated ABFT survivor loading its parity-folded contribution
    /// instead of its own block — breaks the exactness check instead of
    /// hiding behind group-symmetric state.
    local: f64,
    /// Rank-local bytes that grow by `3·app + 1` per iteration: block
    /// lengths differ across ranks, change every generation and are rarely
    /// a multiple of the stripe count, so a restore path that pads,
    /// truncates or mis-slices a block breaks the exactness check.
    trail: Vec<u8>,
    /// GASPI rank that exits at the end of its first step after a restore
    /// (see `abft_second_failure_right_after_a_recovery_is_reconstructed`).
    dies_after_restore: Option<u32>,
    restored: bool,
    /// Job-wide `(gaspi rank, call)` log of the state-surface calls, in
    /// per-rank order (see `every_strategy_installs_state_once_per_recovery`).
    calls: Option<CallLog>,
    ck: Checkpointer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Step,
    Export(u64),
    Rewire,
    /// `load_state` or `reset_state`.
    Install,
}

type CallLog = Arc<Mutex<Vec<(u32, Call)>>>;

impl Acc {
    fn new(ctx: &FtCtx) -> Self {
        Self {
            acc: 0.0,
            local: 0.0,
            trail: Vec::new(),
            dies_after_restore: None,
            restored: false,
            calls: None,
            ck: Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), None),
        }
    }

    fn trail_step(app: u32, iter: u64) -> impl Iterator<Item = u8> {
        std::iter::repeat_n(iter as u8 + 1, 3 * app as usize + 1)
    }

    fn note(&self, ctx: &FtCtx, call: Call) {
        if let Some(log) = &self.calls {
            log.lock().unwrap().push((ctx.proc.rank(), call));
        }
    }

    fn expected(workers: u32, iters: u64) -> f64 {
        f64::from(workers) * f64::from(workers + 1) / 2.0 * (iters * (iters + 1) / 2) as f64
    }

    fn expected_local(app: u32, iters: u64) -> f64 {
        f64::from(app + 1) * (iters * (iters + 1) / 2) as f64
    }
}

impl FtApp for Acc {
    type Summary = (f64, f64);

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        ctx.barrier_ft()?;
        Ok(())
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        self.note(ctx, Call::Step);
        // A kill must find the last checkpoint's neighbour copy landed, or
        // where C/R rolls back to would depend on the library thread.
        assert!(self.ck.drain(FETCH), "replication must land");
        let x = f64::from(ctx.app_rank() + 1) * (iter + 1) as f64;
        // Mutate the local half *before* the collective: a step aborted by
        // a failure leaves it half-applied, and only a full state reload
        // can make the redo exact.
        self.local += x;
        self.trail.extend(Self::trail_step(ctx.app_rank(), iter));
        self.acc += ctx.allreduce_f64_ft(&[x], ReduceOp::Sum)?[0];
        if self.restored && self.dies_after_restore == Some(ctx.proc.rank()) {
            ctx.proc.exit_failure();
        }
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.ck, FETCH))
    }

    fn export_state(&self, ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        self.note(ctx, Call::Export(iter));
        Ok(Some(((iter, self.acc), (self.local, self.trail.clone())).to_bytes()))
    }

    fn load_state(&mut self, ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        self.note(ctx, Call::Install);
        let ((iter, acc), (local, trail)) = Wire::from_bytes(data)?;
        self.acc = acc;
        self.local = local;
        self.trail = trail;
        self.restored = true;
        Ok(iter)
    }

    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.note(ctx, Call::Install);
        self.acc = 0.0;
        self.local = 0.0;
        self.trail.clear();
        Ok(())
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.note(ctx, Call::Rewire);
        self.ck.refresh_failed(&plan.failed);
        Ok(())
    }

    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<(f64, f64)> {
        // A wrong trail panics this rank, which then reports no summary.
        let app = ctx.app_rank();
        let want: Vec<u8> = (0..ctx.cfg.max_iters).flat_map(|i| Self::trail_step(app, i)).collect();
        assert_eq!(self.trail, want, "app rank {app}: trail bytes");
        // Both copy presets commit into this stream; the driver's last
        // `prepare` comes with ITERS − 1 iterations done.
        let every = match ctx.cfg.strategy {
            StrategyKind::CheckpointRestart => ctx.cfg.checkpoint_every,
            StrategyKind::Replicated => 1,
            StrategyKind::Abft => return Ok((self.acc, self.local)),
        };
        let newest = self.ck.probe(ctx.proc.rank(), FETCH).hit();
        assert_eq!(newest, Some((ctx.cfg.max_iters - 1) / every), "app rank {app}: last commit");
        Ok((self.acc, self.local))
    }
}

const WORKERS: u32 = 4;
const SPARES: u32 = 3; // 2 idle rescues + the FD
const ITERS: u64 = 12;

fn job(strategy: StrategyKind, schedule: FaultSchedule) -> JobReport<(f64, f64)> {
    job_on(WORKERS, SPARES, strategy, schedule, None, None)
}

fn job_on(
    workers: u32,
    spares: u32,
    strategy: StrategyKind,
    schedule: FaultSchedule,
    dies_after_restore: Option<u32>,
    calls: Option<CallLog>,
) -> JobReport<(f64, f64)> {
    let layout = WorldLayout::new(workers, spares);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(4)
        .max_iters(ITERS)
        .abandon(Duration::from_secs(20))
        .strategy(strategy)
        .build()
        .unwrap();
    run_ft_job(&world, cfg, schedule, move |ctx| Acc {
        dies_after_restore,
        calls: calls.clone(),
        ..Acc::new(ctx)
    })
}

fn assert_exact(report: &JobReport<(f64, f64)>, label: &str) {
    assert_exact_on(WORKERS, report, label);
}

fn assert_exact_on(workers: u32, report: &JobReport<(f64, f64)>, label: &str) {
    let summaries = report.worker_summaries();
    assert_eq!(summaries.len(), workers as usize, "[{label}] all app ranks must finish");
    for (app, (acc, local)) in summaries {
        assert_eq!(*acc, Acc::expected(workers, ITERS), "[{label}] app rank {app}");
        assert_eq!(*local, Acc::expected_local(app, ITERS), "[{label}] app rank {app} local");
    }
}

fn restored_iters(report: &JobReport<(f64, f64)>) -> Vec<u64> {
    report
        .events
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Restored { iter, .. } => Some(iter),
            _ => None,
        })
        .collect()
}

/// The shared schedule: rank 1 exits at iteration 6 — two iterations
/// past the version-1 checkpoint, mid steady-state.
fn shared_kill() -> FaultSchedule {
    FaultSchedule::none().kill_rank_at_iteration(1, 6)
}

#[test]
fn one_kill_schedule_is_exact_under_every_strategy() {
    // Rank 1 exits before step `i`, so `i` iterations are done: C/R rolls
    // back to its last commit (every 4, none before 4), the other two
    // presets copy every step and resume at the frontier. C/R drains its
    // commits asynchronously, so a kill right after one may find its
    // neighbor copy still in flight and roll back one interval further.
    for i in 1..ITERS {
        for strategy in
            [StrategyKind::CheckpointRestart, StrategyKind::Abft, StrategyKind::Replicated]
        {
            let label = format!("{} kill at {i}", strategy.name());
            let report = job(strategy, FaultSchedule::none().kill_rank_at_iteration(1, i));
            assert_eq!(report.killed(), vec![1], "[{label}] the kill must fire");
            assert_exact(&report, &label);
            let resume = match strategy {
                StrategyKind::CheckpointRestart if i % 4 == 0 => vec![i - 4, i],
                StrategyKind::CheckpointRestart => vec![i / 4 * 4],
                StrategyKind::Abft | StrategyKind::Replicated => vec![i],
            };
            let restores = restored_iters(&report);
            assert!(!restores.is_empty(), "[{label}] a real recovery must have happened");
            assert!(
                resume.contains(&restores[0]) && restores.iter().all(|&r| r == restores[0]),
                "[{label}] resumed at {restores:?}, want one of {resume:?}"
            );
        }
    }
}

#[test]
fn abft_reconstructs_at_the_frontier_with_zero_redo() {
    let report = job(StrategyKind::Abft, shared_kill());
    assert_exact(&report, "abft");
    let ev = report.events.snapshot();
    // The victim died right after the generation-6 parity round, so the
    // group resumes at iteration 6 — the failure frontier. Nothing is
    // recomputed: no redo interval may open.
    assert!(
        !ev.iter().any(|e| matches!(e.kind, EventKind::RedoComplete { .. })),
        "ABFT reconstruction must not redo work"
    );
    let restores: Vec<u64> = ev
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Restored { iter, .. } => Some(iter),
            _ => None,
        })
        .collect();
    assert!(!restores.is_empty());
    assert!(
        restores.iter().all(|&i| i == 6),
        "every member must resume at the frontier, got {restores:?}"
    );
}

#[test]
fn abft_reconstructs_every_victim_position_with_zero_redo() {
    // The stripe geometry is keyed by app rank and every rank owns a
    // different parity stripe, so each position is its own case: app rank
    // 0 (which also speaks for the group at job end) and the highest one
    // included. The rescue's GASPI rank sorts after every survivor's.
    for victim in 0..WORKERS {
        let label = format!("abft victim {victim}");
        let report =
            job(StrategyKind::Abft, FaultSchedule::none().kill_rank_at_iteration(victim, 6));
        assert_eq!(report.killed(), vec![victim], "[{label}] the kill must fire");
        assert_exact(&report, &label);
        assert!(
            !report
                .events
                .snapshot()
                .iter()
                .any(|e| matches!(e.kind, EventKind::RedoComplete { .. })),
            "[{label}] reconstruction must not redo work"
        );
        let restores = restored_iters(&report);
        assert_eq!(restores.len(), WORKERS as usize, "[{label}] every member restores once");
        assert!(restores.iter().all(|&i| i == 6), "[{label}] resumed at {restores:?}");
    }
}

#[test]
fn abft_second_failure_right_after_a_recovery_is_reconstructed() {
    // GASPI rank 1 dies at iteration 6 and is reconstructed; GASPI rank 2
    // then exits at the end of its first step after that restore — the
    // first rescue has computed with the group again (so its restore is
    // complete) but nobody has encoded a new generation yet. The code must
    // be whole at that point: the first rescue holds its block *and* its
    // parity stripe of generation 6, so the second loss decodes too.
    let schedule = FaultSchedule::none().kill_rank_at_iteration(1, 6);
    let report = job_on(WORKERS, SPARES, StrategyKind::Abft, schedule, Some(2), None);
    let mut killed = report.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 2]);
    assert_exact(&report, "abft-second");
    let restores = restored_iters(&report);
    assert_eq!(restores.len(), 2 * WORKERS as usize, "two recoveries, every member: {restores:?}");
    assert!(
        restores.iter().all(|&i| i == 6),
        "both losses must be reconstructed at generation 6, none fresh: {restores:?}"
    );
}

#[test]
fn abft_with_a_single_worker_has_no_peer_to_decode_from() {
    // n = 1: nothing is encoded, so the lone worker's loss is a fresh
    // start — decided by the rescue alone, and still exact.
    let schedule = FaultSchedule::none().kill_rank_at_iteration(0, 6);
    let report = job_on(1, 2, StrategyKind::Abft, schedule, None, None);
    assert_eq!(report.killed(), vec![0]);
    assert_exact_on(1, &report, "abft-single");
    assert_eq!(restored_iters(&report), vec![0]);
}

#[test]
fn checkpoint_restart_rolls_back_where_abft_does_not() {
    // Contrast pin: under the identical schedule, C/R resumes at the
    // version-1 checkpoint (iteration 4) and redoes the lost interval.
    let report = job(StrategyKind::CheckpointRestart, shared_kill());
    assert_exact(&report, "checkpoint-restart");
    let ev = report.events.snapshot();
    assert!(
        ev.iter().any(|e| matches!(e.kind, EventKind::Restored { iter: 4, .. })),
        "C/R must roll back to the checkpoint"
    );
    assert!(
        ev.iter().any(|e| matches!(e.kind, EventKind::RedoComplete { .. })),
        "C/R must redo the lost interval"
    );
}

#[test]
fn abft_double_failure_exceeds_the_parity_code_but_stays_exact() {
    // Two ranks die at the same iteration: a single-erasure code cannot
    // reconstruct both, so the group degrades to a collective fresh
    // start — slower, never wrong.
    let schedule = FaultSchedule::none().kill_rank_at_iteration(1, 6).kill_rank_at_iteration(2, 6);
    let report = job(StrategyKind::Abft, schedule);
    let mut killed = report.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 2]);
    assert_exact(&report, "abft-double");
    let ev = report.events.snapshot();
    assert!(
        ev.iter().any(|e| matches!(e.kind, EventKind::Restored { iter: 0, .. })),
        "a double erasure must degrade to a fresh start"
    );
}

#[test]
fn every_strategy_installs_state_once_per_recovery() {
    // The contract the driver's one recovery path gives every strategy's
    // `restore`: each member of a recovered group — survivor or rescue —
    // sees exactly one `load_state` / `reset_state` after each `rewire`,
    // before it steps again; and state is exported only for an iteration
    // the strategy encodes, once.
    for strategy in [StrategyKind::CheckpointRestart, StrategyKind::Abft, StrategyKind::Replicated]
    {
        let label = strategy.name();
        let log = CallLog::default();
        let report = job_on(WORKERS, SPARES, strategy, shared_kill(), None, Some(log.clone()));
        assert_eq!(report.killed(), vec![1], "[{label}] the kill must fire");
        assert_exact(&report, label);
        let log = log.lock().unwrap();
        let finished: Vec<u32> =
            report.completed().iter().filter(|r| r.summary.is_some()).map(|r| r.rank).collect();
        assert_eq!(finished.len(), WORKERS as usize);
        for rank in finished {
            let calls: Vec<Call> =
                log.iter().filter(|(r, _)| *r == rank).map(|(_, c)| *c).collect();
            let surface: Vec<Call> =
                calls.iter().copied().filter(|c| !matches!(c, Call::Export(_))).collect();
            let rewires = surface.iter().filter(|c| **c == Call::Rewire).count();
            assert_eq!(rewires, 1, "[{label}] rank {rank}: one kill, one adopted epoch");
            for (i, call) in surface.iter().enumerate() {
                assert_eq!(
                    *call == Call::Install,
                    i > 0 && surface[i - 1] == Call::Rewire,
                    "[{label}] rank {rank}: an install follows each rewire, nothing else: {surface:?}"
                );
            }
            // One export per completed iteration at most, and under C/R
            // only at a checkpoint (`checkpoint_every(4)`).
            for pair in calls.windows(2) {
                assert!(
                    !matches!(pair, [Call::Export(_), Call::Export(_)]),
                    "[{label}] rank {rank}: two exports without a step between: {calls:?}"
                );
            }
            if strategy == StrategyKind::CheckpointRestart {
                let off_interval: Vec<&Call> = calls
                    .iter()
                    .filter(|c| matches!(c, Call::Export(i) if !i.is_multiple_of(4)))
                    .collect();
                assert!(off_interval.is_empty(), "[{label}] rank {rank}: {off_interval:?}");
            }
        }
    }
}

#[test]
fn replication_replaces_a_rescue_lost_right_after_its_takeover() {
    // GASPI rank 1 dies at iteration 6 and the pool's first spare (rank
    // WORKERS) takes over at generation 6; the rescue then exits at the end
    // of its first step — before its first own `prepare`. Its restore
    // re-homed generation 6 under its own rank without waiting for the
    // copy; where that copy had not landed, the second rescue finds
    // generation 6 in rank 1's stream, which rank 1 drained before it died:
    // the second rescue resumes there as well. All that is recomputed is
    // the one step the first rescue never pushed.
    let rescue = WORKERS;
    let report =
        job_on(WORKERS, SPARES, StrategyKind::Replicated, shared_kill(), Some(rescue), None);
    let mut killed = report.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, rescue]);
    assert_exact(&report, "replicated-second");
    let restores = restored_iters(&report);
    assert_eq!(restores.len(), 2 * WORKERS as usize, "two recoveries, every member: {restores:?}");
    assert!(
        restores.iter().all(|&i| i == 6),
        "both takeovers must resume at generation 6, none older or fresh: {restores:?}"
    );
}

#[test]
fn strategies_agree_bit_for_bit_on_a_clean_run() {
    let mut finals: Vec<Vec<(u32, (f64, f64))>> = Vec::new();
    for strategy in [StrategyKind::CheckpointRestart, StrategyKind::Abft, StrategyKind::Replicated]
    {
        let report = job(strategy, FaultSchedule::none());
        assert_exact(&report, strategy.name());
        finals.push(report.worker_summaries().into_iter().map(|(a, v)| (a, *v)).collect());
    }
    assert_eq!(finals[0], finals[1], "C/R and ABFT must agree bitwise");
    assert_eq!(finals[0], finals[2], "C/R and replication must agree bitwise");
}

#[test]
fn builder_rejects_invalid_configs() {
    let layout = WorldLayout::new(4, 2);
    assert!(matches!(
        FtConfig::builder(layout).max_iters(0).build(),
        Err(FtConfigError::ZeroIters)
    ));
    let layout = WorldLayout::new(4, 1);
    assert!(matches!(
        FtConfig::builder(layout).max_iters(10).redundant_fd(true).build(),
        Err(FtConfigError::ShadowNeedsSpares { have: 1 })
    ));
}
