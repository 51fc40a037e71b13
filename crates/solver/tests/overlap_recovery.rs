//! Recovery under a split-phase halo exchange: a rank dies *between*
//! `post()` and `wait()`, the worst spot — its partners have already
//! staged sends to it and are (or soon will be) blocked waiting for its
//! notification. The test asserts the recovery path (failure signal out
//! of the wait, rewire's notification reset + queue purge, stale-tag
//! discard on redo) still produces correct spMVM results on every
//! surviving and rescued rank.
//!
//! The probe application is deliberately stateless: the iteration-`k`
//! input vector is a pure function of (global index, k), so every rank
//! can verify its spMVM output against a locally recomputed reference
//! each step. Its state stream stays empty (`checkpoint_every` is 0), so
//! every recovery votes for a collective fresh start — and the vote's
//! allreduce is the barrier that keeps any survivor from re-posting before
//! all partners finished rewiring.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig};
use ft_cluster::FaultSchedule;
use ft_core::{run_ft_job, FtApp, FtConfig, FtCtx, FtResult, RecoveryPlan, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld, SegId};
use ft_matgen::spectra::ToeplitzTridiag;
use ft_matgen::RowGen;
use ft_sparse::plan::SendSpec;
use ft_sparse::{det_allreduce_sum, CommPlan, DistMatrix, RowPartition, SpmvComm};

const SEG_HALO: SegId = 1;
const SEG_STAGE: SegId = 2;
const HALO_QUEUE: u16 = 1;

/// The GASPI rank that kills itself mid-exchange. Guarded by *GASPI*
/// rank, not application rank: the rescue that adopts the app rank has a
/// different GASPI rank and must not re-fire the kill during redo.
const KILL_GASPI_RANK: u32 = 1;
const KILL_ITER: u64 = 5;
const MAX_ITERS: u64 = 12;

/// Iteration-dependent global input vector, identical on every rank.
fn xval(i: u64, iter: u64) -> f64 {
    ((i as f64) * 0.37 + (iter as f64) * 0.11).sin()
}

/// Build the full communication plan purely — every rank derives both
/// its receive *and* send side from the (deterministic) needed-columns
/// map of all ranks, so a rescue can rebuild it without negotiation.
fn pure_plan(gen: &ToeplitzTridiag, part: &RowPartition, me: u32) -> CommPlan {
    let nparts = part.parts();
    let needed = DistMatrix::needed_columns(gen, part, me);
    let mut plan = CommPlan::receives_from_needs(me, nparts, &needed);
    let my_start = part.range(me).start;
    let mut sends = Vec::new();
    for other in 0..nparts {
        if other == me {
            continue;
        }
        let other_needed = DistMatrix::needed_columns(gen, part, other);
        let other_recvs = CommPlan::receives_from_needs(other, nparts, &other_needed);
        if let Some(r) = other_recvs.recvs.iter().find(|r| r.from == me) {
            sends.push(SendSpec {
                to: other,
                dest_offset: r.halo_offset,
                local_rows: r.cols.iter().map(|&c| (c - my_start) as u32).collect(),
            });
        }
    }
    plan.sends = sends;
    plan
}

#[derive(Debug, Clone)]
struct ProbeSummary {
    iters: u64,
    max_err: f64,
}

/// The victim's `(posts, exchanges)`, stored just before it dies: its
/// summary dies with it.
type VictimCounts = Arc<OnceLock<(u64, u64)>>;

struct OverlapProbe {
    gen: Arc<ToeplitzTridiag>,
    victim: VictimCounts,
    /// Never committed to.
    ck: Checkpointer,
    dm: Option<DistMatrix>,
    comm: Option<SpmvComm>,
    halo: Vec<f64>,
    iters: u64,
    max_err: f64,
    /// Exchanges this rank posted and completed.
    posts: u64,
    exchanges: u64,
}

impl OverlapProbe {
    fn new(ctx: &FtCtx, gen: Arc<ToeplitzTridiag>, victim: VictimCounts) -> Self {
        let ck = Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(1), None);
        Self {
            gen,
            victim,
            ck,
            dm: None,
            comm: None,
            halo: Vec::new(),
            iters: 0,
            max_err: 0.0,
            posts: 0,
            exchanges: 0,
        }
    }

    fn install(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let part = RowPartition::new(self.gen.dim(), ctx.num_app_ranks());
        let me = ctx.app_rank();
        let plan = pure_plan(&self.gen, &part, me);
        let dm = DistMatrix::assemble(self.gen.as_ref(), part, me, plan);
        let comm = SpmvComm::new(&ctx.proc, &dm.plan, SEG_HALO, SEG_STAGE, HALO_QUEUE)?;
        self.dm = Some(dm);
        self.comm = Some(comm);
        Ok(())
    }
}

impl FtApp for OverlapProbe {
    type Summary = ProbeSummary;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.install(ctx)?;
        ctx.barrier_ft()
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        // The plan is derived purely; no one-time checkpoint needed.
        self.install(ctx)
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let dm = self.dm.as_ref().expect("step before setup");
        let comm = self.comm.as_ref().expect("step before setup");
        let r = dm.part.range(dm.me);
        let x_local: Vec<f64> = r.clone().map(|i| xval(i, iter)).collect();
        let tag = SpmvComm::tag_for_iter(iter);
        let pending = comm.post(ctx, &dm.plan, &x_local, tag)?;
        self.posts += 1;
        let mut y = vec![0.0; x_local.len()];
        dm.spmv_local(&x_local, &mut y);
        // The injected failure: die while partners' exchanges are in
        // flight, after our own sends were posted.
        if ctx.proc.rank() == KILL_GASPI_RANK && iter == KILL_ITER {
            self.victim.set((self.posts, self.exchanges)).expect("one victim");
            ctx.proc.exit_failure();
        }
        comm.wait(ctx, &dm.plan, pending, &mut self.halo)?;
        self.exchanges += 1;
        dm.spmv_remote_add(&self.halo, &mut y);
        // Verify against a locally recomputed reference.
        let mut local_err: f64 = 0.0;
        for (k, row) in r.enumerate() {
            let want: f64 = self.gen.row_vec(row).iter().map(|e| e.val * xval(e.col, iter)).sum();
            local_err = local_err.max((y[k] - want).abs());
        }
        // The global reduction doubles as the inter-iteration barrier
        // that keeps split-phase halo buffers race-free.
        let global_err = det_allreduce_sum(ctx, local_err)?;
        self.max_err = self.max_err.max(global_err);
        self.iters = iter + 1;
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.ck, Duration::from_secs(5)))
    }

    fn reset_state(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(()) // stateless — redo from the start
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.ck.refresh_failed(&plan.failed);
        if let (Some(comm), Some(dm)) = (&self.comm, &self.dm) {
            comm.rewire(ctx, &dm.plan)?;
        }
        Ok(())
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<ProbeSummary> {
        Ok(ProbeSummary { iters: self.iters, max_err: self.max_err })
    }
}

#[test]
fn failure_between_post_and_wait_recovers_and_stays_correct() {
    let gen = Arc::new(ToeplitzTridiag::new(90, 2.0, -1.0));
    let layout = WorldLayout::new(3, 2);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(0)
        .max_iters(MAX_ITERS)
        .abandon(Duration::from_secs(30))
        .build()
        .unwrap();
    let victim = VictimCounts::default();
    let counts = Arc::clone(&victim);
    let report = run_ft_job(&world, cfg, FaultSchedule::none(), move |ctx| {
        OverlapProbe::new(ctx, Arc::clone(&gen), Arc::clone(&counts))
    });
    assert_eq!(report.killed(), vec![KILL_GASPI_RANK], "the probe must have killed itself");
    let summaries = report.worker_summaries();
    assert_eq!(summaries.len(), 3, "all app ranks must finish (one via a rescue)");
    for (app, s) in summaries {
        assert_eq!(s.iters, MAX_ITERS, "app rank {app} must complete all iterations");
        assert!(s.max_err < 1e-12, "app rank {app}: spMVM error {} after recovery", s.max_err);
    }
    // Abandoned exchange: the victim posted iteration 5 but never waited.
    // (The survivors' counts balance or not depending on whether their own
    // iteration-5 wait finished before the victim died.)
    let (posts, exchanges) = *victim.get().expect("the victim stored its counts");
    assert_eq!(posts, exchanges + 1, "victim: posts {posts} vs exchanges {exchanges}");
}
