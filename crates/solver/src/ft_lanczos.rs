//! The fault-tolerant Lanczos application (paper §V).
//!
//! Wires the distributed Lanczos iteration into the [`ft_core::FtApp`]
//! driver:
//!
//! * **setup** — partition the matrix, run the spMVM pre-processing
//!   (index exchange), build the split matrix chunk from the generator on
//!   the fly, and write the *one-time* communication-plan checkpoint so a
//!   rescue can resume "without having to perform the pre-processing step
//!   again";
//! * **step** — one Lanczos iteration, with the QL convergence check
//!   every `conv_check_every` iterations;
//! * **checkpoint** — two consecutive Lanczos vectors plus α/β;
//! * **join_as_rescue / restore / rewire** — the recovery half: read the
//!   adopted identity's plan checkpoint, regenerate the matrix chunk
//!   locally, agree on a consistent state version, and refresh the
//!   checkpoint library's neighbor list.

use std::sync::Arc;
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy, Pfs, Wire};
use ft_core::ckpt::adopt_latest;
use ft_core::{FtApp, FtCtx, FtError, FtResult, RecoveryPlan};
use ft_gaspi::{GaspiError, SegId, Timeout};
use ft_matgen::RowGen;
use ft_sparse::{CommPlan, DistMatrix, RowPartition, SpmvComm};

use crate::lanczos::LanczosState;

/// Checkpoint stream tags.
const STATE_TAG: u32 = 0x10;
const PLAN_TAG: u32 = 0x11;
/// Segment ids (the control segment is 0).
const SEG_HALO: SegId = 1;
const SEG_STAGE: SegId = 2;
/// Queue for halo traffic (the FD uses queue 0 for acknowledgments on its
/// own rank; queues are per-rank, so any app queue works — 1 keeps traces
/// readable).
const HALO_QUEUE: u16 = 1;

/// Configuration of the fault-tolerant Lanczos run.
pub struct FtLanczosConfig {
    /// Matrix generator (each rank regenerates its own chunk on the fly).
    pub gen: Arc<dyn RowGen>,
    /// Start-vector seed.
    pub seed: u64,
    /// Check convergence every this many iterations (0 = never, run to
    /// `max_iters` like the paper's fixed-3500-iteration benchmarks).
    pub conv_check_every: u64,
    /// Convergence: stop when the smallest eigenvalue estimate moved less
    /// than this between consecutive checks.
    pub conv_tol: f64,
    /// Optional PFS tier for the plan checkpoints (recommended: they are
    /// tiny, written once, and make rescues robust to adjacent-node
    /// loss).
    pub pfs: Option<Arc<Pfs>>,
    /// Timeout for checkpoint fetches during restore.
    pub fetch_timeout: Duration,
}

impl FtLanczosConfig {
    /// Fixed-iteration configuration (the paper's benchmark mode).
    pub fn fixed_iters(gen: Arc<dyn RowGen>) -> Self {
        Self {
            gen,
            seed: 0x1A5C_205E,
            conv_check_every: 0,
            conv_tol: 1e-10,
            pfs: None,
            fetch_timeout: Duration::from_secs(5),
        }
    }
}

/// Per-worker result.
#[derive(Debug, Clone)]
pub struct LanczosSummary {
    /// Iterations performed.
    pub iters: u64,
    /// Eigenvalue estimates of the final Lanczos tridiagonal (ascending).
    pub eigenvalues: Vec<f64>,
    /// Full α history (bit-exact across failure-free and recovered runs).
    pub alphas: Vec<f64>,
    /// Full β history.
    pub betas: Vec<f64>,
}

/// The fault-tolerant Lanczos application.
pub struct FtLanczos {
    cfg: Arc<FtLanczosConfig>,
    state_ck: Checkpointer,
    plan_ck: Checkpointer,
    dm: Option<DistMatrix>,
    comm: Option<SpmvComm>,
    state: Option<LanczosState>,
    halo: Vec<f64>,
    w: Vec<f64>,
    last_low_eig: Option<f64>,
}

impl FtLanczos {
    /// Build the application object for one rank (pass this to
    /// [`ft_core::run_ft_job`] via a closure).
    pub fn new(ctx: &FtCtx, cfg: Arc<FtLanczosConfig>) -> Self {
        let state_ck =
            Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), cfg.pfs.clone());
        let plan_ck = Checkpointer::new(
            &ctx.proc,
            CheckpointerConfig {
                keep_versions: 1,
                pfs_every: cfg.pfs.as_ref().map(|_| 1),
                ..CheckpointerConfig::for_tag(PLAN_TAG)
            },
            cfg.pfs.clone(),
        );
        Self {
            cfg,
            state_ck,
            plan_ck,
            dm: None,
            comm: None,
            state: None,
            halo: Vec::new(),
            w: Vec::new(),
            last_low_eig: None,
        }
    }

    fn partition(&self, ctx: &FtCtx) -> RowPartition {
        RowPartition::new(self.cfg.gen.dim(), ctx.num_app_ranks())
    }

    fn install_plan(&mut self, ctx: &FtCtx, plan: CommPlan) -> FtResult<()> {
        let part = self.partition(ctx);
        let me = ctx.app_rank();
        let dm = DistMatrix::assemble(self.cfg.gen.as_ref(), part, me, plan);
        let comm = SpmvComm::new(&ctx.proc, &dm.plan, SEG_HALO, SEG_STAGE, HALO_QUEUE)?;
        self.dm = Some(dm);
        self.comm = Some(comm);
        Ok(())
    }

    fn fresh_state(&self, ctx: &FtCtx) -> FtResult<LanczosState> {
        let part = self.partition(ctx);
        let me = ctx.app_rank();
        let mut st = LanczosState::init(part.range(me).start, part.len(me), self.cfg.seed);
        st.normalize(ctx)?;
        Ok(st)
    }
}

impl FtApp for FtLanczos {
    type Summary = LanczosSummary;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let part = self.partition(ctx);
        let me = ctx.app_rank();
        // Pre-processing: determine needed RHS indices and exchange them.
        let needed = DistMatrix::needed_columns(self.cfg.gen.as_ref(), &part, me);
        let plan = CommPlan::receives_from_needs(me, part.parts(), &needed).negotiate(
            &ctx.proc,
            &|a| ctx.gaspi_of(a),
            part.range(me).start,
            Timeout::Ms(30_000),
        )?;
        // "Each process writes a checkpoint after the pre-processing
        // stage" — the one-time plan checkpoint.
        self.plan_ck.commit(0, plan.to_bytes(), CopyPolicy::Replicate);
        self.install_plan(ctx, plan)?;
        self.state = Some(self.fresh_state(ctx)?);
        ctx.barrier_ft()?;
        Ok(())
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        // "After failure recovery, the rescue process reads the checkpoint
        // of the failed process. In this way, the rescue process is
        // informed about the communicating partners and the respective
        // RHS indices" (§V).
        let blob = adopt_latest(ctx, &self.plan_ck, self.cfg.fetch_timeout)?;
        let plan = CommPlan::from_bytes(&blob.data)
            .map_err(|_| FtError::Gaspi(GaspiError::InvalidArg("corrupt plan checkpoint")))?;
        if plan.me != ctx.app_rank() {
            return Err(FtError::Gaspi(GaspiError::InvalidArg("adopted the wrong plan")));
        }
        // `adopt_latest` re-homed the plan under our own rank; the matrix
        // chunk is regenerated locally (no PFS read, §V).
        self.install_plan(ctx, plan)?;
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let dm = self.dm.as_ref().expect("step before setup");
        let comm = self.comm.as_ref().expect("step before setup");
        let state = self.state.as_mut().expect("step before setup");
        debug_assert_eq!(state.iter, iter, "driver and Lanczos state out of sync");
        state.step(ctx, dm, comm, &mut self.halo, &mut self.w)?;
        // Convergence: eigenvalues of T_j via the QL method, identical on
        // every rank (α/β are bit-identical), so the decision agrees.
        if self.cfg.conv_check_every > 0 && state.iter.is_multiple_of(self.cfg.conv_check_every) {
            let eig = state.eigenvalues();
            if let (Some(prev), Some(&low)) = (self.last_low_eig, eig.first()) {
                if (low - prev).abs() <= self.cfg.conv_tol * low.abs().max(1.0) {
                    return Ok(true);
                }
            }
            self.last_low_eig = eig.first().copied();
        }
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.state_ck, self.cfg.fetch_timeout))
    }

    fn export_state(&self, _ctx: &FtCtx, _iter: u64) -> FtResult<Option<Vec<u8>>> {
        Ok(self.state.as_ref().map(LanczosState::encode))
    }

    fn load_state(&mut self, _ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let st = LanczosState::from_bytes(data)?;
        let iter = st.iter;
        self.state = Some(st);
        self.last_low_eig = None;
        Ok(iter)
    }

    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        // No consistent state anywhere: restart the Krylov process from
        // the deterministic start vector.
        self.state = Some(self.fresh_state(ctx)?);
        self.last_low_eig = None;
        Ok(())
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.state_ck.refresh_failed(&plan.failed);
        self.plan_ck.refresh_failed(&plan.failed);
        if let (Some(comm), Some(dm)) = (&self.comm, &self.dm) {
            // Drop pre-failure halo notifications and stale queue failure
            // records; partner *ranks* need no update — the plan stores
            // application ranks and the rank map already points at the
            // rescues.
            comm.rewire(&ctx.proc, &dm.plan)?;
        }
        Ok(())
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<LanczosSummary> {
        let state = self.state.take().expect("finalize before setup");
        Ok(LanczosSummary {
            iters: state.iter,
            eigenvalues: state.eigenvalues(),
            alphas: state.alphas,
            betas: state.betas,
        })
    }
}
