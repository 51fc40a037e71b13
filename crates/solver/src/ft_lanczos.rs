//! The fault-tolerant Lanczos application (paper §V).
//!
//! Wires the distributed Lanczos iteration into the [`ft_core::FtApp`]
//! driver. The spMVM pre-processing, the one-time communication-plan
//! checkpoint a rescue resumes from "without having to perform the
//! pre-processing step again", and the rewire after a recovery are the
//! shared `spmv_rank` module's. What is left here is the state — two
//! consecutive Lanczos vectors, their halos and α/β, which the driver
//! commits, restores and replays — and the step: one Lanczos iteration,
//! with the QL convergence check every `conv_check_every` iterations.

use std::sync::Arc;
use std::time::Duration;

use ft_checkpoint::{Checkpointer, Pfs, Wire};
use ft_core::{FtApp, FtCtx, FtResult, RecoveryPlan};
use ft_matgen::RowGen;

use crate::lanczos::LanczosState;
use crate::spmv_rank::SpmvRank;
use crate::tridiag::tridiag_eigenvalues;

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
}

impl FtLanczosConfig {
    /// Fixed-iteration configuration (the paper's benchmark mode).
    pub fn fixed_iters(gen: Arc<dyn RowGen>) -> Self {
        Self { gen, seed: 0x1A5C_205E, conv_check_every: 0, conv_tol: 1e-10, pfs: None }
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
    rank: SpmvRank,
    state: Option<LanczosState>,
    w: Vec<f64>,
    w_halo: Vec<f64>,
}

impl FtLanczos {
    /// Build the application object for one rank (pass this to
    /// [`ft_core::run_ft_job`] via a closure).
    pub fn new(ctx: &FtCtx, cfg: Arc<FtLanczosConfig>) -> Self {
        let rank = SpmvRank::new(ctx, Arc::clone(&cfg.gen), cfg.pfs.clone());
        Self { cfg, rank, state: None, w: Vec::new(), w_halo: Vec::new() }
    }
}

impl FtApp for FtLanczos {
    type Summary = LanczosSummary;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.rank.setup(ctx)?;
        self.reset_state(ctx)?;
        ctx.barrier_ft()
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.rank.join(ctx)
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let (dm, comm) = self.rank.spmv();
        let state = self.state.as_mut().expect("step before setup");
        debug_assert_eq!(state.iter, iter, "driver and Lanczos state out of sync");
        state.step(ctx, dm, comm, &mut self.w, &mut self.w_halo)?;
        // Convergence: the lowest eigenvalue of T_j against that of T_{j−k}
        // at the previous check, both by the QL method from α/β. They are
        // bit-identical on every rank and exported, so a survivor that kept
        // its live state and a rescue that replayed decide alike.
        let k = self.cfg.conv_check_every;
        if k > 0 && state.iter.is_multiple_of(k) && state.iter >= 2 * k {
            let low = |j: usize| tridiag_eigenvalues(&state.alphas[..j], &state.betas[..j - 1])[0];
            let (now, prev) = (low(state.alphas.len()), low(state.alphas.len() - k as usize));
            return Ok((now - prev).abs() <= self.cfg.conv_tol * now.abs().max(1.0));
        }
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        self.rank.state_stream()
    }

    fn export_state(&self, _ctx: &FtCtx, _iter: u64) -> FtResult<Option<Vec<u8>>> {
        Ok(self.state.as_ref().map(LanczosState::encode))
    }

    fn load_state(&mut self, _ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let st = LanczosState::from_bytes(data)?;
        let iter = st.iter;
        self.state = Some(st);
        Ok(iter)
    }

    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        // The deterministic start vector: where setup starts, and where a
        // job with no consistent state anywhere restarts.
        let (rows, seed) = (self.rank.rows(ctx), self.cfg.seed);
        let mut st = LanczosState::init(rows.start, (rows.end - rows.start) as usize, seed);
        st.normalize(ctx, seed, &self.rank.halo_cols())?;
        self.state = Some(st);
        Ok(())
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.rank.rewire(ctx, plan)
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
