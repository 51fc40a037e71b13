//! A second fault-tolerant application: a 2D heat/Poisson solver.
//!
//! The paper closes its introduction with "the concept can be applied to
//! other applications … as well" — this module demonstrates it. A damped
//! Jacobi iteration solves `A·u = b` for the 5-point Laplacian with a
//! point source, reusing the whole stack: distributed matrix, one-sided
//! halo exchange, neighbor-level checkpoints, and the recovery driver.
//! The per-step residual reduction doubles as the synchronization that
//! keeps halo buffers race-free (see [`ft_sparse::halo`]).

use std::sync::Arc;
use std::time::Duration;

use ft_checkpoint::{Checkpointer, Enc, Pfs, Wire};
use ft_core::{FtApp, FtCtx, FtResult, RecoveryPlan};
use ft_matgen::stencil::Laplace2d;
use ft_sparse::{det_allreduce_sums, SpmvComm};

use crate::spmv_rank::SpmvRank;

/// Configuration of the fault-tolerant heat solve.
pub struct HeatConfig {
    /// Grid extents.
    pub nx: u64,
    /// Grid extents.
    pub ny: u64,
    /// Jacobi damping factor (≤ 1; 0.8 is robustly convergent).
    pub omega: f64,
    /// Stop when the global residual 2-norm falls below this.
    pub tol: f64,
    /// Optional PFS tier for the plan checkpoint.
    pub pfs: Option<Arc<Pfs>>,
}

impl HeatConfig {
    /// Default solve on an `nx × ny` grid.
    pub fn new(nx: u64, ny: u64) -> Self {
        Self { nx, ny, omega: 0.8, tol: 1e-8, pfs: None }
    }
}

/// Per-worker result of the heat solve.
#[derive(Debug, Clone)]
pub struct HeatSummary {
    /// Iterations performed.
    pub iters: u64,
    /// Final global residual 2-norm.
    pub residual: f64,
    /// Global solution 2-norm (a cheap whole-field fingerprint).
    pub solution_norm: f64,
}

/// The fault-tolerant Jacobi heat solver.
pub struct FtHeat {
    cfg: Arc<HeatConfig>,
    rank: SpmvRank,
    u: Vec<f64>,
    /// Scratch for the next field, swapped into `u` once a step succeeded.
    next: Vec<f64>,
    b: Vec<f64>,
    halo: Vec<f64>,
    iter: u64,
    last_residual: f64,
    /// Global solution 2-norm after the last step.
    last_norm: f64,
}

impl FtHeat {
    /// Build the application object for one rank.
    pub fn new(ctx: &FtCtx, cfg: Arc<HeatConfig>) -> Self {
        let gen = Arc::new(Laplace2d::new(cfg.nx, cfg.ny));
        Self {
            rank: SpmvRank::new(ctx, gen, cfg.pfs.clone()),
            cfg,
            u: Vec::new(),
            next: Vec::new(),
            b: Vec::new(),
            halo: Vec::new(),
            iter: 0,
            last_residual: f64::INFINITY,
            last_norm: 0.0,
        }
    }

    /// The state as a `(u64, Vec<f64>)`, written without copying the field.
    fn encode_state(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(16 + 8 * self.u.len());
        e.u64(self.iter).f64s(&self.u);
        e.finish()
    }
}

impl FtApp for FtHeat {
    type Summary = HeatSummary;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.rank.setup(ctx)?;
        self.reset_state(ctx)?;
        ctx.barrier_ft()
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.rank.join(ctx)?;
        self.reset_state(ctx)
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let (dm, comm) = self.rank.spmv();
        let tag = SpmvComm::tag_for_iter(iter);
        // Split-phase: the local product runs while the halo is in
        // flight; the residual allreduce below is the inter-iteration
        // barrier that keeps the halo buffers race-free.
        let pending = comm.post(ctx, &dm.plan, &self.u, tag)?;
        self.next.resize(self.u.len(), 0.0);
        dm.spmv_local(&self.u, &mut self.next);
        comm.wait(ctx, &dm.plan, pending, &mut self.halo)?;
        dm.spmv_remote_add(&self.halo, &mut self.next);
        // Damped Jacobi update u + ω (b − A·u) / diag into `next`, with the
        // residual reduction as the global step synchronization. The
        // updated field's norm rides along, so `finalize` stays rank-local.
        let (mut local_r2, mut local_u2) = (0.0, 0.0);
        let diag = 4.0; // 5-point Laplacian diagonal
        for ((next, u), b) in self.next.iter_mut().zip(&self.u).zip(&self.b) {
            let r = b - *next;
            local_r2 += r * r;
            *next = u + self.cfg.omega * r / diag;
            local_u2 += *next * *next;
        }
        let [r2, u2] = det_allreduce_sums(ctx, [local_r2, local_u2])?;
        std::mem::swap(&mut self.u, &mut self.next);
        self.last_residual = r2.sqrt();
        self.last_norm = u2.sqrt();
        self.iter = iter + 1;
        Ok(self.last_residual < self.cfg.tol)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        self.rank.state_stream()
    }

    fn export_state(&self, _ctx: &FtCtx, _iter: u64) -> FtResult<Option<Vec<u8>>> {
        Ok(Some(self.encode_state()))
    }

    fn load_state(&mut self, _ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let (iter, u) = <(u64, Vec<f64>)>::from_bytes(data)?;
        self.u = u;
        self.iter = iter;
        Ok(iter)
    }

    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        // A zero field; the right-hand side, a unit point source at the
        // grid center, is derived from global indices alongside it.
        let center = (self.cfg.ny / 2) * self.cfg.nx + self.cfg.nx / 2;
        self.b = self.rank.rows(ctx).map(|i| if i == center { 1.0 } else { 0.0 }).collect();
        self.u = vec![0.0; self.b.len()];
        self.iter = 0;
        Ok(())
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.rank.rewire(ctx, plan)
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<HeatSummary> {
        Ok(HeatSummary {
            iters: self.iter,
            residual: self.last_residual,
            solution_norm: self.last_norm,
        })
    }
}
