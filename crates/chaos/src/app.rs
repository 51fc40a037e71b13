//! The small deterministic job every sweep run replays.
//!
//! A paper-shaped accumulator: each iteration allreduces one value per
//! application rank and adds the sum, checkpointing every
//! `checkpoint_every` iterations through the neighbor-level checkpoint
//! library. The ground truth after `n` iterations with `w` workers is
//! exactly `w(w+1)/2 · n(n+1)/2`, so a replay can distinguish *correct*,
//! *degraded* and *silently corrupt* outcomes with one `==`.

use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, Wire};
use ft_core::{FtApp, FtCtx, FtResult, RecoveryPlan};
use ft_gaspi::ReduceOp;

const STATE_TAG: u32 = 1;
const FETCH: Duration = Duration::from_secs(5);

/// The accumulator application used by the kill-point sweeps.
pub struct SweepApp {
    acc: f64,
    ck: Checkpointer,
}

impl SweepApp {
    /// Build one instance per rank (pass to `run_ft_job`).
    pub fn new(ctx: &FtCtx) -> Self {
        Self {
            acc: 0.0,
            ck: Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), None),
        }
    }

    /// Ground-truth accumulator value after a complete run.
    pub fn expected(workers: u32, iters: u64) -> f64 {
        f64::from(workers) * f64::from(workers + 1) / 2.0 * (iters * (iters + 1) / 2) as f64
    }
}

impl FtApp for SweepApp {
    type Summary = f64;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        ctx.barrier_ft()?;
        Ok(())
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let x = f64::from(ctx.app_rank() + 1) * (iter + 1) as f64;
        self.acc += ctx.allreduce_f64_ft(&[x], ReduceOp::Sum)?[0];
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.ck, FETCH))
    }

    fn export_state(&self, _ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        Ok(Some((iter, self.acc).to_bytes()))
    }

    fn load_state(&mut self, _ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let (iter, acc) = <(u64, f64)>::from_bytes(data)?;
        self.acc = acc;
        Ok(iter)
    }

    fn reset_state(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        self.acc = 0.0;
        Ok(())
    }

    fn rewire(&mut self, _ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.ck.refresh_failed(&plan.failed);
        Ok(())
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<f64> {
        Ok(self.acc)
    }
}
