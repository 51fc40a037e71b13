//! The deterministic accumulator the recovery suites share: every worker
//! contributes `(app_rank+1)·(iter+1)` to a group allreduce-sum and
//! accumulates the result, so the final value is a pure function of
//! (workers, iterations) and any adoption, restore or redo mistake shows
//! up as a wrong number.

#![allow(dead_code)] // each suite uses its own subset

use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, Wire};
use ft_core::{FtApp, FtCtx, FtResult, RecoveryPlan};
use ft_gaspi::ReduceOp;

pub const STATE_TAG: u32 = 1;
pub const FETCH: Duration = Duration::from_secs(5);

/// Crossed by a draining [`Acc`] at the top of every step, once the copies
/// of its last commit have landed — a kill here finds them on every tier.
pub const DRAINED_SITE: &str = "test.acc.drained";
/// Crossed by every [`Acc`] inside `rewire`: a fault here finds the other
/// members of the rebuilt group in the restore's collectives, waiting for
/// this rank.
pub const REWIRE_SITE: &str = "test.acc.rewire";
/// Crossed by every [`Acc`] on entering `finalize`: after the last
/// iteration's collectives — on app rank 0, after the driver's done signal,
/// so the detector may already have announced the job's end.
pub const FINALIZE_SITE: &str = "test.acc.finalize";

/// Ground truth: Σ_{i=1..iters} i · W(W+1)/2.
pub fn expected_acc(workers: u32, iters: u64) -> f64 {
    f64::from(workers) * f64::from(workers + 1) / 2.0 * (iters * (iters + 1) / 2) as f64
}

pub struct Acc {
    acc: f64,
    ck: Checkpointer,
    /// Wait out the asynchronous copies of the last commit before each
    /// step, so what a later vote finds on which tier is deterministic.
    drain: bool,
}

impl Acc {
    /// The default stream, copies left asynchronous.
    pub fn new(ctx: &FtCtx) -> Self {
        let ck = Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), None);
        Self { acc: 0.0, ck, drain: false }
    }

    /// Over a caller-built stream, draining it before every step.
    pub fn draining(ck: Checkpointer) -> Self {
        Self { acc: 0.0, ck, drain: true }
    }
}

impl FtApp for Acc {
    /// `(accumulator, restores served from PFS)`.
    type Summary = (f64, u64);

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        ctx.barrier_ft()
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        if self.drain {
            assert!(self.ck.drain(FETCH), "replication must land");
            ctx.proc.injection_site(DRAINED_SITE);
        }
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

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.ck.refresh_failed(&plan.failed);
        ctx.proc.injection_site(REWIRE_SITE);
        Ok(())
    }

    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<(f64, u64)> {
        ctx.proc.injection_site(FINALIZE_SITE);
        Ok((self.acc, self.ck.stats().restores_pfs))
    }
}
