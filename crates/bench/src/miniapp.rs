//! A minimal fault-tolerant application for detector-focused benchmarks.
//!
//! Each step is one tiny allreduce (the synchronization any real
//! application has) plus an optional spin of simulated compute, plus — for
//! the detector ablation — an optional *inline* detector tick on the
//! worker's critical path (the designs the paper rejected in §IV-A-b).

use std::time::Duration;

use crate::baselines::{AllToAllDetector, InlineDetector, NeighborRingDetector};
use ft_checkpoint::{Checkpointer, CheckpointerConfig, CkptStats, Dec, Enc};
use ft_core::{FtApp, FtCtx, FtResult, RecoveryPlan};
use ft_gaspi::{ReduceOp, Timeout};

const STATE_TAG: u32 = 0x30;
const FETCH: Duration = Duration::from_secs(5);

/// Which (if any) rejected detector design runs inside the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InlineKind {
    /// No inline detection (the paper's dedicated-FD design).
    None,
    /// Every worker pings every other worker each interval.
    AllToAll,
    /// Every worker pings its ring successor each interval.
    NeighborRing,
}

/// Configuration for [`MiniApp`].
#[derive(Debug, Clone)]
pub struct MiniConfig {
    /// Busy-spin per step, simulating compute.
    pub work: Duration,
    /// Inline detector design and its scan interval.
    pub inline_kind: InlineKind,
    /// Inline scan interval.
    pub inline_interval: Duration,
    /// Per-ping timeout for inline detectors.
    pub inline_ping_timeout: Timeout,
    /// Optional external stop flag: once set, the workers agree (via an
    /// occasional reduction, so the decision stays collective) to end the
    /// run early. Used by harnesses that only need the job alive until an
    /// observation completes.
    pub stop: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for MiniConfig {
    fn default() -> Self {
        Self {
            work: Duration::ZERO,
            inline_kind: InlineKind::None,
            inline_interval: Duration::from_millis(30),
            inline_ping_timeout: Timeout::Ms(200),
            stop: None,
        }
    }
}

/// The minimal app: deterministic accumulator + optional inline detector.
pub struct MiniApp {
    cfg: MiniConfig,
    acc: f64,
    ck: Checkpointer,
    inline: Option<Box<dyn InlineDetector + Send>>,
    /// Total time the inline detector stole from this worker.
    pub inline_overhead: Duration,
}

impl MiniApp {
    /// Build for one rank.
    pub fn new(ctx: &FtCtx, cfg: MiniConfig) -> Self {
        let ck = Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), None);
        Self { cfg, acc: 0.0, ck, inline: None, inline_overhead: Duration::ZERO }
    }

    fn make_inline(&self, ctx: &FtCtx) -> Option<Box<dyn InlineDetector + Send>> {
        let me = ctx.proc.rank();
        let peers: Vec<u32> =
            (0..ctx.num_app_ranks()).map(|a| ctx.gaspi_of(a)).filter(|&g| g != me).collect();
        match self.cfg.inline_kind {
            InlineKind::None => None,
            InlineKind::AllToAll => Some(Box::new(AllToAllDetector::new(
                peers,
                self.cfg.inline_interval,
                self.cfg.inline_ping_timeout,
            ))),
            InlineKind::NeighborRing => Some(Box::new(NeighborRingDetector::new(
                me,
                peers,
                self.cfg.inline_interval,
                self.cfg.inline_ping_timeout,
            ))),
        }
    }
}

impl FtApp for MiniApp {
    type Summary = MiniSummary;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.inline = self.make_inline(ctx);
        ctx.barrier_ft()?;
        Ok(())
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        // No pre-processing to reload: the mini app is plan-free.
        self.inline = self.make_inline(ctx);
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        if !self.cfg.work.is_zero() {
            let t0 = std::time::Instant::now();
            while t0.elapsed() < self.cfg.work {
                std::hint::spin_loop();
            }
        }
        if let Some(d) = self.inline.as_mut() {
            let t0 = std::time::Instant::now();
            let _suspects = d.tick(&ctx.proc);
            self.inline_overhead += t0.elapsed();
        }
        let x = f64::from(ctx.app_rank() + 1) * (iter + 1) as f64;
        let sum = ctx.allreduce_f64_ft(&[x], ReduceOp::Sum)?[0];
        self.acc += sum;
        // Collective early-stop check: every rank sees the same maximum,
        // so they all stop at the same iteration.
        if iter % 8 == 7 {
            if let Some(flag) = &self.cfg.stop {
                let mine = u64::from(flag.load(std::sync::atomic::Ordering::Acquire));
                let agreed = ctx.allreduce_u64_ft(&[mine], ReduceOp::Max)?[0];
                if agreed != 0 {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.ck, FETCH))
    }

    fn export_state(&self, _ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        let mut e = Enc::new();
        e.u64(iter).f64(self.acc);
        Ok(Some(e.finish()))
    }

    fn load_state(&mut self, _ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let mut d = Dec::new(data);
        let iter = d.u64().unwrap_or(0);
        self.acc = d.f64().unwrap_or(0.0);
        Ok(iter)
    }

    fn reset_state(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        self.acc = 0.0;
        Ok(())
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.ck.refresh_failed(&plan.failed);
        self.inline = self.make_inline(ctx);
        Ok(())
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<MiniSummary> {
        self.ck.drain(FETCH);
        Ok(MiniSummary {
            acc: self.acc,
            inline_overhead: self.inline_overhead,
            ckpt: self.ck.stats(),
        })
    }
}

/// Per-worker result of a mini run.
#[derive(Debug, Clone)]
pub struct MiniSummary {
    /// Deterministic accumulator (correctness check).
    pub acc: f64,
    /// Time stolen by the inline detector.
    pub inline_overhead: Duration,
    /// This rank's checkpoint-tier counters.
    pub ckpt: CkptStats,
}
