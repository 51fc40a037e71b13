//! The per-rank spMVM plumbing of a replayable app (paper §V): the state
//! and plan checkpoint streams, the matrix chunk and its halo exchange.
//! "Each process writes a checkpoint after the pre-processing stage", and a
//! rescue "reads the checkpoint of the failed process" instead of redoing
//! it: [`SpmvRank::setup`] commits the negotiated plan once,
//! [`SpmvRank::join`] adopts it, and both regenerate the matrix chunk
//! locally from the generator. A rescue's chunk assembles on a helper
//! thread while it restores, which is all communication; the chunk's first
//! use, the first replayed or live step, waits for it.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy, Pfs, Wire};
use ft_core::ckpt::adopt_latest;
use ft_core::{FtCtx, FtError, FtResult, RecoveryPlan};
use ft_gaspi::{GaspiError, SegId, Timeout};
use ft_matgen::RowGen;
use ft_sparse::{CommPlan, DistMatrix, RowPartition, SpmvComm};

/// Checkpoint stream tags.
const STATE_TAG: u32 = 0x10;
const PLAN_TAG: u32 = 0x11;
/// Segment ids (the control segment is 0).
const SEG_HALO: SegId = 1;
const SEG_STAGE: SegId = 2;
/// Queue for halo traffic: queues are per-rank, any app queue works.
const HALO_QUEUE: u16 = 1;
/// Timeout of each checkpoint fetch: the restores, the plan adoption and
/// the drain before each commit.
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);

/// One rank's checkpoint streams and, once set up or joined, its spMVM.
pub(crate) struct SpmvRank {
    state_ck: Checkpointer,
    plan_ck: Checkpointer,
    gen: Arc<dyn RowGen>,
    /// The halo exchange and the plan it runs, once set up or joined.
    comm: Option<(SpmvComm, CommPlan)>,
    chunk: Option<DistMatrix>,
    /// A rescue's chunk, assembling until its first use. If the rescue dies
    /// first the helper is left detached: it touches neither the context
    /// nor GASPI, and its chunk is dropped.
    helper: Option<JoinHandle<DistMatrix>>,
}

impl SpmvRank {
    /// The two streams; `pfs` also holds every plan checkpoint.
    pub(crate) fn new(ctx: &FtCtx, gen: Arc<dyn RowGen>, pfs: Option<Arc<Pfs>>) -> Self {
        let plan_cfg =
            CheckpointerConfig { keep_versions: 1, ..CheckpointerConfig::for_tag(PLAN_TAG) };
        Self {
            state_ck: Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), None),
            plan_ck: Checkpointer::new(&ctx.proc, plan_cfg, pfs),
            gen,
            comm: None,
            chunk: None,
            helper: None,
        }
    }

    /// Pre-processing: exchange the needed column indices, commit the
    /// one-time plan checkpoint and assemble the chunk.
    pub(crate) fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let (part, me) = (self.partition(ctx), ctx.app_rank());
        let needed = DistMatrix::needed_columns(self.gen.as_ref(), &part, me);
        let plan = CommPlan::receives_from_needs(me, part.parts(), &needed).negotiate(
            &ctx.proc,
            &|a| ctx.gaspi_of(a),
            part.range(me).start,
            Timeout::Ms(30_000),
        )?;
        self.plan_ck.commit(0, plan.to_bytes(), CopyPolicy::Replicate);
        self.chunk = Some(self.assembly(ctx, plan)?());
        Ok(())
    }

    /// A rescue's attach: adopt the failed rank's plan checkpoint
    /// (re-homed under our own rank) and hand the chunk's assembly from it
    /// to a helper thread.
    pub(crate) fn join(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let blob = adopt_latest(ctx, &self.plan_ck, FETCH_TIMEOUT)?;
        let plan = decode_plan(&blob.data, ctx.app_rank())?;
        self.helper = Some(thread::spawn(self.assembly(ctx, plan)?));
        Ok(())
    }

    /// Create and keep the halo segments for `plan`; return the chunk's
    /// assembly, which owns what it reads.
    fn assembly(
        &mut self,
        ctx: &FtCtx,
        plan: CommPlan,
    ) -> FtResult<impl FnOnce() -> DistMatrix + Send + 'static> {
        let comm = SpmvComm::new(&ctx.proc, &plan, SEG_HALO, SEG_STAGE, HALO_QUEUE)?;
        self.comm = Some((comm, plan.clone()));
        let (gen, part) = (Arc::clone(&self.gen), self.partition(ctx));
        Ok(move || DistMatrix::assemble(gen.as_ref(), part, plan.me, plan))
    }

    fn partition(&self, ctx: &FtCtx) -> RowPartition {
        RowPartition::new(self.gen.dim(), ctx.num_app_ranks())
    }

    /// After a recovery: refresh both streams' neighbor lists, drop
    /// pre-failure halo notifications and stale queue failure records.
    /// Partner *ranks* need no update — the plan stores application ranks
    /// and the rank map already points at the rescues.
    pub(crate) fn rewire(&self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.state_ck.refresh_failed(&plan.failed);
        self.plan_ck.refresh_failed(&plan.failed);
        if let Some((comm, plan)) = &self.comm {
            comm.rewire(ctx, plan)?;
        }
        Ok(())
    }

    /// The stream the driver commits the app's state into.
    pub(crate) fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.state_ck, FETCH_TIMEOUT))
    }

    /// This rank's rows: all a fresh state needs, so it does not wait for
    /// the chunk.
    pub(crate) fn rows(&self, ctx: &FtCtx) -> Range<u64> {
        self.partition(ctx).range(ctx.app_rank())
    }

    /// The global columns of the halo, in halo order.
    pub(crate) fn halo_cols(&self) -> Vec<u64> {
        let (_, plan) = self.comm.as_ref().expect("state before setup");
        plan.recvs.iter().flat_map(|r| r.cols.iter().copied()).collect()
    }

    /// The matrix chunk and its halo exchange; after a join, the first call
    /// waits for the helper.
    pub(crate) fn spmv(&mut self) -> (&DistMatrix, &SpmvComm) {
        if let Some(helper) = self.helper.take() {
            self.chunk = Some(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        let (comm, _) = self.comm.as_ref().expect("step before setup");
        (self.chunk.as_ref().expect("step before setup"), comm)
    }
}

/// A plan checkpoint decoded, refused unless it is `me`'s.
fn decode_plan(data: &[u8], me: u32) -> FtResult<CommPlan> {
    let plan = CommPlan::from_bytes(data)
        .map_err(|_| FtError::Gaspi(GaspiError::InvalidArg("corrupt plan checkpoint")))?;
    if plan.me != me {
        return Err(FtError::Gaspi(GaspiError::InvalidArg("adopted the wrong plan")));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_plan_for_another_rank_or_a_truncated_one_is_refused() {
        let needed = [(0, vec![3]), (2, vec![8, 9])].into_iter().collect();
        let blob = CommPlan::receives_from_needs(1, 3, &needed).to_bytes();
        assert_eq!(decode_plan(&blob, 1).unwrap().halo_len, 3);
        let refused = |data: &[u8], me| match decode_plan(data, me) {
            Err(FtError::Gaspi(GaspiError::InvalidArg(why))) => why,
            other => panic!("accepted: {other:?}"),
        };
        assert_eq!(refused(&blob, 2), "adopted the wrong plan");
        assert_eq!(refused(&blob[..blob.len() - 1], 1), "corrupt plan checkpoint");
    }
}
