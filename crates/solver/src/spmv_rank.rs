//! The per-rank spMVM plumbing of a replayable app (paper §V): the state
//! and plan checkpoint streams, the matrix chunk and its halo exchange.
//! "Each process writes a checkpoint after the pre-processing stage", and a
//! rescue "reads the checkpoint of the failed process" instead of redoing
//! it: [`SpmvRank::setup`] commits the negotiated plan once,
//! [`SpmvRank::join`] adopts it, and both regenerate the matrix chunk
//! locally from the generator.

use std::sync::Arc;
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

/// One rank's checkpoint streams and, once set up or joined, its spMVM.
pub(crate) struct SpmvRank {
    state_ck: Checkpointer,
    plan_ck: Checkpointer,
    fetch_timeout: Duration,
    spmv: Option<(DistMatrix, SpmvComm)>,
}

impl SpmvRank {
    /// The two streams; `pfs` also holds every plan checkpoint.
    pub(crate) fn new(ctx: &FtCtx, pfs: Option<Arc<Pfs>>, fetch_timeout: Duration) -> Self {
        let plan_cfg =
            CheckpointerConfig { keep_versions: 1, ..CheckpointerConfig::for_tag(PLAN_TAG) };
        Self {
            state_ck: Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), None),
            plan_ck: Checkpointer::new(&ctx.proc, plan_cfg, pfs),
            fetch_timeout,
            spmv: None,
        }
    }

    /// Pre-processing: exchange the needed column indices, commit the
    /// one-time plan checkpoint and assemble the chunk.
    pub(crate) fn setup(&mut self, ctx: &FtCtx, gen: &dyn RowGen) -> FtResult<()> {
        let (part, me) = (RowPartition::new(gen.dim(), ctx.num_app_ranks()), ctx.app_rank());
        let needed = DistMatrix::needed_columns(gen, &part, me);
        let plan = CommPlan::receives_from_needs(me, part.parts(), &needed).negotiate(
            &ctx.proc,
            &|a| ctx.gaspi_of(a),
            part.range(me).start,
            Timeout::Ms(30_000),
        )?;
        self.plan_ck.commit(0, plan.to_bytes(), CopyPolicy::Replicate);
        self.assemble(ctx, gen, plan)
    }

    /// A rescue's attach: adopt the failed rank's plan checkpoint
    /// (re-homed under our own rank) and assemble the chunk from it.
    pub(crate) fn join(&mut self, ctx: &FtCtx, gen: &dyn RowGen) -> FtResult<()> {
        let blob = adopt_latest(ctx, &self.plan_ck, self.fetch_timeout)?;
        self.assemble(ctx, gen, decode_plan(&blob.data, ctx.app_rank())?)
    }

    fn assemble(&mut self, ctx: &FtCtx, gen: &dyn RowGen, plan: CommPlan) -> FtResult<()> {
        let part = RowPartition::new(gen.dim(), ctx.num_app_ranks());
        let dm = DistMatrix::assemble(gen, part, plan.me, plan);
        let comm = SpmvComm::new(&ctx.proc, &dm.plan, SEG_HALO, SEG_STAGE, HALO_QUEUE)?;
        self.spmv = Some((dm, comm));
        Ok(())
    }

    /// After a recovery: refresh both streams' neighbor lists, drop
    /// pre-failure halo notifications and stale queue failure records.
    /// Partner *ranks* need no update — the plan stores application ranks
    /// and the rank map already points at the rescues.
    pub(crate) fn rewire(&self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.state_ck.refresh_failed(&plan.failed);
        self.plan_ck.refresh_failed(&plan.failed);
        if let Some((dm, comm)) = &self.spmv {
            comm.rewire(ctx, &dm.plan)?;
        }
        Ok(())
    }

    /// The stream the driver commits the app's state into.
    pub(crate) fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.state_ck, self.fetch_timeout))
    }

    /// The matrix chunk and its halo exchange.
    pub(crate) fn spmv(&self) -> (&DistMatrix, &SpmvComm) {
        self.spmv.as_ref().map(|(dm, comm)| (dm, comm)).expect("step before setup")
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
