//! The per-iteration halo exchange over one-sided `write_notify`, as a
//! split-phase (post/wait) pair so halo flight hides behind local compute.
//!
//! Senders *push*: each rank gathers the RHS values its partners need
//! into a staging segment and `write_notify`s them into the partners'
//! halo segments, tagging the notification with the iteration number —
//! that is [`SpmvComm::post`]. Receivers then run the local half of the
//! spMVM (`a_loc·x`, which needs no halo data) before [`SpmvComm::wait`]
//! blocks for one notification per incoming block, checks the tag (stale
//! tags from before a recovery are discarded), and reads the halo. The
//! solver loop is therefore
//!
//! ```text
//! post(k) → spmv_local → wait(k) → spmv_remote_add → collectives(k)
//! ```
//!
//! and the exchange only stalls for however much of the flight time the
//! local product did not cover.
//!
//! Synchronization note: a sender may only overwrite a receiver's halo
//! block for iteration `k+1` after the receiver has consumed iteration
//! `k`. Split-phase does not weaken this: `post(k+1)` happens after the
//! iteration-`k` collectives, which happen after every rank's `wait(k)`.
//! In the Lanczos loop the allreduce that follows every spMVM provides the
//! collective for free; applications without a natural per-iteration
//! collective must add one (see the heat example's residual allreduce).
//!
//! Recovery interacts with the split phase in one place: a failure
//! signalled between `post` and `wait` abandons the pending exchange
//! (dropping the [`PendingExchange`] token is fine — it holds no
//! resources), the rewire resets all halo notifications and purges the
//! queue's failure records, and the collective restore barrier keeps any
//! survivor from re-posting before all partners finished rewiring. A
//! straggler notification that still lands after the reset carries a
//! pre-rollback iteration tag and is discarded by the next `wait`'s
//! stale-tag loop, or, where the survivors kept their (failure-atomic)
//! state, the tag and values of the step they resume at.

use ft_core::{FtCtx, FtResult};
use ft_gaspi::{bytes, GaspiProc, GaspiResult, SegId};

use crate::plan::CommPlan;

/// Token for a posted-but-not-yet-awaited halo exchange, returned by
/// [`SpmvComm::post`] and consumed by [`SpmvComm::wait`].
///
/// Holds no GASPI resources: dropping it (e.g. when a failure signal
/// unwinds the iteration between post and wait) abandons the exchange,
/// and the recovery rewire cleans up whatever the abandoned writes left
/// behind.
#[must_use = "a posted exchange must be awaited with SpmvComm::wait (or deliberately abandoned on recovery)"]
#[derive(Debug)]
pub struct PendingExchange {
    /// The iteration tag the matching `wait` must see.
    tag: u32,
}

/// The communication state of one rank's spMVM: two segments and the
/// staging layout.
#[derive(Debug)]
pub struct SpmvComm {
    /// Halo segment id (partners write into it).
    pub seg_halo: SegId,
    /// Staging segment id (we gather outgoing values here).
    pub seg_stage: SegId,
    /// Queue for the halo writes.
    pub queue: u16,
    /// Per-send staging offsets (slots).
    stage_offsets: Vec<usize>,
}

impl SpmvComm {
    /// Create the halo and staging segments for `plan`.
    pub fn new(
        proc: &GaspiProc,
        plan: &CommPlan,
        seg_halo: SegId,
        seg_stage: SegId,
        queue: u16,
    ) -> GaspiResult<Self> {
        let mut stage_offsets = Vec::with_capacity(plan.sends.len());
        let mut off = 0usize;
        for s in &plan.sends {
            stage_offsets.push(off);
            off += s.local_rows.len();
        }
        proc.segment_create(seg_halo, 8 * plan.halo_len.max(1))?;
        proc.segment_create(seg_stage, 8 * off.max(1))?;
        Ok(Self { seg_halo, seg_stage, queue, stage_offsets })
    }

    /// Notification tag for an iteration (non-zero as GASPI requires).
    pub fn tag_for_iter(iter: u64) -> u32 {
        (iter as u32).wrapping_add(1).max(1)
    }

    /// Phase one: gather our partners' values into the staging segment
    /// and `write_notify` every outgoing block. Returns immediately with
    /// a [`PendingExchange`] token; the caller should now run the local
    /// half of the spMVM before handing the token to [`SpmvComm::wait`].
    ///
    /// `x_local` is this rank's vector chunk; `tag` must be
    /// [`SpmvComm::tag_for_iter`] of the current iteration on every rank.
    /// Every block goes to [`FtCtx::logged_post`]; in a replay nothing is
    /// written.
    pub fn post(
        &self,
        ctx: &FtCtx,
        plan: &CommPlan,
        x_local: &[f64],
        tag: u32,
    ) -> FtResult<PendingExchange> {
        let (proc, live) = (&ctx.proc, !ctx.replaying());
        for (send, &off) in plan.sends.iter().zip(&self.stage_offsets) {
            let block = send.local_rows.iter().map(|&li| x_local[li as usize]);
            ctx.logged_post(block.clone());
            if !live {
                continue;
            }
            proc.with_segment_mut(self.seg_stage, |b| {
                block.enumerate().for_each(|(k, v)| bytes::put_f64(b, 8 * (off + k), v));
            })?;
            let dst = ctx.gaspi_of(send.to);
            proc.write_notify(
                self.seg_stage,
                8 * off,
                dst,
                self.seg_halo,
                8 * send.dest_offset,
                8 * send.local_rows.len(),
                plan.me, // receiver keys the notification by *sender* app rank
                tag,
                self.queue,
            )?;
        }
        Ok(PendingExchange { tag })
    }

    /// Phase two: flush our own writes, await one tagged notification per
    /// incoming block (dropping stale tags left over from pre-recovery
    /// traffic) and read the halo into `halo_out`. The halo goes through
    /// [`FtCtx::received_halo`]: in a replay it is read from what the
    /// senders logged.
    pub fn wait(
        &self,
        ctx: &FtCtx,
        plan: &CommPlan,
        pending: PendingExchange,
        halo_out: &mut Vec<f64>,
    ) -> FtResult<()> {
        let proc = &ctx.proc;
        ctx.received_halo(halo_out, plan.halo_len, |halo_out| {
            // Flush first: a write to a dead partner comes back broken, and
            // the report wakes the detector. Behind the dead partner's block
            // the flush would never run.
            ctx.wait_ft(self.queue)?;
            for recv in &plan.recvs {
                loop {
                    ctx.notify_waitsome_ft(self.seg_halo, recv.from, 1)?;
                    let v = proc.notify_reset(self.seg_halo, recv.from)?;
                    if v == pending.tag {
                        break;
                    }
                }
            }
            // Read the full halo.
            Ok(proc.with_segment(self.seg_halo, |b| {
                for (i, h) in halo_out.iter_mut().enumerate() {
                    *h = bytes::get_f64(b, 8 * i);
                }
            })?)
        })
    }

    /// Full post-recovery rewire: drop stale notifications *and* the halo
    /// queue's failure records (writes posted to the now-dead partner
    /// completed as broken; that failure has been acknowledged and must
    /// not poison the next `wait`). Any exchange posted before the
    /// failure is implicitly abandoned — its [`PendingExchange`] was
    /// dropped with the unwound iteration. It also tells the context
    /// where the halo comes from and where the posts go
    /// ([`FtCtx::halo_links`]): survivors feed a rescue from their post logs.
    pub fn rewire(&self, ctx: &FtCtx, plan: &CommPlan) -> GaspiResult<()> {
        let posts = plan.sends.iter().zip(&self.stage_offsets);
        ctx.halo_links(
            plan.recvs.iter().map(|r| (r.from, r.halo_offset..r.halo_offset + r.cols.len())),
            posts.map(|(s, &o)| (s.to, o..o + s.local_rows.len())),
        );
        for from in 0..plan.nparts {
            let _ = ctx.proc.notify_reset(self.seg_halo, from)?;
        }
        ctx.proc.queue_purge(self.queue, ft_gaspi::Timeout::Ms(200))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_tags_are_nonzero_and_distinct() {
        assert_eq!(SpmvComm::tag_for_iter(0), 1);
        assert_eq!(SpmvComm::tag_for_iter(1), 2);
        assert_ne!(SpmvComm::tag_for_iter(7), SpmvComm::tag_for_iter(8));
        // Wraparound still never zero.
        assert!(SpmvComm::tag_for_iter(u64::from(u32::MAX)) >= 1);
    }
}
