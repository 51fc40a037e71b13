//! The per-iteration halo exchange over one-sided `write_notify`, as a
//! split-phase (post/wait) pair so halo flight hides behind other work.
//!
//! Senders *push*: [`SpmvComm::post`] gathers the values each partner
//! needs into a staging segment and `write_notify`s them into its halo
//! segment, tagged with the iteration number. [`SpmvComm::wait`] blocks
//! for one notification per incoming block, drops stale tags (traffic
//! from before a recovery) and reads the halo. Heat overlaps the local
//! half of its spMVM, `post → spmv_local → wait → spmv_remote_add →
//! allreduce`; Lanczos its reduction, `spmv → post → allreduce → wait`.
//!
//! Synchronization: the halo segment and its notification slots are
//! double-buffered by tag parity, so a partner's `post(k+1)` may come
//! before `wait(k)` without touching what it reads. A partner's
//! `post(k+2)` reuses `k`'s buffer: each loop orders it after every
//! rank's `wait(k)` by a collective per iteration, as an application
//! without a natural one must too (ARCHITECTURE.md §4).
//!
//! Recovery interacts with the split phase in one place: a failure
//! signalled between `post` and `wait` abandons the pending exchange
//! (dropping the [`PendingExchange`] token is fine — it holds no
//! resources), the rewire resets both parities' notifications and purges
//! the queue's failure records, and the collective restore barrier keeps
//! any survivor from re-posting before all partners finished rewiring. A
//! straggler notification that still lands after the reset carries a
//! pre-rollback iteration tag and is discarded by the next `wait`'s
//! stale-tag loop, or, where the survivors kept their (failure-atomic)
//! state, the tag and values of the step they resume at.

use std::mem::replace;

use ft_core::{FtCtx, FtResult};
use ft_gaspi::{bytes, GaspiProc, GaspiResult, SegId};

use crate::plan::{CommPlan, SendSpec};

/// Token for a posted-but-not-yet-awaited halo exchange, returned by
/// [`SpmvComm::post`] and consumed by [`SpmvComm::wait`]. It holds no
/// GASPI resources: dropping it (a failure between post and wait)
/// abandons the exchange, and the recovery rewire cleans up after it.
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
    /// Create the halo and staging segments for `plan`. The halo segment
    /// holds every incoming block twice, once per tag parity.
    pub fn new(
        proc: &GaspiProc,
        plan: &CommPlan,
        seg_halo: SegId,
        seg_stage: SegId,
        queue: u16,
    ) -> GaspiResult<Self> {
        let stage = |off: &mut usize, s: &SendSpec| Some(replace(off, *off + s.local_rows.len()));
        let stage_offsets = plan.sends.iter().scan(0, stage).collect();
        proc.segment_create(seg_halo, 16 * plan.halo_len.max(1))?;
        proc.segment_create(seg_stage, 8 * plan.send_volume().max(1))?;
        Ok(Self { seg_halo, seg_stage, queue, stage_offsets })
    }

    /// Notification tag for an iteration (non-zero as GASPI requires).
    pub fn tag_for_iter(iter: u64) -> u32 {
        (iter as u32).wrapping_add(1).max(1)
    }

    /// Phase one: gather our partners' values into the staging segment
    /// and `write_notify` every outgoing block into the tag's parity.
    /// Returns immediately with a [`PendingExchange`] token; the caller
    /// runs its overlapped work before handing it to [`SpmvComm::wait`].
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
            let (dst, len) = (ctx.gaspi_of(send.to), send.local_rows.len());
            proc.write_notify(
                self.seg_stage,
                8 * off,
                dst,
                self.seg_halo,
                8 * parity_slot(send.dest_offset, len, tag),
                8 * len,
                parity_slot(plan.me as usize, 1, tag) as u32, // keyed by *sender* app rank
                tag,
                self.queue,
            )?;
        }
        Ok(PendingExchange { tag })
    }

    /// Phase two: flush our own writes, await one tagged notification per
    /// incoming block in the tag's parity (dropping stale tags left over
    /// from pre-recovery traffic) and read that parity's halo into
    /// `halo_out`, through [`FtCtx::received_halo`]: in a replay it is
    /// read from what the senders logged.
    pub fn wait(
        &self,
        ctx: &FtCtx,
        plan: &CommPlan,
        pending: PendingExchange,
        halo_out: &mut Vec<f64>,
    ) -> FtResult<()> {
        let proc = &ctx.proc;
        ctx.received_halo(halo_out, plan.halo_len, |halo_out| {
            // Flush our writes: a broken one names a dead partner.
            ctx.wait_ft(self.queue)?;
            let PendingExchange { tag } = pending;
            for recv in &plan.recvs {
                let nid = parity_slot(recv.from as usize, 1, tag) as u32;
                loop {
                    ctx.notify_waitsome_ft(self.seg_halo, nid, 1)?;
                    if proc.notify_reset(self.seg_halo, nid)? == tag {
                        break;
                    }
                }
            }
            Ok(proc.with_segment(self.seg_halo, |b| {
                for r in &plan.recvs {
                    let at = parity_slot(r.halo_offset, r.cols.len(), tag);
                    for (k, h) in halo_out[r.halo_offset..][..r.cols.len()].iter_mut().enumerate() {
                        *h = bytes::get_f64(b, 8 * (at + k));
                    }
                }
            })?)
        })
    }

    /// Full post-recovery rewire: drop stale notifications *and* the halo
    /// queue's failure records (an acknowledged failure must not poison
    /// the next `wait`); an exchange posted before the failure is
    /// abandoned with its dropped [`PendingExchange`]. It also tells the
    /// context where the halo comes from and where the posts go
    /// ([`FtCtx::halo_links`]): survivors feed a rescue from their post logs.
    pub fn rewire(&self, ctx: &FtCtx, plan: &CommPlan) -> GaspiResult<()> {
        let posts = plan.sends.iter().zip(&self.stage_offsets);
        ctx.halo_links(
            plan.recvs.iter().map(|r| (r.from, r.halo_offset..r.halo_offset + r.cols.len())),
            posts.map(|(s, &o)| (s.to, o..o + s.local_rows.len())),
        );
        for nid in 0..2 * plan.nparts {
            let _ = ctx.proc.notify_reset(self.seg_halo, nid)?;
        }
        ctx.proc.queue_purge(self.queue, ft_gaspi::Timeout::Ms(200))
    }
}

/// Where a block of `len` slots at `offset` lives for `tag`'s parity: each
/// block's two copies sit side by side, so a sender needs no more of the
/// receiver's layout than the block's offset. Notification ids follow the
/// same rule with `len` 1.
fn parity_slot(offset: usize, len: usize, tag: u32) -> usize {
    2 * offset + (tag % 2) as usize * len
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
