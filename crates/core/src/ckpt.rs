//! Group-consistent checkpoint restore.
//!
//! All workers checkpoint at the same iterations, but a failure can strike
//! *during* checkpointing, leaving some ranks one version ahead. "In case
//! of a restart, the data is initialized from a consistent checkpoint"
//! (§IV-E): the group agrees on the newest version *every* member can
//! restore (an allreduce-min) and everyone restores exactly that one.
//!
//! A rescue process restores the checkpoint written by its failed
//! *predecessor* (located via the plan's adoption history) and immediately
//! re-homes it under its own rank, so subsequent recoveries resolve
//! uniformly.

use std::time::Duration;

use ft_checkpoint::{Checkpointer, CopyPolicy, MissReason, Restored};
use ft_cluster::Rank;
use ft_gaspi::{GaspiError, ReduceOp};

use crate::driver::FtCtx;
use crate::error::{FtError, FtResult};
use crate::events::{EventKind, MissStage};
use crate::plan::RecoveryPlan;

/// Versions are shifted by one on the wire so that 0 means "nothing
/// restorable" — a member with no checkpoint then correctly drags the
/// group minimum to "restart from scratch" instead of being ignored.
fn encode_version(v: Option<u64>) -> u64 {
    v.map_or(0, |v| v + 1)
}

/// The rank whose checkpoints `me` must restore: its failed predecessor if
/// `me` is a rescue in `plan` (the *last* adoption wins for chained
/// failures), otherwise `me` itself.
pub fn restore_source(plan: &RecoveryPlan, me: Rank) -> Rank {
    plan.failed
        .iter()
        .zip(&plan.rescues)
        .rev()
        .find(|&(_, &r)| r == me)
        .map(|(&f, _)| f)
        .unwrap_or(me)
}

/// Agree on and restore the newest group-consistent checkpoint.
///
/// Two collective rounds:
///
/// 1. **Vote**: allreduce-min over each member's newest restorable
///    version. A member with nothing drags the vote to "restart from
///    scratch".
/// 2. **Confirm**: every member attempts to fetch the voted version and
///    the group allreduce-mins the success flags. This round is what
///    makes the protocol robust to *asymmetric availability*: a process
///    that died before its library thread finished replicating leaves its
///    rescue with an *older* version than the survivors still hold — the
///    survivors may have pruned that older version locally, so a version
///    someone voted for is not necessarily available to everyone else.
///    If anyone misses, the whole group restarts from scratch together
///    (divergence would be worse than redone work; and since the
///    applications are reduction-order deterministic, the redone prefix
///    rewrites bit-identical checkpoints).
///
/// Every strategy that keeps its state in a checkpoint stream restores
/// through here (the application's stream under checkpoint/restart, the
/// mirror under replication). Returns `Ok(None)` for the collective
/// restart-from-scratch decision. A rank that restored its predecessor's
/// checkpoint ([`FtCtx::restore_source`]) re-homes it under its own rank
/// before returning.
pub fn consistent_restore(
    ctx: &FtCtx,
    ck: &Checkpointer,
    fetch_timeout: Duration,
) -> FtResult<Option<Restored>> {
    let me = ctx.proc.rank();
    let source = ctx.restore_source();
    let probed = ck.probe(source, fetch_timeout);
    // Not-found is the normal fresh-start vote; a timeout or a checksum
    // mismatch means state existed but was unusable — worth an event,
    // since it degrades the whole group's vote.
    if let Some(reason) = probed.miss_reason().filter(|r| *r != MissReason::NotFound) {
        ctx.events.record(me, EventKind::RestoreMiss { stage: MissStage::Vote, reason });
    }
    let mine = encode_version(probed.hit());
    let agreed = ctx.allreduce_u64_ft(&[mine], ReduceOp::Min)?[0];
    if agreed == 0 {
        // At least one member has nothing at all: fresh start. (No
        // confirmation round needed — nothing to confirm.)
        return Ok(None);
    }
    let version = agreed - 1;
    let fetched = ck.pull(source, version, fetch_timeout);
    if let Some(reason) = fetched.miss_reason() {
        ctx.events.record(me, EventKind::RestoreMiss { stage: MissStage::Fetch, reason });
    }
    let ok = u64::from(fetched.is_hit());
    let all_ok = ctx.allreduce_u64_ft(&[ok], ReduceOp::Min)?[0] == 1;
    if !all_ok {
        return Ok(None);
    }
    Ok(Some(rehome(ctx, ck, fetched.hit().expect("confirmed fetch"))))
}

/// A rescue's one-time streams (the communication plan): restore whatever
/// the nearest tier holds of the adopted predecessor's stream `ck` and
/// re-home it. No vote — the stream is written once, in `setup`, so every
/// tier that has it has the same version.
pub fn adopt_latest(ctx: &FtCtx, ck: &Checkpointer, fetch_timeout: Duration) -> FtResult<Restored> {
    let restored = ck
        .restore_latest(ctx.restore_source(), fetch_timeout)
        .hit()
        .ok_or(FtError::Gaspi(GaspiError::Timeout))?;
    Ok(rehome(ctx, ck, restored))
}

/// A rescue re-homes what it adopts: state restored from a predecessor's
/// stream is committed again under the rescue's own rank, so the next
/// recovery resolves it locally, and the rescue's replica holder gets a
/// copy of it.
fn rehome(ctx: &FtCtx, ck: &Checkpointer, restored: Restored) -> Restored {
    if ctx.restore_source() != ctx.proc.rank() {
        ck.commit(restored.version, restored.data.clone(), CopyPolicy::Replicate);
    }
    restored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::WorldLayout;

    #[test]
    fn source_is_the_last_adopted_predecessor() {
        let layout = WorldLayout::new(4, 4); // idles 4-6, FD 7
        let p1 = RecoveryPlan::initial().after_failures(&layout, &[2], None);
        assert_eq!(restore_source(&p1, 0), 0, "survivors restore as themselves");
        assert_eq!(restore_source(&p1, 6), 2);
        // Chained: rank2 → rescue6, app rank 2's designated shadow (epoch
        // 1); rank6 → rescue4, the pool's first (epoch 2).
        let p2 = p1.after_failures(&layout, &[6], None);
        assert_eq!(restore_source(&p2, 4), 6);
        // 6 is dead; if asked (it isn't), it would still resolve to 2.
        assert_eq!(restore_source(&p2, 6), 2);
        // A dead idle adopts nobody and is adopted by nobody.
        let p3 = p2.after_failures(&layout, &[5], None);
        assert_eq!(restore_source(&p3, 3), 3);
    }
}
