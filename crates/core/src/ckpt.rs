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

use std::ops::Range;
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CopyPolicy, MissReason, RestoreOutcome, Restored};
use ft_cluster::Rank;
use ft_gaspi::{GaspiError, ReduceOp, ALLREDUCE_MAX_ELEMS};

use crate::driver::FtCtx;
use crate::error::{FtError, FtResult};
use crate::events::{EventKind, MissStage};
use crate::plan::RecoveryPlan;

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

/// Where a member stands when the group votes on the replay frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Standing {
    /// A rescue that has not restored yet. It holds no log and abstains,
    /// unless a sender of its halo is such a rescue too: nobody can then
    /// hand it that halo, and it votes for the global redo.
    Rescue {
        /// Whether a sender of its halo is a rescue that has not restored.
        fed_by_rescue: bool,
    },
    /// A survivor whose log holds the sealed steps of the range (its live
    /// state stands at the range's end), or none it can feed a rescue from
    /// (no log kept, or a step that communicated outside the seams).
    Survivor(Option<Range<u64>>),
}

/// One member's vote on the replay frontier for commit iteration `c`, two
/// slots that fold by a minimum each: a survivor whose log reaches back to
/// `c` offers the end of its log, where its live state stands, as
/// `[end, !end]`, so the fold holds the smallest and the largest end; a
/// rescue abstains; anyone else votes for the global redo.
pub fn frontier_vote(c: u64, standing: &Standing) -> [u64; 2] {
    match standing {
        Standing::Rescue { fed_by_rescue: false } => [u64::MAX; 2],
        Standing::Survivor(Some(log)) if log.start <= c && c <= log.end => [log.end, !log.end],
        _ => [c, 0],
    }
}

/// The keep-or-redo rule over the folded votes: `f` if every survivor
/// stands at one sealed step `f` past `c` and every log reaches back to `c`
/// (the survivors keep their live state, each rescue replays `c..f` fed by
/// its senders' logs); otherwise `c`, the global redo — a straddle, a log
/// that starts after `c` or is broken, a rescue fed by a rescue.
pub fn replay_frontier(c: u64, votes: impl IntoIterator<Item = [u64; 2]>) -> u64 {
    let [low, high] =
        votes.into_iter().fold([u64::MAX; 2], |a, v| [a[0].min(v[0]), a[1].min(v[1])]);
    Some(low).filter(|&f| f != u64::MAX && f == !high).unwrap_or(c)
}

/// What the first round of a restore says, one slot per app rank.
#[derive(Debug)]
pub(crate) struct Votes {
    /// Per app rank, the newest version its carrier can restore (+1, so 0
    /// means nothing).
    pub offers: Vec<u64>,
    /// The app ranks whose carrier is a rescue that has not restored yet.
    pub rescues: Vec<u32>,
}

/// The vote both codes open their restore with: a min-allreduce of one slot
/// per app rank, in which each member offers its `newest` restorable
/// version and says whether it is a rescue that has not restored yet.
pub(crate) fn vote(ctx: &FtCtx, newest: Option<u64>) -> FtResult<Votes> {
    let rescue = ctx.restore_source() != ctx.proc.rank();
    let mut slots = vec![u64::MAX; ctx.num_app_ranks() as usize];
    // Versions shift by one so that a member with nothing (0) drags the
    // minimum to the fresh start instead of being ignored. Low bit clear:
    // a rescue that has not restored yet.
    slots[ctx.app_rank() as usize] = newest.map_or(0, |v| v + 1) << 1 | u64::from(!rescue);
    let mut offers = Vec::with_capacity(slots.len());
    for chunk in slots.chunks(ALLREDUCE_MAX_ELEMS) {
        offers.extend(ctx.allreduce_u64_ft(chunk, ReduceOp::Min)?);
    }
    let rescues = (0..).zip(&offers).filter(|(_, v)| *v & 1 == 0).map(|(a, _)| a).collect();
    offers.iter_mut().for_each(|v| *v >>= 1);
    Ok(Votes { offers, rescues })
}

/// What a restore agreed on, installed by
/// [`Checkpointed::restore`](crate::strategy::Checkpointed::restore).
#[derive(Debug)]
pub struct Agreed {
    /// The state every member installs; `None` for the initial state, at
    /// commit 0 (the fresh start).
    pub image: Option<Vec<u8>>,
    /// The iteration it holds.
    pub commit: u64,
    /// Where the survivors stand and the rescues replay to; `commit` for
    /// the global redo, in which every member installs `image`.
    pub frontier: u64,
    /// The app ranks whose carrier is a rescue that has not restored yet.
    pub rescues: Vec<u32>,
}

/// Agree on and restore the newest group-consistent checkpoint, and on
/// the replay frontier past it.
///
/// Two collective rounds:
///
/// 1. **Vote** (`vote`): allreduce-min over each member's newest
///    restorable version. A member with nothing drags the vote to the
///    fresh start, commit 0.
/// 2. **Confirm**: every member attempts to fetch the voted version and
///    the group allreduce-mins the success flags. This round is what
///    makes the protocol robust to *asymmetric availability*: a process
///    that died before its library thread finished replicating leaves its
///    rescue with an *older* version than the survivors still hold — the
///    survivors may have pruned that older version locally, so a version
///    someone voted for is not necessarily available to everyone else
///    (with the drain rule of [`crate::strategy`], only behind a copy slower
///    than the fetch timeout). If anyone misses, the whole group restarts
///    from scratch together (divergence would be worse than redone work;
///    and since the applications are reduction-order deterministic, the
///    redone prefix rewrites bit-identical checkpoints). The same round
///    carries each member's [`frontier_vote`] for the agreed commit, the
///    version times `iters_per_version` (0 before the first commit), and
///    with it the smallest and the largest end of the survivors' logs.
///
/// Checkpoint/restart at any interval restores through here, from the
/// application's own state stream. A rank that restored its predecessor's
/// checkpoint ([`FtCtx::restore_source`]) re-homes it under its own rank
/// before returning, without waiting for the copy (see `lookup`).
pub fn consistent_restore(
    ctx: &FtCtx,
    ck: &Checkpointer,
    fetch_timeout: Duration,
    iters_per_version: u64,
) -> FtResult<Agreed> {
    let me = ctx.proc.rank();
    let (source, probed) = lookup(ctx, |r| ck.probe(r, fetch_timeout));
    // Not-found is the normal fresh-start vote; a timeout or a checksum
    // mismatch means state existed but was unusable — worth an event,
    // since it degrades the whole group's vote.
    if let Some(reason) = probed.miss_reason().filter(|r| *r != MissReason::NotFound) {
        ctx.events.record(me, EventKind::RestoreMiss { stage: MissStage::Vote, reason });
    }
    let Votes { offers, rescues } = vote(ctx, probed.hit())?;
    // Nothing to fetch at commit 0.
    let version = offers.iter().min().and_then(|v| v.checked_sub(1));
    let fetched = version.map(|v| ck.pull(source, v, fetch_timeout));
    if let Some(reason) = fetched.as_ref().and_then(|f| f.miss_reason()) {
        ctx.events.record(me, EventKind::RestoreMiss { stage: MissStage::Fetch, reason });
    }
    let commit = version.map_or(0, |v| v * iters_per_version);
    let [low, high] = frontier_vote(commit, &ctx.standing(&rescues));
    let hit = fetched.as_ref().is_none_or(|f| f.is_hit());
    let confirmed = ctx.allreduce_u64_ft(&[u64::from(hit), low, high], ReduceOp::Min)?;
    if confirmed[0] != 1 {
        return Ok(Agreed { image: None, commit: 0, frontier: 0, rescues });
    }
    let image = fetched.map(|f| rehome(ctx, ck, f.hit().expect("confirmed fetch")).data);
    let frontier = replay_frontier(commit, [[confirmed[1], confirmed[2]]]);
    Ok(Agreed { image, commit, frontier, rescues })
}

/// A rescue's one-time streams (the communication plan): restore whatever
/// the nearest tier holds of the adopted predecessor's stream `ck` and
/// re-home it. No vote — the stream is written once, in `setup`, so every
/// tier that has it has the same version.
pub fn adopt_latest(ctx: &FtCtx, ck: &Checkpointer, fetch_timeout: Duration) -> FtResult<Restored> {
    let (_, found) = lookup(ctx, |r| ck.restore_latest(r, fetch_timeout));
    Ok(rehome(ctx, ck, found.hit().ok_or(FtError::Gaspi(GaspiError::Timeout))?))
}

/// Look up the stream of [`FtCtx::restore_source`] with `look` and, on a
/// miss, those of the carriers it adopted from in turn: a rescue that died
/// before what it re-homed reached its neighbor leaves only theirs, which
/// nobody prunes any more; one that lived to commit again drained that
/// copy first. Returns the rank that hit, or the source and its miss.
fn lookup<T>(ctx: &FtCtx, look: impl Fn(Rank) -> RestoreOutcome<T>) -> (Rank, RestoreOutcome<T>) {
    let (plan, source) = (ctx.plan(), ctx.restore_source());
    let first = look(source);
    if first.is_hit() {
        return (source, first);
    }
    let older = |&r: &Rank| Some(restore_source(&plan, r)).filter(|&p| p != r);
    let hit =
        std::iter::successors(older(&source), older).map(|r| (r, look(r))).find(|h| h.1.is_hit());
    hit.unwrap_or((source, first))
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
        assert_eq!(restore_source(&p1, 4), 2);
        // Chained: rank2 → rescue4 (epoch 1); rank4 → rescue5, the pool's
        // next (epoch 2).
        let p2 = p1.after_failures(&layout, &[4], None);
        assert_eq!(restore_source(&p2, 5), 4);
        // 4 is dead; if asked (it isn't), it would still resolve to 2.
        assert_eq!(restore_source(&p2, 4), 2);
        // A dead idle adopts nobody and is adopted by nobody.
        let p3 = p2.after_failures(&layout, &[6], None);
        assert_eq!(restore_source(&p3, 3), 3);
    }
}
