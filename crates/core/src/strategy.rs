//! Pluggable recovery strategies (ROADMAP item 4).
//!
//! The paper's recovery model is checkpoint/restart: commit a consistent
//! checkpoint every N iterations, and after a failure vote the group back
//! to the newest version everyone can fetch, then redo the lost work.
//! That model used to be hardwired into the driver; this module turns the
//! recovery seam into a first-class API so three models can be compared
//! head-to-head under the same detector and group-reconstruction
//! machinery:
//!
//! | Strategy | steady-state cost | failure cost |
//! |---|---|---|
//! | [`CheckpointRestart`] | one commit per interval | rollback + redo of the lost interval |
//! | [`Abft`] | one striped exchange per step; parity stripe `B/(n−1)` per rank | a vote and two exchange hops; **no rollback, no redo** |
//! | [`Replicated`] | one replica push per step | fetch one blob from the mirror stream; no redo |
//!
//! [`Abft`] follows the algorithm-based fault-tolerance line of Bosilca
//! et al. (arXiv:0806.3121): each completed iteration every rank deals one
//! stripe of its encoded state to every peer and XORs the stripes it is
//! dealt into the one parity stripe it owns ([`crate::stripe`]). After a
//! single failure each survivor XORs its parity stripe with the other
//! survivors' stripes — the result *is* a stripe of the failed rank's
//! state, bit-exact, because XOR is order-independent (no reduction-order
//! rounding). [`Replicated`] approximates replication-based FT (FTHP-MPI,
//! arXiv:2504.09989): state is pushed to a hot-standby mirror stream every
//! step and a *designated shadow* spare adopts a failed rank without a
//! group-wide restore vote over checkpoint versions.
//!
//! The driver calls the strategy at three points: [`RecoveryStrategy::
//! prepare`] after every completed iteration, [`RecoveryStrategy::
//! on_failure`] once a recovery plan is adopted, and [`RecoveryStrategy::
//! restore`] after the group is rebuilt and the app rewired. Applications
//! plug in through four small [`FtApp`] hooks
//! (`state_stream` / `export_state` / `load_state` / `reset_state`)
//! instead of hand-rolling the restore loop.

use std::collections::VecDeque;
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy};
use ft_gaspi::ReduceOp;

use crate::driver::{FtApp, FtCtx};
use crate::error::{FtError, FtResult};
use crate::events::EventKind;
use crate::plan::RecoveryPlan;
use crate::stripe;

/// What a strategy decided after a recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreDecision {
    /// Resume computing from this iteration (state already installed).
    Resume {
        /// First iteration to (re-)execute.
        iter: u64,
    },
    /// Collective fresh start from iteration 0: at least one member had
    /// nothing usable, and divergence would be worse than redone work.
    Fresh,
}

impl RestoreDecision {
    /// The iteration the worker loop continues from.
    pub fn resume_iter(self) -> u64 {
        match self {
            RestoreDecision::Resume { iter } => iter,
            RestoreDecision::Fresh => 0,
        }
    }
}

/// A pluggable recovery model, driven by the worker loop.
///
/// One instance exists per worker/rescue rank; all members of a job must
/// run the *same* strategy (the `prepare`/`restore` protocols are
/// collective).
pub trait RecoveryStrategy<A: FtApp> {
    /// Strategy name as it appears in reports.
    fn name(&self) -> &'static str;

    /// Called after every completed iteration (`iter` iterations done),
    /// *before* the failure-free path continues. This is where a strategy
    /// pays its steady-state cost: interval checkpoints, parity encoding,
    /// replica pushes.
    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()>;

    /// Called once a recovery plan is adopted, before `restore`: refresh
    /// strategy-owned resources (mirror streams, neighbor lists) for the
    /// new rank map.
    fn on_failure(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()>;

    /// Called after the worker group is rebuilt and the app rewired:
    /// bring every member (survivors and freshly adopted rescues) to one
    /// consistent state and decide where computation resumes.
    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision>;
}

/// Strategy selection, carried by [`FtConfig`](crate::driver::FtConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// The paper's model: interval checkpoints + group-consistent
    /// rollback (behavior-preserving default).
    #[default]
    CheckpointRestart,
    /// Checksum (XOR-parity) encoding; reconstruction instead of
    /// rollback.
    Abft,
    /// Hot-standby replication onto designated shadow spares.
    Replicated,
}

impl StrategyKind {
    /// Name as it appears in reports and config surfaces.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::CheckpointRestart => "checkpoint-restart",
            StrategyKind::Abft => "abft",
            StrategyKind::Replicated => "replicated",
        }
    }

    /// Construct the per-rank strategy instance for an `A`-typed job.
    pub fn build<A: FtApp>(self, ctx: &FtCtx) -> Box<dyn RecoveryStrategy<A>> {
        match self {
            StrategyKind::CheckpointRestart => Box::new(CheckpointRestart),
            StrategyKind::Abft => Box::new(Abft::new()),
            StrategyKind::Replicated => Box::new(Replicated::new(ctx)),
        }
    }
}

/// The driver-level restore helper every app used to hand-roll: agree on
/// the newest group-consistent checkpoint through the app's
/// [`state_stream`](crate::driver::FtApp::state_stream), install it via
/// [`load_state`](crate::driver::FtApp::load_state), or
/// [`reset_state`](crate::driver::FtApp::reset_state) on the collective
/// fresh-start vote. Returns the iteration to resume from.
pub fn checkpoint_restore<A: FtApp + ?Sized>(app: &mut A, ctx: &FtCtx) -> FtResult<u64> {
    let restored = {
        let (ck, timeout) = app.state_stream().ok_or(FtError::Unsupported("state_stream"))?;
        crate::ckpt::consistent_restore(ctx, ck, ctx.restore_source(), timeout)?
    };
    match restored {
        Some(r) => app.load_state(ctx, &r.data),
        None => {
            app.reset_state(ctx)?;
            Ok(0)
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint/restart
// ---------------------------------------------------------------------

/// The paper's recovery model, verbatim: checkpoint every
/// `checkpoint_every` iterations, restore by group vote, redo the lost
/// interval.
#[derive(Debug, Default)]
pub struct CheckpointRestart;

impl<A: FtApp> RecoveryStrategy<A> for CheckpointRestart {
    fn name(&self) -> &'static str {
        "checkpoint-restart"
    }

    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        if ctx.cfg.checkpoint_every > 0 && iter.is_multiple_of(ctx.cfg.checkpoint_every) {
            app.checkpoint(ctx, iter)?;
            ctx.proc.injection_site("driver.checkpoint.commit");
            let version = iter / ctx.cfg.checkpoint_every;
            ctx.events.record(ctx.proc.rank(), EventKind::Checkpoint { version, iter });
        }
        Ok(())
    }

    fn on_failure(&mut self, _ctx: &FtCtx, _plan: &RecoveryPlan) -> FtResult<()> {
        Ok(())
    }

    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision> {
        Ok(RestoreDecision::Resume { iter: app.restore(ctx)? })
    }
}

// ---------------------------------------------------------------------
// ABFT: striped XOR-parity checksum encoding
// ---------------------------------------------------------------------

/// One encoded generation: this rank's exported state and the parity
/// stripe it owns over its peers' states (see [`crate::stripe`]).
#[derive(Debug)]
struct Generation {
    iter: u64,
    block: Vec<u8>,
    parity: Vec<u8>,
}

/// Checksum-encoded recovery: every step each rank deals one stripe of
/// its exported state to every peer and XORs the stripes it is dealt into
/// the parity stripe it owns — one all-to-all, `B / (n − 1)` bytes of
/// parity per rank for a `B`-byte state. A single lost rank's state is
/// reconstructed from the survivors' blocks and parity stripes — bit-exact,
/// with no rollback and no redo — and the rescue leaves `restore` holding
/// both the block and the parity stripe of the rank it replaces, so the
/// code is whole again before the next step.
///
/// Two generations are kept: a rank leaves the exchange inside `prepare`
/// only after every peer has entered it, so survivors can only ever
/// straddle *adjacent* generations and the group minimum is always in
/// everyone's window. More than one simultaneous failure exceeds the
/// single-erasure code and degrades to a collective fresh start (still
/// correct, just slower).
#[derive(Debug, Default)]
pub struct Abft {
    history: VecDeque<Generation>,
}

impl Abft {
    /// A strategy instance with empty history.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A reconstruction input that does not decode (a bug or a corrupt frame,
/// never a legal failure schedule).
const UNDECODABLE: FtError = FtError::Unsupported("abft reconstruction");

/// One all-to-all over the worker group addressed by *application* rank:
/// `out[a]` goes to whoever carries app rank `a`, slot `a` of the result
/// is what that rank sent here. The stripe geometry is keyed this way
/// because a rescue's GASPI rank sorts elsewhere in the group than the
/// rank it replaces.
fn exchange(ctx: &FtCtx, out: Vec<Vec<u8>>) -> FtResult<Vec<Vec<u8>>> {
    let members = ctx.proc.group_members(ctx.group())?;
    // member_of[a]: where app rank `a`'s carrier sits in the group.
    let member_of = (0..ctx.num_app_ranks())
        .map(|app| members.binary_search(&ctx.gaspi_of(app)))
        .collect::<Result<Vec<usize>, _>>()
        .map_err(|_| FtError::Unsupported("abft worker group"))?;
    let mut by_member = vec![Vec::new(); members.len()];
    for (msg, &m) in out.into_iter().zip(&member_of) {
        by_member[m] = msg;
    }
    let mut got = ctx.alltoall_ft(&by_member)?;
    Ok(member_of.iter().map(|&m| std::mem::take(&mut got[m])).collect())
}

/// Every slot of `msgs` but the ones in `skip`.
fn except<'a>(msgs: &'a [Vec<u8>], skip: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
    msgs.iter().enumerate().filter(|(i, _)| !skip.contains(i)).map(|(_, m)| m.as_slice())
}

impl<A: FtApp> RecoveryStrategy<A> for Abft {
    fn name(&self) -> &'static str {
        "abft"
    }

    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        let block = app.export_state(ctx, iter)?.ok_or(FtError::Unsupported("export_state"))?;
        let (me, n) = (ctx.app_rank() as usize, ctx.num_app_ranks() as usize);
        let dealt = exchange(ctx, stripe::encode(me, n, iter, &block))?;
        let parity = stripe::parity(iter, except(&dealt, &[me])).ok_or(UNDECODABLE)?;
        ctx.proc.injection_site("strategy.abft.encode");
        self.history.push_back(Generation { iter, block, parity });
        while self.history.len() > 2 {
            self.history.pop_front();
        }
        Ok(())
    }

    fn on_failure(&mut self, _ctx: &FtCtx, _plan: &RecoveryPlan) -> FtResult<()> {
        Ok(())
    }

    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision> {
        let (me, n) = (ctx.app_rank() as usize, ctx.num_app_ranks() as usize);
        let adopted = ctx.restore_source() != ctx.proc.rank();
        // The vote, one hop: survivors offer their newest encoded
        // generation (+1 so 0 means "nothing"), adopted rescues abstain
        // with MAX — which also tells everyone who needs reconstruction.
        let vote = match (adopted, self.history.back()) {
            (true, _) => u64::MAX,
            (false, Some(g)) => g.iter + 1,
            (false, None) => 0,
        };
        let votes = exchange(ctx, vec![vote.to_le_bytes().to_vec(); n])?
            .iter()
            .enumerate()
            .map(|(a, v)| {
                if a == me {
                    return Ok(vote);
                }
                v.as_slice().try_into().map(u64::from_le_bytes).map_err(|_| UNDECODABLE)
            })
            .collect::<FtResult<Vec<u64>>>()?;
        let erased: Vec<usize> = (0..n).filter(|&a| votes[a] == u64::MAX).collect();
        let agreed = votes.iter().copied().filter(|&v| v != u64::MAX).min().unwrap_or(0);
        // More than one erasure exceeds the parity code; a survivor with
        // nothing encoded (or no survivor at all) leaves nothing to decode
        // from. Everyone sees the same votes, so everyone decides alike.
        if erased.len() > 1 || agreed == 0 {
            self.history.clear();
            app.reset_state(ctx)?;
            return Ok(RestoreDecision::Fresh);
        }
        let gen = agreed - 1;
        // The generation-spread argument (see the type docs): every
        // survivor that voted holds the agreed generation.
        let own = self.history.iter().find(|g| g.iter == gen);
        match (erased.first(), own) {
            // The rescue posts empties: the first hop hands it the parity
            // stripe its slot owns, the second the pieces of its block.
            (Some(&lost), _) if lost == me => {
                let dealt = exchange(ctx, vec![Vec::new(); n])?;
                let parity = stripe::parity(gen, except(&dealt, &[me])).ok_or(UNDECODABLE)?;
                let pieces = exchange(ctx, vec![Vec::new(); n])?;
                let block = stripe::assemble(me, n, gen, &pieces).ok_or(UNDECODABLE)?;
                app.load_state(ctx, &block)?;
                self.history = VecDeque::from([Generation { iter: gen, block, parity }]);
            }
            // No erasure to decode (the failure was replaced without
            // adoption, e.g. a rescue that had already restored):
            // survivors just re-align to the agreed generation.
            (None, Some(g)) => {
                app.load_state(ctx, &g.block)?;
            }
            // Survivor, two hops. First everyone deals its stripes of the
            // agreed generation again: an owner XORs its parity with what
            // the other survivors dealt it, which leaves the lost rank's
            // stripe. Then it forwards that one stripe to the rescue.
            (Some(&lost), Some(g)) => {
                let dealt = exchange(ctx, stripe::encode(me, n, gen, &g.block))?;
                let piece = stripe::lost_piece(&g.parity, gen, except(&dealt, &[me, lost]))
                    .ok_or(UNDECODABLE)?;
                let mut forward = vec![Vec::new(); n];
                forward[lost] = piece;
                exchange(ctx, forward)?;
                app.load_state(ctx, &g.block)?;
            }
            (_, None) => return Err(FtError::Unsupported("abft generation")),
        }
        // Drop generations newer than the agreed one: they are stale
        // relative to the rolled-to state.
        self.history.retain(|g| g.iter <= gen);
        Ok(RestoreDecision::Resume { iter: gen })
    }
}

// ---------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------

/// Checkpoint-stream tag of the replication mirror. Distinct from any
/// application tag; the high bit stays clear (it is reserved by the
/// chunk-store wire format).
pub const REPLICA_TAG: u32 = 0x7F00_0000;

/// How many recent generations each rank keeps locally (survivors restore
/// from memory, without touching the mirror stream).
const REPLICA_HISTORY: usize = 4;

/// Replication-based recovery: every step each rank pushes its encoded
/// state into a dedicated mirror checkpoint stream (its hot standby) and
/// keeps a short in-memory history. After a failure the designated shadow
/// spare adopts the lost rank, fetches the newest agreed generation from
/// the mirror, and the survivors re-align from local memory — no interval
/// rollback, no group-wide checkpoint vote on the app's own stream.
pub struct Replicated {
    mirror: Checkpointer,
    fetch_timeout: Duration,
    history: VecDeque<(u64, Vec<u8>)>,
}

impl Replicated {
    /// Build the per-rank mirror stream.
    pub fn new(ctx: &FtCtx) -> Self {
        let cfg = CheckpointerConfig::for_tag(REPLICA_TAG);
        Self {
            mirror: Checkpointer::new(&ctx.proc, cfg, None),
            fetch_timeout: Duration::from_secs(5),
            history: VecDeque::new(),
        }
    }
}

impl<A: FtApp> RecoveryStrategy<A> for Replicated {
    fn name(&self) -> &'static str {
        "replicated"
    }

    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        let blob = app.export_state(ctx, iter)?.ok_or(FtError::Unsupported("export_state"))?;
        ctx.proc.injection_site("strategy.replica.push");
        self.mirror.commit(iter, blob.clone(), CopyPolicy::Replicate);
        // Synchronous push: the standby must hold this generation before
        // the next step can fail, or takeover would silently regress.
        self.mirror.drain(self.fetch_timeout);
        self.history.push_back((iter, blob));
        while self.history.len() > REPLICA_HISTORY {
            self.history.pop_front();
        }
        Ok(())
    }

    fn on_failure(&mut self, _ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.mirror.refresh_failed(&plan.failed);
        Ok(())
    }

    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision> {
        let me = ctx.proc.rank();
        let source = ctx.restore_source();
        let adopted = source != me;
        // Vote: survivors offer their newest local generation, the rescue
        // offers what the failed rank's mirror still answers for.
        let newest = if adopted {
            self.mirror.latest_restorable(source, self.fetch_timeout).hit()
        } else {
            self.history.back().map(|(i, _)| *i)
        };
        let vote = newest.map_or(0, |i| i + 1);
        let agreed = ctx.allreduce_u64_ft(&[vote], ReduceOp::Min)?[0];
        if agreed == 0 {
            self.history.clear();
            app.reset_state(ctx)?;
            return Ok(RestoreDecision::Fresh);
        }
        let gen = agreed - 1;
        // Confirm: unlike `prepare` in the ABFT strategy, the replica
        // push is not a collective, so survivors can be more than one
        // generation apart — confirm everyone can actually produce the
        // agreed generation before installing anything.
        let fetched = if adopted {
            self.mirror.restore_exact(source, gen, self.fetch_timeout).hit().map(|r| r.data)
        } else {
            self.history.iter().find(|(i, _)| *i == gen).map(|(_, b)| b.clone())
        };
        let ok = u64::from(fetched.is_some());
        if ctx.allreduce_u64_ft(&[ok], ReduceOp::Min)?[0] == 0 {
            self.history.clear();
            app.reset_state(ctx)?;
            return Ok(RestoreDecision::Fresh);
        }
        let blob = fetched.expect("confirmed fetch");
        if adopted {
            // Re-home the adopted generation under this rank so the next
            // failure resolves against the new standby directly.
            self.mirror.commit(gen, blob.clone(), CopyPolicy::Replicate);
            self.mirror.drain(self.fetch_timeout);
        }
        app.load_state(ctx, &blob)?;
        self.history.retain(|(i, _)| *i <= gen);
        if adopted {
            self.history.push_back((gen, blob));
        }
        Ok(RestoreDecision::Resume { iter: gen })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_kind_names() {
        assert_eq!(StrategyKind::default(), StrategyKind::CheckpointRestart);
        assert_eq!(StrategyKind::CheckpointRestart.name(), "checkpoint-restart");
        assert_eq!(StrategyKind::Abft.name(), "abft");
        assert_eq!(StrategyKind::Replicated.name(), "replicated");
    }
}
