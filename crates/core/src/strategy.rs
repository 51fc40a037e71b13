//! Pluggable recovery strategies.
//!
//! The paper's recovery model is checkpoint/restart: commit a consistent
//! checkpoint every N iterations, and after a failure vote the group back
//! to the newest version everyone can fetch, then redo the lost work.
//! This module makes that model one of three behind the same detector and
//! group-reconstruction machinery:
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
//! step and a *designated shadow* spare adopts a failed rank at the
//! frontier generation instead of an interval checkpoint.
//!
//! The driver calls the strategy at two points: [`RecoveryStrategy::
//! prepare`] after every completed iteration, and [`RecoveryStrategy::
//! restore`] after a recovery plan is installed, the group rebuilt and the
//! app rewired. The strategy owns cadence, sink and resume rule; the
//! application only exports and installs state, through the [`FtApp`]
//! hooks `export_state` / `load_state` / `reset_state` (plus
//! `state_stream`, the sink [`CheckpointRestart`] commits into).

use std::collections::VecDeque;
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy, Restored, Wire};

use crate::ckpt::consistent_restore;
use crate::driver::{FtApp, FtCtx};
use crate::error::{FtError, FtResult};
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
    /// Called after every completed iteration (`iter` iterations done),
    /// *before* the failure-free path continues. This is where a strategy
    /// pays its steady-state cost: interval checkpoints, parity encoding,
    /// replica pushes.
    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()>;

    /// Called once the recovery plan is installed ([`FtCtx::plan`]), the
    /// worker group rebuilt and the app rewired: bring every member
    /// (survivors and freshly adopted rescues) to one consistent state —
    /// exactly one `load_state` or `reset_state` on each — and decide
    /// where computation resumes.
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

/// Install what [`consistent_restore`] agreed on: the restored blob, or
/// the initial state on the collective fresh-start decision.
fn install<A: FtApp>(
    ctx: &FtCtx,
    app: &mut A,
    restored: Option<Restored>,
) -> FtResult<RestoreDecision> {
    match restored {
        Some(r) => Ok(RestoreDecision::Resume { iter: app.load_state(ctx, &r.data)? }),
        None => {
            app.reset_state(ctx)?;
            Ok(RestoreDecision::Fresh)
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
    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        let every = ctx.cfg.checkpoint_every;
        if every > 0 && iter.is_multiple_of(every) {
            let blob = app.export_state(ctx, iter)?.ok_or(FtError::Unsupported("export_state"))?;
            let (ck, _) = app.state_stream().ok_or(FtError::Unsupported("state_stream"))?;
            // The *checkpoint counter* is the version: the stream prunes
            // over consecutive versions.
            ck.commit(iter / every, blob, CopyPolicy::Replicate);
            ctx.proc.injection_site("driver.checkpoint.commit");
        }
        Ok(())
    }

    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision> {
        let restored = {
            let (ck, timeout) = app.state_stream().ok_or(FtError::Unsupported("state_stream"))?;
            consistent_restore(ctx, ck, timeout)?
        };
        install(ctx, app, restored)
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
        let votes = exchange(ctx, vec![vote.to_bytes(); n])?
            .iter()
            .enumerate()
            .map(|(a, v)| {
                if a == me {
                    return Ok(vote);
                }
                u64::from_bytes(v).map_err(|_| UNDECODABLE)
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

/// Checkpoint-stream tag of the replication mirror, distinct from any
/// application tag.
pub const REPLICA_TAG: u32 = 0x7F00_0000;

/// Generations the mirror keeps per tier. The replica push is not a
/// collective, so survivors can straddle more than two generations; the
/// group minimum must still be in everyone's local window.
const REPLICA_HISTORY: u64 = 4;

/// Replication-based recovery: every step each rank pushes its encoded
/// state into a dedicated mirror checkpoint stream (its hot standby),
/// synchronously. After a failure the designated shadow spare adopts the
/// lost rank and the group runs the same vote-and-confirm restore as
/// checkpoint/restart, over the mirror: the rescue fetches from the failed
/// rank's standby, the survivors re-align from their local tier — at the
/// frontier generation, so no interval is redone.
pub struct Replicated {
    mirror: Checkpointer,
    fetch_timeout: Duration,
}

impl Replicated {
    /// Build the per-rank mirror stream.
    pub fn new(ctx: &FtCtx) -> Self {
        let cfg = CheckpointerConfig {
            keep_versions: REPLICA_HISTORY,
            ..CheckpointerConfig::for_tag(REPLICA_TAG)
        };
        Self {
            mirror: Checkpointer::new(&ctx.proc, cfg, None),
            fetch_timeout: Duration::from_secs(5),
        }
    }
}

impl<A: FtApp> RecoveryStrategy<A> for Replicated {
    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        let blob = app.export_state(ctx, iter)?.ok_or(FtError::Unsupported("export_state"))?;
        ctx.proc.injection_site("strategy.replica.push");
        self.mirror.commit(iter, blob, CopyPolicy::Replicate);
        // Synchronous push: the standby must hold this generation before
        // the next step can fail, or takeover would silently regress.
        self.mirror.drain(self.fetch_timeout);
        Ok(())
    }

    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision> {
        self.mirror.refresh_failed(&ctx.plan().failed);
        let restored = consistent_restore(ctx, &self.mirror, self.fetch_timeout)?;
        // A rescue just re-homed the adopted generation: like every push,
        // it must reach the new standby before the next step can fail.
        // (Nothing is pending on a survivor.)
        self.mirror.drain(self.fetch_timeout);
        install(ctx, app, restored)
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
