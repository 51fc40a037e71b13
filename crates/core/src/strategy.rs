//! Recovery: one checkpointed mechanism with two codes.
//!
//! The paper's recovery (§IV-E, §V) is one mechanism: every `k` steps
//! place a redundant copy of the exported state; after a failure agree on
//! a version, rebuild it, and redo the rest. [`Checkpointed`] is that
//! mechanism, and its redundancy is one of two codes:
//!
//! - a **neighbor copy**: the state is committed into a checkpoint stream,
//!   which copies it to the neighbor node, and restored with
//!   [`consistent_restore`];
//! - **striped XOR parity** ([`crate::stripe`]): each rank deals one stripe
//!   of its state to every peer and XORs the stripes it is dealt into the
//!   parity stripe it owns, `B/(n−1)` bytes for a `B`-byte state; one lost
//!   rank's state is decoded from the survivors, bit-exact, because XOR is
//!   order-independent.
//!
//! The three [`StrategyKind`]s are presets of it:
//!
//! | preset | code | every | window | resume point |
//! |---|---|---|---|---|
//! | `CheckpointRestart` | neighbor copy, the app's `state_stream` | `checkpoint_every` | the stream's | the survivors' common frontier, which only the rescue replays to from the last landed commit; the commit itself after a straddle or a log gap |
//! | `Replicated` | `CheckpointRestart` at interval 1 | 1 | the stream's | the last commit, the failure frontier |
//! | `Abft` | striped parity | 1 | 2 | failure frontier |
//!
//! **The drain rule**: a copy job drains its stream one step before each
//! commit (at interval 1, right after it), so every member's newest copy
//! has landed before the step that lets the group commit the next version;
//! with a two-version window, a survivor one commit ahead has then pruned
//! nothing that a rescue can offer. The parity preset is diskless
//! checkpointing with a parity code, not algorithm-based fault tolerance
//! in Bosilca et al.'s sense (arXiv:0806.3121), where checksums are carried
//! through the algorithm's own operations.
//!
//! The driver calls [`Checkpointed::prepare`] after every iteration and
//! [`Checkpointed::restore`] after a rebuild. Recovery is one protocol for
//! both codes: one vote of a slot per app rank, one [`Agreed`] state
//! (commit 0, the initial state, is the fresh start), one install on every
//! member or, past it, on the rescues alone, who replay to the survivors'
//! frontier. The application only exports and installs state, through the
//! [`FtApp`] hooks `export_state` / `load_state` / `reset_state` (plus
//! `state_stream` for the neighbor copy).

use std::collections::VecDeque;

use ft_checkpoint::CopyPolicy;

use crate::ckpt::{consistent_restore, vote, Agreed, Votes};
use crate::driver::{FtApp, FtCtx};
use crate::error::{FtError, FtResult};
use crate::replay::{resume, ReplayLog};
use crate::stripe;

/// Strategy selection, carried by [`FtConfig`](crate::driver::FtConfig):
/// a preset of [`Checkpointed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// The paper's model: interval checkpoints + group-consistent
    /// rollback (behavior-preserving default).
    #[default]
    CheckpointRestart,
    /// Diskless checkpointing with a striped XOR-parity code every step;
    /// reconstruction instead of rollback.
    Abft,
    /// Checkpoint/restart at interval 1: a neighbor copy of every step,
    /// landed before the next one.
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
}

/// Generations the parity code keeps: a rank leaves the exchange inside
/// `prepare` only after every peer has entered it, so survivors straddle
/// at most two adjacent generations and the group minimum is always in
/// everyone's window.
const PARITY_HISTORY: usize = 2;

/// One encoded generation: this rank's exported state and the parity
/// stripe it owns over its peers' states (see [`crate::stripe`]).
#[derive(Debug)]
struct Generation {
    iter: u64,
    block: Vec<u8>,
    parity: Vec<u8>,
}

/// Where the redundant copy of the state goes.
enum Code {
    /// The app's `state_stream` copies each version to the neighbor node.
    NeighborCopy,
    /// Striped XOR parity over the worker group, the newest
    /// [`PARITY_HISTORY`] generations. A single lost rank's state is
    /// decoded with no rollback and no redo, and the rescue leaves
    /// `restore` holding both the block and the parity stripe of the rank
    /// it replaces, so the code is whole again before the next step. Two
    /// simultaneous failures exceed the code: a collective fresh start.
    StripedParity { history: VecDeque<Generation> },
}

/// The recovery mechanism: every `every` completed iterations (never, at
/// 0) place a redundant copy of the exported state under `code`; after a
/// failure bring the group back to one agreed copy. One instance exists
/// per worker/rescue rank; all members of a job run the same preset (both
/// `prepare` and `restore` are collective).
pub struct Checkpointed {
    code: Code,
    every: u64,
}

/// A reconstruction input that does not decode (a bug or a corrupt frame,
/// never a legal failure schedule).
const UNDECODABLE: FtError = FtError::Unsupported("abft reconstruction");

impl Checkpointed {
    /// The per-rank instance of the `kind` preset. A copy job at an interval
    /// past 1 (every commit restarts the log) that commits before the job
    /// ends also sizes the replay log, before `setup` or a rescue can log.
    pub fn new(kind: StrategyKind, ctx: &FtCtx) -> Self {
        let (code, every) = match kind {
            StrategyKind::CheckpointRestart => (Code::NeighborCopy, ctx.cfg.checkpoint_every),
            StrategyKind::Replicated => (Code::NeighborCopy, 1),
            StrategyKind::Abft => (Code::StripedParity { history: VecDeque::new() }, 1),
        };
        if matches!(code, Code::NeighborCopy) && 1 < every && every < ctx.cfg.max_iters {
            *ctx.log.borrow_mut() = ReplayLog::new(every);
        }
        Self { code, every }
    }

    /// Called after every completed iteration (`iter` iterations done),
    /// before the failure-free path continues: the steady-state cost. The
    /// copy drains one step before each commit (the drain rule, module doc).
    pub fn prepare<A: FtApp>(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        // `iter` ≥ 1, and only 0 is a multiple of 0: interval 0 never commits.
        let at = |i: u64| i.is_multiple_of(self.every);
        let (commit, drain) = (at(iter), at(iter + 1));
        let export = || app.export_state(ctx, iter)?.ok_or(FtError::Unsupported("export_state"));
        match &mut self.code {
            Code::NeighborCopy if commit || drain => {
                let (ck, timeout) =
                    app.state_stream().ok_or(FtError::Unsupported("state_stream"))?;
                if commit {
                    // The *checkpoint counter* is the version: the stream
                    // prunes over consecutive versions.
                    ck.commit(iter / self.every, export()?, CopyPolicy::Replicate);
                    ctx.log.borrow_mut().restart(iter);
                    ctx.proc.injection_site("driver.checkpoint.commit");
                }
                if drain {
                    ck.drain(timeout);
                }
            }
            Code::StripedParity { history } if commit => {
                let block = export()?;
                let (me, n) = (ctx.app_rank() as usize, ctx.num_app_ranks() as usize);
                let dealt = exchange(ctx, stripe::encode(me, n, iter, &block))?;
                let parity = stripe::parity(iter, except(&dealt, &[me])).ok_or(UNDECODABLE)?;
                ctx.proc.injection_site("strategy.abft.encode");
                history.push_back(Generation { iter, block, parity });
                while history.len() > PARITY_HISTORY {
                    history.pop_front();
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Called once the recovery plan is installed ([`FtCtx::plan`]), the
    /// worker group rebuilt and the app rewired: bring every member
    /// (survivors and freshly adopted rescues) to the [`Agreed`] state of
    /// either code and return the iteration the group resumes from. A
    /// frontier past the commit leaves the survivors' live state alone and
    /// the rescues replay to it ([`crate::replay`]); otherwise every member
    /// makes exactly one `load_state`, or `reset_state` at commit 0.
    pub fn restore<A: FtApp>(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<u64> {
        let agreed = match &mut self.code {
            Code::NeighborCopy => {
                let (ck, timeout) =
                    app.state_stream().ok_or(FtError::Unsupported("state_stream"))?;
                consistent_restore(ctx, ck, timeout, self.every)?
            }
            Code::StripedParity { history } => decode(ctx, history)?,
        };
        resume(ctx, app, &agreed)
    }
}

/// One all-to-all over the worker group addressed by *application* rank:
/// `out[a]` goes to whoever carries app rank `a`, slot `a` of the result
/// is what that rank sent here. The stripe geometry is keyed this way
/// because a rescue's GASPI rank sorts elsewhere in the group than the
/// rank it replaces.
pub(crate) fn exchange(ctx: &FtCtx, out: Vec<Vec<u8>>) -> FtResult<Vec<Vec<u8>>> {
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

/// The parity code's restore: the shared [`vote`], with the minimum taken
/// over the survivors' slots; each rescue that has not restored is an
/// erasure.
fn decode(ctx: &FtCtx, history: &mut VecDeque<Generation>) -> FtResult<Agreed> {
    let (me, n) = (ctx.app_rank() as usize, ctx.num_app_ranks() as usize);
    let Votes { offers, rescues } = vote(ctx, history.back().map(|g| g.iter))?;
    let agreed = (0..).zip(&offers).filter(|(a, _)| !rescues.contains(a)).map(|(_, v)| *v).min();
    // More than one erasure exceeds the parity code; a survivor with
    // nothing encoded (or no survivor at all) leaves nothing to decode
    // from. Everyone sees the same votes, so everyone decides alike.
    let Some(gen) = agreed.and_then(|v| v.checked_sub(1)).filter(|_| rescues.len() <= 1) else {
        history.clear();
        return Ok(Agreed { image: None, commit: 0, frontier: 0, rescues });
    };
    // The generation-spread argument (`PARITY_HISTORY`): every survivor
    // that voted holds the agreed generation.
    let own = history.iter().find(|g| g.iter == gen);
    let image = match (rescues.first().map(|&a| a as usize), own) {
        // The rescue posts empties: the first hop hands it the parity
        // stripe its slot owns, the second the pieces of its block.
        (Some(lost), _) if lost == me => {
            let dealt = exchange(ctx, vec![Vec::new(); n])?;
            let parity = stripe::parity(gen, except(&dealt, &[me])).ok_or(UNDECODABLE)?;
            let pieces = exchange(ctx, vec![Vec::new(); n])?;
            let block = stripe::assemble(me, n, gen, &pieces).ok_or(UNDECODABLE)?;
            *history = VecDeque::from([Generation { iter: gen, block: block.clone(), parity }]);
            block
        }
        // No erasure to decode (the failure was replaced without
        // adoption, e.g. a rescue that had already restored): survivors
        // just re-align to the agreed generation.
        (None, Some(g)) => g.block.clone(),
        // Survivor, two hops. First everyone deals its stripes of the
        // agreed generation again: an owner XORs its parity with what the
        // other survivors dealt it, which leaves the lost rank's stripe.
        // Then it forwards that one stripe to the rescue.
        (Some(lost), Some(g)) => {
            let dealt = exchange(ctx, stripe::encode(me, n, gen, &g.block))?;
            let piece = stripe::lost_piece(&g.parity, gen, except(&dealt, &[me, lost]))
                .ok_or(UNDECODABLE)?;
            let mut forward = vec![Vec::new(); n];
            forward[lost] = piece;
            exchange(ctx, forward)?;
            g.block.clone()
        }
        (_, None) => return Err(FtError::Unsupported("abft generation")),
    };
    // Drop generations newer than the agreed one: they are stale relative
    // to the rolled-to state.
    history.retain(|g| g.iter <= gen);
    Ok(Agreed { image: Some(image), commit: gen, frontier: gen, rescues })
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
