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
//! | [`Abft`] | one XOR-parity allreduce per step | one parity allreduce; **no rollback, no redo** |
//! | [`Replicated`] | one replica push per step | fetch one blob from the mirror stream; no redo |
//!
//! [`Abft`] follows the algorithm-based fault-tolerance line of Bosilca
//! et al. (arXiv:0806.3121): each completed iteration the group XORs the
//! bit patterns of everyone's encoded state into a parity block that every
//! member keeps. After a single failure the survivors XOR their saved
//! blocks with the parity — the result *is* the failed rank's state,
//! bit-exact, because XOR is order-independent (no reduction-order
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
use ft_gaspi::{ReduceOp, ALLREDUCE_MAX_ELEMS};

use crate::driver::{FtApp, FtCtx};
use crate::error::{FtError, FtResult};
use crate::events::EventKind;
use crate::plan::RecoveryPlan;

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
// ABFT: XOR-parity checksum encoding
// ---------------------------------------------------------------------

/// One encoded generation: this rank's padded state block and the group
/// parity, both `len` `u64` words.
#[derive(Debug)]
struct Generation {
    iter: u64,
    block: Vec<u64>,
    parity: Vec<u64>,
}

/// Checksum-encoded recovery: every step the group XOR-reduces the bit
/// patterns of everyone's encoded state into a parity block; a single
/// lost rank's state is reconstructed from the survivors' blocks and the
/// parity — bit-exact, with no rollback and no redo.
///
/// Two generations are kept: the parity allreduce inside `prepare` is a
/// synchronization point, so survivors can only ever straddle *adjacent*
/// generations and the group minimum is always in everyone's window.
/// More than one simultaneous failure exceeds the single-erasure code and
/// degrades to a collective fresh start (still correct, just slower).
#[derive(Debug, Default)]
pub struct Abft {
    history: VecDeque<Generation>,
}

impl Abft {
    /// A strategy instance with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    fn generation(&self, iter: u64) -> Option<&Generation> {
        self.history.iter().find(|g| g.iter == iter)
    }
}

/// Pack a state blob into XOR-able `u64` words: `[byte_len ∥ bytes ∥
/// zero-pad]`. The length header makes the padded block self-describing,
/// so reconstruction can recover the exact blob even after padding to the
/// group-wide maximum.
fn pack_block(blob: &[u8]) -> Vec<u64> {
    let mut words = Vec::with_capacity(1 + blob.len().div_ceil(8));
    words.push(blob.len() as u64);
    for chunk in blob.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(b));
    }
    words
}

/// Inverse of [`pack_block`]; `None` when the length header is torn.
fn unpack_block(words: &[u64]) -> Option<Vec<u8>> {
    let len = *words.first()? as usize;
    if len > (words.len() - 1) * 8 {
        return None;
    }
    let mut blob: Vec<u8> = words[1..].iter().flat_map(|w| w.to_le_bytes()).collect();
    blob.truncate(len);
    Some(blob)
}

/// Group XOR-allreduce of an arbitrary-length word block (chunked under
/// the GASPI 255-element collective cap).
fn xor_allreduce(ctx: &FtCtx, words: &[u64]) -> FtResult<Vec<u64>> {
    let mut out = Vec::with_capacity(words.len());
    for chunk in words.chunks(ALLREDUCE_MAX_ELEMS) {
        out.extend(ctx.allreduce_u64_ft(chunk, ReduceOp::BitXor)?);
    }
    Ok(out)
}

impl<A: FtApp> RecoveryStrategy<A> for Abft {
    fn name(&self) -> &'static str {
        "abft"
    }

    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        let blob = app.export_state(ctx, iter)?.ok_or(FtError::Unsupported("export_state"))?;
        let mut block = pack_block(&blob);
        // State sizes may differ across ranks; agree on a common padded
        // width so the parity covers every block end to end.
        let width = ctx.allreduce_u64_ft(&[block.len() as u64], ReduceOp::Max)?[0] as usize;
        block.resize(width, 0);
        let parity = xor_allreduce(ctx, &block)?;
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
        let adopted = ctx.restore_source() != ctx.proc.rank();
        // One Min-agreement round carrying two values:
        //   [0] the generation vote — survivors offer their newest
        //       encoded generation (+1 so 0 means "nothing"), adopted
        //       rescues abstain with MAX;
        //   [1] the designated-parity bid — the lowest surviving app
        //       rank will fold the parity into its contribution.
        let newest = self.history.back().map(|g| g.iter);
        let vote = if adopted { u64::MAX } else { newest.map_or(0, |i| i + 1) };
        let bid = if adopted || newest.is_none() { u64::MAX } else { u64::from(ctx.app_rank()) };
        let agreed = ctx.allreduce_u64_ft(&[vote, bid], ReduceOp::Min)?;
        let (vote, designated) = (agreed[0], agreed[1]);
        if vote == 0 || vote == u64::MAX || designated == u64::MAX {
            self.history.clear();
            app.reset_state(ctx)?;
            return Ok(RestoreDecision::Fresh);
        }
        let gen = vote - 1;
        // Second round, now that the generation is fixed: how many ranks
        // need reconstruction (Sum of adopted flags), and the padded width
        // of the agreed generation (Max; the rescue abstains with 0 —
        // every survivor stored the same width, agreed collectively at
        // that generation's own `prepare`). More than one erasure exceeds
        // the parity code; zero (an unreplaced failure) means the
        // survivors just re-align to the agreed generation.
        let my_width =
            if adopted { 0 } else { self.generation(gen).map_or(0, |g| g.block.len() as u64) };
        let missing = ctx.allreduce_u64_ft(&[u64::from(adopted)], ReduceOp::Sum)?[0];
        let width = ctx.allreduce_u64_ft(&[my_width], ReduceOp::Max)?[0] as usize;
        if missing > 1 || width == 0 {
            self.history.clear();
            app.reset_state(ctx)?;
            return Ok(RestoreDecision::Fresh);
        }
        // The generation-spread argument (see the type docs): every
        // survivor that voted holds the agreed generation.
        let own: Option<&Generation> = if adopted {
            None
        } else {
            Some(self.generation(gen).ok_or(FtError::Unsupported("abft generation"))?)
        };
        if missing == 1 {
            // XOR of all survivor blocks and the parity = the lost block;
            // the rescue contributes zeros and reads its state out of the
            // reduction result. The designated survivor folds the parity
            // into its *contribution only* — what it loads afterwards is
            // its own unmodified block, like every other survivor.
            let contribution: Vec<u64> = match own {
                None => vec![0; width],
                Some(g) if u64::from(ctx.app_rank()) == designated => {
                    let mut c = g.block.clone();
                    for (b, p) in c.iter_mut().zip(&g.parity) {
                        *b ^= *p;
                    }
                    c
                }
                Some(g) => g.block.clone(),
            };
            let reconstructed = xor_allreduce(ctx, &contribution)?;
            let words = match own {
                None => &reconstructed,
                Some(g) => &g.block,
            };
            let blob = unpack_block(words).ok_or(FtError::Unsupported("abft reconstruction"))?;
            app.load_state(ctx, &blob)?;
        } else {
            // No erasure to decode (the failure was replaced without
            // adoption, e.g. an FD-only failure): survivors just re-align
            // to the agreed generation.
            let g = own.ok_or(FtError::Unsupported("abft generation"))?;
            let blob = unpack_block(&g.block).ok_or(FtError::Unsupported("abft reconstruction"))?;
            app.load_state(ctx, &blob)?;
        }
        // Drop generations newer than the agreed one: they are stale
        // relative to the rolled-to state. The rescue starts empty and
        // re-syncs at the next prepare.
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
    fn block_packing_round_trips() {
        for len in [0usize, 1, 7, 8, 9, 64, 65] {
            let blob: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let mut packed = pack_block(&blob);
            packed.resize(packed.len() + 5, 0); // group padding
            assert_eq!(unpack_block(&packed).unwrap(), blob, "len {len}");
        }
    }

    #[test]
    fn torn_length_header_is_rejected() {
        assert!(unpack_block(&[]).is_none());
        assert!(unpack_block(&[9, 0]).is_none()); // claims 9 bytes, holds 8
    }

    #[test]
    fn xor_parity_reconstructs_the_missing_block() {
        let blocks: Vec<Vec<u64>> =
            (0..4u64).map(|r| pack_block(&vec![r as u8 + 1; 24 + r as usize])).collect();
        let width = blocks.iter().map(Vec::len).max().unwrap();
        let mut parity = vec![0u64; width];
        for b in &blocks {
            for (p, w) in parity.iter_mut().zip(b.iter().chain(std::iter::repeat(&0))) {
                *p ^= *w;
            }
        }
        // Reconstruct block 2 from the other three + parity.
        let mut rec = parity.clone();
        for (r, b) in blocks.iter().enumerate() {
            if r != 2 {
                for (x, w) in rec.iter_mut().zip(b.iter().chain(std::iter::repeat(&0))) {
                    *x ^= *w;
                }
            }
        }
        assert_eq!(unpack_block(&rec).unwrap(), vec![3u8; 26]);
    }

    #[test]
    fn strategy_kind_names() {
        assert_eq!(StrategyKind::default(), StrategyKind::CheckpointRestart);
        assert_eq!(StrategyKind::CheckpointRestart.name(), "checkpoint-restart");
        assert_eq!(StrategyKind::Abft.name(), "abft");
        assert_eq!(StrategyKind::Replicated.name(), "replicated");
    }
}
