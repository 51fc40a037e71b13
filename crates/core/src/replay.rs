//! Local replay: after a failure, the checkpoint/restart preset re-runs the
//! steps since the agreed commit from logged inputs instead of redoing them
//! as global steps (ARCHITECTURE.md §9).
//!
//! A Lanczos or heat step is deterministic given the halo its partners post
//! and the results of its deterministic sums, so each rank keeps a receipt
//! log of both ([`FtCtx::logged_halo`], [`FtCtx::logged_sums`]) for every
//! step since its last commit (Besta & Hoefler, arXiv:2010.09025, log
//! one-sided puts and replay them at the restarted process). A step that
//! makes any other `*_ft` call breaks the log until the next commit.

use std::ops::Range;

use ft_checkpoint::{Dec, Enc};

use crate::ckpt::{Agreed, Standing};
use crate::driver::{FtApp, FtCtx};
use crate::error::{FtError, FtResult};
use crate::events::EventKind;
use crate::strategy::exchange;

/// Replayed inputs that do not line up with the step asking for them (a
/// non-deterministic step, or a bug — never a legal failure schedule).
const DIVERGED: FtError = FtError::Unsupported("replayable step");

/// One rank's log of the steps since its last commit, and the replay
/// cursor over it.
#[derive(Debug, Default)]
pub(crate) struct ReplayLog {
    /// Steps per commit; 0 keeps no log (every preset but
    /// checkpoint/restart, and a job that never commits).
    every: u64,
    /// Iteration of the first logged step.
    start: u64,
    /// The halos the logged steps received, back to back.
    halos: Vec<f64>,
    /// The sums their reductions returned, back to back.
    sums: Vec<f64>,
    /// Per sealed step, the end of its entries in `halos` and `sums`.
    marks: Vec<(usize, usize)>,
    /// False once a step communicated outside the seams.
    whole: bool,
    in_step: bool,
    in_seam: bool,
    /// While replaying: the next unread entry of `halos` and `sums`, and
    /// the step's mark they must end at.
    cursor: Option<((usize, usize), (usize, usize))>,
    /// The halo blocks this rank receives, in halo order: the sender's app
    /// rank and the block's slots (registered by the halo layer).
    senders: Vec<(u32, Range<usize>)>,
    /// While a survivor replays: each rescue's app rank and the blocks
    /// this rank posts to it.
    kept: Vec<(u32, Vec<f64>)>,
}

impl ReplayLog {
    pub(crate) fn new(every: u64) -> Self {
        Self { every, whole: true, ..Self::default() }
    }

    /// Empty the log (keeping its storage); the next step logged is `iter`.
    pub(crate) fn restart(&mut self, iter: u64) {
        self.start = iter;
        self.halos.clear();
        self.sums.clear();
        self.marks.clear();
        self.whole = true;
    }

    /// The sealed steps a replay can be served from, if any.
    fn span(&self) -> Option<Range<u64>> {
        (self.every > 0 && self.whole).then(|| self.start..self.start + self.marks.len() as u64)
    }

    fn begin(&mut self, iter: u64) {
        if self.span().is_some_and(|s| s.end != iter) {
            self.restart(iter);
        }
        self.in_step = true;
    }

    fn end(&mut self, ok: bool) {
        self.in_step = false;
        let &(h, s) = self.marks.last().unwrap_or(&(0, 0));
        if ok && self.every > 0 && self.whole {
            if self.marks.capacity() == 0 {
                self.marks.reserve_exact(self.every as usize);
            }
            self.marks.push((self.halos.len(), self.sums.len()));
        } else {
            self.halos.truncate(h);
            self.sums.truncate(s);
        }
    }

    /// Append `src` to `log`, reserving one interval's worth up front so
    /// the steps after the first append without allocating.
    fn append(every: u64, log: &mut Vec<f64>, src: &[f64]) {
        if log.capacity() == 0 {
            log.reserve_exact(src.len() * every as usize);
        }
        log.extend_from_slice(src);
    }

    /// Serve the next `n` values of the replayed step, from `halos` or
    /// `sums`.
    fn serve(&mut self, halo: bool, n: usize) -> FtResult<&[f64]> {
        let (at, end) = self.cursor.as_mut().expect("serving outside a replay");
        let (pos, end, log) =
            if halo { (&mut at.0, end.0, &self.halos) } else { (&mut at.1, end.1, &self.sums) };
        if *pos + n > end {
            return Err(DIVERGED);
        }
        *pos += n;
        Ok(&log[*pos - n..*pos])
    }

    /// Position the cursor on step `iter`'s entries.
    fn seek(&mut self, iter: u64) -> FtResult<()> {
        let k = iter.checked_sub(self.start).ok_or(DIVERGED)? as usize;
        let end = *self.marks.get(k).ok_or(DIVERGED)?;
        let at = if k == 0 { (0, 0) } else { self.marks[k - 1] };
        self.cursor = Some((at, end));
        Ok(())
    }

    /// What a survivor hands the rescue carrying app rank `to` after its
    /// replay of `span`: the blocks it posted to it, and, from `provider`,
    /// the span's sums and where each step's sums end.
    fn handover(&mut self, to: u32, provider: bool, span: &Range<u64>) -> Vec<u8> {
        let blocks = self.kept.iter_mut().find(|(a, _)| *a == to).map(|(_, b)| std::mem::take(b));
        let mut e = Enc::new();
        e.f64s(&blocks.unwrap_or_default());
        if provider {
            let (first, last) =
                ((span.start - self.start) as usize, (span.end - self.start) as usize);
            let from = if first == 0 { 0 } else { self.marks[first - 1].1 };
            let ends: Vec<u64> =
                self.marks[first..last].iter().map(|m| (m.1 - from) as u64).collect();
            e.u64s(&ends).f64s(&self.sums[from..self.marks[last - 1].1]);
        } else {
            e.u64s(&[]).f64s(&[]);
        }
        e.finish()
    }

    /// A rescue's log of `span`, rebuilt from what its senders handed over
    /// (`got[a]` from app rank `a`; the sums from `provider`).
    fn take_over(&mut self, span: &Range<u64>, got: &[Vec<u8>], provider: u32) -> FtResult<()> {
        let decode = |a: u32| -> FtResult<(Vec<f64>, Vec<u64>, Vec<f64>)> {
            let mut d = Dec::new(got.get(a as usize).ok_or(DIVERGED)?);
            Ok((d.f64s()?, d.u64s()?, d.f64s()?))
        };
        let steps = (span.end - span.start) as usize;
        let (_, ends, sums) = decode(provider)?;
        let mut blocks = Vec::with_capacity(self.senders.len());
        for (from, slots) in &self.senders {
            blocks.push(decode(*from)?.0);
            if blocks.last().map(Vec::len) != Some(steps * slots.len()) {
                return Err(DIVERGED);
            }
        }
        let monotone = ends.windows(2).all(|w| w[0] <= w[1]);
        if ends.len() != steps || !monotone || ends.last() != Some(&(sums.len() as u64)) {
            return Err(DIVERGED);
        }
        self.restart(span.start);
        self.sums.extend_from_slice(&sums);
        let mut halo = vec![0.0; self.senders.iter().map(|(_, s)| s.end).max().unwrap_or(0)];
        for (k, &end) in ends.iter().enumerate() {
            for ((_, slots), b) in self.senders.iter().zip(&blocks) {
                halo[slots.clone()].copy_from_slice(&b[k * slots.len()..(k + 1) * slots.len()]);
            }
            Self::append(self.every, &mut self.halos, &halo);
            self.marks.push((self.halos.len(), end as usize));
        }
        Ok(())
    }

    /// Bytes the log holds.
    pub(crate) fn bytes(&self) -> usize {
        8 * (self.halos.capacity() + self.sums.capacity())
            + std::mem::size_of::<(usize, usize)>() * self.marks.capacity()
    }
}

impl FtCtx {
    /// Whether the current step is a replay: its halo and sums come from
    /// the log and nothing is sent.
    pub fn replaying(&self) -> bool {
        self.log.borrow().cursor.is_some()
    }

    /// The halo layer's posting seam while [`replaying`](Self::replaying):
    /// the block this rank would post to app rank `to` is kept when a rescue
    /// carries `to`, for the recovery to hand over to it, and dropped
    /// otherwise.
    pub fn keep_post(&self, to: u32, block: impl IntoIterator<Item = f64>) {
        let mut log = self.log.borrow_mut();
        if let Some((_, kept)) = log.kept.iter_mut().find(|(a, _)| *a == to) {
            kept.extend(block);
        }
    }

    /// The halo layer's receiving seam: `live` fills `halo`, resized to
    /// the `len` values this step receives, and the log keeps them; in a
    /// replay they come from the log instead.
    pub fn logged_halo(
        &self,
        halo: &mut Vec<f64>,
        len: usize,
        live: impl FnOnce(&mut [f64]) -> FtResult<()>,
    ) -> FtResult<()> {
        halo.resize(len, 0.0);
        self.logged(true, halo, live)
    }

    /// The deterministic reductions' seam: `live` turns this rank's values
    /// in `sums` into the group's sums, and the log keeps them; in a replay
    /// they come from the log instead.
    pub fn logged_sums(
        &self,
        sums: &mut [f64],
        live: impl FnOnce(&mut [f64]) -> FtResult<()>,
    ) -> FtResult<()> {
        self.logged(false, sums, live)
    }

    fn logged(
        &self,
        halo: bool,
        vals: &mut [f64],
        live: impl FnOnce(&mut [f64]) -> FtResult<()>,
    ) -> FtResult<()> {
        if self.replaying() {
            vals.copy_from_slice(self.log.borrow_mut().serve(halo, vals.len())?);
            return Ok(());
        }
        self.log.borrow_mut().in_seam = true;
        let r = live(vals);
        let mut log = self.log.borrow_mut();
        log.in_seam = false;
        if r.is_ok() && log.every > 0 && log.whole && log.in_step {
            let every = log.every;
            ReplayLog::append(every, if halo { &mut log.halos } else { &mut log.sums }, vals);
        }
        r
    }

    /// Register where this rank's halo comes from: each sender's app rank
    /// and its block's slots, in halo order. A rescue needs it to rebuild
    /// its log from what the senders hand over.
    pub fn halo_senders(&self, senders: impl IntoIterator<Item = (u32, Range<usize>)>) {
        let mut log = self.log.borrow_mut();
        log.senders.clear();
        log.senders.extend(senders);
    }

    /// Where this member stands in the frontier vote; `rescues` are the app
    /// ranks that rescues which have not restored yet carry.
    pub(crate) fn standing(&self, rescues: &[u32]) -> Standing {
        let log = self.log.borrow();
        if rescues.contains(&self.app_rank()) {
            let fed_by_rescue = log.senders.iter().any(|(a, _)| rescues.contains(a));
            Standing::Rescue { fed_by_rescue }
        } else {
            Standing::Survivor(log.span())
        }
    }

    /// Bytes this rank's replay log holds (0 where none is kept).
    pub fn replay_log_bytes(&self) -> usize {
        self.log.borrow().bytes()
    }

    /// Every `*_ft` call passes here: inside a step but outside the seams
    /// it breaks the log, and in a replay it is refused (nothing would
    /// answer it).
    pub(crate) fn outside_seams(&self) -> FtResult<()> {
        let mut log = self.log.borrow_mut();
        if log.in_seam {
            return Ok(());
        }
        if log.cursor.is_some() {
            return Err(DIVERGED);
        }
        if log.in_step {
            log.whole = false;
        }
        Ok(())
    }

    /// Run one live step of iteration `iter` with its inputs logged.
    pub(crate) fn logged_step<T>(
        &self,
        iter: u64,
        step: impl FnOnce() -> FtResult<T>,
    ) -> FtResult<T> {
        self.log.borrow_mut().begin(iter);
        let r = step();
        self.log.borrow_mut().end(r.is_ok());
        r
    }
}

/// Bring the group from the installed commit (`loaded`: what `load_state`
/// returned, 0 after `reset_state`) to the agreed frontier and return it.
/// Survivors replay first, from their own logs, keeping what they post to
/// each rescue; one exchange hands that (and one survivor's sums) over;
/// then each rescue rebuilds its log from it and replays. Afterwards every
/// member's log holds exactly `commit..frontier`, ready for the next failure.
pub(crate) fn replay<A: FtApp>(
    ctx: &FtCtx,
    app: &mut A,
    loaded: u64,
    agreed: &Agreed,
) -> FtResult<u64> {
    let span = agreed.commit..agreed.frontier;
    if span.is_empty() {
        ctx.log.borrow_mut().restart(loaded);
        return Ok(loaded);
    }
    if loaded != span.start {
        return Err(DIVERGED);
    }
    let rescues = &agreed.rescues;
    let rescue = ctx.restore_source() != ctx.proc.rank();
    if !rescue {
        run(ctx, app, &span, rescues)?;
    }
    if !rescues.is_empty() {
        let n = ctx.num_app_ranks();
        let provider = (0..n).find(|a| !rescues.contains(a)).ok_or(DIVERGED)?;
        let me = ctx.app_rank();
        let out = (0..n)
            .map(|a| {
                if rescue || !rescues.contains(&a) {
                    Vec::new()
                } else {
                    ctx.log.borrow_mut().handover(a, me == provider, &span)
                }
            })
            .collect();
        let got = exchange(ctx, out)?;
        if rescue {
            ctx.log.borrow_mut().take_over(&span, &got, provider)?;
            run(ctx, app, &span, &[])?;
        }
    }
    let epoch = ctx.plan().epoch;
    let (from, to) = (span.start, span.end);
    ctx.events.record(ctx.proc.rank(), EventKind::Replayed { epoch, from, to });
    Ok(span.end)
}

/// Replay the steps of `span` from this rank's log, keeping the blocks
/// posted to `rescues`; the log ends at `span.end` afterwards.
fn run<A: FtApp>(ctx: &FtCtx, app: &mut A, span: &Range<u64>, rescues: &[u32]) -> FtResult<()> {
    ctx.log.borrow_mut().kept = rescues.iter().map(|&a| (a, Vec::new())).collect();
    let r = span.clone().try_for_each(|i| {
        ctx.proc.injection_site("strategy.replay.step");
        ctx.log.borrow_mut().seek(i)?;
        app.step(ctx, i)?;
        let log = ctx.log.borrow();
        match log.cursor {
            Some((at, end)) if at == end => Ok(()),
            _ => Err(DIVERGED),
        }
    });
    let mut log = ctx.log.borrow_mut();
    log.cursor = None;
    let k = (span.end - log.start) as usize;
    if let Some(&(h, s)) = k.checked_sub(1).and_then(|j| log.marks.get(j)) {
        log.marks.truncate(k);
        log.halos.truncate(h);
        log.sums.truncate(s);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(log: &mut ReplayLog, iter: u64, ok: bool) {
        log.begin(iter);
        ReplayLog::append(log.every, &mut log.halos, &[iter as f64; 3]);
        ReplayLog::append(log.every, &mut log.sums, &[-(iter as f64)]);
        log.end(ok);
    }

    #[test]
    fn the_log_holds_the_sealed_steps_and_serves_one_at_a_time() {
        let mut log = ReplayLog::new(4);
        log.restart(8);
        (8..11).for_each(|i| step(&mut log, i, true));
        step(&mut log, 11, false);
        assert_eq!((log.span(), log.halos.len()), (Some(8..11), 9), "a failed step leaves nothing");
        log.seek(9).unwrap();
        assert_eq!(log.serve(true, 3).unwrap(), &[9.0; 3]);
        assert_eq!(log.serve(false, 2), Err(DIVERGED), "a step reads no further than its own");
        assert_eq!(log.seek(11), Err(DIVERGED));
        log.cursor = None;
        step(&mut log, 20, true);
        assert_eq!(log.span(), Some(20..21), "a gap starts the log over");
        log.whole = false;
        assert_eq!(log.span(), None, "broken until the next restart");
        assert_eq!(ReplayLog::new(0).span(), None, "no log without commits");
    }
}
