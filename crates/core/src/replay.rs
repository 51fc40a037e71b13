//! Local replay: after a checkpoint/restart failure the rescue alone
//! re-runs the steps since the agreed commit, fed from its senders' logs,
//! while the survivors keep their live state (ARCHITECTURE.md §9).
//!
//! A Lanczos or heat step is deterministic given the halo its partners post
//! and the results of its deterministic sums, so each rank logs, for every
//! step since its last commit, the blocks it posts ([`FtCtx::logged_post`])
//! and the sums ([`FtCtx::logged_sums`]): a sender-side log (Besta &
//! Hoefler, arXiv:2010.09025, log one-sided puts at their origin so that
//! only the failed process replays). A step that makes any other `*_ft`
//! call breaks the log until the next commit.

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

/// A step's first stream: in the log, the blocks it posted, in send order;
/// in a rescue's feed, the halo it receives.
const BLOCKS: usize = 0;
/// A step's second stream: the sums its reductions returned.
const SUMS: usize = 1;

/// Steps' entries back to back in the two streams, and where each ends.
#[derive(Debug, Default)]
struct Steps {
    vals: [Vec<f64>; 2],
    marks: Vec<[usize; 2]>,
}

/// One rank's log of the steps since its last commit, and, while it
/// replays as a rescue, the feed it replays from.
#[derive(Debug, Default)]
pub(crate) struct ReplayLog {
    /// Steps per commit; 0 keeps no log (every preset but
    /// checkpoint/restart, and a job that never commits).
    every: u64,
    /// Iteration of the first logged step.
    start: u64,
    /// The sealed steps: the blocks each posted and the sums it got.
    log: Steps,
    /// False once a step communicated outside the seams.
    whole: bool,
    in_step: bool,
    in_seam: bool,
    /// While a rescue replays: the halos and sums of the replayed steps,
    /// the step being replayed and its next unread entry in each stream.
    feed: Option<(Steps, usize, [usize; 2])>,
    /// The halo blocks this rank receives, in halo order: the sender's app
    /// rank and the block's slots (registered by the halo layer).
    senders: Vec<(u32, Range<usize>)>,
    /// The blocks this rank posts, in send order: the receiver's app rank
    /// and the block's place among a step's logged posts.
    receivers: Vec<(u32, Range<usize>)>,
}

impl ReplayLog {
    pub(crate) fn new(every: u64) -> Self {
        Self { every, whole: true, ..Self::default() }
    }

    /// Empty the log (keeping its storage); the next step logged is `iter`.
    pub(crate) fn restart(&mut self, iter: u64) {
        self.start = iter;
        self.log.vals.iter_mut().for_each(Vec::clear);
        self.log.marks.clear();
        self.whole = true;
    }

    /// The sealed steps a rescue can be fed from, if any.
    fn span(&self) -> Option<Range<u64>> {
        (self.every > 0 && self.whole).then(|| self.start..self.start + self.log.marks.len() as u64)
    }

    fn begin(&mut self, iter: u64) {
        if self.span().is_some_and(|s| s.end != iter) {
            self.restart(iter);
        }
        self.in_step = true;
    }

    fn end(&mut self, ok: bool) {
        self.in_step = false;
        let log = &mut self.log;
        if ok && self.every > 0 && self.whole {
            // The first step sealed sizes the log for a whole interval, so
            // the steps after it append without allocating.
            if log.marks.capacity() == 0 {
                log.marks.reserve_exact(self.every as usize);
                let rest = self.every as usize - 1;
                log.vals.iter_mut().for_each(|v| v.reserve_exact(v.len() * rest));
            }
            log.marks.push(log.vals.each_ref().map(Vec::len));
        } else {
            let last = log.marks.last().copied().unwrap_or_default();
            log.vals.iter_mut().zip(last).for_each(|(v, n)| v.truncate(n));
        }
    }

    /// Log `vals` in `stream` of the step being logged, if any. What the
    /// initial state takes to build (Lanczos normalizes its start vector)
    /// counts as step 0's, so a rescue can rebuild that state too.
    fn record(&mut self, stream: usize, vals: impl IntoIterator<Item = f64>) {
        let prologue = self.start == 0 && self.log.marks.is_empty();
        if self.every > 0 && self.whole && (self.in_step || prologue) {
            self.log.vals[stream].extend(vals);
        }
    }

    /// Serve the next `n` values of the replayed step from `stream`.
    fn serve(&mut self, stream: usize, n: usize) -> FtResult<&[f64]> {
        let (feed, k, at) = self.feed.as_mut().expect("serving outside a replay");
        let pos = at[stream];
        if pos + n > feed.marks.get(*k).ok_or(DIVERGED)?[stream] {
            return Err(DIVERGED);
        }
        at[stream] += n;
        Ok(&feed.vals[stream][pos..pos + n])
    }

    /// Whether the replayed step read all of its entries; if so, the feed
    /// moves on to the next step.
    fn fed(&mut self) -> bool {
        let Some((feed, k, at)) = self.feed.as_mut() else { return false };
        let done = feed.marks[*k] == *at;
        *k += usize::from(done);
        done
    }

    /// What a survivor hands the rescue carrying app rank `to` before it
    /// replays `span`: the blocks this rank posted to it over the span, and,
    /// from `provider`, the span's sums and where each step's sums end.
    fn handover(&self, to: u32, provider: bool, span: &Range<u64>) -> FtResult<Vec<u8>> {
        let (log, first) = (&self.log, (span.start - self.start) as usize);
        let mut from = first.checked_sub(1).map_or([0, 0], |j| log.marks[j]);
        let marks = log.marks.get(first..(span.end - self.start) as usize).ok_or(DIVERGED)?;
        let sums = if provider { from[SUMS]..marks[marks.len() - 1][SUMS] } else { 0..0 };
        let (mut blocks, mut ends) = (Vec::new(), Vec::new());
        for m in marks {
            for (_, slots) in self.receivers.iter().filter(|(a, _)| *a == to) {
                let posted = &log.vals[BLOCKS][from[BLOCKS]..m[BLOCKS]];
                blocks.extend_from_slice(posted.get(slots.clone()).ok_or(DIVERGED)?);
            }
            ends.extend(provider.then(|| (m[SUMS] - sums.start) as u64));
            from = *m;
        }
        let mut e = Enc::new();
        e.f64s(&blocks).u64s(&ends).f64s(&log.vals[SUMS][sums]);
        Ok(e.finish())
    }

    /// A rescue's feed for `span`, assembled from what its senders handed
    /// over (`got[a]` from app rank `a`; the sums from `provider`). Its own
    /// log starts over at the span's commit.
    fn take_over(&mut self, span: &Range<u64>, got: &[Vec<u8>], provider: u32) -> FtResult<()> {
        let decode = |a: u32| -> FtResult<(Vec<f64>, Vec<u64>, Vec<f64>)> {
            let mut d = Dec::new(got.get(a as usize).ok_or(DIVERGED)?);
            Ok((d.f64s()?, d.u64s()?, d.f64s()?))
        };
        let steps = (span.end - span.start) as usize;
        let (_, ends, sums) = decode(provider)?;
        let blocks =
            self.senders.iter().map(|(a, _)| Ok(decode(*a)?.0)).collect::<FtResult<Vec<_>>>()?;
        let sized = self.senders.iter().zip(&blocks).all(|((_, s), b)| b.len() == steps * s.len());
        let monotone = ends.windows(2).all(|w| w[0] <= w[1]);
        if !sized || ends.len() != steps || !monotone || ends.last() != Some(&(sums.len() as u64)) {
            return Err(DIVERGED);
        }
        let mut halo = vec![0.0; self.senders.iter().map(|(_, s)| s.end).max().unwrap_or(0)];
        let mut feed = Steps { vals: [vec![], sums], marks: vec![] };
        for (k, &end) in ends.iter().enumerate() {
            for ((_, slots), b) in self.senders.iter().zip(&blocks) {
                halo[slots.clone()].copy_from_slice(&b[k * slots.len()..(k + 1) * slots.len()]);
            }
            feed.vals[BLOCKS].extend_from_slice(&halo);
            feed.marks.push([feed.vals[BLOCKS].len(), end as usize]);
        }
        self.restart(span.start);
        self.feed = Some((feed, 0, [0, 0]));
        Ok(())
    }

    /// Bytes the log holds.
    pub(crate) fn bytes(&self) -> usize {
        8 * self.log.vals.iter().map(Vec::capacity).sum::<usize>()
            + std::mem::size_of::<[usize; 2]>() * self.log.marks.capacity()
    }
}

impl FtCtx {
    /// Whether the current step is a replay: its halo and sums come from
    /// the senders' logs and nothing is sent.
    pub fn replaying(&self) -> bool {
        self.log.borrow().feed.is_some()
    }

    /// The halo layer's posting seam, in a live step and a replayed one
    /// alike: the log keeps the block this rank posts to its next receiver
    /// (in send order), for a rescue of that receiver to be fed from.
    pub fn logged_post(&self, block: impl IntoIterator<Item = f64>) {
        self.log.borrow_mut().record(BLOCKS, block);
    }

    /// The halo layer's receiving seam: `live` fills `halo`, resized to the
    /// `len` values this step receives; in a replay they come from what the
    /// senders logged instead.
    pub fn received_halo(
        &self,
        halo: &mut Vec<f64>,
        len: usize,
        live: impl FnOnce(&mut [f64]) -> FtResult<()>,
    ) -> FtResult<()> {
        halo.resize(len, 0.0);
        self.fed_or_live(BLOCKS, halo, live)
    }

    /// The deterministic reductions' seam: `live` turns this rank's values
    /// in `sums` into the group's sums; in a replay they come from the
    /// feed instead. The log keeps them either way.
    pub fn logged_sums(
        &self,
        sums: &mut [f64],
        live: impl FnOnce(&mut [f64]) -> FtResult<()>,
    ) -> FtResult<()> {
        self.fed_or_live(SUMS, sums, live)?;
        self.log.borrow_mut().record(SUMS, sums.iter().copied());
        Ok(())
    }

    /// Fill `vals` from `stream` of the feed in a replay; otherwise run
    /// `live`, a seam's communication, without breaking the log.
    fn fed_or_live(
        &self,
        stream: usize,
        vals: &mut [f64],
        live: impl FnOnce(&mut [f64]) -> FtResult<()>,
    ) -> FtResult<()> {
        if self.replaying() {
            vals.copy_from_slice(self.log.borrow_mut().serve(stream, vals.len())?);
            return Ok(());
        }
        self.log.borrow_mut().in_seam = true;
        let r = live(vals);
        self.log.borrow_mut().in_seam = false;
        r
    }

    /// Register where this rank's halo comes from and where its posts go:
    /// each sender's app rank and its block's slots, in halo order, and
    /// each receiver's app rank and its block's place among a step's posts,
    /// in send order. The survivors feed a rescue, and the rescue assembles
    /// its halos, from these.
    pub fn halo_links(
        &self,
        senders: impl IntoIterator<Item = (u32, Range<usize>)>,
        receivers: impl IntoIterator<Item = (u32, Range<usize>)>,
    ) {
        let mut log = self.log.borrow_mut();
        log.senders = senders.into_iter().collect();
        log.receivers = receivers.into_iter().collect();
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
        if log.feed.is_some() {
            return Err(DIVERGED);
        }
        if log.in_step {
            log.whole = false;
        }
        Ok(())
    }

    /// Run one step of iteration `iter`, live or replayed, with what it
    /// posts and sums logged.
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

/// Bring this member to the [`Agreed`] state and return the iteration the
/// group resumes from. For the global redo (`frontier == commit`) every
/// member installs the commit. Past it, the survivors keep their live state
/// at the frontier, and one exchange, before any replay, hands each rescue
/// the blocks its senders posted to it over `commit..frontier` and one
/// survivor's sums; the rescues alone install the commit and replay,
/// logging as they go. Every member's log then reaches back to the commit,
/// ready for the next failure.
pub(crate) fn resume<A: FtApp>(ctx: &FtCtx, app: &mut A, agreed: &Agreed) -> FtResult<u64> {
    let (span, rescues) = (agreed.commit..agreed.frontier, &agreed.rescues);
    if span.is_empty() {
        ctx.log.borrow_mut().restart(span.start);
        return install(ctx, app, agreed);
    }
    let (n, me) = (ctx.num_app_ranks(), ctx.app_rank());
    let rescue = rescues.contains(&me);
    if rescues.is_empty() {
        return Ok(span.end); // no rescue to feed: every member kept its state
    }
    let provider = (0..n).find(|a| !rescues.contains(a)).ok_or(DIVERGED)?;
    let mut out = vec![Vec::new(); n as usize];
    for &a in rescues.iter().filter(|_| !rescue) {
        out[a as usize] = ctx.log.borrow().handover(a, me == provider, &span)?;
    }
    let got = exchange(ctx, out)?;
    if !rescue {
        return Ok(span.end);
    }
    ctx.log.borrow_mut().take_over(&span, &got, provider)?;
    let r = install(ctx, app, agreed).and_then(|at| match at == span.start {
        true => run(ctx, app, &span),
        false => Err(DIVERGED),
    });
    ctx.log.borrow_mut().feed = None;
    r?;
    let (epoch, from, to) = (ctx.plan().epoch, span.start, span.end);
    ctx.events.record(ctx.proc.rank(), EventKind::Replayed { epoch, from, to });
    Ok(span.end)
}

/// The one `load_state` of the agreed image, or `reset_state` at commit 0;
/// the iteration installed.
fn install<A: FtApp>(ctx: &FtCtx, app: &mut A, agreed: &Agreed) -> FtResult<u64> {
    match &agreed.image {
        Some(image) => app.load_state(ctx, image),
        None => app.reset_state(ctx).map(|()| 0),
    }
}

/// Replay the steps of `span` from the feed, logging them like live ones.
fn run<A: FtApp>(ctx: &FtCtx, app: &mut A, span: &Range<u64>) -> FtResult<()> {
    span.clone().try_for_each(|i| {
        ctx.proc.injection_site("strategy.replay.step");
        ctx.logged_step(i, || app.step(ctx, i))?;
        ctx.log.borrow_mut().fed().then_some(()).ok_or(DIVERGED)
    })
}

#[cfg(test)]
mod tests {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use super::*;

    thread_local!(static ALLOCS: Cell<u64> = const { Cell::new(0) });

    /// The system allocator, counting this thread's allocations.
    struct Meter;

    // SAFETY: every call is forwarded to `System` unchanged; the counter is a
    // const-initialised thread-local without a destructor.
    unsafe impl GlobalAlloc for Meter {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
            System.dealloc(p, layout);
        }
    }

    #[global_allocator]
    static METER: Meter = Meter;

    /// A step that posts one value to app rank 1 and two to app rank 2.
    fn step(log: &mut ReplayLog, iter: u64, ok: bool) {
        log.begin(iter);
        log.record(BLOCKS, [iter as f64, 1.0, 2.0]);
        log.record(SUMS, [-(iter as f64)]);
        log.end(ok);
    }

    #[test]
    fn the_log_holds_the_sealed_steps_and_feeds_a_rescue_one_step_at_a_time() {
        let mut log = ReplayLog::new(4);
        log.restart(8);
        log.receivers = vec![(1, 0..1), (2, 1..3)];
        (8..11).for_each(|i| step(&mut log, i, true));
        step(&mut log, 11, false);
        let posts = log.log.vals[BLOCKS].len();
        assert_eq!((log.span(), posts), (Some(8..11), 9), "a failed step leaves nothing");
        // App rank 1's rescue, fed by this rank (app rank 0) alone.
        let got = [log.handover(1, true, &(9..11)).unwrap()];
        let mut rescue = ReplayLog::new(4);
        rescue.senders = vec![(0, 0..1)];
        rescue.take_over(&(9..11), &got, 0).unwrap();
        assert_eq!(rescue.serve(BLOCKS, 1).unwrap(), &[9.0]);
        assert!(!rescue.fed(), "step 9 has not read its sums");
        assert_eq!(rescue.serve(SUMS, 2), Err(DIVERGED), "a step reads no further than its own");
        assert_eq!(rescue.serve(SUMS, 1).unwrap(), &[-9.0]);
        assert!(rescue.fed());
        assert_eq!(rescue.serve(BLOCKS, 1).unwrap(), &[10.0]);
        assert_eq!(rescue.serve(SUMS, 1).unwrap(), &[-10.0]);
        assert!(rescue.fed());
        assert_eq!(rescue.serve(SUMS, 1), Err(DIVERGED), "past the span");
        assert_eq!(rescue.span(), Some(9..9), "the rescue logs its replay afresh");
        step(&mut log, 20, true);
        assert_eq!(log.span(), Some(20..21), "a gap starts the log over");
        log.whole = false;
        assert_eq!(log.span(), None, "broken until the next restart");
        assert_eq!(ReplayLog::new(0).span(), None, "no log without commits");
    }

    /// Once the first interval has sized the log, sealed steps, failed ones
    /// and commits' restarts append to it without allocating.
    #[test]
    fn after_the_first_interval_the_log_appends_without_allocating() {
        let mut log = ReplayLog::new(4);
        (0..4).for_each(|i| step(&mut log, i, true));
        let bytes = log.bytes();
        let mut counts = Vec::new();
        for commit in [4, 8, 16] {
            let before = ALLOCS.with(Cell::get);
            log.restart(commit);
            (commit..commit + 3).for_each(|i| step(&mut log, i, true));
            step(&mut log, commit + 3, false);
            step(&mut log, commit + 3, true);
            counts.push(ALLOCS.with(Cell::get) - before);
        }
        assert_eq!(counts, [0; 3], "allocations per interval");
        assert_eq!(log.bytes(), bytes, "the log grew");
    }
}
