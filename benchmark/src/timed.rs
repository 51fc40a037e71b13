//! `Timed<A>`: the benchmark-owned adapter that timestamps every call the
//! driver makes into an [`FtApp`].
//!
//! All end-to-end timing is taken here, from outside the program, on the
//! benchmark's own clock. In its default O(1) mode the adapter keeps first /
//! last timestamps, a few running sums and the frontier-stall detector; with
//! tracing on it additionally records one [`Span`] per call into a buffer
//! allocated before the job starts.

use std::cell::RefCell;
use std::time::Duration;

use crate::api::{Checkpointer, FtApp, FtCtx, FtError, FtResult, FtSignal, RecoveryPlan};
use crate::sysinfo::now_ns;

/// The `FtApp` calls the adapter times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Call {
    Setup = 0,
    Join = 1,
    Step = 2,
    Export = 3,
    Load = 4,
    Reset = 5,
    Rewire = 6,
    Finalize = 7,
}

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Setup => "setup",
            Call::Join => "join_as_rescue",
            Call::Step => "step",
            Call::Export => "export_state",
            Call::Load => "load_state",
            Call::Reset => "reset_state",
            Call::Rewire => "rewire",
            Call::Finalize => "finalize",
        }
    }

    fn from_u8(b: u8) -> Option<Call> {
        use Call::*;
        [Setup, Join, Step, Export, Load, Reset, Rewire, Finalize]
            .into_iter()
            .find(|c| *c as u8 == b)
    }
}

/// How a timed call ended, as far as the stall detector cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ended {
    Ok,
    /// `Err(FtError::Signal(FtSignal::Recover(_)))`: a failure acknowledgment.
    Recover,
    Failed,
}

fn ended<T>(r: &FtResult<T>) -> Ended {
    match r {
        Ok(_) => Ended::Ok,
        Err(FtError::Signal(FtSignal::Recover(_))) => Ended::Recover,
        Err(_) => Ended::Failed,
    }
}

/// One timed call (traced mode only). Times are [`now_ns`] readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub call: Call,
    pub iter: u64,
    pub start: u64,
    pub end: u64,
}

/// One recovery as the application saw it: the frontier stall and its cuts.
///
/// `t_a` return of the last successful `step` before the failure · `t_b` the
/// call that returned the failure acknowledgment (or, when the driver's own
/// health check caught it, the last call seen before recovery began) ·
/// `t_c` `rewire` entry · `t_d` `load_state` / `reset_state` return ·
/// `t_e` first successful return of an iteration beyond the old frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stall {
    pub t_a: u64,
    pub t_b: u64,
    pub t_c: u64,
    pub t_d: u64,
    pub t_e: u64,
    /// Median duration of the successful steps preceding the failure.
    pub median_step: u64,
}

impl Stall {
    /// The frontier stall: how much later the frontier advanced than it
    /// would have without the failure (one step would have run anyway).
    pub fn stall_ns(&self) -> i64 {
        self.t_e as i64 - self.t_a as i64 - self.median_step as i64
    }

    /// `[detect, rebuild, restore, redo]` in ns (the paper's OHF1 / OHF2 /
    /// OHF3 / redo-work); they sum to [`Stall::stall_ns`] exactly.
    pub fn parts_ns(&self) -> [i64; 4] {
        let (a, b, c, d, e) =
            (self.t_a as i64, self.t_b as i64, self.t_c as i64, self.t_d as i64, self.t_e as i64);
        [b - a, c - b, d - c, e - d - self.median_step as i64]
    }
}

/// Recent successful step durations kept for the median step of a stall.
const STEP_RING: usize = 64;

/// The frontier-stall detector: fed every call of one rank in order, it
/// emits one [`Stall`] per recovery. O(1) state.
#[derive(Debug, Default)]
pub struct StallTracker {
    /// Completed iterations (highest `iter + 1` of a successful step).
    frontier: u64,
    last_ok_step_return: u64,
    last_return: u64,
    ring: Vec<u64>,
    ring_at: usize,
    open: Option<Open>,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    t_a: u64,
    t_b: u64,
    t_c: Option<u64>,
    t_d: Option<u64>,
    frontier: u64,
}

impl StallTracker {
    fn median_step(&self) -> u64 {
        let mut v = self.ring.clone();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    }

    /// Feed one finished call; returns the stall it closed, if any.
    pub fn observe(
        &mut self,
        call: Call,
        iter: u64,
        start: u64,
        end: u64,
        how: Ended,
    ) -> Option<Stall> {
        let mut closed = None;
        match (call, how) {
            (Call::Step, Ended::Ok) => {
                match self.open {
                    Some(o) if iter + 1 > o.frontier => {
                        let t_c = o.t_c.unwrap_or(o.t_b);
                        closed = Some(Stall {
                            t_a: o.t_a,
                            t_b: o.t_b,
                            t_c,
                            t_d: o.t_d.unwrap_or(t_c),
                            t_e: end,
                            median_step: self.median_step(),
                        });
                        self.open = None;
                    }
                    // Redone iterations do not feed the median step.
                    Some(_) => {}
                    None => {
                        if self.ring.len() < STEP_RING {
                            self.ring.push(end - start);
                        } else {
                            self.ring[self.ring_at] = end - start;
                            self.ring_at = (self.ring_at + 1) % STEP_RING;
                        }
                    }
                }
                self.frontier = self.frontier.max(iter + 1);
                self.last_ok_step_return = end;
            }
            (_, Ended::Recover) if self.open.is_none() && self.last_ok_step_return != 0 => {
                self.open = Some(Open {
                    t_a: self.last_ok_step_return,
                    t_b: end,
                    t_c: None,
                    t_d: None,
                    frontier: self.frontier,
                });
            }
            (Call::Rewire, _) => {
                // The driver's own health check (or the strategy's prepare)
                // caught the acknowledgment: no call returned it.
                if self.open.is_none() && self.last_ok_step_return != 0 {
                    self.open = Some(Open {
                        t_a: self.last_ok_step_return,
                        t_b: self.last_return,
                        t_c: None,
                        t_d: None,
                        frontier: self.frontier,
                    });
                }
                if let Some(o) = self.open.as_mut() {
                    o.t_c.get_or_insert(start);
                }
            }
            (Call::Load | Call::Reset, Ended::Ok) => {
                if let Some(o) = self.open.as_mut() {
                    o.t_d = Some(end);
                }
            }
            _ => {}
        }
        self.last_return = end;
        closed
    }
}

/// Everything the adapter learned about one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTiming {
    pub gaspi_rank: u32,
    pub setup_entry: u64,
    pub setup_return: u64,
    pub join_entry: u64,
    pub join_return: u64,
    pub first_step_entry: u64,
    pub last_step_return: u64,
    pub finalize_entry: u64,
    pub finalize_return: u64,
    pub steps_ok: u64,
    /// Sum of successful step durations.
    pub step_ns: u64,
    pub stalls: Vec<Stall>,
    /// `VmHWM` of the hosting process in KiB (rank children of `cr-tcp`).
    pub vm_hwm_kib: u64,
    /// One span per call, traced mode only.
    pub spans: Vec<Span>,
}

struct Recorder {
    t: RankTiming,
    tracker: StallTracker,
    trace: bool,
}

impl Recorder {
    fn record(&mut self, call: Call, iter: u64, start: u64, end: u64, how: Ended) {
        let t = &mut self.t;
        match call {
            Call::Setup => (t.setup_entry, t.setup_return) = (start, end),
            Call::Join => (t.join_entry, t.join_return) = (start, end),
            Call::Finalize => (t.finalize_entry, t.finalize_return) = (start, end),
            Call::Step => {
                if t.first_step_entry == 0 {
                    t.first_step_entry = start;
                }
                if how == Ended::Ok {
                    t.last_step_return = end;
                    t.steps_ok += 1;
                    t.step_ns += end - start;
                }
            }
            _ => {}
        }
        if let Some(stall) = self.tracker.observe(call, iter, start, end, how) {
            // Preallocated for more recoveries than any schedule holds.
            if t.stalls.len() < t.stalls.capacity() {
                t.stalls.push(stall);
            }
        }
        if self.trace && t.spans.len() < t.spans.capacity() {
            t.spans.push(Span { call, iter, start, end });
        }
    }
}

/// Recoveries one rank can record; schedules hold at most three kills.
const MAX_STALLS: usize = 16;

/// The adapter. Its summary is the wrapped app's plus the [`RankTiming`].
pub struct Timed<A> {
    inner: A,
    rec: RefCell<Recorder>,
}

impl<A: FtApp> Timed<A> {
    /// Wrap `inner` for GASPI rank `gaspi_rank`. With `trace`, room for
    /// `span_capacity` spans is allocated now, before the job runs.
    pub fn new(inner: A, gaspi_rank: u32, trace: bool, span_capacity: usize) -> Self {
        let t = RankTiming {
            gaspi_rank,
            stalls: Vec::with_capacity(MAX_STALLS),
            spans: Vec::with_capacity(if trace { span_capacity } else { 0 }),
            ..RankTiming::default()
        };
        Self { inner, rec: RefCell::new(Recorder { t, tracker: StallTracker::default(), trace }) }
    }

    fn timed<T>(&self, call: Call, iter: u64, start: u64, r: FtResult<T>) -> FtResult<T> {
        self.rec.borrow_mut().record(call, iter, start, now_ns(), ended(&r));
        r
    }
}

impl<A: FtApp> FtApp for Timed<A> {
    type Summary = (A::Summary, RankTiming);

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let t0 = now_ns();
        let r = self.inner.setup(ctx);
        self.timed(Call::Setup, 0, t0, r)
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let t0 = now_ns();
        let r = self.inner.join_as_rescue(ctx);
        self.timed(Call::Join, 0, t0, r)
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let t0 = now_ns();
        let r = self.inner.step(ctx, iter);
        self.timed(Call::Step, iter, t0, r)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        self.inner.state_stream()
    }

    fn export_state(&self, ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        let t0 = now_ns();
        let r = self.inner.export_state(ctx, iter);
        self.timed(Call::Export, iter, t0, r)
    }

    fn load_state(&mut self, ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let t0 = now_ns();
        let r = self.inner.load_state(ctx, data);
        let iter = *r.as_ref().unwrap_or(&0);
        self.timed(Call::Load, iter, t0, r)
    }

    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let t0 = now_ns();
        let r = self.inner.reset_state(ctx);
        self.timed(Call::Reset, 0, t0, r)
    }

    // `checkpoint` and `restore` keep their default bodies on purpose: those
    // route through `export_state` / `state_stream` / `load_state` /
    // `reset_state` above, which is both what `FtLanczos` does and what is
    // left once ROADMAP item 3 removes the two methods.

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        let t0 = now_ns();
        let r = self.inner.rewire(ctx, plan);
        self.timed(Call::Rewire, plan.epoch, t0, r)
    }

    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<Self::Summary> {
        // Not timed, and not the wrapped app's: app rank 0 tells the detector
        // the job is done right after `finalize`, and the detector's shutdown
        // broadcast can then overtake a slower rank still inside its last
        // collective, which gives up with `Shutdown` (seen on ≈ 1 % of
        // `cr-tcp` runs). Nobody leaves here before everyone has arrived.
        ctx.barrier_ft()?;
        let t0 = now_ns();
        let r = self.inner.finalize(ctx);
        let summary = self.timed(Call::Finalize, 0, t0, r)?;
        Ok((summary, std::mem::take(&mut self.rec.borrow_mut().t)))
    }
}

// ---------------------------------------------------------------------
// Wire format: `cr-tcp` rank children ship their timing in the summary bytes
// ---------------------------------------------------------------------

/// Append `x` little-endian.
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Read one little-endian `u64` at `*at`, advancing it.
pub fn get_u64(b: &[u8], at: &mut usize) -> Option<u64> {
    let bytes: [u8; 8] = b.get(*at..*at + 8)?.try_into().ok()?;
    *at += 8;
    Some(u64::from_le_bytes(bytes))
}

impl RankTiming {
    pub fn encode(&self, out: &mut Vec<u8>) {
        for x in [
            u64::from(self.gaspi_rank),
            self.setup_entry,
            self.setup_return,
            self.join_entry,
            self.join_return,
            self.first_step_entry,
            self.last_step_return,
            self.finalize_entry,
            self.finalize_return,
            self.steps_ok,
            self.step_ns,
            self.vm_hwm_kib,
            self.stalls.len() as u64,
        ] {
            put_u64(out, x);
        }
        for s in &self.stalls {
            for x in [s.t_a, s.t_b, s.t_c, s.t_d, s.t_e, s.median_step] {
                put_u64(out, x);
            }
        }
        put_u64(out, self.spans.len() as u64);
        for s in &self.spans {
            for x in [s.call as u64, s.iter, s.start, s.end] {
                put_u64(out, x);
            }
        }
    }

    pub fn decode(b: &[u8], at: &mut usize) -> Option<RankTiming> {
        let mut next = || get_u64(b, at);
        let mut t = RankTiming {
            gaspi_rank: u32::try_from(next()?).ok()?,
            setup_entry: next()?,
            setup_return: next()?,
            join_entry: next()?,
            join_return: next()?,
            first_step_entry: next()?,
            last_step_return: next()?,
            finalize_entry: next()?,
            finalize_return: next()?,
            steps_ok: next()?,
            step_ns: next()?,
            vm_hwm_kib: next()?,
            ..RankTiming::default()
        };
        // Counts come off the wire: bound them by what the buffer can hold.
        let n_stalls = usize::try_from(next()?).ok().filter(|n| *n <= b.len() / 48)?;
        for _ in 0..n_stalls {
            t.stalls.push(Stall {
                t_a: next()?,
                t_b: next()?,
                t_c: next()?,
                t_d: next()?,
                t_e: next()?,
                median_step: next()?,
            });
        }
        let n_spans = usize::try_from(next()?).ok().filter(|n| *n <= b.len() / 32)?;
        for _ in 0..n_spans {
            let call = Call::from_u8(u8::try_from(next()?).ok()?)?;
            t.spans.push(Span { call, iter: next()?, start: next()?, end: next()? });
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a tracker through a timeline of `(call, iter, start, end, how)`.
    fn run(timeline: &[(Call, u64, u64, u64, Ended)]) -> Vec<Stall> {
        let mut tr = StallTracker::default();
        timeline.iter().filter_map(|&(c, i, s, e, h)| tr.observe(c, i, s, e, h)).collect()
    }

    fn steps(from: u64, to: u64, t0: u64, dur: u64) -> Vec<(Call, u64, u64, u64, Ended)> {
        (from..to)
            .map(|i| {
                let s = t0 + (i - from) * dur;
                (Call::Step, i, s, s + dur, Ended::Ok)
            })
            .collect()
    }

    #[test]
    fn checkpoint_restart_stall_splits_four_ways_and_sums() {
        // Ten 100 ns steps (0..10) ending at 1000; step 10 returns the
        // acknowledgment at 1250; rewire enters at 1600; the checkpoint of
        // iteration 8 is loaded by 1900; iterations 8, 9 are redone and the
        // new iteration 10 returns at 2300.
        let mut tl = steps(0, 10, 0, 100);
        tl.push((Call::Step, 10, 1000, 1250, Ended::Recover));
        tl.push((Call::Rewire, 1, 1600, 1650, Ended::Ok));
        tl.push((Call::Load, 8, 1700, 1900, Ended::Ok));
        tl.extend(steps(8, 10, 2000, 100));
        tl.push((Call::Step, 10, 2200, 2300, Ended::Ok));
        let stalls = run(&tl);
        assert_eq!(stalls.len(), 1);
        let s = stalls[0];
        assert_eq!((s.t_a, s.t_b, s.t_c, s.t_d, s.t_e), (1000, 1250, 1600, 1900, 2300));
        assert_eq!(s.median_step, 100);
        assert_eq!(s.stall_ns(), 1200);
        assert_eq!(s.parts_ns(), [250, 350, 300, 300]);
        assert_eq!(s.parts_ns().iter().sum::<i64>(), s.stall_ns());
    }

    #[test]
    fn acknowledgment_caught_outside_any_call_opens_the_stall_at_rewire() {
        // The driver's health check sees the plan: no call returns Recover.
        // ABFT-style: the state is reloaded at the frontier, no redo.
        let mut tl = steps(0, 5, 0, 100);
        tl.push((Call::Export, 5, 500, 520, Ended::Ok));
        tl.push((Call::Rewire, 1, 900, 950, Ended::Ok));
        tl.push((Call::Load, 5, 1000, 1100, Ended::Ok));
        tl.push((Call::Step, 5, 1100, 1200, Ended::Ok));
        let stalls = run(&tl);
        assert_eq!(stalls.len(), 1);
        let s = stalls[0];
        // Detect ends at the last call seen before recovery: the export.
        assert_eq!((s.t_a, s.t_b, s.t_c, s.t_d, s.t_e), (500, 520, 900, 1100, 1200));
        assert_eq!(s.parts_ns(), [20, 380, 200, 0]);
        assert_eq!(s.parts_ns().iter().sum::<i64>(), s.stall_ns());
    }

    #[test]
    fn sequential_failures_yield_one_stall_each() {
        let mut tl = steps(0, 4, 0, 10);
        tl.push((Call::Step, 4, 40, 60, Ended::Recover));
        tl.push((Call::Rewire, 1, 70, 75, Ended::Ok));
        tl.push((Call::Reset, 0, 80, 90, Ended::Ok));
        tl.extend(steps(0, 8, 100, 10));
        tl.push((Call::Step, 8, 180, 200, Ended::Recover));
        tl.push((Call::Rewire, 2, 210, 215, Ended::Ok));
        tl.push((Call::Load, 6, 220, 230, Ended::Ok));
        tl.extend(steps(6, 9, 240, 10));
        let stalls = run(&tl);
        assert_eq!(stalls.len(), 2);
        // First stall closes when iteration 4 (the old frontier) completes.
        assert_eq!(stalls[0].t_e, 150);
        assert_eq!(stalls[1].t_a, 180);
        assert_eq!(stalls[1].t_e, 270);
        for s in &stalls {
            assert_eq!(s.parts_ns().iter().sum::<i64>(), s.stall_ns());
        }
    }

    #[test]
    fn a_rescue_that_never_stepped_before_reports_no_stall() {
        let tl = [
            (Call::Join, 0, 10, 20, Ended::Ok),
            (Call::Rewire, 1, 20, 25, Ended::Ok),
            (Call::Load, 3, 25, 30, Ended::Ok),
            (Call::Step, 3, 30, 40, Ended::Ok),
        ];
        assert!(run(&tl).is_empty());
    }

    #[test]
    fn timing_round_trips_over_the_wire() {
        let t = RankTiming {
            gaspi_rank: 3,
            setup_entry: 11,
            setup_return: 22,
            last_step_return: 99,
            steps_ok: 7,
            step_ns: 70,
            vm_hwm_kib: 4096,
            stalls: vec![Stall { t_a: 1, t_b: 2, t_c: 3, t_d: 4, t_e: 9, median_step: 2 }],
            spans: vec![Span { call: Call::Rewire, iter: 1, start: 5, end: 6 }],
            ..RankTiming::default()
        };
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let mut at = 0;
        assert_eq!(RankTiming::decode(&buf, &mut at), Some(t));
        assert_eq!(at, buf.len());
        assert!(RankTiming::decode(&buf[..buf.len() - 1], &mut 0).is_none());
    }
}
