//! Worker-side health watch and fault-tolerant communication wrappers.
//!
//! "The communication routines are checked for a failure acknowledgment
//! signal from the FD process" (§IV-D) and "the worker processes
//! communicating directly with the failed processes keep on returning with
//! GASPI_TIMEOUT unless a failure acknowledgment is received" (§IV-A).
//!
//! [`HealthWatch::check`] is the cheap pre-communication test (two peeks
//! of the control segment's notifications). The watch also holds the
//! *plan in force* — the newest plan this rank has received — and is the
//! one place an arriving plan is classified: one that leaves the worker
//! group as it is (a detector takeover, a dead idle) is absorbed on the
//! spot and nothing is interrupted; only one that changes the group
//! surfaces, as a typed [`FtSignal::Recover`]. [`HealthWatch::retry`] is
//! the retry-until-acknowledged loop behind `FtCtx`'s `*_ft` calls: it
//! issues the underlying GASPI call under a wake on the control segment's
//! epoch and shutdown slots ([`GaspiProc::wake_on`]), so the FD's
//! acknowledgment itself ends a wait blocked on a dead partner, and the
//! worker leaves the call the moment the acknowledgment lands. The call
//! is given all the time left before the watch's abandon deadline, so a
//! blocked call parks once: nothing but its event, a plan or shutdown
//! word, a broken completion (of this call or any other), or abandon
//! ends it.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use ft_cluster::Rank;
use ft_gaspi::{GaspiError, GaspiProc, ProcState, Timeout};

use crate::ack::{self, CTRL_SEG, EPOCH_NOTIF, SHUTDOWN_NOTIF};
use crate::error::{FtError, FtResult, FtSignal};
use crate::layout::{RankMap, WorldLayout};
use crate::plan::RecoveryPlan;

/// Queue used for worker→FD suspect reports (the link-fault path): the
/// highest app queue. Must differ from any queue carrying the traffic
/// being retried: `report_suspect` waits on this queue, and waiting on
/// the queue of the broken operation would consume its completions.
const SUSPECT_QUEUE: u16 = ft_gaspi::APP_QUEUES - 1;

/// The plan in force and the rank map it derives (cached: `gaspi_of` sits
/// on the halo exchange's per-message path).
struct InForce {
    plan: RecoveryPlan,
    map: RankMap,
}

/// The per-rank failure-acknowledgment watch.
pub struct HealthWatch {
    proc: GaspiProc,
    layout: WorldLayout,
    /// How long a [`Self::retry`] waits in all before it gives up.
    abandon: Duration,
    /// The flush timeout of a suspect report: the detector's `ack_timeout`.
    ack_timeout: Timeout,
    held: RefCell<InForce>,
    /// CORRUPT ranks at the last look: each is reported once, on showing.
    seen: RefCell<Vec<Rank>>,
}

impl HealthWatch {
    /// Watch for acknowledgments on `proc`'s control segment, starting
    /// from the initial plan of `layout`. A [`Self::retry`] gives up after
    /// `abandon` without success or acknowledgment: the guard against the
    /// paper's restriction 2 (no FD left to acknowledge) turning into an
    /// infinite hang. A suspect report's write waits up to `ack_timeout`.
    pub fn new(
        proc: GaspiProc,
        layout: WorldLayout,
        abandon: Duration,
        ack_timeout: Timeout,
    ) -> Self {
        let plan = RecoveryPlan::initial();
        let held = RefCell::new(InForce { map: plan.rank_map(&layout), plan });
        Self { proc, layout, abandon, ack_timeout, held, seen: RefCell::default() }
    }

    /// The plan in force (epoch 0 = initial world).
    pub fn plan(&self) -> RecoveryPlan {
        self.held.borrow().plan.clone()
    }

    /// The application-rank map of the plan in force.
    pub fn rank_map(&self) -> RankMap {
        self.held.borrow().map.clone()
    }

    /// GASPI rank carrying `app_rank` under the plan in force.
    pub fn gaspi_of(&self, app_rank: u32) -> Rank {
        self.held.borrow().map.gaspi_of(app_rank)
    }

    /// Put `plan` in force if it is newer than the one held, and say
    /// whether that changes the worker group. [`Self::check`] does this
    /// for every plan that arrives; a detector calls it for the plans it
    /// broadcasts itself, which never arrive on its own control segment.
    pub(crate) fn adopt(&self, plan: RecoveryPlan) -> bool {
        let mut held = self.held.borrow_mut();
        if plan.epoch <= held.plan.epoch {
            return false;
        }
        let regroups = held.plan.regroups(&plan);
        *held = InForce { map: plan.rank_map(&self.layout), plan };
        regroups
    }

    /// Whether ranks turned CORRUPT since the last look (a broken
    /// completion of any call) that the plan in force counts alive, other
    /// than its detector: reported once each, best effort, to the detector
    /// in force (the paper's link-fault path: its own pings may not cross a
    /// severed worker↔worker link), if there is one and it is not us.
    fn report_broken(&self) -> bool {
        let states = (0..).zip(self.proc.state_vec_get());
        let corrupt: Vec<Rank> =
            states.filter_map(|(r, s)| (s == ProcState::Corrupt).then_some(r)).collect();
        if corrupt.len() == self.seen.borrow().len() {
            return false;
        }
        let seen = self.seen.replace(corrupt.clone());
        let held = self.held.borrow();
        let (fd, me) = (held.plan.current_fd(&self.layout), self.proc.rank());
        let alive = |r: &Rank| *r != fd && *r != me && !held.plan.failed.contains(r);
        let suspects: Vec<Rank> = corrupt.into_iter().filter(alive).collect();
        if held.plan.fd_alive && fd != me {
            for &r in suspects.iter().filter(|r| !seen.contains(r)) {
                // Delivery failure is tolerable: the FD may be unreachable
                // too, and the ordinary scan-and-acknowledge path still runs.
                let _ = ack::report_suspect(&self.proc, fd, r, SUSPECT_QUEUE, self.ack_timeout);
            }
        }
        !suspects.is_empty()
    }

    /// The underlying process handle.
    pub fn proc(&self) -> &GaspiProc {
        &self.proc
    }

    /// The cheap pre-communication check: `Ok(())` when nothing happened
    /// *or* a newer plan arrived that leaves the worker group unchanged
    /// (now in force; the caller carries on undisturbed), a typed signal
    /// otherwise. Classification runs only on an epoch bump.
    pub fn check(&self) -> FtResult<()> {
        self.look().map(drop)
    }

    /// [`Self::check`], returning the epoch slot's value as it read it.
    fn look(&self) -> FtResult<u32> {
        if self.proc.notify_peek(CTRL_SEG, SHUTDOWN_NOTIF)? != 0 {
            return Err(FtError::Signal(FtSignal::Shutdown));
        }
        let seen = self.proc.notify_peek(CTRL_SEG, EPOCH_NOTIF)?;
        if u64::from(seen) > self.held.borrow().plan.epoch {
            if let Some(plan) = ack::read_plan(&self.proc)? {
                if self.adopt(plan.clone()) {
                    return Err(FtError::Signal(FtSignal::Recover(plan)));
                }
            }
        }
        Ok(seen)
    }

    /// One attempt of a blocking GASPI call: [`Self::check`], then `call`
    /// under a wake ([`GaspiProc::wake_on`]) that ends any wait inside it
    /// with `GaspiError::Timeout` once the epoch slot moves past the value
    /// the check read, the shutdown word lands, or a completion fails that
    /// the watch has not looked at. A plan that arrives between the check
    /// and the park therefore ends the park at once.
    fn attempt<T>(
        &self,
        call: impl FnOnce() -> Result<T, GaspiError>,
    ) -> FtResult<Result<T, GaspiError>> {
        let seen = self.look()?;
        let slots = [(EPOCH_NOTIF, seen), (SHUTDOWN_NOTIF, 0)];
        Ok(self.proc.wake_on(CTRL_SEG, &slots, Some(self.seen.borrow().len()), call))
    }

    /// Hold position: an [`Self::attempt`] parked on the shutdown slot
    /// until a newer plan or the shutdown word lands, or `timeout` passes.
    /// A plan its check put in force ends the park at once: the caller may
    /// have to act on it even if the group stays (an idle on the end plan).
    pub(crate) fn park(&self, timeout: Timeout) -> FtResult<()> {
        let held = self.held.borrow().plan.epoch;
        let wait = || match self.held.borrow().plan.epoch == held {
            true => self.proc.notify_waitsome(CTRL_SEG, SHUTDOWN_NOTIF, 1, timeout),
            false => Err(GaspiError::Timeout),
        };
        match self.attempt(wait)? {
            Ok(_) | Err(GaspiError::Timeout) => Ok(()),
            Err(e) => Err(FtError::Gaspi(e)),
        }
    }

    /// Run `call`, a GASPI call given the time left as its timeout, until
    /// it succeeds, the watch raises a signal, or `abandon` has passed
    /// since the first try. Each try is one `attempt` and waits for all
    /// the time left, so a blocked call parks once and ends on its own
    /// event, a plan or shutdown word (a plan that leaves the group as it
    /// is resumes the call), a broken completion, or abandon. A *broken*
    /// completion (dead partner or severed link) is final for this
    /// operation — the data did not arrive — so the loop reports the
    /// broken partners to the FD (see `report_broken`), then stops
    /// attempting and holds position, parked on the control segment, until
    /// the FD's acknowledgment (or the abandon deadline) arrives. This is
    /// the paper's "keep on returning with GASPI_TIMEOUT unless a failure
    /// acknowledgment is received".
    pub fn retry<T>(&self, mut call: impl FnMut(Timeout) -> Result<T, GaspiError>) -> FtResult<T> {
        let deadline = Instant::now() + self.abandon;
        let mut broken = false;
        loop {
            // Rounded up: a call that times out ends at or past `deadline`.
            let left = deadline.saturating_duration_since(Instant::now());
            let left = Timeout::Ms(left.as_micros().div_ceil(1000) as u64);
            if broken {
                self.park(left)?;
            } else {
                match self.attempt(|| call(left))? {
                    Ok(v) => return Ok(v),
                    Err(GaspiError::Timeout) => {}
                    Err(GaspiError::QueueFailure { .. } | GaspiError::RemoteBroken { .. }) => {
                        broken = true
                    }
                    Err(e) => return Err(FtError::Gaspi(e)),
                }
            }
            broken |= self.report_broken();
            if Instant::now() >= deadline {
                return Err(FtError::Gaspi(GaspiError::Timeout));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ack::{create_ctrl_segment, FIRST_APP_SEG};
    use crate::detector::DetectorConfig;
    use ft_gaspi::{GaspiConfig, GaspiWorld, ReduceOp};

    /// A watch on `proc` that abandons after `abandon`.
    fn watch(proc: GaspiProc, layout: WorldLayout, abandon: Duration) -> HealthWatch {
        HealthWatch::new(proc, layout, abandon, DetectorConfig::default().ack_timeout)
    }

    /// A world, and the handles of `ranks`, each with its control segment.
    fn world<const N: usize>(
        workers: u32,
        spares: u32,
        ranks: [Rank; N],
    ) -> (WorldLayout, GaspiWorld, [GaspiProc; N]) {
        let layout = WorldLayout::new(workers, spares);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let procs = ranks.map(|r| world.proc_handle(r));
        procs.iter().for_each(|p| create_ctrl_segment(p, &layout).unwrap());
        (layout, world, procs)
    }

    /// Fault-tolerant `gaspi_wait` on queue 0, as `FtCtx::wait_ft` runs it.
    fn wait_ft(watch: &HealthWatch) -> FtResult<()> {
        watch.retry(|t| watch.proc().wait(0, t))
    }

    #[test]
    fn check_is_quiet_then_signals_once() {
        let (layout, _world, [fd, w0]) = world(2, 1, [2, 0]);
        let watch = watch(w0, layout, Duration::from_secs(10));
        assert!(watch.check().is_ok());
        let plan = RecoveryPlan::initial().after_failures(&layout, &[1], None);
        ack::broadcast_plan(&fd, &plan, &[0], 0, Timeout::Ms(2000)).unwrap();
        // Wait for delivery, then the check must fire exactly once.
        std::thread::sleep(Duration::from_millis(20));
        match watch.check() {
            Err(FtError::Signal(FtSignal::Recover(p))) => assert_eq!(p, plan),
            other => panic!("expected Recover, got {other:?}"),
        }
        assert!(watch.check().is_ok(), "same epoch must not re-signal");
        assert_eq!(watch.plan(), plan);
    }

    #[test]
    fn shutdown_signal_wins() {
        let (layout, _world, [fd, w0]) = world(1, 1, [1, 0]);
        ack::broadcast_shutdown(&fd, &[0], 0, Timeout::Ms(2000)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let watch = watch(w0, layout, Duration::from_secs(10));
        assert!(matches!(watch.check(), Err(FtError::Signal(FtSignal::Shutdown))));
    }

    #[test]
    fn retry_surfaces_ack_during_blocked_wait() {
        let (layout, world, [fd, w0]) = world(2, 1, [2, 0]);
        w0.segment_create(5, 64).unwrap();
        // Kill rank 1 and post a write to it: wait_ft would loop forever on
        // QueueFailure — until the FD acks.
        world.fault().kill_rank(1);
        w0.write(5, 0, 1, 5, 0, 8, 0).unwrap();
        let watch = watch(w0, layout, Duration::from_secs(30));
        let fd2 = fd.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let plan = RecoveryPlan::initial().after_failures(&layout, &[1], None);
            ack::broadcast_plan(&fd2, &plan, &[0], 0, Timeout::Ms(2000)).unwrap();
        });
        match wait_ft(&watch) {
            Err(FtError::Signal(FtSignal::Recover(p))) => assert_eq!(p.epoch, 1),
            other => panic!("expected Recover, got {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn retry_wakes_on_the_acknowledgment() {
        let (layout, _world, [fd, w0]) = world(2, 1, [2, 0]);
        w0.segment_create(FIRST_APP_SEG, 64).unwrap();
        // The time left outlasts the test: only the acknowledgment can end it.
        let watch = watch(w0, layout, Duration::from_secs(30));
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let plan = RecoveryPlan::initial().after_failures(&layout, &[1], None);
            ack::broadcast_plan(&fd, &plan, &[0], 0, Timeout::Ms(2000)).unwrap();
        });
        let t0 = Instant::now();
        // A halo wait for a partner that never writes.
        match watch.retry(|t| watch.proc().notify_waitsome(FIRST_APP_SEG, 0, 1, t)) {
            Err(FtError::Signal(FtSignal::Recover(p))) => assert_eq!(p.epoch, 1),
            other => panic!("expected Recover, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(1), "Recover after {:?}", t0.elapsed());
        h.join().unwrap();
    }

    #[test]
    fn a_takeover_mid_allreduce_is_absorbed_and_the_allreduce_resumes() {
        let (layout, _world, [w0, w1, shadow]) = world(2, 3, [0, 1, 3]); // idle 2, FD 4
        let workers = |p: &GaspiProc| {
            let g = p.group_create_with_id(1 << 32).unwrap();
            for r in 0..2 {
                p.group_add(g, r).unwrap();
            }
            p.group_commit(g, Timeout::Ms(5_000)).unwrap();
            g
        };
        let watch = watch(w0.clone(), layout, Duration::from_secs(30));
        let takeover = RecoveryPlan::initial().after_takeover(&layout, 3);
        let (tried, tries) = std::sync::mpsc::channel();
        let t0 = Instant::now();
        let (sum, attempts) = std::thread::scope(|s| {
            // The late peer: the takeover lands while w0 waits for it in
            // its first attempt; it joins the allreduce only once w0 tried
            // again.
            let late = s.spawn(|| {
                let tries = tries;
                let g = workers(&w1);
                tries.recv().unwrap();
                ack::broadcast_plan(&shadow, &takeover, &[0], 0, Timeout::Ms(2000)).unwrap();
                tries.recv().unwrap();
                w1.allreduce_f64(g, &[2.0], ReduceOp::Sum, Timeout::Ms(5_000)).unwrap()
            });
            let g = workers(&w0);
            let mut attempts = 0;
            let sum = watch.retry(|t| {
                attempts += 1;
                let _ = tried.send(());
                w0.allreduce_f64(g, &[1.0], ReduceOp::Sum, t)
            });
            assert_eq!(late.join().unwrap(), vec![3.0]);
            (sum, attempts)
        });
        assert_eq!(sum.expect("a takeover must not interrupt"), vec![3.0]);
        assert_eq!(attempts, 2, "the plan ends the first attempt; the second resumes it");
        assert_eq!(watch.plan(), takeover);
        assert!(t0.elapsed() < Duration::from_millis(2_500), "took {:?}", t0.elapsed());
    }

    #[test]
    fn broken_partner_is_reported_once_to_the_detector_in_force() {
        let (layout, world, [w0, shadow, fd]) = world(3, 3, [0, 4, 5]); // idle 3
        w0.segment_create(5, 64).unwrap();
        let watch = watch(w0.clone(), layout, Duration::from_millis(80));
        // Sever a w0→partner link only: the FD's own pings to the partner
        // still succeed, so only the worker's report can surface the fault.
        let break_and_trip = |partner: Rank| {
            world.fault().break_link_directed(0, partner);
            w0.write(5, 0, partner, 5, 0, 8, 0).unwrap();
            assert!(matches!(wait_ft(&watch), Err(FtError::Gaspi(GaspiError::Timeout))));
        };
        break_and_trip(1);
        let suspects = ack::drain_suspects(&fd, layout.total()).unwrap();
        assert_eq!(suspects, vec![1], "w0 must flag its unreachable partner");
        // Second trip over the same broken partner must not re-report.
        break_and_trip(1);
        assert!(ack::drain_suspects(&fd, layout.total()).unwrap().is_empty());
        // The shadow takes over: the plan is absorbed without a signal, and
        // the next broken partner is reported to the new detector.
        let takeover = RecoveryPlan::initial().after_takeover(&layout, 4);
        ack::broadcast_plan(&shadow, &takeover, &[0], 0, Timeout::Ms(2000)).unwrap();
        w0.notify_waitsome(CTRL_SEG, EPOCH_NOTIF, 1, Timeout::Ms(2000)).unwrap();
        assert!(watch.check().is_ok(), "a detector-only plan must not interrupt");
        assert_eq!(watch.plan(), takeover);
        break_and_trip(2);
        assert_eq!(ack::drain_suspects(&shadow, layout.total()).unwrap(), vec![2]);
        assert!(ack::drain_suspects(&fd, layout.total()).unwrap().is_empty());
    }

    #[test]
    fn retry_abandons_without_fd() {
        let (layout, world, [w0]) = world(2, 1, [0]);
        w0.segment_create(5, 64).unwrap();
        world.fault().kill_rank(1);
        w0.write(5, 0, 1, 5, 0, 8, 0).unwrap();
        let watch = watch(w0, layout, Duration::from_millis(100));
        let t0 = Instant::now();
        assert!(matches!(wait_ft(&watch), Err(FtError::Gaspi(GaspiError::Timeout))));
        assert!(t0.elapsed() >= Duration::from_millis(100));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_wait_nobody_answers_is_one_call_that_ends_at_abandon() {
        let (layout, _world, [w0]) = world(2, 1, [0]);
        w0.segment_create(FIRST_APP_SEG, 64).unwrap();
        let abandon = Duration::from_millis(300);
        let watch = watch(w0, layout, abandon);
        let (mut calls, t0) = (0, Instant::now());
        // A halo wait for a partner that never writes, and no detector.
        let out = watch.retry(|t| {
            calls += 1;
            watch.proc().notify_waitsome(FIRST_APP_SEG, 0, 1, t)
        });
        let took = t0.elapsed();
        assert!(matches!(out, Err(FtError::Gaspi(GaspiError::Timeout))), "{out:?}");
        assert_eq!(calls, 1, "the call parks once, for all the time left");
        assert!(took >= abandon, "gave up after {took:?}, before abandon");
        assert!(took < abandon + Duration::from_millis(100), "gave up after {took:?}");
    }
}
