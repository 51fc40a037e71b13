//! Worker-side health watch and fault-tolerant communication wrappers.
//!
//! "The communication routines are checked for a failure acknowledgment
//! signal from the FD process" (§IV-D) and "the worker processes
//! communicating directly with the failed processes keep on returning with
//! GASPI_TIMEOUT unless a failure acknowledgment is received" (§IV-A).
//!
//! [`HealthWatch::check`] is the cheap pre-communication test (an atomic
//! peek of the epoch notification). The `*_ft` wrappers implement the
//! retry-until-acknowledged loop: they issue the underlying GASPI call
//! with a short timeout and re-check the watch between attempts, so a
//! worker stuck on a dead partner leaves the call the moment the FD's
//! acknowledgment lands — as a typed [`FtSignal::Recover`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_cluster::Rank;
use ft_gaspi::{GaspiError, GaspiProc, Group, NotificationId, ReduceOp, SegId, Timeout};

use crate::ack::{self, CTRL_SEG, EPOCH_NOTIF, SHUTDOWN_NOTIF};
use crate::error::{FtError, FtResult, FtSignal};

/// Tuning knobs for the fault-tolerant communication wrappers.
#[derive(Debug, Clone)]
pub struct CommPolicy {
    /// Per-attempt GASPI timeout (the paper sets 1 s; the simulation
    /// scales it down).
    pub attempt: Timeout,
    /// Give up entirely after this long without progress or
    /// acknowledgment. Guards against the paper's restriction 2 (no FD
    /// left to acknowledge) turning into an infinite hang.
    pub abandon: Duration,
    /// Queue used for worker→FD suspect reports (the link-fault path).
    /// Must differ from any queue carrying the traffic being retried:
    /// `report_suspect` waits on this queue, and waiting on the queue of
    /// the broken operation would consume its completions. Defaults to
    /// the highest default app queue.
    pub suspect_queue: u16,
}

impl Default for CommPolicy {
    fn default() -> Self {
        Self { attempt: Timeout::Ms(20), abandon: Duration::from_secs(10), suspect_queue: 7 }
    }
}

/// Sentinel for "no FD rank configured" in [`HealthWatch::fd_rank`].
const FD_UNSET: u64 = u64::MAX;

/// The per-rank failure-acknowledgment watch.
pub struct HealthWatch {
    proc: GaspiProc,
    seen_epoch: Arc<AtomicU64>,
    policy: CommPolicy,
    /// Current detector rank, or [`FD_UNSET`]. Workers report broken
    /// partners here (the paper's link-fault path: the FD's own pings may
    /// not cross a severed worker↔worker link).
    fd_rank: AtomicU64,
    /// Ranks already reported — each suspect is flagged to the FD once.
    reported: parking_lot::Mutex<std::collections::HashSet<Rank>>,
}

impl HealthWatch {
    /// Watch for acknowledgments on `proc`'s control segment.
    pub fn new(proc: GaspiProc, policy: CommPolicy) -> Self {
        Self {
            proc,
            seen_epoch: Arc::new(AtomicU64::new(0)),
            policy,
            fd_rank: AtomicU64::new(FD_UNSET),
            reported: parking_lot::Mutex::new(std::collections::HashSet::new()),
        }
    }

    /// Enable worker→FD suspect reporting, aimed at `fd`. The driver sets
    /// this at startup and again whenever a recovery plan or takeover
    /// moves the detector; without it the watch never reports (the
    /// pre-link-fault behavior).
    pub fn set_fd_rank(&self, fd: Rank) {
        self.fd_rank.store(u64::from(fd), Ordering::Release);
    }

    /// Disable suspect reporting (no detector left — e.g. the FD promoted
    /// itself to worker under restriction 2).
    pub fn clear_fd_rank(&self) {
        self.fd_rank.store(FD_UNSET, Ordering::Release);
    }

    /// Best-effort once-only suspect reports to the FD. Skips silently
    /// when no FD is configured, when *we* are the FD, or when the
    /// suspect *is* the FD (the FD-liveness watchdog owns that case).
    fn report_broken(&self, ranks: &[Rank]) {
        let fd = self.fd_rank.load(Ordering::Acquire);
        if fd == FD_UNSET || fd == u64::from(self.proc.rank()) {
            return;
        }
        let fd = fd as Rank;
        let mut reported = self.reported.lock();
        for &r in ranks {
            if r == fd || r == self.proc.rank() || !reported.insert(r) {
                continue;
            }
            // Delivery failure is tolerable: the FD may be unreachable
            // too, and the ordinary scan-and-acknowledge path still runs.
            let _ = ack::report_suspect(
                &self.proc,
                fd,
                r,
                self.policy.suspect_queue,
                self.policy.attempt,
            );
        }
    }

    /// The underlying process handle.
    pub fn proc(&self) -> &GaspiProc {
        &self.proc
    }

    /// The policy in effect.
    pub fn policy(&self) -> &CommPolicy {
        &self.policy
    }

    /// The newest epoch this rank has acknowledged locally.
    pub fn seen_epoch(&self) -> u64 {
        self.seen_epoch.load(Ordering::Acquire)
    }

    /// Mark `epoch` as handled (the driver calls this when a recovery
    /// completes, so an in-flight plan isn't signalled twice).
    pub fn acknowledge(&self, epoch: u64) {
        self.seen_epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// The cheap pre-communication check: returns `Ok(())` when nothing
    /// happened; a typed signal otherwise.
    pub fn check(&self) -> FtResult<()> {
        if self.proc.notify_peek(CTRL_SEG, SHUTDOWN_NOTIF)? != 0 {
            return Err(FtError::Signal(FtSignal::Shutdown));
        }
        let epoch = u64::from(self.proc.notify_peek(CTRL_SEG, EPOCH_NOTIF)?);
        if epoch > self.seen_epoch() {
            if let Some(plan) = ack::read_plan(&self.proc)? {
                if plan.epoch > self.seen_epoch() {
                    self.seen_epoch.store(plan.epoch, Ordering::Release);
                    return Err(FtError::Signal(FtSignal::Recover(plan)));
                }
            }
        }
        Ok(())
    }

    /// Block until a signal arrives (idle processes park here).
    pub fn wait_signal(&self, lap: Duration) -> FtError {
        loop {
            if let Err(sig) = self.check() {
                return sig;
            }
            std::thread::sleep(lap);
        }
    }

    /// Generic retry loop shared by the `*_ft` wrappers.
    ///
    /// Timeouts re-attempt. A *broken* completion (dead partner or severed
    /// link) is final for this operation — the data did not arrive — so
    /// the loop reports the broken partners to the FD (see
    /// [`Self::report_broken`]), then stops attempting and holds position,
    /// polling only the watch, until the FD's acknowledgment (or the
    /// abandon deadline) arrives. This is the paper's "keep on returning
    /// with GASPI_TIMEOUT unless a failure acknowledgment is received".
    fn retry<T>(&self, mut attempt: impl FnMut() -> Result<T, GaspiError>) -> FtResult<T> {
        let deadline = Instant::now() + self.policy.abandon;
        let mut broken = false;
        loop {
            self.check()?;
            if broken {
                std::thread::sleep(Duration::from_millis(1));
            } else {
                match attempt() {
                    Ok(v) => return Ok(v),
                    Err(GaspiError::Timeout) => {}
                    Err(GaspiError::QueueFailure { ranks, .. }) => {
                        self.report_broken(&ranks);
                        broken = true
                    }
                    Err(GaspiError::RemoteBroken { rank }) => {
                        self.report_broken(&[rank]);
                        broken = true
                    }
                    Err(e) => return Err(FtError::Gaspi(e)),
                }
            }
            if Instant::now() >= deadline {
                return Err(FtError::Gaspi(GaspiError::Timeout));
            }
        }
    }

    /// Fault-tolerant `gaspi_wait`.
    pub fn wait_ft(&self, queue: u16) -> FtResult<()> {
        self.retry(|| self.proc.wait(queue, self.policy.attempt))
    }

    /// Fault-tolerant `gaspi_notify_waitsome`.
    pub fn notify_waitsome_ft(
        &self,
        seg: SegId,
        begin: NotificationId,
        count: u32,
    ) -> FtResult<NotificationId> {
        self.retry(|| self.proc.notify_waitsome(seg, begin, count, self.policy.attempt))
    }

    /// Fault-tolerant barrier on `group`.
    pub fn barrier_ft(&self, group: Group) -> FtResult<()> {
        self.retry(|| self.proc.barrier(group, self.policy.attempt))
    }

    /// Fault-tolerant `f64` allreduce on `group`.
    pub fn allreduce_f64_ft(
        &self,
        group: Group,
        input: &[f64],
        op: ReduceOp,
    ) -> FtResult<Vec<f64>> {
        self.retry(|| self.proc.allreduce_f64(group, input, op, self.policy.attempt))
    }

    /// Fault-tolerant `u64` allreduce on `group`.
    pub fn allreduce_u64_ft(
        &self,
        group: Group,
        input: &[u64],
        op: ReduceOp,
    ) -> FtResult<Vec<u64>> {
        self.retry(|| self.proc.allreduce_u64(group, input, op, self.policy.attempt))
    }

    /// Fault-tolerant personalised all-to-all on `group`.
    pub fn alltoall_ft(&self, group: Group, out: &[Vec<u8>]) -> FtResult<Vec<Vec<u8>>> {
        self.retry(|| self.proc.alltoall(group, out, self.policy.attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ack::create_ctrl_segment;
    use crate::layout::WorldLayout;
    use crate::plan::RecoveryPlan;
    use ft_gaspi::{GaspiConfig, GaspiWorld};

    #[test]
    fn check_is_quiet_then_signals_once() {
        let layout = WorldLayout::new(2, 1);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let fd = world.proc_handle(layout.fd_rank());
        let w0 = world.proc_handle(0);
        create_ctrl_segment(&fd, &layout).unwrap();
        create_ctrl_segment(&w0, &layout).unwrap();
        let watch = HealthWatch::new(w0, CommPolicy::default());
        assert!(watch.check().is_ok());
        let plan = RecoveryPlan {
            epoch: 1,
            failed: vec![1],
            rescues: vec![2],
            fd_alive: true,
            fd_rank: None,
        };
        ack::broadcast_plan(&fd, &plan, &[0], 0, Timeout::Ms(2000)).unwrap();
        // Wait for delivery, then the check must fire exactly once.
        std::thread::sleep(Duration::from_millis(20));
        match watch.check() {
            Err(FtError::Signal(FtSignal::Recover(p))) => assert_eq!(p, plan),
            other => panic!("expected Recover, got {other:?}"),
        }
        assert!(watch.check().is_ok(), "same epoch must not re-signal");
        assert_eq!(watch.seen_epoch(), 1);
    }

    #[test]
    fn shutdown_signal_wins() {
        let layout = WorldLayout::new(1, 1);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let fd = world.proc_handle(layout.fd_rank());
        let w0 = world.proc_handle(0);
        create_ctrl_segment(&fd, &layout).unwrap();
        create_ctrl_segment(&w0, &layout).unwrap();
        ack::broadcast_shutdown(&fd, &[0], 0, Timeout::Ms(2000)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let watch = HealthWatch::new(w0, CommPolicy::default());
        assert!(matches!(watch.check(), Err(FtError::Signal(FtSignal::Shutdown))));
    }

    #[test]
    fn retry_surfaces_ack_during_blocked_wait() {
        let layout = WorldLayout::new(2, 1);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let fd = world.proc_handle(layout.fd_rank());
        let w0 = world.proc_handle(0);
        create_ctrl_segment(&fd, &layout).unwrap();
        create_ctrl_segment(&w0, &layout).unwrap();
        w0.segment_create(5, 64).unwrap();
        // Kill rank 1 and post a write to it: wait_ft would loop forever on
        // QueueFailure — until the FD acks.
        world.fault().kill_rank(1);
        w0.write(5, 0, 1, 5, 0, 8, 0).unwrap();
        let watch = HealthWatch::new(
            w0,
            CommPolicy {
                attempt: Timeout::Ms(5),
                abandon: Duration::from_secs(30),
                ..CommPolicy::default()
            },
        );
        let fd2 = fd.clone();
        let layout2 = layout;
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let plan = RecoveryPlan {
                epoch: 1,
                failed: vec![1],
                rescues: vec![2],
                fd_alive: true,
                fd_rank: None,
            };
            ack::broadcast_plan(&fd2, &plan, &[0], 0, Timeout::Ms(2000)).unwrap();
            let _ = layout2;
        });
        match watch.wait_ft(0) {
            Err(FtError::Signal(FtSignal::Recover(p))) => assert_eq!(p.epoch, 1),
            other => panic!("expected Recover, got {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn broken_partner_is_reported_to_the_fd_once() {
        let layout = WorldLayout::new(3, 1);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let fd = world.proc_handle(layout.fd_rank());
        let w0 = world.proc_handle(0);
        create_ctrl_segment(&fd, &layout).unwrap();
        create_ctrl_segment(&w0, &layout).unwrap();
        w0.segment_create(5, 64).unwrap();
        // Sever the w0→w1 link only: the FD's own pings to rank 1 still
        // succeed, so only the worker's report can surface the fault.
        world.fault().break_link_directed(0, 1);
        w0.write(5, 0, 1, 5, 0, 8, 0).unwrap();
        let watch = HealthWatch::new(
            w0.clone(),
            CommPolicy {
                attempt: Timeout::Ms(5),
                abandon: Duration::from_millis(80),
                ..CommPolicy::default()
            },
        );
        watch.set_fd_rank(layout.fd_rank());
        assert!(matches!(watch.wait_ft(0), Err(FtError::Gaspi(GaspiError::Timeout))));
        let suspects = ack::drain_suspects(&fd, layout.total()).unwrap();
        assert_eq!(suspects, vec![1], "w0 must flag its unreachable partner");
        // Second trip over the same broken partner must not re-report.
        w0.write(5, 0, 1, 5, 0, 8, 0).unwrap();
        assert!(matches!(watch.wait_ft(0), Err(FtError::Gaspi(GaspiError::Timeout))));
        assert!(ack::drain_suspects(&fd, layout.total()).unwrap().is_empty());
    }

    #[test]
    fn retry_abandons_without_fd() {
        let layout = WorldLayout::new(2, 1);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let w0 = world.proc_handle(0);
        create_ctrl_segment(&w0, &layout).unwrap();
        w0.segment_create(5, 64).unwrap();
        world.fault().kill_rank(1);
        w0.write(5, 0, 1, 5, 0, 8, 0).unwrap();
        let watch = HealthWatch::new(
            w0,
            CommPolicy {
                attempt: Timeout::Ms(5),
                abandon: Duration::from_millis(100),
                ..CommPolicy::default()
            },
        );
        let t0 = Instant::now();
        assert!(matches!(watch.wait_ft(0), Err(FtError::Gaspi(GaspiError::Timeout))));
        assert!(t0.elapsed() >= Duration::from_millis(100));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
