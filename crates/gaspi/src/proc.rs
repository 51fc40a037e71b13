//! The per-rank process handle: the GASPI API surface.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ft_cluster::{Completion, NodeId, Outcome, Rank, RankKilled, Topology, Transport};

use crate::config::{GaspiConfig, PASSIVE_QUEUE, SERVICE_QUEUE};
use crate::endpoint;
use crate::error::{GaspiError, GaspiResult, ProcState, Timeout};
use crate::runtime::{RankShared, WorldInner};
use crate::segment::{NotificationId, SegId, Segment};

/// Handle through which a rank performs GASPI operations. Cloneable and
/// shareable across threads of the same process — the paper's *threaded*
/// fault detector pings many remotes concurrently through clones of one
/// handle.
#[derive(Clone)]
pub struct GaspiProc {
    world: Arc<WorldInner>,
    rank: Rank,
}

impl GaspiProc {
    pub(crate) fn new(world: Arc<WorldInner>, rank: Rank) -> Self {
        Self { world, rank }
    }

    pub(crate) fn world(&self) -> &Arc<WorldInner> {
        &self.world
    }

    pub(crate) fn shared(&self) -> &RankShared {
        self.world.shared(self.rank)
    }

    pub(crate) fn shared_arc(&self) -> Arc<RankShared> {
        Arc::clone(self.world.shared(self.rank))
    }

    /// This process's rank (`gaspi_proc_rank`).
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total ranks in the job (`gaspi_proc_num`).
    pub fn num_ranks(&self) -> u32 {
        self.world.cfg.num_ranks
    }

    /// The node this rank is placed on.
    pub fn node(&self) -> NodeId {
        self.world.topo.node_of(self.rank)
    }

    /// The job's rank→node placement.
    pub fn topology(&self) -> &Topology {
        &self.world.topo
    }

    /// The world configuration.
    pub fn config(&self) -> &GaspiConfig {
        &self.world.cfg
    }

    /// Node-local storage of the simulated cluster — the substrate the
    /// neighbor-level checkpoint library writes to. (A real GPI-2 rank
    /// would use its node's RAM disk; this is our equivalent.)
    pub fn cluster_storage(&self) -> Arc<ft_cluster::NodeStorage> {
        Arc::clone(&self.world.storage)
    }

    /// Transport handle for latency-costed non-GASPI traffic (the
    /// checkpoint library's neighbor copies).
    pub fn cluster_transport(&self) -> Arc<dyn Transport> {
        Arc::clone(&self.world.transport)
    }

    /// Install the world's checkpoint service handler (first install
    /// wins; see [`crate::CkptHandler`]). Messages arriving on the
    /// checkpoint service queues are routed here by the GASPI endpoint.
    pub fn install_ckpt_handler(&self, h: crate::runtime::CkptHandler) {
        let mut slot = self.world.ckpt_handler.lock();
        if slot.is_none() {
            *slot = Some(h);
        }
    }

    /// Fail-stop check: unwinds with [`RankKilled`] if this rank has been
    /// killed. Every API entry point calls this.
    pub(crate) fn check_self(&self) {
        self.world.fault.assert_alive(self.rank);
    }

    /// Cross a named fault-injection site on this rank's own thread.
    /// Free when injection is disabled; unwinds with [`RankKilled`] if an
    /// armed step-indexed action kills this rank (see [`ft_cluster::Injection`]).
    pub fn injection_site(&self, name: &'static str) {
        self.world.fault.site(self.rank, name);
    }

    /// Simulated `exit(-1)`: mark self dead and unwind the rank thread.
    pub fn exit_failure(&self) -> ! {
        self.world.fault.kill_rank(self.rank);
        RankKilled { rank: self.rank }.raise()
    }

    /// Snapshot of the error state vector (`gaspi_state_vec_get`). Set
    /// after every erroneous non-local operation; used by applications to
    /// identify the broken partner after a timeout (§III).
    pub fn state_vec_get(&self) -> Vec<ProcState> {
        self.check_self();
        self.shared()
            .state_vec
            .iter()
            .map(|s| {
                if s.load(Ordering::Acquire) == 0 {
                    ProcState::Healthy
                } else {
                    ProcState::Corrupt
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Poll loops
    // ------------------------------------------------------------------

    /// Run `call` with a wake condition on the calling thread: while it
    /// runs, every blocking wait it makes returns [`GaspiError::Timeout`]
    /// once one of `slots` — `(notification, value seen)` pairs of local
    /// segment `seg` — holds a value other than the one seen, or once the
    /// count of CORRUPT ranks in the state vector differs from `corrupt`.
    /// A condition that already holds ends the first wait at once. A wait
    /// whose own condition holds still completes. Waits on other threads
    /// are not affected. Without segment `seg` the call runs unconditioned.
    /// The previous condition is restored when `call` returns or unwinds.
    ///
    /// This is how a worker's blocked call learns of the fault detector's
    /// acknowledgment or a broken write: what lands either already wakes
    /// every parked wait of the rank, and the condition makes it give up.
    pub fn wake_on<R>(
        &self,
        seg: SegId,
        slots: &[(NotificationId, u32)],
        corrupt: Option<usize>,
        call: impl FnOnce() -> R,
    ) -> R {
        let wake = self.shared().segments.get(seg).map(|segment| Wake {
            segment,
            slots: slots.to_vec(),
            corrupt: corrupt.map(|seen| (self.shared_arc(), seen)),
        });
        let _restore = RestoreWake(WAKE.with(|w| w.replace(wake)));
        call()
    }

    /// Poll `f` until it yields, the deadline passes, the calling thread's
    /// wake condition fires (see [`GaspiProc::wake_on`]), or this rank dies.
    /// Between polls the thread sleeps on the rank's signal until a bump or
    /// the deadline. Whatever can change the answer bumps it: a notified
    /// put, a collective token or a passive message landing here, a
    /// completion of this rank's own posts, and any kill.
    pub(crate) fn poll<T>(
        &self,
        deadline: Option<Instant>,
        mut f: impl FnMut() -> Option<GaspiResult<T>>,
    ) -> GaspiResult<T> {
        let sig = &self.shared().signal;
        let mut seen = sig.generation();
        loop {
            self.check_self();
            if let Some(r) = f() {
                return r;
            }
            if woken() {
                return Err(GaspiError::Timeout);
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(GaspiError::Timeout);
                }
            }
            sig.wait_past(&mut seen, deadline);
        }
    }

    // ------------------------------------------------------------------
    // Segments
    // ------------------------------------------------------------------

    /// Create (and implicitly register) a segment of `size` bytes
    /// (`gaspi_segment_create`). Remote ranks can access it immediately.
    pub fn segment_create(&self, seg: SegId, size: usize) -> GaspiResult<()> {
        self.segment_create_with_slots(seg, size, crate::config::NOTIFICATION_SLOTS)
    }

    /// [`segment_create`](Self::segment_create) with `slots` notification
    /// slots instead of the default 1 024.
    pub fn segment_create_with_slots(
        &self,
        seg: SegId,
        size: usize,
        slots: u32,
    ) -> GaspiResult<()> {
        self.check_self();
        self.injection_site("gaspi.segment.create");
        self.shared().segments.create(seg, size, slots)
    }

    /// Size of a local segment in bytes.
    pub fn segment_size(&self, seg: SegId) -> GaspiResult<usize> {
        self.check_self();
        Ok(self.shared().segments.require(seg)?.size())
    }

    /// Read `len` bytes at `off` from a local segment.
    pub fn segment_read(&self, seg: SegId, off: usize, len: usize) -> GaspiResult<Vec<u8>> {
        self.check_self();
        self.shared().segments.require(seg)?.read_at(off, len)
    }

    /// Run `f` over a local segment's bytes (shared borrow).
    pub fn with_segment<R>(&self, seg: SegId, f: impl FnOnce(&[u8]) -> R) -> GaspiResult<R> {
        self.check_self();
        Ok(self.shared().segments.require(seg)?.with(f))
    }

    /// Run `f` over a local segment's bytes (exclusive borrow).
    pub fn with_segment_mut<R>(
        &self,
        seg: SegId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> GaspiResult<R> {
        self.check_self();
        Ok(self.shared().segments.require(seg)?.with_mut(f))
    }

    // ------------------------------------------------------------------
    // One-sided communication
    // ------------------------------------------------------------------

    fn validate_queue(&self, q: u16) -> GaspiResult<()> {
        if q >= crate::config::APP_QUEUES {
            return Err(GaspiError::InvalidArg("queue id out of range"));
        }
        Ok(())
    }

    fn validate_rank(&self, r: Rank) -> GaspiResult<()> {
        if r >= self.num_ranks() {
            return Err(GaspiError::InvalidArg("rank out of range"));
        }
        Ok(())
    }

    /// One-sided put (`gaspi_write`): copy `len` bytes from local segment
    /// `(lseg, loff)` into `(rseg, roff)` of `dst`. Non-blocking; complete
    /// with [`GaspiProc::wait`] on `queue`.
    #[allow(clippy::too_many_arguments)] // mirrors the GASPI signature
    pub fn write(
        &self,
        lseg: SegId,
        loff: usize,
        dst: Rank,
        rseg: SegId,
        roff: usize,
        len: usize,
        queue: u16,
    ) -> GaspiResult<()> {
        self.put("gaspi.write", Some((lseg, loff, len)), dst, (rseg, roff), None, queue)
    }

    /// Remote notification (`gaspi_notify`): set notification `nid` of
    /// `(dst, rseg)` to `value` (must be non-zero). Non-blocking.
    pub fn notify(
        &self,
        dst: Rank,
        rseg: SegId,
        nid: NotificationId,
        value: u32,
        queue: u16,
    ) -> GaspiResult<()> {
        self.put("gaspi.notify", None, dst, (rseg, 0), Some((nid, value)), queue)
    }

    /// Put followed by a notification visible only after the data
    /// (`gaspi_write_notify`) — the paper's mechanism both for pushing RHS
    /// halo values before each spMVM and for the fault detector's failure
    /// acknowledgment.
    #[allow(clippy::too_many_arguments)]
    pub fn write_notify(
        &self,
        lseg: SegId,
        loff: usize,
        dst: Rank,
        rseg: SegId,
        roff: usize,
        len: usize,
        nid: NotificationId,
        value: u32,
        queue: u16,
    ) -> GaspiResult<()> {
        let (local, notif) = (Some((lseg, loff, len)), Some((nid, value)));
        self.put("gaspi.write_notify", local, dst, (rseg, roff), notif, queue)
    }

    /// The three puts' shared body; the target's endpoint does the write.
    fn put(
        &self,
        site: &'static str,
        local: Option<(SegId, usize, usize)>,
        dst: Rank,
        (rseg, roff): (SegId, usize),
        notif: Option<(NotificationId, u32)>,
        queue: u16,
    ) -> GaspiResult<()> {
        self.check_self();
        self.injection_site(site);
        self.validate_queue(queue)?;
        self.validate_rank(dst)?;
        if notif.is_some_and(|(_, value)| value == 0) {
            return Err(GaspiError::InvalidArg("notification value must be non-zero"));
        }
        let data = match local {
            Some((lseg, loff, len)) => self.shared().segments.require(lseg)?.read_at(loff, len)?,
            None => Vec::new(),
        };
        let me = self.shared_arc();
        let qidx = queue as usize;
        me.queues[qidx].post();
        let cost = data.len() + 4;
        let msg = endpoint::enc_put(rseg, roff as u64, notif, &data);
        self.world.transport.send(
            self.rank,
            dst,
            queue,
            cost,
            msg,
            Box::new(move |out, reply| {
                if out == Outcome::Delivered && endpoint::reply_ok(&reply) {
                    me.queues[qidx].complete_ok();
                } else {
                    me.mark_corrupt(dst);
                    me.queues[qidx].complete_failed(dst);
                }
                me.signal.bump();
            }),
        );
        Ok(())
    }

    /// [`GaspiProc::write_notify`] of one local range to every rank of
    /// `dsts` in one [`Transport::call_fanout`] batch: the fault detector's
    /// acknowledgment (with `len == 0`, a batched [`GaspiProc::notify`]
    /// crossing that site instead). Each destination crosses the site and
    /// takes its own `queue` slot and failure record, as if posted alone;
    /// the batch wakes this rank once, when its last put lands.
    #[allow(clippy::too_many_arguments)]
    pub fn write_notify_many(
        &self,
        lseg: SegId,
        loff: usize,
        dsts: &[Rank],
        rseg: SegId,
        roff: usize,
        len: usize,
        nid: NotificationId,
        value: u32,
        queue: u16,
    ) -> GaspiResult<()> {
        self.check_self();
        self.validate_queue(queue)?;
        if value == 0 {
            return Err(GaspiError::InvalidArg("notification value must be non-zero"));
        }
        let site = if len == 0 { "gaspi.notify" } else { "gaspi.write_notify" };
        for &dst in dsts {
            self.injection_site(site);
            self.validate_rank(dst)?;
        }
        let data = self.shared().segments.require(lseg)?.read_at(loff, len)?;
        let qidx = queue as usize;
        let batch = Batch::new(self.shared_arc(), dsts.len());
        for _ in dsts {
            batch.owner.queues[qidx].post();
        }
        let msg = endpoint::enc_put(rseg, roff as u64, Some((nid, value)), &data);
        self.world.transport.call_fanout(
            self.rank,
            dsts,
            queue,
            len + 4,
            msg.into(),
            Arc::new(move |dst, out, reply| {
                let q = &batch.owner.queues[qidx];
                if out == Outcome::Delivered && endpoint::reply_ok(&reply) {
                    q.complete_ok();
                } else {
                    batch.owner.mark_corrupt(dst);
                    q.complete_failed(dst);
                }
                batch.land();
            }),
        );
        Ok(())
    }

    /// Block until every request posted to `queue` so far has completed
    /// (`gaspi_wait`). Returns `GASPI_ERROR` (as
    /// [`GaspiError::QueueFailure`]) if any completed with a broken
    /// connection; the broken completion marked its rank CORRUPT in the
    /// state vector.
    pub fn wait(&self, queue: u16, timeout: Timeout) -> GaspiResult<()> {
        self.check_self();
        self.injection_site("gaspi.queue.wait");
        self.validate_queue(queue)?;
        let q = &self.shared().queues[queue as usize];
        let target = q.posted();
        if !q.drained_to(target) {
            self.poll(timeout.deadline(), || q.drained_to(target).then_some(Ok(())))?;
        }
        let mut ranks = q.take_failures();
        if ranks.is_empty() {
            return Ok(());
        }
        ranks.sort_unstable();
        ranks.dedup();
        Err(GaspiError::QueueFailure { queue, ranks })
    }

    /// Discard the failure history of `queue` after waiting (bounded by
    /// `timeout`, best effort) for outstanding requests to complete.
    ///
    /// Used by post-recovery rewiring: requests posted to a process that
    /// subsequently failed complete as broken, and those records describe
    /// an already-acknowledged failure — a fresh epoch must not keep
    /// reporting it.
    pub fn queue_purge(&self, queue: u16, timeout: Timeout) -> GaspiResult<()> {
        self.check_self();
        self.validate_queue(queue)?;
        let q = &self.shared().queues[queue as usize];
        let target = q.posted();
        let _ = self.poll(timeout.deadline(), || q.drained_to(target).then_some(Ok(())));
        let _ = q.take_failures();
        Ok(())
    }

    /// Wait until some notification in `[begin, begin+count)` of local
    /// segment `seg` is non-zero (`gaspi_notify_waitsome`); returns its
    /// id. Pair with [`GaspiProc::notify_reset`].
    pub fn notify_waitsome(
        &self,
        seg: SegId,
        begin: NotificationId,
        count: u32,
        timeout: Timeout,
    ) -> GaspiResult<NotificationId> {
        self.check_self();
        let segment = self.shared().segments.require(seg)?;
        self.poll(timeout.deadline(), || segment.notify_scan(begin, count).map(Ok))
    }

    /// Atomically read-and-clear a local notification
    /// (`gaspi_notify_reset`), returning the previous value.
    pub fn notify_reset(&self, seg: SegId, nid: NotificationId) -> GaspiResult<u32> {
        self.check_self();
        self.shared().segments.require(seg)?.notify_reset(nid)
    }

    /// Non-destructive read of a local notification slot.
    pub fn notify_peek(&self, seg: SegId, nid: NotificationId) -> GaspiResult<u32> {
        self.check_self();
        self.shared().segments.require(seg)?.notify_peek(nid)
    }

    // ------------------------------------------------------------------
    // Ping / kill — the paper's fault-tolerance extensions
    // ------------------------------------------------------------------

    /// Post one service op through `post` and park until its completion
    /// lands, the timeout passes or this rank dies: the shared body of
    /// `proc_ping`, `proc_kill` and `passive_send`. `verdict` maps the
    /// transport's outcome and the endpoint's reply to a cell state, on the
    /// transport's thread. A [`BROKEN`] verdict returns
    /// [`GaspiError::RemoteBroken`] and marks `dst` CORRUPT.
    fn park_on(
        &self,
        dst: Rank,
        timeout: Timeout,
        verdict: fn(Outcome, &[u8]) -> u8,
        post: impl FnOnce(Completion),
    ) -> GaspiResult<()> {
        let cell = Arc::new(AtomicU8::new(PENDING));
        let me = self.shared_arc();
        let c1 = Arc::clone(&cell);
        post(Box::new(move |out, reply| {
            let state = verdict(out, &reply);
            if state == BROKEN {
                me.mark_corrupt(dst);
            }
            c1.store(state, Ordering::Release);
            me.signal.bump();
        }));
        self.poll(timeout.deadline(), || match cell.load(Ordering::Acquire) {
            PENDING => None,
            DONE => Some(Ok(())),
            BROKEN => Some(Err(GaspiError::RemoteBroken { rank: dst })),
            _ => Some(Err(GaspiError::Shutdown)),
        })
    }

    /// Test the availability of a rank (`gaspi_proc_ping`, the GPI-2
    /// extension introduced by the paper, §III): a ping message round
    /// trips to `dst`; a detected problem returns `GASPI_ERROR`
    /// ([`GaspiError::RemoteBroken`]) and marks `dst` CORRUPT.
    pub fn proc_ping(&self, dst: Rank, timeout: Timeout) -> GaspiResult<()> {
        self.check_self();
        self.validate_rank(dst)?;
        // A round trip (ping + pong leg), zero payload both ways.
        let verdict = |out, _: &[u8]| outcome_state(out);
        self.park_on(dst, timeout, verdict, |done| {
            let msg = endpoint::enc_ping();
            self.world.transport.call(self.rank, dst, SERVICE_QUEUE, 0, msg, done);
        })
    }

    /// Ping a whole set of ranks in one epoch batch and return those that
    /// failed, in ascending rank order (the batched form of
    /// [`GaspiProc::proc_ping`]; the fault detector's epoch scan).
    ///
    /// All pings are posted through one [`Transport::call_fanout`] — a
    /// single pass over the transport's shard locks and one shared payload
    /// allocation for the entire scan, instead of a post per target — and
    /// wakes this rank once, when its last answer lands. A rank counts as
    /// failed if its ping came back broken *or* had not answered by
    /// `timeout`. Note that `timeout` bounds the *whole batch*, not each
    /// ping — under load a healthy straggler can miss the shared window,
    /// so callers that must not over-suspect should re-verify the returned
    /// set with a second batch (see `ft_core::detector::glo_health_chk_graced`).
    /// Ranks whose ping came back broken are marked CORRUPT (matching
    /// [`GaspiProc::proc_ping`], which does not mark on a mere timeout);
    /// duplicate destinations are pinged once.
    pub fn proc_ping_many(&self, dsts: &[Rank], timeout: Timeout) -> GaspiResult<Vec<Rank>> {
        self.check_self();
        for &d in dsts {
            self.validate_rank(d)?;
        }
        let mut uniq: Vec<Rank> = dsts.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        if uniq.is_empty() {
            return Ok(Vec::new());
        }
        let states: Arc<Vec<AtomicU8>> =
            Arc::new(uniq.iter().map(|_| AtomicU8::new(PENDING)).collect());
        let batch = Batch::new(self.shared_arc(), uniq.len());
        let (st, ranks, landed) = (Arc::clone(&states), uniq.clone(), Arc::clone(&batch));
        self.world.transport.call_fanout(
            self.rank,
            &uniq,
            SERVICE_QUEUE,
            0,
            endpoint::enc_ping().into(),
            Arc::new(move |rank, out, _reply| {
                if let Ok(i) = ranks.binary_search(&rank) {
                    st[i].store(outcome_state(out), Ordering::Release);
                }
                // Only a *broken* round trip proves the remote corrupt.
                if out == Outcome::Broken {
                    landed.owner.mark_corrupt(rank);
                }
                landed.land();
            }),
        );
        match self.poll(timeout.deadline(), || {
            (batch.left.load(Ordering::Acquire) == 0).then_some(Ok(()))
        }) {
            Ok(()) | Err(GaspiError::Timeout) => {}
            Err(e) => return Err(e),
        }
        // Pending at the timeout and cancelled both mean "no answer".
        let answered = |i: usize| states[i].load(Ordering::Acquire) == DONE;
        Ok((0..uniq.len()).filter(|&i| !answered(i)).map(|i| uniq[i]).collect())
    }

    /// Enforce the death of a rank (`gaspi_proc_kill`, the second
    /// extension): used in recovery to make sure suspected processes —
    /// including false positives that are actually alive — cannot keep
    /// participating (§IV-B). Best-effort: succeeds both when the target
    /// dies now and when it was already unreachable.
    pub fn proc_kill(&self, dst: Rank, timeout: Timeout) -> GaspiResult<()> {
        self.check_self();
        self.injection_site("gaspi.proc_kill");
        self.validate_rank(dst)?;
        if dst == self.rank {
            self.exit_failure();
        }
        // The kill itself executes in the *target's* endpoint (which, on
        // the process backend, exits the victim process for real). A
        // Broken outcome means the target was already dead or unreachable:
        // mission accomplished either way.
        let verdict = |out, _: &[u8]| match out {
            Outcome::Delivered | Outcome::Broken => DONE,
            Outcome::Cancelled => CANCELLED,
        };
        self.park_on(dst, timeout, verdict, |done| {
            let msg = endpoint::enc_kill();
            self.world.transport.send(self.rank, dst, SERVICE_QUEUE, 0, msg, done);
        })
    }

    // ------------------------------------------------------------------
    // Passive communication
    // ------------------------------------------------------------------

    /// Two-sided send into `dst`'s passive inbox
    /// (`gaspi_passive_send`). Blocks until the transfer is accepted.
    pub fn passive_send(&self, dst: Rank, data: Vec<u8>, timeout: Timeout) -> GaspiResult<()> {
        self.check_self();
        self.injection_site("gaspi.passive_send");
        self.validate_rank(dst)?;
        // A refused transfer breaks the exchange like a dead target does.
        let verdict = |out, reply: &[u8]| match out {
            Outcome::Delivered if endpoint::reply_ok(reply) => DONE,
            Outcome::Delivered | Outcome::Broken => BROKEN,
            Outcome::Cancelled => CANCELLED,
        };
        self.park_on(dst, timeout, verdict, |done| {
            let msg = endpoint::enc_passive(&data);
            self.world.transport.send(self.rank, dst, PASSIVE_QUEUE, data.len(), msg, done);
        })
    }

    /// Receive the next passive message addressed to this rank
    /// (`gaspi_passive_receive`), returning `(sender, payload)`.
    pub fn passive_receive(&self, timeout: Timeout) -> GaspiResult<(Rank, Vec<u8>)> {
        self.check_self();
        self.poll(timeout.deadline(), || self.shared().passive_inbox.lock().pop_front().map(Ok))
    }
}

thread_local! {
    /// The wake condition of the [`GaspiProc::wake_on`] call running on
    /// this thread, if any.
    static WAKE: RefCell<Option<Wake>> = const { RefCell::new(None) };
}

/// A wake condition: a segment and the `(notification, value seen)` pairs
/// to watch there.
struct Wake {
    segment: Arc<Segment>,
    slots: Vec<(NotificationId, u32)>,
    /// The rank and the number of CORRUPT ranks seen.
    corrupt: Option<(Arc<RankShared>, usize)>,
}

/// Whether the calling thread's wake condition is set and has fired.
fn woken() -> bool {
    WAKE.with(|w| {
        w.borrow().as_ref().is_some_and(|w| {
            w.slots.iter().any(|&(nid, seen)| w.segment.notify_peek(nid).is_ok_and(|v| v != seen))
                || w.corrupt.as_ref().is_some_and(|(me, seen)| {
                    me.state_vec.iter().filter(|s| s.load(Ordering::Acquire) != 0).count() != *seen
                })
        })
    })
}

/// Puts back the wake condition a [`GaspiProc::wake_on`] call replaced,
/// on return and on unwind alike.
struct RestoreWake(Option<Wake>);

impl Drop for RestoreWake {
    fn drop(&mut self) {
        let prev = self.0.take();
        // Fails only while the thread itself is being torn down.
        let _ = WAKE.try_with(|w| w.replace(prev));
    }
}

/// Completions still outstanding in one fan-out batch. Each completion's
/// writes precede its `AcqRel` decrement, so a waiter that reads 0 with
/// `Acquire` sees them all; the last one bumps the owner's signal, once.
struct Batch {
    owner: Arc<RankShared>,
    left: AtomicUsize,
}

impl Batch {
    fn new(owner: Arc<RankShared>, n: usize) -> Arc<Self> {
        Arc::new(Self { owner, left: AtomicUsize::new(n) })
    }

    fn land(&self) {
        if self.left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.owner.signal.bump();
        }
    }
}

// States of a service op's completion cell (see `GaspiProc::park_on`).
const PENDING: u8 = 0;
const DONE: u8 = 1;
const BROKEN: u8 = 2;
const CANCELLED: u8 = 3;

/// The cell state a ping's transport outcome leaves.
fn outcome_state(out: Outcome) -> u8 {
    match out {
        Outcome::Delivered => DONE,
        Outcome::Broken => BROKEN,
        Outcome::Cancelled => CANCELLED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaspiConfig, GaspiWorld};

    /// A batch of N completions wakes its caller once: 64 pings, and 64
    /// puts, each advance the caller's signal by exactly one generation.
    #[test]
    fn a_batch_wakes_its_caller_once() {
        const N: u32 = 64;
        let world = GaspiWorld::new(GaspiConfig::deterministic(N + 1));
        (0..=N).for_each(|r| world.proc_handle(r).segment_create(1, 64).unwrap());
        let (p, dsts) = (world.proc_handle(N), (0..N).collect::<Vec<Rank>>());
        let bumps = |batch: &dyn Fn()| {
            let before = p.shared().signal.generation();
            batch();
            // Let every completion land before counting.
            std::thread::sleep(std::time::Duration::from_millis(50));
            p.shared().signal.generation() - before
        };
        let pings = || assert_eq!(p.proc_ping_many(&dsts, Timeout::Ms(5000)), Ok(vec![]));
        assert_eq!(bumps(&pings), 1, "signal bumps of one ping batch");
        let put = || p.write_notify_many(1, 0, &dsts, 1, 0, 8, 0, 1, 0);
        let puts = || assert_eq!(put().and_then(|()| p.wait(0, Timeout::Ms(5000))), Ok(()));
        assert_eq!(bumps(&puts), 1, "signal bumps of one put batch");
    }
}
