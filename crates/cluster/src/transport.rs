//! The transport seam: a [`Transport`] trait over pluggable backends, plus
//! the in-memory [`SimTransport`] backend (a *sharded* timing-wheel
//! scheduler).
//!
//! ## The seam
//!
//! Everything above this crate (the GASPI runtime, the checkpoint
//! replicator) talks to an `Arc<dyn Transport>`:
//!
//! * [`Transport::bind`] registers the per-rank [`Endpoint`] that services
//!   incoming messages — the GASPI layer's endpoint decodes RDMA puts,
//!   pings, kills, passive messages and collective tokens from the payload
//!   and applies them to the rank's state.
//! * [`Transport::send`] is fire-and-forget with a completion: the remote
//!   endpoint runs at delivery, its (small) reply travels back with the
//!   [`Completion`], and the completion observes [`Outcome::Broken`] when
//!   the destination is dead or unreachable.
//! * [`Transport::call`] is a round trip: the reply is itself subject to
//!   transport latency/failure on the way back (a ping's pong leg).
//! * [`Transport::call_fanout`] posts one request to many destinations in
//!   a single pass — the epoch-batched scan primitive the fault detector
//!   uses to amortize one traversal of liveness state over all targets.
//!
//! Two backends implement the trait: [`SimTransport`] here (one OS
//! process, simulated latency and failures — deterministic, fast) and
//! `tcp::TcpTransport` (each rank a real OS process, length-delimited
//! binary RPC over TCP, real `SIGKILL` death).
//!
//! ## SimTransport semantics
//!
//! * **Latency.** Delivery happens `latency(bytes)` (± jitter) after the
//!   post. Latency is modeled by *timestamps*, not by executing slowly:
//!   a thousand concurrent messages each with 20 µs latency all complete
//!   ≈20 µs after posting — which is exactly how the paper's threaded
//!   fault detector pings many processes "in parallel on different
//!   communication queues" at the cost of one.
//! * **Ordering.** Messages with the same `(src, queue, dst)` stream key
//!   are delivered in post order (GASPI orders notified writes relative to
//!   writes on the same queue/target). Different streams are unordered.
//! * **Failures.** At *delivery time* the transport consults the
//!   [`FaultPlane`]: if the destination is dead or the directed link is
//!   broken, the completion runs with [`Outcome::Broken`] after an
//!   additional break-detection delay. If the *initiator* died after
//!   posting, the message is dropped silently (nobody is left to observe
//!   a completion) — though its remote effects may still have happened
//!   earlier, as with real RDMA. A round trip's reply leg is observed by
//!   its caller: a reply already sent reaches a live caller even if the
//!   responder died since (as the TCP backend's socket buffer delivers
//!   it), is dropped if the caller died, and breaks only on a broken
//!   responder → caller link.
//! * **Shutdown.** Dropping the [`TransportOwner`] stops the scheduler
//!   threads; undelivered messages complete with [`Outcome::Cancelled`] so
//!   resources waiting on them unblock.
//!
//! ## Sharding and determinism
//!
//! The wheel is split into [`default_shards`] shards, each with its own
//! binary heap in a [`Monitor`] and its own scheduler thread. A message
//! belongs to the shard of its *destination's node group*
//! (`node_of(dst) % shards`), so:
//!
//! * every `(src, queue, dst)` stream lives entirely inside one shard and
//!   per-stream FIFO needs no cross-shard coordination;
//! * all deliveries *to* one rank are executed by exactly one scheduler
//!   thread, which serializes [`Endpoint::handle`] per destination rank —
//!   the [`Endpoint`] contract (see there);
//! * a node kill invalidates messages of exactly one shard's worth of
//!   co-located ranks.
//!
//! Latency jitter is drawn from counter-based per-stream RNG streams
//! ([`stream_jitter_u`]): the draw for the `n`-th message of a stream
//! depends only on `(root seed, src, queue, dst, n)` — never on
//! cross-thread arrival order or on the shard count. Two runs with the
//! same seed therefore assign bit-identical latencies to every message of
//! every stream, which is what keeps the seeded chaos sweeps reproducible
//! (the pre-shard global `Mutex<SmallRng>` could not guarantee this: its
//! draw order depended on lock-acquisition order across threads).

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::codec::splitmix64;
use crate::fault::FaultPlane;
use crate::monitor::Monitor;
use crate::time::LatencyModel;
use crate::topology::Rank;

/// Queue identifier; the GASPI layer maps its communication queues and a
/// reserved service queue (pings, control) onto these.
pub type QueueId = u16;

/// How a message ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Delivered to a live destination over an intact link.
    Delivered,
    /// Destination dead or link broken; reported after the break-detection
    /// delay.
    Broken,
    /// Transport shut down before delivery.
    Cancelled,
}

/// Completion callback for [`Transport::send`]/[`Transport::call`]. Runs
/// off the caller's thread (network/scheduler or socket-reader thread)
/// with the final [`Outcome`] and the remote endpoint's reply bytes
/// (empty unless `Delivered`).
///
/// If the *source* rank dies while the message is in flight, the
/// completion is dropped without running — the initiator no longer exists
/// to observe it.
pub type Completion = Box<dyn FnOnce(Outcome, Vec<u8>) + Send>;

/// Per-destination completion for [`Transport::call_fanout`]: invoked once
/// per destination with that destination's outcome and reply. Shared via
/// `Arc` because one batch fans out to many concurrent deliveries.
pub type FanoutCompletion = Arc<dyn Fn(Rank, Outcome, Vec<u8>) + Send + Sync>;

/// Per-rank message handler: the receiving side of the seam. The GASPI
/// runtime binds one per rank; it decodes the payload (put/ping/…)
/// against that rank's own state and returns the reply bytes.
///
/// `handle` runs on a transport-internal thread and is serialized *per
/// destination rank* by every backend (the sim delivers all of a rank's
/// messages from the one shard thread owning that rank's node group; the
/// TCP backend holds its process-wide dispatch lock). A handler's
/// multi-step update therefore never interleaves with another message to
/// the same rank: the checkpoint service applies a replica copy's put →
/// prune sequence whole before it serves the next fetch or copy, and a
/// write-notify's data and notification are both in place before the
/// next message to that rank is handled. It must never block on
/// transport completions and must never unwind.
pub trait Endpoint: Send + Sync {
    /// Service one incoming message from `src` on `queue`.
    fn handle(&self, src: Rank, queue: QueueId, msg: &[u8]) -> Vec<u8>;
}

/// The pluggable wire. See the module docs for the contract; both the
/// in-memory simulator and the real-process TCP backend implement this,
/// and the whole GASPI runtime above is backend-agnostic.
pub trait Transport: Send + Sync {
    /// Register the endpoint servicing messages addressed to `rank`.
    fn bind(&self, rank: Rank, endpoint: Arc<dyn Endpoint>);

    /// One-way message with completion. `cost` is the byte count charged
    /// to the latency model (payload + header equivalents); the endpoint's
    /// reply rides back with the completion "for free" (it models a NIC
    ///-level ack/status, not a second data transfer).
    fn send(
        &self,
        src: Rank,
        dst: Rank,
        queue: QueueId,
        cost: usize,
        msg: Vec<u8>,
        done: Completion,
    );

    /// Round trip: like [`Transport::send`], but the reply is a data
    /// transfer in its own right — it is charged `reply.len()` on the way
    /// back and can itself break in flight.
    fn call(
        &self,
        src: Rank,
        dst: Rank,
        queue: QueueId,
        cost: usize,
        msg: Vec<u8>,
        done: Completion,
    );

    /// Fan one round-trip request out to every rank in `dsts` ("epoch
    /// batch"): the payload is shared, `done` runs once per destination
    /// with that destination's outcome and reply.
    ///
    /// The provided implementation loops over [`Transport::call`];
    /// [`SimTransport`] overrides it to traverse its shard locks once per
    /// batch instead of once per message, which is the primitive behind
    /// the fault detector's epoch-batched ping scans.
    fn call_fanout(
        &self,
        src: Rank,
        dsts: &[Rank],
        queue: QueueId,
        cost: usize,
        msg: Arc<[u8]>,
        done: FanoutCompletion,
    ) {
        for &dst in dsts {
            let done = Arc::clone(&done);
            self.call(
                src,
                dst,
                queue,
                cost,
                msg.to_vec(),
                Box::new(move |out, reply| done(dst, out, reply)),
            );
        }
    }

    /// The fault plane this transport consults for liveness/link state.
    fn fault(&self) -> &Arc<FaultPlane>;

    /// The latency model in effect (the TCP backend reports the model its
    /// timeouts were derived from; actual latency is the real network's).
    fn model(&self) -> &LatencyModel;

    /// Request shutdown: queued work cancels, completions unblock.
    fn shutdown(&self);
}

/// Payload bytes carried by the built-in send/call work kinds: either an
/// owned buffer or a batch-shared one (a fan-out posts *one* allocation
/// for all destinations).
enum MsgBuf {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl std::ops::Deref for MsgBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            MsgBuf::Owned(v) => v,
            MsgBuf::Shared(a) => a,
        }
    }
}

/// What to do when a scheduled record comes due. Each variant carries the
/// caller's completion directly instead of a wrapper closure per message
/// (the pre-shard design boxed an adapter around every `Completion`).
enum Work {
    /// [`Transport::send`]: run the endpoint, reply rides back for free.
    Send { msg: MsgBuf, done: Completion },
    /// [`Transport::call`] request leg: run the endpoint, then schedule
    /// the reply as a charged transfer of its own.
    Call { msg: MsgBuf, done: Completion },
    /// [`Transport::call`] reply leg.
    Reply { reply: Vec<u8>, done: Completion },
    /// [`Transport::call_fanout`] request leg for one destination.
    /// `for_dst` pins the destination the shared callback is told about,
    /// because a failed record is readdressed home (src → src) and the
    /// envelope's own `dst` no longer names the pinged rank by then.
    Fanout { msg: MsgBuf, done: FanoutCompletion, for_dst: Rank },
    /// Fan-out reply leg (`for_dst` = the rank that was fanned out to).
    FanoutReply { reply: Vec<u8>, done: FanoutCompletion, for_dst: Rank },
}

/// Internal scheduled record: the message's addressing and cost, its work,
/// and the failure flag a break-detection follow-up carries back to the
/// source.
struct Env {
    src: Rank,
    dst: Rank,
    queue: QueueId,
    bytes: usize,
    /// Set on the rescheduled break report: at delivery the work fires
    /// with [`Outcome::Broken`] instead of touching an endpoint.
    failed: bool,
    work: Work,
}

struct Scheduled {
    due: Instant,
    seq: u64,
    env: Env,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert for earliest-due-first, with the
        // shard-local post sequence as a deterministic tie-break.
        other.due.cmp(&self.due).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// FNV-1a — the stream table sits on the post hot path; SipHash's keyed
/// setup cost is measurable there and collision resistance buys nothing
/// against our own rank ids.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

type StreamKey = (Rank, QueueId, Rank);

/// Per-stream scheduling state: the FIFO watermark and the jitter-draw
/// counter.
struct StreamState {
    /// Latest due time already scheduled on this stream — a later post can
    /// never be delivered before an earlier one.
    due: Instant,
    /// Messages drawn on this stream so far; indexes [`stream_jitter_u`].
    n: u64,
}

struct ShardState {
    heap: BinaryHeap<Scheduled>,
    streams: HashMap<StreamKey, StreamState, BuildHasherDefault<Fnv>>,
    /// Shard-local post sequence (tie-break only).
    seq: u64,
}

/// One shard of the wheel; its scheduler thread is the one waiter.
type Shard = Monitor<ShardState>;

fn new_shard() -> Shard {
    Monitor::new(ShardState {
        heap: BinaryHeap::with_capacity(64),
        streams: HashMap::with_capacity_and_hasher(64, BuildHasherDefault::default()),
        seq: 0,
    })
}

struct Inner {
    model: LatencyModel,
    fault: Arc<FaultPlane>,
    shards: Vec<Shard>,
    seed: u64,
    shutdown: AtomicBool,
    /// Rank-indexed endpoint table. Read on every delivery, written only
    /// during setup — an `RwLock<Vec<_>>` read is uncontended where the
    /// pre-shard `Mutex<HashMap<_, _>>` serialized every delivery.
    endpoints: RwLock<Vec<Option<Arc<dyn Endpoint>>>>,
}

impl Inner {
    /// The shard of `dst`'s *node group*: co-located ranks (and therefore
    /// every stream toward them) share a scheduler thread.
    #[inline]
    fn shard_index(&self, dst: Rank) -> usize {
        self.fault.topology().node_of(dst).0 as usize % self.shards.len()
    }
}

/// Default shard count for [`SimTransport::start`]: the machine's
/// available parallelism, clamped to `1..=8` (past ~8 shards the
/// fault-plane reads dominate, not the wheel locks).
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 8)
}

/// Counter-based per-stream jitter draw in `[0, 1)`.
///
/// The value depends only on `(seed, src, queue, dst, n)` — the identity
/// of a stream and the index of the message within it — so latency
/// assignment is reproducible across runs, thread interleavings, and
/// shard counts. This replaces the pre-shard global `Mutex<SmallRng>`,
/// whose draws depended on lock-acquisition order.
pub fn stream_jitter_u(seed: u64, src: Rank, queue: QueueId, dst: Rank, n: u64) -> f64 {
    let key = (u64::from(src) << 33) ^ (u64::from(dst) << 1) ^ (u64::from(queue) << 52);
    let x = splitmix64(
        seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    // 53 mantissa bits → uniform in [0, 1).
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Cheap-to-clone handle to the simulated interconnect. The scheduler
/// threads are owned by [`TransportOwner`]; handles stay valid (but
/// cancel what they send) after shutdown.
#[derive(Clone)]
pub struct SimTransport {
    inner: Arc<Inner>,
}

/// Owns the scheduler threads; dropping it shuts the network down and
/// joins them.
///
/// Teardown ordering contract: `stop()` first requests shutdown, then
/// joins every shard thread. Each shard's final act is to drain its wheel
/// and run every still-queued completion with [`Outcome::Cancelled`] —
/// *outside* the shard lock, so a cancelled completion may itself send
/// (its follow-up completes inline, also cancelled) without deadlocking. A
/// send that races shutdown re-checks the flag under the shard lock and
/// drains the shard itself if the scheduler already exited, so no
/// completion is ever leaked. By the time `stop()` returns, every
/// completion of a message ever sent has run exactly once and the threads
/// are gone; owners must therefore be dropped *before* the state those
/// completions reference.
pub struct TransportOwner {
    t: SimTransport,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SimTransport {
    /// Start the transport with [`default_shards`] shards.
    pub fn start(model: LatencyModel, fault: Arc<FaultPlane>, seed: u64) -> TransportOwner {
        Self::start_sharded(model, fault, seed, default_shards())
    }

    /// Start the transport with an explicit shard count (≥ 1). One
    /// scheduler thread per shard; message semantics — per-stream FIFO,
    /// latency assignment, failure reporting — are identical for every
    /// shard count.
    pub fn start_sharded(
        model: LatencyModel,
        fault: Arc<FaultPlane>,
        seed: u64,
        shards: usize,
    ) -> TransportOwner {
        let shards = shards.max(1);
        let num_ranks = fault.topology().num_ranks() as usize;
        let inner = Arc::new(Inner {
            model,
            fault,
            shards: (0..shards).map(|_| new_shard()).collect(),
            seed,
            shutdown: AtomicBool::new(false),
            endpoints: RwLock::new(vec![None; num_ranks]),
        });
        let t = SimTransport { inner };
        let handles = (0..shards)
            .map(|i| {
                let t2 = t.clone();
                std::thread::Builder::new()
                    .name(format!("sim-net-{i}"))
                    .spawn(move || t2.run(i))
                    .expect("spawn network shard thread")
            })
            .collect();
        TransportOwner { t, handles }
    }

    /// The latency model in effect.
    pub fn model(&self) -> &LatencyModel {
        &self.inner.model
    }

    /// The fault plane the transport consults.
    pub fn fault(&self) -> &Arc<FaultPlane> {
        &self.inner.fault
    }

    /// The number of timing-wheel shards (scheduler threads).
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The endpoint bound to `rank`, if any.
    fn endpoint(&self, rank: Rank) -> Option<Arc<dyn Endpoint>> {
        self.inner.endpoints.read().get(rank as usize).cloned().flatten()
    }

    /// Shared post path: returns immediately; the work runs on the owning
    /// shard's scheduler thread when the record is due, or inline with
    /// [`Outcome::Cancelled`] after shutdown. `delay: None` means "charge
    /// the latency model (with the stream's deterministic jitter draw)";
    /// the break report passes the detection delay instead.
    fn post_work(&self, env: Env, delay: Option<Duration>) {
        if self.inner.shutdown.load(Ordering::Acquire) {
            fire(env.work, Outcome::Cancelled);
            return;
        }
        // Passive: posting also happens on shard threads (nested response
        // posts), which must never unwind with `RankKilled`.
        self.inner.fault.site_passive(env.src, "transport.post");
        self.enqueue(self.inner.shard_index(env.dst), [env], delay, Instant::now());
    }

    /// Schedule `envs` on shard `i` under one lock and wake its scheduler
    /// once. Re-checks shutdown under the lock: if shutdown won the race
    /// the shard thread may already have drained and exited — reclaim and
    /// cancel everything ourselves (each record is drained by exactly one
    /// side because both drain under this lock).
    fn enqueue(
        &self,
        i: usize,
        envs: impl IntoIterator<Item = Env>,
        delay: Option<Duration>,
        now: Instant,
    ) {
        let doomed = self.inner.shards[i].update(|st| {
            for env in envs {
                schedule_locked(&self.inner, st, env, delay, now);
            }
            self.inner.shutdown.load(Ordering::Acquire).then(|| std::mem::take(&mut st.heap))
        });
        cancel_all(doomed.into_iter().flatten());
    }

    /// Post a whole batch of same-source records in one pass: shard locks
    /// are taken once per shard, not once per message.
    fn post_batch(&self, envs: Vec<Env>, delay: Option<Duration>) {
        if envs.is_empty() {
            return;
        }
        if self.inner.shutdown.load(Ordering::Acquire) {
            for env in envs {
                fire(env.work, Outcome::Cancelled);
            }
            return;
        }
        self.inner.fault.site_passive(envs[0].src, "transport.post");
        // Group by shard index, preserving per-shard post order.
        let nshards = self.inner.shards.len();
        let mut by_shard: Vec<Vec<Env>> = (0..nshards).map(|_| Vec::new()).collect();
        for env in envs {
            by_shard[self.inner.shard_index(env.dst)].push(env);
        }
        let now = Instant::now();
        for (i, group) in by_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            self.enqueue(i, group, delay, now);
        }
    }

    /// One shard's scheduler loop.
    fn run(&self, shard_idx: usize) {
        set_timer_slack(slack_for(&self.inner.model));
        let shard = &self.inner.shards[shard_idx];
        loop {
            let next = {
                let mut st = shard.lock();
                loop {
                    if self.inner.shutdown.load(Ordering::Acquire) {
                        let heap = std::mem::take(&mut st.heap);
                        drop(st);
                        return cancel_all(heap);
                    }
                    let due = st.heap.peek().map(|s| s.due);
                    if due.is_some_and(|d| d <= Instant::now()) {
                        break st.heap.pop().unwrap();
                    }
                    shard.wait_until(&mut st, due);
                }
            };
            self.deliver(next.env);
        }
    }

    fn deliver(&self, env: Env) {
        let fault = &self.inner.fault;
        // The rank whose completion this leg runs: the caller for a reply
        // leg (whose `src` is the responder), the initiator otherwise.
        let reply_leg = matches!(env.work, Work::Reply { .. } | Work::FanoutReply { .. });
        let observer = if reply_leg { env.dst } else { env.src };
        if !fault.is_alive(observer) {
            // Observer died in flight: nobody is left to observe the
            // completion; drop it. (Remote memory effects of *earlier*
            // messages have already happened, as with a real NIC.)
            return;
        }
        if env.failed {
            // The delayed break report arriving back at the observer.
            fire(env.work, Outcome::Broken);
            return;
        }
        // A reply already sent reaches its live caller even if the
        // responder died since (as a socket buffer would deliver it), but
        // not over a broken responder → caller link.
        let reachable = if reply_leg {
            !fault.link_broken(env.src, env.dst)
        } else {
            fault.link_ok(env.src, env.dst)
        };
        if reachable {
            self.execute(env);
        } else {
            // Report the break after the detection delay; the report
            // travels back to the observer on the same queue.
            let delay = self.inner.model.break_detect;
            let Env { queue, work, .. } = env;
            let home = Env { src: observer, dst: observer, queue, bytes: 0, failed: true, work };
            self.post_work(home, Some(delay));
        }
    }

    /// Run a successfully delivered record's work on the shard thread.
    fn execute(&self, env: Env) {
        let Env { src, dst, queue, work, .. } = env;
        match work {
            Work::Send { msg, done } => {
                let reply = match self.endpoint(dst) {
                    Some(ep) => ep.handle(src, queue, &msg),
                    None => Vec::new(),
                };
                done(Outcome::Delivered, reply);
            }
            Work::Call { msg, done } => {
                let reply = match self.endpoint(dst) {
                    Some(ep) => ep.handle(src, queue, &msg),
                    None => Vec::new(),
                };
                // The reply is a data transfer of its own: charged its
                // length, delivered (or broken) on the stream back.
                let bytes = reply.len();
                self.post_work(
                    Env {
                        src: dst,
                        dst: src,
                        queue,
                        bytes,
                        failed: false,
                        work: Work::Reply { reply, done },
                    },
                    None,
                );
            }
            Work::Reply { reply, done } => done(Outcome::Delivered, reply),
            Work::Fanout { msg, done, for_dst } => {
                let reply = match self.endpoint(dst) {
                    Some(ep) => ep.handle(src, queue, &msg),
                    None => Vec::new(),
                };
                let bytes = reply.len();
                self.post_work(
                    Env {
                        src: dst,
                        dst: src,
                        queue,
                        bytes,
                        failed: false,
                        work: Work::FanoutReply { reply, done, for_dst },
                    },
                    None,
                );
            }
            Work::FanoutReply { reply, done, for_dst } => done(for_dst, Outcome::Delivered, reply),
        }
    }

    /// Request shutdown (queued messages cancel). Prefer dropping the
    /// [`TransportOwner`], which also joins the scheduler threads.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            // Take the shard lock before the wake-up: a scheduler between
            // its flag check and its wait would otherwise sleep through it.
            shard.update(|_| ());
        }
    }
}

/// Compute the due time (jitter draw + FIFO watermark) and push, all under
/// the shard lock. `now` is hoisted so batches charge a common post time.
fn schedule_locked(
    inner: &Inner,
    st: &mut ShardState,
    env: Env,
    delay: Option<Duration>,
    now: Instant,
) {
    let key = (env.src, env.queue, env.dst);
    let seq = st.seq;
    st.seq += 1;
    let entry = st.streams.entry(key).or_insert(StreamState { due: now, n: 0 });
    let lat = match delay {
        Some(d) => d,
        None => {
            let u = stream_jitter_u(inner.seed, env.src, env.queue, env.dst, entry.n);
            inner.model.latency_jittered(env.bytes, u)
        }
    };
    entry.n += 1;
    let mut due = now + lat;
    if due <= entry.due {
        due = entry.due + Duration::from_nanos(1);
    }
    entry.due = due;
    st.heap.push(Scheduled { due, seq, env });
}

/// Timer slack for a shard scheduler thread: half the smallest modelled
/// latency, so a delivery lands at most `base / 2` after its due time.
/// Never zero — to the kernel, zero means "back to the 50 µs default".
fn slack_for(model: &LatencyModel) -> Duration {
    (model.base / 2).max(Duration::from_nanos(1))
}

/// Set the calling thread's timer slack. Linux may end a timed futex wait
/// (the shard's [`Monitor::wait_until`]) up to the slack late — 50 µs by default,
/// more than twice the default model's 20 µs hop. Best effort: a failed
/// call keeps the default.
#[cfg(target_os = "linux")]
fn set_timer_slack(slack: Duration) {
    use std::ffi::{c_int, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    let ns = c_ulong::try_from(slack.as_nanos()).unwrap_or(c_ulong::MAX);
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value and
    // changes only the calling thread's slack; no memory is shared.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns);
    }
}

/// Other platforms keep their default timer behaviour.
#[cfg(not(target_os = "linux"))]
fn set_timer_slack(_: Duration) {}

/// Cancel every record of a drained shard, outside its lock: a cancelled
/// completion may send a follow-up, which cancels inline.
fn cancel_all(heap: impl IntoIterator<Item = Scheduled>) {
    heap.into_iter().for_each(|s| fire(s.env.work, Outcome::Cancelled));
}

/// Terminate a record's work with a non-delivered outcome (or a fan-out
/// reply that made it home). Never touches an endpoint.
fn fire(work: Work, out: Outcome) {
    debug_assert_ne!(out, Outcome::Delivered);
    match work {
        Work::Send { done, .. } | Work::Call { done, .. } | Work::Reply { done, .. } => {
            done(out, Vec::new());
        }
        Work::Fanout { done, for_dst, .. } | Work::FanoutReply { done, for_dst, .. } => {
            done(for_dst, out, Vec::new());
        }
    }
}

impl Transport for SimTransport {
    fn bind(&self, rank: Rank, endpoint: Arc<dyn Endpoint>) {
        let mut eps = self.inner.endpoints.write();
        if (rank as usize) >= eps.len() {
            eps.resize(rank as usize + 1, None);
        }
        eps[rank as usize] = Some(endpoint);
    }

    fn send(
        &self,
        src: Rank,
        dst: Rank,
        queue: QueueId,
        cost: usize,
        msg: Vec<u8>,
        done: Completion,
    ) {
        self.post_work(
            Env {
                src,
                dst,
                queue,
                bytes: cost,
                failed: false,
                work: Work::Send { msg: MsgBuf::Owned(msg), done },
            },
            None,
        );
    }

    fn call(
        &self,
        src: Rank,
        dst: Rank,
        queue: QueueId,
        cost: usize,
        msg: Vec<u8>,
        done: Completion,
    ) {
        self.post_work(
            Env {
                src,
                dst,
                queue,
                bytes: cost,
                failed: false,
                work: Work::Call { msg: MsgBuf::Owned(msg), done },
            },
            None,
        );
    }

    fn call_fanout(
        &self,
        src: Rank,
        dsts: &[Rank],
        queue: QueueId,
        cost: usize,
        msg: Arc<[u8]>,
        done: FanoutCompletion,
    ) {
        let envs: Vec<Env> = dsts
            .iter()
            .map(|&dst| Env {
                src,
                dst,
                queue,
                bytes: cost,
                failed: false,
                work: Work::Fanout {
                    msg: MsgBuf::Shared(Arc::clone(&msg)),
                    done: Arc::clone(&done),
                    for_dst: dst,
                },
            })
            .collect();
        self.post_batch(envs, None);
    }

    fn fault(&self) -> &Arc<FaultPlane> {
        SimTransport::fault(self)
    }

    fn model(&self) -> &LatencyModel {
        SimTransport::model(self)
    }

    fn shutdown(&self) {
        SimTransport::shutdown(self);
    }
}

impl TransportOwner {
    /// A shareable handle to the network.
    pub fn handle(&self) -> SimTransport {
        self.t.clone()
    }

    /// Shut down and join the scheduler threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.t.shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for TransportOwner {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::topology::Topology;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    fn setup(n: u32) -> (TransportOwner, Arc<FaultPlane>) {
        let fault = FaultPlane::new(Topology::one_per_node(n));
        let t = SimTransport::start(LatencyModel::deterministic_fast(), Arc::clone(&fault), 42);
        (t, fault)
    }

    /// A transport whose every message is due an hour after it is sent,
    /// so whatever is sent is still in flight at shutdown.
    fn setup_stalled(n: u32) -> TransportOwner {
        let model =
            LatencyModel { base: Duration::from_secs(3600), ..LatencyModel::deterministic_fast() };
        SimTransport::start(model, FaultPlane::new(Topology::one_per_node(n)), 42)
    }

    /// A transport whose every leg takes 200 ms, without jitter: wide
    /// enough that a kill made when an endpoint ran lands while its reply
    /// is still in flight.
    fn setup_slow(n: u32) -> (TransportOwner, Arc<FaultPlane>) {
        let fault = FaultPlane::new(Topology::one_per_node(n));
        let model = LatencyModel {
            base: Duration::from_millis(200),
            per_byte_ns: 0.0,
            jitter: 0.0,
            break_detect: Duration::from_micros(50),
        };
        (SimTransport::start(model, Arc::clone(&fault), 1), fault)
    }

    /// A completion that forwards its outcome into `tx`.
    pub(crate) fn report(tx: mpsc::Sender<Outcome>) -> Completion {
        Box::new(move |out, _| {
            let _ = tx.send(out);
        })
    }

    /// Send `msg` and wait for the completion's outcome and reply. With no
    /// endpoint bound, a sim send completes on the destination's shard
    /// thread at the message's due time with an empty reply.
    pub(crate) fn send_wait(
        t: &dyn Transport,
        src: Rank,
        dst: Rank,
        queue: QueueId,
        msg: Vec<u8>,
    ) -> (Outcome, Vec<u8>) {
        let (tx, rx) = mpsc::channel();
        t.send(
            src,
            dst,
            queue,
            msg.len(),
            msg,
            Box::new(move |out, reply| {
                let _ = tx.send((out, reply));
            }),
        );
        rx.recv_timeout(Duration::from_secs(5)).expect("completion")
    }

    #[test]
    fn delivers_to_live_rank() {
        let (o, _f) = setup(2);
        assert_eq!(send_wait(&o.handle(), 0, 1, 0, vec![]).0, Outcome::Delivered);
    }

    #[test]
    fn breaks_to_dead_rank() {
        let (o, f) = setup(2);
        f.kill_rank(1);
        assert_eq!(send_wait(&o.handle(), 0, 1, 0, vec![]).0, Outcome::Broken);
    }

    #[test]
    fn breaks_on_broken_link_even_if_alive() {
        let (o, f) = setup(2);
        f.break_link_directed(0, 1);
        assert_eq!(send_wait(&o.handle(), 0, 1, 0, vec![]).0, Outcome::Broken);
        // Reverse direction still fine.
        assert_eq!(send_wait(&o.handle(), 1, 0, 0, vec![]).0, Outcome::Delivered);
    }

    #[test]
    fn drops_when_source_is_dead() {
        let (o, f) = setup(2);
        f.kill_rank(0);
        let (tx, rx) = mpsc::channel();
        o.handle().send(0, 1, 0, 0, Vec::new(), report(tx));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn per_stream_fifo_order() {
        let (o, _f) = setup(2);
        let t = o.handle();
        let (tx, rx) = mpsc::channel();
        // Large first message, tiny second: without the stream watermark the
        // second would be due earlier.
        for (i, cost) in [(0u32, 1_000_000usize), (1, 0)] {
            let tx = tx.clone();
            t.send(
                0,
                1,
                3,
                cost,
                Vec::new(),
                Box::new(move |_, _| {
                    let _ = tx.send(i);
                }),
            );
        }
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 0);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 1);
    }

    #[test]
    fn completion_can_send_followup() {
        let (o, _f) = setup(3);
        let t = o.handle();
        let (tx, rx) = mpsc::channel();
        let t2 = t.clone();
        t.send(
            0,
            1,
            0,
            0,
            Vec::new(),
            Box::new(move |out, _| {
                assert_eq!(out, Outcome::Delivered);
                // pong back
                t2.send(1, 0, 0, 0, Vec::new(), report(tx));
            }),
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), Outcome::Delivered);
    }

    #[test]
    fn shutdown_cancels_pending() {
        let o = setup_stalled(2);
        let (tx, rx) = mpsc::channel();
        o.handle().send(0, 1, 0, 0, Vec::new(), report(tx));
        o.shutdown();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), Outcome::Cancelled);
    }

    #[test]
    fn latency_is_respected() {
        let fault = FaultPlane::new(Topology::one_per_node(2));
        let model = LatencyModel {
            base: Duration::from_millis(5),
            per_byte_ns: 0.0,
            jitter: 0.0,
            break_detect: Duration::from_micros(50),
        };
        let o = SimTransport::start(model, fault, 1);
        let start = Instant::now();
        assert_eq!(send_wait(&o.handle(), 0, 1, 0, vec![]).0, Outcome::Delivered);
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    // ---- Transport-trait surface --------------------------------------

    /// Echo endpoint: replies with `[src as u8, queue as u8]` + payload.
    pub(crate) struct Echo;
    impl Endpoint for Echo {
        fn handle(&self, src: Rank, queue: QueueId, msg: &[u8]) -> Vec<u8> {
            let mut out = vec![src as u8, queue as u8];
            out.extend_from_slice(msg);
            out
        }
    }

    /// Counts `handle` calls, and calls that began while another was
    /// still running. Each call stays inside for 20 µs, long enough for a
    /// second delivery thread to be caught overlapping it.
    #[derive(Default)]
    pub(crate) struct OverlapProbe {
        inside: AtomicUsize,
        pub(crate) overlaps: AtomicUsize,
        pub(crate) calls: AtomicUsize,
    }
    impl Endpoint for OverlapProbe {
        fn handle(&self, _src: Rank, _queue: QueueId, _msg: &[u8]) -> Vec<u8> {
            if self.inside.fetch_add(1, Ordering::SeqCst) != 0 {
                self.overlaps.fetch_add(1, Ordering::SeqCst);
            }
            let until = Instant::now() + Duration::from_micros(20);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            self.inside.fetch_sub(1, Ordering::SeqCst);
            self.calls.fetch_add(1, Ordering::SeqCst);
            Vec::new()
        }
    }

    /// Four threads flood one rank of a 4-shard wheel: its handler never
    /// runs twice at once, because one shard thread delivers to it.
    #[test]
    fn handler_calls_to_one_rank_never_overlap() {
        const PER_SENDER: usize = 200;
        let fault = FaultPlane::new(Topology::one_per_node(5));
        let o = SimTransport::start_sharded(LatencyModel::deterministic_fast(), fault, 3, 4);
        let t = o.handle();
        let probe = Arc::new(OverlapProbe::default());
        t.bind(4, Arc::clone(&probe) as Arc<dyn Endpoint>);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for src in 0..4 {
                let (t, tx) = (t.clone(), tx.clone());
                s.spawn(move || {
                    for i in 0..PER_SENDER {
                        t.send(src, 4, (i % 3) as QueueId, 8, Vec::new(), report(tx.clone()));
                    }
                });
            }
        });
        for _ in 0..4 * PER_SENDER {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), Outcome::Delivered);
        }
        assert_eq!(probe.calls.load(Ordering::SeqCst), 4 * PER_SENDER);
        assert_eq!(probe.overlaps.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn trait_send_runs_endpoint_and_returns_reply() {
        let (o, _f) = setup(2);
        let t = o.handle();
        t.bind(1, Arc::new(Echo));
        assert_eq!(send_wait(&t, 0, 1, 3, vec![0xAA]), (Outcome::Delivered, vec![0, 3, 0xAA]));
    }

    #[test]
    fn trait_call_round_trips_and_breaks_to_dead_rank() {
        let (o, f) = setup(2);
        let t: Arc<dyn Transport> = Arc::new(o.handle());
        t.bind(1, Arc::new(Echo));
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        t.call(
            0,
            1,
            0,
            8,
            vec![1, 2],
            Box::new(move |out, reply| {
                let _ = tx2.send((out, reply));
            }),
        );
        let (out, reply) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(out, Outcome::Delivered);
        assert_eq!(reply, vec![0, 0, 1, 2]);

        f.kill_rank(1);
        t.call(
            0,
            1,
            0,
            8,
            vec![9],
            Box::new(move |out, reply| {
                let _ = tx.send((out, reply));
            }),
        );
        let (out, reply) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(out, Outcome::Broken);
        assert!(reply.is_empty());
    }

    /// Fan-out reports a per-destination outcome: live ranks round-trip
    /// an echo, the dead one comes back `Broken` with its own rank
    /// attached.
    #[test]
    fn call_fanout_reports_per_destination_outcomes() {
        let (o, f) = setup(4);
        let t: Arc<dyn Transport> = Arc::new(o.handle());
        for r in 0..4 {
            t.bind(r, Arc::new(Echo));
        }
        f.kill_rank(2);
        let (tx, rx) = mpsc::channel();
        let payload: Arc<[u8]> = Arc::from(vec![7u8].into_boxed_slice());
        t.call_fanout(
            0,
            &[1, 2, 3],
            5,
            8,
            payload,
            Arc::new(move |rank, out, reply| {
                let _ = tx.send((rank, out, reply));
            }),
        );
        let mut got: Vec<(Rank, Outcome, Vec<u8>)> =
            (0..3).map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap()).collect();
        got.sort_by_key(|(r, _, _)| *r);
        assert_eq!(got[0], (1, Outcome::Delivered, vec![0, 5, 7]));
        assert_eq!(got[1].0, 2);
        assert_eq!(got[1].1, Outcome::Broken);
        assert!(got[1].2.is_empty());
        assert_eq!(got[2], (3, Outcome::Delivered, vec![0, 5, 7]));
    }

    /// [`Echo`] that first reports its own rank into `handled`.
    struct Tattle {
        me: Rank,
        handled: mpsc::Sender<Rank>,
    }
    impl Endpoint for Tattle {
        fn handle(&self, src: Rank, queue: QueueId, msg: &[u8]) -> Vec<u8> {
            let _ = self.handled.send(self.me);
            Echo.handle(src, queue, msg)
        }
    }

    /// A reply already sent reaches its live caller although the responder
    /// is killed right after its endpoint ran, on a `call` and on a
    /// `call_fanout` leg alike. Every leg takes 200 ms, so each kill lands
    /// deep inside its reply's flight.
    #[test]
    fn a_sent_reply_outlives_its_responder() {
        let (o, fault) = setup_slow(3);
        let t: Arc<dyn Transport> = Arc::new(o.handle());
        let (handled, victims) = mpsc::channel();
        for me in 1..3 {
            t.bind(me, Arc::new(Tattle { me, handled: handled.clone() }));
        }
        let (tx, rx) = mpsc::channel();
        let call_tx = tx.clone();
        t.call(
            0,
            1,
            5,
            8,
            vec![7],
            Box::new(move |out, reply| {
                let _ = call_tx.send((1, out, reply));
            }),
        );
        t.call_fanout(
            0,
            &[2],
            5,
            8,
            Arc::from(vec![7u8].into_boxed_slice()),
            Arc::new(move |rank, out, reply| {
                let _ = tx.send((rank, out, reply));
            }),
        );
        for _ in 0..2 {
            fault.kill_rank(victims.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        let mut got: Vec<(Rank, Outcome, Vec<u8>)> =
            (0..2).map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap()).collect();
        got.sort_by_key(|(r, _, _)| *r);
        assert_eq!(
            got,
            [(1, Outcome::Delivered, vec![0, 5, 7]), (2, Outcome::Delivered, vec![0, 5, 7])]
        );
    }

    /// A broken responder → caller link still breaks the reply leg, and a
    /// dead caller still gets nothing.
    #[test]
    fn a_reply_breaks_on_its_link_and_drops_for_a_dead_caller() {
        let (o, f) = setup_slow(3);
        let t: Arc<dyn Transport> = Arc::new(o.handle());
        t.bind(1, Arc::new(Echo));
        f.break_link_directed(1, 0);
        let (tx, rx) = mpsc::channel();
        t.call(0, 1, 0, 0, vec![], report(tx));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), Outcome::Broken);

        let (handled, victims) = mpsc::channel();
        t.bind(2, Arc::new(Tattle { me: 2, handled }));
        let (tx, rx) = mpsc::channel();
        t.call(0, 2, 0, 0, vec![], report(tx));
        victims.recv_timeout(Duration::from_secs(5)).unwrap();
        f.kill_rank(0);
        assert!(rx.recv_timeout(Duration::from_millis(400)).is_err());
    }

    /// The jitter draw is a pure function of (seed, stream identity, n):
    /// bit-identical across calls, uniform-ish in [0, 1), and decorrelated
    /// across message indices and seeds.
    #[test]
    fn stream_jitter_is_pure_and_seed_dependent() {
        let a = stream_jitter_u(42, 3, 1, 9, 0);
        let b = stream_jitter_u(42, 3, 1, 9, 0);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((0.0..1.0).contains(&a));
        assert_ne!(
            stream_jitter_u(42, 3, 1, 9, 0).to_bits(),
            stream_jitter_u(42, 3, 1, 9, 1).to_bits()
        );
        assert_ne!(
            stream_jitter_u(42, 3, 1, 9, 0).to_bits(),
            stream_jitter_u(43, 3, 1, 9, 0).to_bits()
        );
        // Streams with swapped src/dst draw independently.
        assert_ne!(
            stream_jitter_u(42, 3, 1, 9, 0).to_bits(),
            stream_jitter_u(42, 9, 1, 3, 0).to_bits()
        );
    }

    /// The shard's timer slack is half the model's base latency, and
    /// never the zero that would restore the kernel's 50 µs default.
    #[test]
    fn timer_slack_is_half_the_base_latency_and_never_zero() {
        assert_eq!(slack_for(&LatencyModel::default_sim()), Duration::from_micros(10));
        let fast = LatencyModel::deterministic_fast();
        assert_eq!(slack_for(&fast), fast.base / 2);
        let zero = LatencyModel { base: Duration::ZERO, ..fast };
        assert_eq!(slack_for(&zero), Duration::from_nanos(1));
    }

    /// Per-stream FIFO holds for every shard count, including when ranks
    /// land on different shards.
    #[test]
    fn fifo_holds_across_shard_counts() {
        for shards in [1usize, 2, 4] {
            let fault = FaultPlane::new(Topology::one_per_node(8));
            let o = SimTransport::start_sharded(
                LatencyModel::default_sim(),
                Arc::clone(&fault),
                7,
                shards,
            );
            let t = o.handle();
            assert_eq!(t.shards(), shards);
            let (tx, rx) = mpsc::channel();
            const PER_STREAM: u32 = 20;
            for i in 0..PER_STREAM {
                for dst in [1u32, 5] {
                    let tx = tx.clone();
                    let cost = if i % 3 == 0 { 4096 } else { 0 };
                    let done: Completion = Box::new(move |out, _| {
                        assert_eq!(out, Outcome::Delivered);
                        let _ = tx.send((dst, i));
                    });
                    t.send(0, dst, 2, cost, Vec::new(), done);
                }
            }
            let mut next = HashMap::new();
            for _ in 0..(2 * PER_STREAM) {
                let (dst, i) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
                let n = next.entry(dst).or_insert(0u32);
                assert_eq!(*n, i, "stream to {dst} out of order with {shards} shards");
                *n += 1;
            }
        }
    }

    /// Dropping the owner while the wheel is full of far-future
    /// deliveries must (a) not deadlock, (b) run every completion exactly
    /// once with `Cancelled`, and (c) survive cancelled completions that
    /// send follow-ups from inside the drain (the follow-up completes
    /// inline, also cancelled).
    #[test]
    fn teardown_with_inflight_deliveries_runs_every_completion_once() {
        let o = setup_stalled(4);
        let t = o.handle();
        let ran = Arc::new(AtomicUsize::new(0));
        let counted = |ran: &Arc<AtomicUsize>| -> Completion {
            let ran = Arc::clone(ran);
            Box::new(move |out, _| {
                assert_eq!(out, Outcome::Cancelled);
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        const N: usize = 64;
        for i in 0..N {
            let (ran, t2) = (Arc::clone(&ran), t.clone());
            t.send(
                (i % 4) as Rank,
                ((i + 1) % 4) as Rank,
                (i % 3) as QueueId,
                8,
                Vec::new(),
                Box::new(move |out, _| {
                    assert_eq!(out, Outcome::Cancelled);
                    ran.fetch_add(1, Ordering::SeqCst);
                    // A follow-up sent during cancellation must still
                    // complete (inline, cancelled) instead of leaking.
                    t2.send(0, 1, 0, 0, Vec::new(), counted(&ran));
                }),
            );
        }
        drop(o); // shutdown + join; must not hang
        assert_eq!(ran.load(Ordering::SeqCst), 2 * N);
        // The handle stays usable post-shutdown: sends cancel inline.
        t.send(0, 1, 0, 0, Vec::new(), counted(&ran));
        assert_eq!(ran.load(Ordering::SeqCst), 2 * N + 1);
    }
}
