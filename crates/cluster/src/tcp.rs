//! Real-process backend: length-delimited binary RPC over TCP.
//!
//! Where [`crate::transport::SimTransport`] simulates a cluster inside one
//! process, [`TcpTransport`] *is* the wire of a real one: every rank is an
//! OS process, every message is a framed RPC over a loopback TCP
//! connection, and fail-stop death is genuine — a `SIGKILL`ed rank's
//! sockets reset and its peers observe [`Outcome::Broken`], exactly the
//! failure signal the paper's timeout-based health checking is built on.
//!
//! ## Frame format
//!
//! ```text
//! [u32 len] [u8 kind] [u64 call_id] [u32 src] [u32 dst] [u16 queue] [payload…]
//! ```
//!
//! `len` counts everything after itself, little-endian throughout.
//! `kind` is request (0) or response (1); every request gets exactly one
//! response carrying the endpoint's reply bytes (GASPI one-sided ops all
//! have a completion to report, so [`Transport::send`] and
//! [`Transport::call`] are the same wire exchange here — the distinction
//! only matters for the simulator's latency accounting).
//!
//! ## Connections and threads
//!
//! Connections are directional: rank A's sends to rank B travel on A's
//! outgoing connection to B's listener, established lazily at first use.
//! Per connection there is one reader thread (responses back to the
//! caller-side, requests on the server-side); incoming requests are
//! dispatched to the bound [`Endpoint`] under one process-wide dispatch
//! lock, so the reader threads of different peers never run a handler at
//! the same time — the per-destination serialization the [`Endpoint`]
//! contract promises, which the simulator gets from its one shard thread
//! per rank. TCP gives per-connection FIFO, which is strictly stronger
//! than the per-`(src, queue, dst)` order the seam requires.
//!
//! ## Failure mapping
//!
//! * connect refused / reset / EOF → every pending and future completion
//!   on that peer runs with [`Outcome::Broken`] (peers never resurrect:
//!   a rank that died stays dead, per fail-stop).
//! * locally-known-dead destination (fault plane) → immediate `Broken`,
//!   matching the simulator's fast path.
//! * [`Transport::shutdown`] → pending completions run with
//!   [`Outcome::Cancelled`].
//!
//! ## Link faults
//!
//! Unlike rank death, a broken link is *healable*, so link faults never
//! set a peer's permanent `broken` flag. Enforcement is per-direction and
//! consulted on every frame:
//!
//! * **Send side** — [`Transport::send`]/[`Transport::call`] check
//!   [`FaultPlane::link_ok`] before touching the socket; a broken link
//!   completes immediately with [`Outcome::Broken`], and a registered
//!   [`FaultPlane::on_link`] hook severs the live outgoing connection the
//!   moment the break lands, draining in-flight completions as `Broken`.
//! * **Receive side** — the server checks `link_ok(src, dst)` per
//!   request and answers a refused frame with a `KIND_RESP_BROKEN`
//!   response instead of dispatching it, so an *asymmetric* partition
//!   (only one side's fault plane knows) still breaks the sender's calls
//!   without killing the connection. A header whose `src` is not a rank of
//!   the world or whose `dst` is not this rank is refused the same way:
//!   those ranks are peer bytes, checked before anything indexes by them.
//! * **Heal** — `HealLink` clears the table; the next send lazily
//!   reconnects. Severed connections carry a generation counter so a
//!   stale reader observing the sever's EOF cannot misclassify it as
//!   peer death after the link has healed.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::codec::{CodecError, Dec, Enc, Wire};
use crate::fault::FaultPlane;
use crate::time::LatencyModel;
use crate::topology::Rank;
use crate::transport::{Completion, Endpoint, Outcome, QueueId, Transport};

const KIND_REQ: u8 = 0;
const KIND_RESP: u8 = 1;
/// Response kind for a request refused by the receive-side link check:
/// the receiver's fault plane says the `src → dst` link is down, so the
/// call completes as [`Outcome::Broken`] without dispatching. The
/// connection itself stays up — the link may heal.
const KIND_RESP_BROKEN: u8 = 2;
/// Encoded size of a [`Header`].
const HDR: usize = 1 + 8 + 4 + 4 + 2;

/// What precedes a frame's payload.
#[derive(Debug, Clone, Copy)]
struct Header {
    kind: u8,
    call_id: u64,
    src: Rank,
    dst: Rank,
    queue: QueueId,
}

impl Header {
    /// The header of the response to this request.
    fn reply(&self, kind: u8) -> Self {
        Self { kind, src: self.dst, dst: self.src, ..*self }
    }
}

impl Wire for Header {
    fn encode(&self, e: &mut Enc) {
        e.u8(self.kind).u64(self.call_id).u32(self.src).u32(self.dst).u16(self.queue);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(Self { kind: d.u8()?, call_id: d.u64()?, src: d.u32()?, dst: d.u32()?, queue: d.u16()? })
    }
}

struct Frame {
    hdr: Header,
    payload: Vec<u8>,
}

fn write_frame(w: &mut TcpStream, hdr: &Header, payload: &[u8]) -> io::Result<()> {
    let mut e = Enc::with_capacity(4 + HDR + payload.len());
    e.u32((HDR + payload.len()) as u32);
    hdr.encode(&mut e);
    let mut buf = e.finish();
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

fn read_frame(r: &mut TcpStream) -> io::Result<Frame> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if !(HDR..=1 << 30).contains(&len) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame length"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let hdr = Header::from_bytes(&buf[..HDR])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    buf.drain(..HDR);
    Ok(Frame { hdr, payload: buf })
}

/// State of one outgoing (client) connection to a peer.
#[derive(Default)]
struct PeerConn {
    /// Write half; `None` once the connection (or the peer) is dead.
    stream: Option<TcpStream>,
    /// In-flight requests awaiting a response.
    pending: HashMap<u64, Completion>,
    /// Set once the peer is known dead; all further traffic breaks fast.
    broken: bool,
    /// Bumped every time the current stream is torn down. A reader thread
    /// holds the generation it was spawned for and goes quiet if the
    /// connection was already replaced or severed out from under it.
    generation: u64,
}

struct TcpInner {
    me: Rank,
    fault: Arc<FaultPlane>,
    model: LatencyModel,
    /// Rank → listener address, filled by [`TcpTransport::set_peers`].
    peers: Mutex<Vec<Option<SocketAddr>>>,
    conns: Mutex<HashMap<Rank, Arc<Mutex<PeerConn>>>>,
    endpoints: Mutex<HashMap<Rank, Arc<dyn Endpoint>>>,
    /// Serializes endpoint dispatch across the per-peer reader threads
    /// (the TCP analogue of the simulator's one shard thread per rank):
    /// the [`Endpoint`] contract.
    dispatch: Mutex<()>,
    /// Accepted (incoming) streams, kept so shutdown can reset them and
    /// peers observe EOF instead of hanging on a silent half-open socket.
    server_conns: Mutex<Vec<TcpStream>>,
    next_call: AtomicU64,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
}

impl TcpInner {
    fn dispatch(&self, hdr: &Header, payload: &[u8]) -> Vec<u8> {
        let ep = self.endpoints.lock().get(&hdr.dst).cloned();
        let _serialize = self.dispatch.lock();
        match ep {
            Some(ep) => ep.handle(hdr.src, hdr.queue, payload),
            None => Vec::new(),
        }
    }

    /// Tear down the outgoing connection to `dst` and fail everything on
    /// it. `permanent` marks the peer dead (fail-stop: no resurrection);
    /// a link-fault sever leaves `broken` clear so a later heal can
    /// lazily reconnect.
    fn sever_peer(&self, dst: Rank, out: Outcome, permanent: bool) {
        let conn = self.conns.lock().get(&dst).cloned();
        if let Some(conn) = conn {
            let mut c = conn.lock();
            if permanent {
                c.broken = true;
            }
            if let Some(s) = c.stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
            c.generation += 1;
            let pending: Vec<Completion> = c.pending.drain().map(|(_, d)| d).collect();
            drop(c);
            for done in pending {
                done(out, Vec::new());
            }
        }
    }

    /// Kill the outgoing connection to `dst` and fail everything on it.
    fn break_peer(&self, dst: Rank, out: Outcome) {
        self.sever_peer(dst, out, true);
    }
}

/// The real-process transport: one instance per rank process.
pub struct TcpTransport {
    inner: Arc<TcpInner>,
}

impl TcpTransport {
    /// Bind a loopback listener for `me` and start accepting. Peer
    /// addresses must be supplied via [`TcpTransport::set_peers`] before
    /// the first send (the supervisor's PORT/MAP handshake guarantees
    /// this).
    pub fn listen(
        me: Rank,
        num_ranks: u32,
        fault: Arc<FaultPlane>,
        model: LatencyModel,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(TcpInner {
            me,
            fault,
            model,
            peers: Mutex::new(vec![None; num_ranks as usize]),
            conns: Mutex::new(HashMap::new()),
            endpoints: Mutex::new(HashMap::new()),
            dispatch: Mutex::new(()),
            server_conns: Mutex::new(Vec::new()),
            next_call: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            local_addr,
        });
        let inner2 = Arc::clone(&inner);
        std::thread::Builder::new()
            .name(format!("tcp-accept-{me}"))
            .spawn(move || accept_loop(listener, inner2))
            .expect("spawn tcp accept thread");
        // Enforce link breaks on live sockets: when the outgoing direction
        // from this rank breaks, sever the connection so in-flight sends
        // drain as Broken instead of waiting on responses the peer will
        // refuse anyway. Heals need no action — the next send reconnects.
        let inner3 = Arc::clone(&inner);
        inner.fault.on_link(move |src, dst, broken| {
            if broken && src == inner3.me && dst != inner3.me {
                inner3.sever_peer(dst, Outcome::Broken, false);
            }
        });
        Ok(Self { inner })
    }

    /// The local listener port (reported to the supervisor).
    pub fn port(&self) -> u16 {
        self.inner.local_addr.port()
    }

    /// Install the rank → port map (from the supervisor's MAP line).
    pub fn set_peers(&self, ports: &[u16]) {
        let mut peers = self.inner.peers.lock();
        assert_eq!(ports.len(), peers.len(), "peer map must cover every rank");
        for (i, &p) in ports.iter().enumerate() {
            peers[i] = Some(SocketAddr::from(([127, 0, 0, 1], p)));
        }
    }

    /// Outgoing connection to `dst`, established on first use. Returns
    /// `None` when the peer is (or just proved to be) unreachable.
    fn conn_to(&self, dst: Rank) -> Option<Arc<Mutex<PeerConn>>> {
        let conn = Arc::clone(self.inner.conns.lock().entry(dst).or_default());
        let mut c = conn.lock();
        if c.broken {
            return None;
        }
        if c.stream.is_none() {
            let addr = (*self.inner.peers.lock().get(dst as usize)?)?;
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let reader = s.try_clone().ok()?;
                    c.stream = Some(s);
                    let generation = c.generation;
                    drop(c);
                    let inner = Arc::clone(&self.inner);
                    let conn2 = Arc::clone(&conn);
                    std::thread::Builder::new()
                        .name(format!("tcp-client-{}-{}", self.inner.me, dst))
                        .spawn(move || client_reader(reader, conn2, inner, dst, generation))
                        .expect("spawn tcp client reader");
                    return Some(conn);
                }
                Err(_) => {
                    c.broken = true;
                    return None;
                }
            }
        }
        drop(c);
        Some(conn)
    }

    /// One wire exchange: register the completion, write the request.
    fn roundtrip(&self, src: Rank, dst: Rank, queue: QueueId, msg: Vec<u8>, done: Completion) {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            done(Outcome::Cancelled, Vec::new());
            return;
        }
        // Same injection crossing as the simulator's post().
        inner.fault.site_passive(src, "transport.post");
        if !inner.fault.is_alive(dst) || !inner.fault.link_ok(src, dst) {
            done(Outcome::Broken, Vec::new());
            return;
        }
        if dst == inner.me {
            // Loopback fast path: dispatch inline (still under the
            // dispatch lock, via TcpInner::dispatch).
            let reply =
                inner.dispatch(&Header { kind: KIND_REQ, call_id: 0, src, dst, queue }, &msg);
            done(Outcome::Delivered, reply);
            return;
        }
        let Some(conn) = self.conn_to(dst) else {
            done(Outcome::Broken, Vec::new());
            return;
        };
        let call_id = inner.next_call.fetch_add(1, Ordering::Relaxed);
        let mut c = conn.lock();
        if c.broken || c.stream.is_none() {
            drop(c);
            done(Outcome::Broken, Vec::new());
            return;
        }
        c.pending.insert(call_id, done);
        let hdr = Header { kind: KIND_REQ, call_id, src, dst, queue };
        let res = write_frame(c.stream.as_mut().unwrap(), &hdr, &msg);
        drop(c);
        if res.is_err() {
            inner.break_peer(dst, Outcome::Broken);
        }
    }
}

/// Reads responses on an outgoing connection. EOF/reset breaks the peer
/// permanently — unless this rank's fault plane says the link to `dst` is
/// down, in which case the sever is healable, or the connection's
/// generation has already moved on (a racing sever tore this stream down;
/// its verdict stands).
fn client_reader(
    mut stream: TcpStream,
    conn: Arc<Mutex<PeerConn>>,
    inner: Arc<TcpInner>,
    dst: Rank,
    generation: u64,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(f) if f.hdr.kind == KIND_RESP => {
                let done = conn.lock().pending.remove(&f.hdr.call_id);
                if let Some(done) = done {
                    done(Outcome::Delivered, f.payload);
                }
            }
            Ok(f) if f.hdr.kind == KIND_RESP_BROKEN => {
                // The receiver refused the frame: its fault plane has the
                // src → dst link down. Break the call, keep the socket.
                let done = conn.lock().pending.remove(&f.hdr.call_id);
                if let Some(done) = done {
                    done(Outcome::Broken, Vec::new());
                }
            }
            Ok(_) => { /* requests never arrive on outgoing connections */ }
            Err(_) => {
                if conn.lock().generation != generation {
                    return; // already severed by someone with fresher knowledge
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    inner.break_peer(dst, Outcome::Cancelled);
                } else if inner.fault.is_alive(dst) && !inner.fault.link_ok(inner.me, dst) {
                    inner.sever_peer(dst, Outcome::Broken, false);
                } else {
                    inner.break_peer(dst, Outcome::Broken);
                }
                return;
            }
        }
    }
}

/// Accepts incoming connections and spawns a server reader per peer.
fn accept_loop(listener: TcpListener, inner: Arc<TcpInner>) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if let Ok(c) = stream.try_clone() {
            inner.server_conns.lock().push(c);
        }
        let inner2 = Arc::clone(&inner);
        let name = format!("tcp-server-{}", inner.me);
        let _ = std::thread::Builder::new().name(name).spawn(move || server_reader(stream, inner2));
    }
}

/// Reads requests on an incoming connection, dispatches them to the bound
/// endpoint, and writes the response back on the same connection.
fn server_reader(mut stream: TcpStream, inner: Arc<TcpInner>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    loop {
        match read_frame(&mut stream) {
            Ok(Frame { hdr, payload }) if hdr.kind == KIND_REQ => {
                // Refuse the frame (don't dispatch) when its header names
                // a sender outside the world or a receiver other than this
                // rank, or when *this* rank's fault plane has the
                // src → dst link down. The link check is what makes
                // asymmetric partitions real — the sender's plane may not
                // know.
                let addressed = hdr.src < inner.fault.topology().num_ranks() && hdr.dst == inner.me;
                if !addressed || !inner.fault.link_ok(hdr.src, hdr.dst) {
                    if write_frame(&mut writer, &hdr.reply(KIND_RESP_BROKEN), &[]).is_err() {
                        return;
                    }
                    continue;
                }
                let reply = inner.dispatch(&hdr, &payload);
                if write_frame(&mut writer, &hdr.reply(KIND_RESP), &reply).is_err() {
                    return;
                }
            }
            Ok(_) => { /* responses never arrive on incoming connections */ }
            Err(_) => return,
        }
    }
}

impl Transport for TcpTransport {
    fn bind(&self, rank: Rank, endpoint: Arc<dyn Endpoint>) {
        self.inner.endpoints.lock().insert(rank, endpoint);
    }

    fn send(
        &self,
        src: Rank,
        dst: Rank,
        queue: QueueId,
        _cost: usize,
        msg: Vec<u8>,
        done: Completion,
    ) {
        self.roundtrip(src, dst, queue, msg, done);
    }

    fn call(
        &self,
        src: Rank,
        dst: Rank,
        queue: QueueId,
        _cost: usize,
        msg: Vec<u8>,
        done: Completion,
    ) {
        // Every TCP exchange is already a round trip.
        self.roundtrip(src, dst, queue, msg, done);
    }

    fn fault(&self) -> &Arc<FaultPlane> {
        &self.inner.fault
    }

    fn model(&self) -> &LatencyModel {
        &self.inner.model
    }

    fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Wake the accept loop so it can observe the flag.
        let _ = TcpStream::connect(self.inner.local_addr);
        // Cancel everything in flight.
        let conns: Vec<_> = self.inner.conns.lock().keys().copied().collect();
        for dst in conns {
            self.inner.break_peer(dst, Outcome::Cancelled);
        }
        // Reset incoming connections so peers observe EOF.
        for s in self.inner.server_conns.lock().drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::transport::tests::{report, send_wait, Echo, OverlapProbe};
    use std::sync::mpsc;
    use std::time::Duration;

    /// `n` loopback transports, one per rank, each with its own fault
    /// plane (the process backend's shape) and an [`Echo`] bound.
    fn mesh(n: u32) -> Vec<TcpTransport> {
        let ts: Vec<TcpTransport> = (0..n)
            .map(|r| {
                let fault = FaultPlane::new(Topology::one_per_node(n));
                TcpTransport::listen(r, n, fault, LatencyModel::deterministic_fast()).unwrap()
            })
            .collect();
        let ports: Vec<u16> = ts.iter().map(TcpTransport::port).collect();
        for (r, t) in (0..).zip(&ts) {
            t.set_peers(&ports);
            t.bind(r, Arc::new(Echo));
        }
        ts
    }

    fn pair() -> (TcpTransport, TcpTransport) {
        let mut ts = mesh(2);
        let t1 = ts.pop().unwrap();
        (ts.pop().unwrap(), t1)
    }

    #[test]
    fn request_response_over_real_sockets() {
        let (t0, _t1) = pair();
        let (tx, rx) = mpsc::channel();
        t0.call(
            0,
            1,
            3,
            16,
            vec![0xAB, 0xCD],
            Box::new(move |out, reply| {
                let _ = tx.send((out, reply));
            }),
        );
        let (out, reply) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(out, Outcome::Delivered);
        assert_eq!(reply, vec![0, 3, 0xAB, 0xCD]);
    }

    #[test]
    fn self_send_dispatches_inline() {
        let (t0, _t1) = pair();
        assert_eq!(send_wait(&t0, 0, 0, 1, vec![7]), (Outcome::Delivered, vec![0, 1, 7]));
    }

    #[test]
    fn dead_peer_breaks_pending_and_future_sends() {
        let (t0, t1) = pair();
        // Warm up the connection.
        assert_eq!(send_wait(&t0, 0, 1, 0, vec![1]).0, Outcome::Delivered);
        // Peer "dies": its transport shuts down and resets connections.
        t1.shutdown();
        drop(t1);
        // The next exchange observes Broken (possibly after the reader
        // notices the reset and breaks the peer for good).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while send_wait(&t0, 0, 1, 0, vec![2]).0 != Outcome::Broken {
            assert!(std::time::Instant::now() < deadline, "expected Broken");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Once broken, it stays broken (fail-stop: no resurrection).
        assert_eq!(send_wait(&t0, 0, 1, 0, vec![3]).0, Outcome::Broken);
    }

    #[test]
    fn locally_known_dead_rank_breaks_fast() {
        let (t0, _t1) = pair();
        t0.fault().kill_rank(1);
        assert_eq!(send_wait(&t0, 0, 1, 0, vec![]).0, Outcome::Broken);
    }

    /// Breaking a link mid-traffic severs the live connection (sends
    /// drain as `Broken`), and healing restores delivery on a fresh
    /// connection — no permanent peer death.
    #[test]
    fn break_link_severs_and_heal_restores() {
        let (t0, _t1) = pair();
        assert_eq!(send_wait(&t0, 0, 1, 0, vec![1]).0, Outcome::Delivered);
        t0.fault().break_link(0, 1);
        assert_eq!(send_wait(&t0, 0, 1, 0, vec![2]).0, Outcome::Broken);
        t0.fault().heal_link(0, 1);
        let (out, reply) = send_wait(&t0, 0, 1, 0, vec![3]);
        assert_eq!(out, Outcome::Delivered);
        assert_eq!(reply, vec![0, 0, 3]);
    }

    /// An asymmetric partition: only the *receiver's* fault plane knows
    /// the link is down. The sender's frames reach the wire but are
    /// refused per-frame with `KIND_RESP_BROKEN`, so its calls break
    /// without the connection dying — and flow resumes after the heal.
    #[test]
    fn receive_side_refusal_enforces_asymmetric_partition() {
        let (t0, t1) = pair();
        assert_eq!(send_wait(&t0, 0, 1, 0, vec![1]).0, Outcome::Delivered);
        // Break on rank 1's plane only; rank 0 still thinks all is well.
        t1.fault().break_link(0, 1);
        assert!(t0.fault().link_ok(0, 1), "sender's plane is oblivious");
        assert_eq!(send_wait(&t0, 0, 1, 0, vec![2]).0, Outcome::Broken);
        t1.fault().heal_link(0, 1);
        let (out, reply) = send_wait(&t0, 0, 1, 0, vec![3]);
        assert_eq!(out, Outcome::Delivered);
        assert_eq!(reply, vec![0, 0, 3]);
    }

    /// A link break drains in-flight calls as `Broken`: the request is on
    /// the wire awaiting its response when the sever lands.
    #[test]
    fn break_link_drains_inflight_as_broken() {
        let (t0, _t1) = pair();
        assert_eq!(send_wait(&t0, 0, 1, 0, vec![1]).0, Outcome::Delivered);
        // Stall rank 1's dispatch so a call is parked in `pending`.
        let _block = t1_dispatch_stall(&_t1);
        let (tx, rx) = mpsc::channel();
        t0.call(0, 1, 0, 0, vec![9], report(tx));
        // Give the frame time to hit the wire, then break.
        std::thread::sleep(Duration::from_millis(50));
        t0.fault().break_link(0, 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), Outcome::Broken);
    }

    /// Hold rank 1's dispatch lock so incoming requests park.
    fn t1_dispatch_stall(t1: &TcpTransport) -> parking_lot::MutexGuard<'_, ()> {
        t1.inner.dispatch.lock()
    }

    #[test]
    fn concurrent_calls_multiplex_on_one_connection() {
        let (t0, _t1) = pair();
        let (tx, rx) = mpsc::channel();
        const N: usize = 64;
        for i in 0..N {
            let tx = tx.clone();
            t0.call(
                0,
                1,
                (i % 5) as QueueId,
                8,
                vec![i as u8],
                Box::new(move |out, reply| {
                    let _ = tx.send((i, out, reply));
                }),
            );
        }
        for _ in 0..N {
            let (i, out, reply) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(out, Outcome::Delivered);
            assert_eq!(reply, vec![0, (i % 5) as u8, i as u8]);
        }
    }

    #[test]
    fn the_frame_header_meets_the_wire_property() {
        let hdr = Header { kind: KIND_RESP_BROKEN, call_id: 1 << 40, src: 3, dst: 1000, queue: 7 };
        crate::codec::check_wire::<Header>(&hdr);
    }

    /// A request whose header names a rank outside the world, or a
    /// receiver other than the listener's rank, is refused like a broken
    /// link: answered `KIND_RESP_BROKEN`, not dispatched, and the
    /// connection keeps serving the well-formed frame behind it.
    #[test]
    fn forged_header_ranks_are_refused_and_the_connection_survives() {
        let (_t0, t1) = pair();
        let mut raw = TcpStream::connect(t1.inner.local_addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for (call_id, src, dst) in [(1, 1000, 1), (2, 0, 1000), (3, 0, 0), (4, 0, 1)] {
            let req = Header { kind: KIND_REQ, call_id, src, dst, queue: 0 };
            write_frame(&mut raw, &req, &[7]).unwrap();
            let resp = read_frame(&mut raw).expect("every request is answered");
            assert_eq!(resp.hdr.call_id, call_id);
            if call_id < 4 {
                assert_eq!((resp.hdr.kind, resp.payload), (KIND_RESP_BROKEN, vec![]));
            } else {
                assert_eq!((resp.hdr.kind, resp.payload), (KIND_RESP, vec![0, 0, 7]));
            }
        }
    }

    /// Ranks 0 and 1 flood rank 2 at once: two server reader threads, one
    /// handler that never runs twice at once (the dispatch lock).
    #[test]
    fn handler_calls_from_two_peers_never_overlap() {
        const PER_SENDER: usize = 200;
        let ts = mesh(3);
        let probe = Arc::new(OverlapProbe::default());
        ts[2].bind(2, Arc::clone(&probe) as Arc<dyn Endpoint>);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for (src, t) in (0..2).zip(&ts) {
                let tx = tx.clone();
                s.spawn(move || {
                    for _ in 0..PER_SENDER {
                        t.send(src, 2, 0, 0, Vec::new(), report(tx.clone()));
                    }
                });
            }
        });
        for _ in 0..2 * PER_SENDER {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), Outcome::Delivered);
        }
        assert_eq!(probe.calls.load(Ordering::SeqCst), 2 * PER_SENDER);
        assert_eq!(probe.overlaps.load(Ordering::SeqCst), 0);
    }
}
