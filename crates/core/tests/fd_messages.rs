//! The fault detector's traffic as formulas in n, the number of ranks it
//! scans: the message-count half of the paper's Table I shape. Counted at
//! the transport seam, every destination of a fan-out once:
//!
//! * a healthy scan is n pings in one fan-out and no single call;
//! * with k dead it is n + k pings in two fan-outs: one verifying ping per
//!   suspect, posted as one batch;
//! * an acknowledgment is one put per live rank other than the detector,
//!   in one fan-out, with no single send;
//! * `HealthWatch::check` makes no transport call at all.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ft_cluster::{
    Completion, Endpoint, FanoutCompletion, FaultPlane, LatencyModel, QueueId, Rank, SimTransport,
    Transport, TransportOwner,
};
use ft_core::ack::{self, ACK_QUEUE};
use ft_core::detector::glo_health_chk_graced;
use ft_core::{HealthWatch, RecoveryPlan, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiProc, GaspiWorld, Timeout};

/// The scanned rank counts n.
const SIZES: [u32; 5] = [8, 16, 64, 256, 1024];
const TIMEOUT: Timeout = Timeout::Ms(2000);

/// Transport traffic, every destination of a fan-out counted once.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    /// `call_fanout` posts.
    fanouts: usize,
    /// Destinations over all those posts.
    fanned: usize,
    /// Single round trips.
    calls: usize,
    /// Single sends.
    sends: usize,
}

/// A simulator that counts the messages posted through it.
struct Counting {
    sim: SimTransport,
    counts: Mutex<Counts>,
}

impl Counting {
    fn counts(&self) -> Counts {
        *self.counts.lock().unwrap()
    }

    fn count(&self, f: impl FnOnce(&mut Counts)) {
        f(&mut self.counts.lock().unwrap());
    }
}

impl Transport for Counting {
    fn bind(&self, rank: Rank, endpoint: Arc<dyn Endpoint>) {
        self.sim.bind(rank, endpoint);
    }
    fn send(&self, s: Rank, d: Rank, q: QueueId, cost: usize, m: Vec<u8>, done: Completion) {
        self.count(|c| c.sends += 1);
        self.sim.send(s, d, q, cost, m, done);
    }
    fn call(&self, s: Rank, d: Rank, q: QueueId, cost: usize, m: Vec<u8>, done: Completion) {
        self.count(|c| c.calls += 1);
        self.sim.call(s, d, q, cost, m, done);
    }
    fn call_fanout(
        &self,
        s: Rank,
        dsts: &[Rank],
        q: QueueId,
        cost: usize,
        m: Arc<[u8]>,
        done: FanoutCompletion,
    ) {
        self.count(|c| {
            c.fanouts += 1;
            c.fanned += dsts.len();
        });
        self.sim.call_fanout(s, dsts, q, cost, m, done);
    }
    fn fault(&self) -> &Arc<FaultPlane> {
        self.sim.fault()
    }
    fn model(&self) -> &LatencyModel {
        self.sim.model()
    }
    fn shutdown(&self) {
        Transport::shutdown(&self.sim);
    }
}

/// Answers every message with an empty reply: a live rank that keeps no
/// state.
struct Live;

impl Endpoint for Live {
    fn handle(&self, _: Rank, _: QueueId, _: &[u8]) -> Vec<u8> {
        Vec::new()
    }
}

/// n scanned ranks and the detector, rank n, on a counting simulator. Rank
/// 0 is a GASPI rank of its own world on the same wire, so a put lands in
/// its segments; ranks 1..n are `Live`. Fields drop in order: the worlds
/// before the simulator's owner.
struct Rig {
    fd: GaspiProc,
    rank0: GaspiProc,
    worlds: [GaspiWorld; 2],
    t: Arc<Counting>,
    _owner: TransportOwner,
}

fn rig(n: u32) -> Rig {
    let cfg = GaspiConfig::deterministic(n + 1);
    let fault = FaultPlane::new(cfg.topology());
    let owner = SimTransport::start(cfg.model.clone(), Arc::clone(&fault), cfg.seed);
    let t = Arc::new(Counting { sim: owner.handle(), counts: Mutex::default() });
    (1..n).for_each(|r| t.bind(r, Arc::new(Live)));
    let on_wire =
        |r| GaspiWorld::with_transport(cfg.clone(), Arc::clone(&fault), Arc::clone(&t) as _, r);
    let worlds = [on_wire(n), on_wire(0)];
    let (fd, rank0) = (worlds[0].proc_handle(n), worlds[1].proc_handle(0));
    Rig { fd, rank0, worlds, t, _owner: owner }
}

#[test]
fn a_scan_is_n_pings_in_one_fanout_and_k_verifying_pings_in_one_more() {
    for n in SIZES {
        for k in [0, 1, 8] {
            let w = rig(n);
            let dead: Vec<Rank> = (n - k..n).collect();
            for &r in &dead {
                w.worlds[0].fault().kill_rank(r);
            }
            let targets: Vec<Rank> = (0..n).collect();
            let found = glo_health_chk_graced(&w.fd, &targets, TIMEOUT, Duration::ZERO);
            assert_eq!(found, dead, "n = {n}, k = {k}");
            let fanouts = 1 + usize::from(k > 0);
            let want = Counts { fanouts, fanned: (n + k) as usize, ..Counts::default() };
            assert_eq!(w.t.counts(), want, "scan of n = {n} with k = {k} dead");
        }
    }
}

#[test]
fn an_acknowledgment_is_one_put_per_live_rank_and_a_check_sends_nothing() {
    for n in SIZES {
        for k in [1, 8] {
            let w = rig(n);
            let layout = WorldLayout::new(n - 1, 2);
            ack::create_ctrl_segment(&w.fd, &layout).unwrap();
            ack::create_ctrl_segment(&w.rank0, &layout).unwrap();
            let dead: Vec<Rank> = (n - k..n).collect();
            let plan = RecoveryPlan::initial().after_failures(&layout, &dead, None);
            let live: Vec<Rank> = (0..n).filter(|r| !dead.contains(r)).collect();
            ack::broadcast_plan(&w.fd, &plan, &live, ACK_QUEUE, TIMEOUT).unwrap();
            let want = Counts { fanouts: 1, fanned: live.len(), ..Counts::default() };
            assert_eq!(w.t.counts(), want, "acknowledgment of n = {n} with k = {k} dead");

            let watch = HealthWatch::new(w.rank0.clone(), layout, Duration::from_secs(10), TIMEOUT);
            let _ = watch.check();
            assert_eq!(w.t.counts(), want, "HealthWatch::check moved traffic (n = {n})");
            if live.contains(&0) {
                assert_eq!(watch.plan(), plan, "rank 0 took the plan in (n = {n}, k = {k})");
            }
        }
    }
}
