//! The collectives' traffic as formulas in n, the group size. Counted at
//! the transport seam: every collective token is one `send`.
//!
//! * a group commit, an allreduce and a barrier are each one star: n − 1
//!   tokens from member 0 and one from every other member, 2(n − 1) in all;
//! * an all-to-all is n − 1 tokens from every member, n(n − 1) in all.

use std::sync::{Arc, Mutex};

use ft_cluster::{
    Completion, Endpoint, FanoutCompletion, FaultPlane, LatencyModel, QueueId, Rank, SimTransport,
    Transport,
};
use ft_gaspi::{
    GaspiConfig, GaspiProc, GaspiResult, GaspiWorld, Group, RankOutcome, ReduceOp, Timeout,
};

/// The group sizes n.
const SIZES: [u32; 6] = [1, 2, 3, 4, 8, 64];
const TIMEOUT: Timeout = Timeout::Ms(10_000);

/// A simulator that counts the single sends posted through it, by source.
struct Counting {
    sim: SimTransport,
    sent: Mutex<Vec<usize>>,
}

impl Transport for Counting {
    fn bind(&self, rank: Rank, endpoint: Arc<dyn Endpoint>) {
        self.sim.bind(rank, endpoint);
    }
    fn send(&self, s: Rank, d: Rank, q: QueueId, cost: usize, m: Vec<u8>, done: Completion) {
        self.sent.lock().unwrap()[s as usize] += 1;
        self.sim.send(s, d, q, cost, m, done);
    }
    fn call(&self, s: Rank, d: Rank, q: QueueId, cost: usize, m: Vec<u8>, done: Completion) {
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

/// The sends each of n ranks posted while it committed the group of all
/// ranks and then ran `op` on it. One world per rank on one counting
/// simulator, each rank on its own thread.
fn sent_by(n: u32, op: fn(&GaspiProc, Group) -> GaspiResult<()>) -> Vec<usize> {
    let cfg = GaspiConfig::deterministic(n);
    let fault = FaultPlane::new(cfg.topology());
    let owner = SimTransport::start(cfg.model.clone(), Arc::clone(&fault), cfg.seed);
    let t = Arc::new(Counting { sim: owner.handle(), sent: Mutex::new(vec![0; n as usize]) });
    let worlds: Vec<GaspiWorld> = (0..n)
        .map(|r| {
            GaspiWorld::with_transport(cfg.clone(), Arc::clone(&fault), Arc::clone(&t) as _, r)
        })
        .collect();
    std::thread::scope(|s| {
        for (r, world) in (0..n).zip(&worlds) {
            s.spawn(move || {
                let out = world.run_local(r, |p| {
                    let g = p.group_create_with_id(1 << 32)?;
                    for m in 0..n {
                        p.group_add(g, m)?;
                    }
                    p.group_commit(g, TIMEOUT)?;
                    op(&p, g)
                });
                assert!(matches!(out, RankOutcome::Completed(())), "n = {n}, rank {r}: {out:?}");
            });
        }
    });
    drop(worlds);
    let sent = t.sent.lock().unwrap().clone();
    sent
}

/// The tokens `op` posts, by source: what a job that runs it sends beyond
/// one that only commits.
fn tokens_of(n: u32, op: fn(&GaspiProc, Group) -> GaspiResult<()>) -> Vec<usize> {
    let base = sent_by(n, |_, _| Ok(()));
    sent_by(n, op).iter().zip(base).map(|(all, commit)| all - commit).collect()
}

/// n − 1 tokens from member 0, one from every other member.
fn star(n: u32) -> Vec<usize> {
    (0..n).map(|r| if r == 0 { n as usize - 1 } else { 1 }).collect()
}

#[test]
fn a_group_commit_is_the_same_star() {
    for n in SIZES {
        assert_eq!(sent_by(n, |_, _| Ok(())), star(n), "group commit over n = {n}");
    }
}

#[test]
fn an_allreduce_is_one_star_of_two_n_minus_one_tokens() {
    for n in SIZES {
        let got = tokens_of(n, |p, g| {
            p.allreduce_f64(g, &[f64::from(p.rank())], ReduceOp::Sum, TIMEOUT).map(drop)
        });
        assert_eq!(got, star(n), "allreduce over n = {n}");
        assert_eq!(got.iter().sum::<usize>(), 2 * (n as usize - 1));
    }
}

#[test]
fn a_barrier_is_the_same_star() {
    for n in SIZES {
        assert_eq!(tokens_of(n, |p, g| p.barrier(g, TIMEOUT)), star(n), "barrier over n = {n}");
    }
}

#[test]
fn an_alltoall_is_n_minus_one_tokens_from_every_member() {
    for n in SIZES {
        let got = tokens_of(n, |p, g| {
            p.alltoall(g, &vec![vec![1]; p.num_ranks() as usize], TIMEOUT).map(drop)
        });
        assert_eq!(got, vec![n as usize - 1; n as usize], "alltoall over n = {n}");
    }
}
