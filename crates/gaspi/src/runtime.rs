//! World construction, rank threads, and job handles.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Once, Weak};

use parking_lot::Mutex;

use ft_cluster::{
    FaultPlane, NodeStorage, QueueId, Rank, RankKilled, Signal, SimTransport, Topology, Transport,
    TransportOwner,
};

use crate::collectives::CollBoard;
use crate::config::GaspiConfig;
use crate::endpoint::GaspiEndpoint;
use crate::error::{GaspiError, GaspiResult};
use crate::group::GroupRegistry;
use crate::proc::GaspiProc;
use crate::queue::Queue;
use crate::segment::SegmentTable;

/// Service handler for checkpoint traffic (queues at the top of the
/// `u16` range): `(to, from, queue, msg) -> reply`. Installed by the
/// checkpoint library; the GASPI layer routes matching messages here
/// without decoding them.
pub type CkptHandler = Arc<dyn Fn(Rank, Rank, QueueId, &[u8]) -> Vec<u8> + Send + Sync>;

/// Shared, remotely accessible state of one rank. Lives in the world (not
/// the rank thread) so one-sided operations proceed without the target's
/// involvement — the defining PGAS property.
pub(crate) struct RankShared {
    pub segments: SegmentTable,
    pub queues: Vec<Queue>,
    pub signal: Signal,
    pub passive_inbox: Mutex<VecDeque<(Rank, Vec<u8>)>>,
    pub coll: CollBoard,
    pub groups: GroupRegistry,
    /// Error state vector: one entry per remote rank; 0 = HEALTHY,
    /// 1 = CORRUPT. Local to this process, as in the spec.
    pub state_vec: Vec<AtomicU8>,
}

impl RankShared {
    /// Mark `rank` CORRUPT in the local error state vector, as every
    /// broken completion does when it lands.
    pub fn mark_corrupt(&self, rank: Rank) {
        self.state_vec[rank as usize].store(1, Ordering::Release);
    }

    fn new(cfg: &GaspiConfig) -> Self {
        // App queues plus service/collective/passive internal queues.
        let nqueues = crate::config::PASSIVE_QUEUE as usize + 1;
        Self {
            segments: SegmentTable::default(),
            queues: (0..nqueues).map(|_| Queue::default()).collect(),
            signal: Signal::default(),
            passive_inbox: Mutex::new(VecDeque::new()),
            coll: CollBoard::default(),
            groups: GroupRegistry::default(),
            state_vec: (0..cfg.num_ranks).map(|_| AtomicU8::new(0)).collect(),
        }
    }
}

pub(crate) struct WorldInner {
    pub cfg: GaspiConfig,
    pub topo: Topology,
    pub fault: Arc<FaultPlane>,
    pub transport: Arc<dyn Transport>,
    pub ranks: Vec<Arc<RankShared>>,
    pub storage: Arc<NodeStorage>,
    /// Slot for the checkpoint library's service handler (see
    /// [`CkptHandler`]). One per world: the handler receives the target
    /// rank and dispatches on it.
    pub ckpt_handler: Mutex<Option<CkptHandler>>,
}

impl WorldInner {
    pub fn shared(&self, rank: Rank) -> &Arc<RankShared> {
        &self.ranks[rank as usize]
    }
}

/// A GASPI job: a fault plane, a network, and per-rank shared state,
/// ready to [`launch`](GaspiWorld::launch) rank threads (in-memory
/// backend) or to drive one local rank over a real transport (process
/// backend, [`GaspiWorld::with_transport`]).
pub struct GaspiWorld {
    // Declared before `inner`: Rust drops fields in declaration order, so
    // an owned transport is shut down and its scheduler thread joined
    // *before* the world state its in-flight actions reference goes away.
    _transport_owner: Option<TransportOwner>,
    inner: Arc<WorldInner>,
}

impl GaspiWorld {
    /// Build an in-memory world from `cfg`. The transport scheduler
    /// thread starts immediately; rank threads start at
    /// [`GaspiWorld::launch`].
    pub fn new(cfg: GaspiConfig) -> Self {
        let topo = cfg.topology();
        let fault = FaultPlane::new(topo.clone());
        let owner = SimTransport::start(cfg.model.clone(), Arc::clone(&fault), cfg.seed);
        let transport: Arc<dyn Transport> = Arc::new(owner.handle());
        Self::assemble(cfg, fault, transport, Some(owner), None)
    }

    /// Build a world around an externally owned transport, binding an
    /// endpoint only for `local_rank` — the process backend's per-child
    /// world, where every other rank lives in a different OS process and
    /// is reached over the wire. The caller keeps ownership of the
    /// transport's lifecycle (shutdown).
    pub fn with_transport(
        cfg: GaspiConfig,
        fault: Arc<FaultPlane>,
        transport: Arc<dyn Transport>,
        local_rank: Rank,
    ) -> Self {
        Self::assemble(cfg, fault, transport, None, Some(local_rank))
    }

    fn assemble(
        cfg: GaspiConfig,
        fault: Arc<FaultPlane>,
        transport: Arc<dyn Transport>,
        owner: Option<TransportOwner>,
        only_rank: Option<Rank>,
    ) -> Self {
        install_rank_killed_hook();
        let topo = cfg.topology();
        let storage = NodeStorage::new(topo.clone());
        storage.attach(&fault);
        let ranks = (0..cfg.num_ranks).map(|_| Arc::new(RankShared::new(&cfg))).collect();
        let inner = Arc::new(WorldInner {
            cfg,
            topo,
            fault: Arc::clone(&fault),
            transport: Arc::clone(&transport),
            ranks,
            storage,
            ckpt_handler: Mutex::new(None),
        });
        // Wire the receiving side of the seam: one endpoint per locally
        // hosted rank, holding the world weakly.
        let bind_ranks: Vec<Rank> = match only_rank {
            Some(r) => vec![r],
            None => (0..inner.cfg.num_ranks).collect(),
        };
        for r in bind_ranks {
            transport.bind(r, Arc::new(GaspiEndpoint::new(Arc::downgrade(&inner), r)));
        }
        // A dead rank's address space vanishes: wipe its segments and wake
        // every blocked waiter so they observe the new world.
        let weak: Weak<WorldInner> = Arc::downgrade(&inner);
        fault.on_kill(move |ev| {
            if let Some(w) = weak.upgrade() {
                for &r in &ev.ranks {
                    w.ranks[r as usize].segments.clear();
                }
                for rs in &w.ranks {
                    rs.signal.bump();
                }
            }
        });
        Self { _transport_owner: owner, inner }
    }

    /// Install the checkpoint service handler if none is installed yet
    /// (first install wins — every rank's checkpoint library offers an
    /// equivalent handler, so this is idempotent).
    pub fn install_ckpt_handler(&self, h: CkptHandler) {
        let mut slot = self.inner.ckpt_handler.lock();
        if slot.is_none() {
            *slot = Some(h);
        }
    }

    /// The world's fault plane (inject failures here).
    pub fn fault(&self) -> Arc<FaultPlane> {
        Arc::clone(&self.inner.fault)
    }

    /// Node-local storage (used by the checkpoint library).
    pub fn storage(&self) -> Arc<NodeStorage> {
        Arc::clone(&self.inner.storage)
    }

    /// A transport handle (used by the checkpoint library for costed
    /// copies).
    pub fn transport(&self) -> Arc<dyn Transport> {
        Arc::clone(&self.inner.transport)
    }

    /// The rank→node placement.
    pub fn topology(&self) -> &Topology {
        &self.inner.topo
    }

    /// The configuration this world was built from.
    pub fn config(&self) -> &GaspiConfig {
        &self.inner.cfg
    }

    /// A process handle without a thread — for driving the world from a
    /// test or a harness on the current thread. Most code should use
    /// [`GaspiWorld::launch`].
    pub fn proc_handle(&self, rank: Rank) -> GaspiProc {
        GaspiProc::new(Arc::clone(&self.inner), rank)
    }

    /// Run `f` for a single rank on the *current* thread, with the same
    /// fail-stop panic handling as [`GaspiWorld::launch`]. The process
    /// backend uses this: each OS process hosts exactly one rank, so
    /// there is nothing to fan out.
    pub fn run_local<T>(
        &self,
        rank: Rank,
        f: impl FnOnce(GaspiProc) -> GaspiResult<T>,
    ) -> RankOutcome<T> {
        let proc = GaspiProc::new(Arc::clone(&self.inner), rank);
        run_rank(rank, proc, f)
    }

    /// Spawn one OS thread per rank, each running `f(proc)`. Returns a
    /// handle to join all ranks.
    pub fn launch<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: Fn(GaspiProc) -> GaspiResult<T> + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut handles = Vec::with_capacity(self.inner.cfg.num_ranks as usize);
        for rank in 0..self.inner.cfg.num_ranks {
            let f = Arc::clone(&f);
            let proc = GaspiProc::new(Arc::clone(&self.inner), rank);
            let h = std::thread::Builder::new()
                .name(format!("gaspi-rank-{rank}"))
                .spawn(move || run_rank(rank, proc, move |p| f(p)))
                .expect("spawn rank thread");
            handles.push(h);
        }
        JobHandle { handles }
    }
}

fn run_rank<T>(
    rank: Rank,
    proc: GaspiProc,
    f: impl FnOnce(GaspiProc) -> GaspiResult<T>,
) -> RankOutcome<T> {
    match panic::catch_unwind(AssertUnwindSafe(move || f(proc))) {
        Ok(Ok(v)) => RankOutcome::Completed(v),
        Ok(Err(e)) => RankOutcome::Failed(e),
        Err(payload) => {
            if let Some(rk) = payload.downcast_ref::<RankKilled>() {
                RankOutcome::Killed(rk.rank)
            } else {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| format!("rank {rank}: non-string panic payload"));
                RankOutcome::Panicked(msg)
            }
        }
    }
}

/// How one rank's thread ended.
#[derive(Debug)]
pub enum RankOutcome<T> {
    /// The rank function returned `Ok`.
    Completed(T),
    /// The rank function returned a GASPI error.
    Failed(GaspiError),
    /// The rank was killed (fail-stop) — the simulated failure, not a bug.
    Killed(Rank),
    /// The rank panicked for a real reason; the message is preserved.
    Panicked(String),
}

impl<T> RankOutcome<T> {
    /// The completion value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            RankOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// True if the rank was killed by fault injection.
    pub fn was_killed(&self) -> bool {
        matches!(self, RankOutcome::Killed(_))
    }
}

/// Joins the rank threads of one [`GaspiWorld::launch`] call.
pub struct JobHandle<T> {
    handles: Vec<std::thread::JoinHandle<RankOutcome<T>>>,
}

impl<T> JobHandle<T> {
    /// Wait for every rank thread; outcomes are indexed by rank.
    pub fn join(self) -> Vec<RankOutcome<T>> {
        self.handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(_) => RankOutcome::Panicked("rank thread poisoned its own panic".into()),
            })
            .collect()
    }
}

/// Install (once per process) a panic hook that silences the simulated
/// [`RankKilled`] unwinds while leaving every real panic loud.
fn install_rank_killed_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RankKilled>().is_some() {
                return; // a scheduled fail-stop failure, not a bug
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Timeout;

    #[test]
    fn launch_and_join_all_ranks() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(4));
        let job = world.launch(|p| Ok(p.rank() * 10));
        let outs = job.join();
        let vals: Vec<u32> = outs.into_iter().map(|o| o.completed().unwrap()).collect();
        assert_eq!(vals, vec![0, 10, 20, 30]);
    }

    #[test]
    fn killed_rank_reports_killed_outcome() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(2));
        let fault = world.fault();
        let job = world.launch(move |p| {
            if p.rank() == 1 {
                // Simulated `exit(-1)`.
                p.exit_failure();
            }
            // rank 0: ping rank 1 until it dies, proving liveness queries.
            loop {
                if p.proc_ping(1, Timeout::Ms(200)).is_err() {
                    return Ok(p.rank());
                }
            }
        });
        let outs = job.join();
        assert!(matches!(outs[0], RankOutcome::Completed(0)));
        assert!(outs[1].was_killed());
        assert!(!fault.is_alive(1));
    }

    #[test]
    fn real_panics_are_preserved() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(1));
        // Suppress the hook's print? The hook passes real panics through,
        // which is what we want — just check the outcome classification.
        let job = world.launch(|p| {
            if p.rank() == 0 {
                panic!("genuine bug {}", 42);
            }
            Ok(())
        });
        let outs = job.join();
        match &outs[0] {
            RankOutcome::Panicked(msg) => assert!(msg.contains("genuine bug 42")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn failed_outcome_carries_error() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(1));
        let job = world.launch(|_p| -> GaspiResult<()> { Err(GaspiError::Timeout) });
        let outs = job.join();
        assert!(matches!(outs[0], RankOutcome::Failed(GaspiError::Timeout)));
    }
}
