//! The fault plane: fail-stop process/node failures and network faults.
//!
//! The paper verified its recovery mechanism with three kinds of failure
//! (§VI): `exit(-1)` inside the program, `kill -9` from outside, and a
//! physically introduced network fault. Here a fault is a *(trigger,
//! action)* pair — a [`FaultAction`] under one of the three kinds of
//! [`FaultSchedule`] entry: wall-clock, the victim's own iteration count,
//! or a named protocol step of any rank ([`Injection`], see
//! [`crate::inject`]). ARCHITECTURE.md §5 holds the table.
//!
//! * A kill ([`FaultPlane::kill_rank`]) poisons the rank's liveness flag;
//!   its next communication-layer call panics with [`RankKilled`],
//!   unwound to the rank-thread boundary. What makes a kill *real* lives
//!   here too: the [`FaultPlane::on_kill`] hooks (the process supervisor's
//!   is a `SIGKILL`) and [`FaultPlane::exit_process_on_kill`].
//! * A node kill ([`FaultPlane::kill_node`]) takes down every rank placed
//!   on the node *and* has the hooks drop node-local state (segments,
//!   node-level checkpoints) — the reason the checkpoint library must
//!   replicate to a *neighbor* node.
//! * [`FaultPlane::break_link`] — a network fault: both processes stay
//!   alive but messages between them are reported broken. Used to exercise
//!   the paper's *false positive* discussion (§IV-A-a): the fault detector
//!   suspects a healthy process and enforces its death via
//!   `gaspi_proc_kill`.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::codec::{CodecError, Dec, Enc, Wire};
use crate::inject::{InjectState, Injection, SiteName, SiteRecord};
use crate::monitor::Monitor;
use crate::topology::{NodeId, Rank, Topology};

/// Panic payload raised by a killed rank's next communication call.
///
/// The GASPI runtime installs a panic hook that silences this payload (it
/// is a *simulated* failure, not a bug) and catches it at the top of the
/// rank thread, turning the thread's outcome into "killed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKilled {
    /// The rank that died.
    pub rank: Rank,
}

impl RankKilled {
    /// Unwind the current rank thread with this payload.
    pub fn raise(self) -> ! {
        std::panic::panic_any(self)
    }
}

/// What happened in a kill event, passed to registered hooks.
#[derive(Debug, Clone)]
pub struct KillEvent {
    /// Ranks that died in this event (one for a process kill, all ranks of
    /// the node for a node kill).
    pub ranks: Vec<Rank>,
    /// Set when the whole node died, in which case node-local state must be
    /// dropped.
    pub node: Option<NodeId>,
}

type KillHook = Box<dyn Fn(&KillEvent) + Send + Sync>;

/// Hook fired once per *directed* link transition: `(src, dst, broken)`.
/// A bidirectional [`FaultPlane::break_link`] fires it twice (once per
/// direction); `broken == false` means the direction was healed. The TCP
/// backend registers one to sever live sockets when a break involves the
/// local rank.
type LinkHook = Box<dyn Fn(Rank, Rank, bool) + Send + Sync>;

/// Shared liveness/link-state of the simulated cluster.
pub struct FaultPlane {
    topo: Topology,
    alive: Vec<AtomicBool>,
    node_alive: Vec<AtomicBool>,
    /// Directed broken links `(src, dst)`.
    broken_links: RwLock<HashSet<(Rank, Rank)>>,
    hooks: Mutex<Vec<KillHook>>,
    link_hooks: Mutex<Vec<LinkHook>>,
    /// Bumped on every kill/link event; cheap freshness check for cached
    /// liveness views.
    epoch: AtomicU64,
    /// Fast-path gate for injection sites: sites are one relaxed load
    /// until a recording or an armed plan turns this on.
    inject_on: AtomicBool,
    /// Step-indexed injection state (counters, log, armed plans).
    inject: Mutex<InjectState>,
    /// Process-backend hook: when set to a rank (sentinel `u64::MAX` =
    /// unset), killing that rank terminates *this OS process* with exit
    /// code [`KILLED_EXIT_CODE`]. A child process hosting exactly one rank
    /// sets this so every cooperative kill path — `exit(-1)`-style
    /// self-kills, step-indexed injections, a received `gaspi_proc_kill` —
    /// becomes genuine fail-stop death instead of flag poisoning.
    exit_on_kill: AtomicU64,
}

/// Exit code of a rank process that died to a kill (as opposed to an
/// error or a clean finish); the supervisor classifies on it.
pub const KILLED_EXIT_CODE: i32 = 113;

impl FaultPlane {
    /// A fault plane where every rank and node starts healthy.
    pub fn new(topo: Topology) -> Arc<Self> {
        let alive = (0..topo.num_ranks()).map(|_| AtomicBool::new(true)).collect();
        let node_alive = (0..topo.num_nodes()).map(|_| AtomicBool::new(true)).collect();
        Arc::new(Self {
            topo,
            alive,
            node_alive,
            broken_links: RwLock::new(HashSet::new()),
            hooks: Mutex::new(Vec::new()),
            link_hooks: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            inject_on: AtomicBool::new(false),
            inject: Mutex::new(InjectState::default()),
            exit_on_kill: AtomicU64::new(u64::MAX),
        })
    }

    /// Arm process-exit-on-kill for `rank` (see the field docs). Used by
    /// the process backend's child entry; never set in-memory.
    pub fn exit_process_on_kill(&self, rank: Rank) {
        self.exit_on_kill.store(u64::from(rank), Ordering::Release);
    }

    fn maybe_exit_process(&self, rank: Rank) {
        if self.exit_on_kill.load(Ordering::Acquire) == u64::from(rank) {
            std::process::exit(KILLED_EXIT_CODE);
        }
    }

    /// The topology this plane covers.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Liveness of a rank.
    pub fn is_alive(&self, rank: Rank) -> bool {
        self.alive[rank as usize].load(Ordering::Acquire)
    }

    /// Liveness of a node.
    pub fn node_is_alive(&self, node: NodeId) -> bool {
        self.node_alive[node.0 as usize].load(Ordering::Acquire)
    }

    /// Number of ranks still alive.
    pub fn alive_count(&self) -> u32 {
        self.alive.iter().filter(|a| a.load(Ordering::Acquire)).count() as u32
    }

    /// Panic with [`RankKilled`] if `rank` has been killed. Communication
    /// entry points call this so a killed rank stops at its next call —
    /// fail-stop semantics without force-killing OS threads.
    pub fn assert_alive(&self, rank: Rank) {
        if !self.is_alive(rank) {
            RankKilled { rank }.raise();
        }
    }

    /// Current fault epoch; bumped by every kill or link change.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Register a hook to run on every kill event (e.g. drop node storage,
    /// wake blocked waiters). Hooks run on the killer's thread, outside the
    /// plane's locks.
    pub fn on_kill(&self, hook: impl Fn(&KillEvent) + Send + Sync + 'static) {
        self.hooks.lock().push(Box::new(hook));
    }

    fn fire(&self, ev: KillEvent) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let hooks = self.hooks.lock();
        for h in hooks.iter() {
            h(&ev);
        }
    }

    /// Register a hook to run on every directed link transition (break or
    /// heal). Hooks run on the breaking thread, outside the link table's
    /// lock — the table is already updated when they fire, so a hook that
    /// re-reads [`FaultPlane::link_ok`] sees the new state.
    pub fn on_link(&self, hook: impl Fn(Rank, Rank, bool) + Send + Sync + 'static) {
        self.link_hooks.lock().push(Box::new(hook));
    }

    fn fire_link(&self, pairs: &[(Rank, Rank)], broken: bool) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let hooks = self.link_hooks.lock();
        for &(s, d) in pairs {
            for h in hooks.iter() {
                h(s, d, broken);
            }
        }
    }

    /// Kill a single rank (fail-stop). Returns `true` if this call killed
    /// it, `false` if it was already dead. Idempotent, as `gaspi_proc_kill`
    /// must be.
    pub fn kill_rank(&self, rank: Rank) -> bool {
        self.maybe_exit_process(rank);
        let first = self.alive[rank as usize].swap(false, Ordering::AcqRel);
        if first {
            self.fire(KillEvent { ranks: vec![rank], node: None });
        }
        first
    }

    /// Kill a whole node: all its ranks die and node-local state is
    /// dropped by the hooks. Returns the ranks that died with this call.
    pub fn kill_node(&self, node: NodeId) -> Vec<Rank> {
        for r in self.topo.ranks_on(node) {
            self.maybe_exit_process(r);
        }
        let was_alive = self.node_alive[node.0 as usize].swap(false, Ordering::AcqRel);
        let mut died = Vec::new();
        for r in self.topo.ranks_on(node) {
            if self.alive[r as usize].swap(false, Ordering::AcqRel) {
                died.push(r);
            }
        }
        if was_alive || !died.is_empty() {
            self.fire(KillEvent { ranks: died.clone(), node: Some(node) });
        }
        died
    }

    /// Break the directed link `src → dst` (messages that way are reported
    /// broken; the reverse direction is unaffected).
    pub fn break_link_directed(&self, src: Rank, dst: Rank) {
        self.broken_links.write().insert((src, dst));
        self.fire_link(&[(src, dst)], true);
    }

    /// Break both directions between `a` and `b`.
    pub fn break_link(&self, a: Rank, b: Rank) {
        {
            let mut l = self.broken_links.write();
            l.insert((a, b));
            l.insert((b, a));
        }
        self.fire_link(&[(a, b), (b, a)], true);
    }

    /// Restore both directions between `a` and `b`.
    pub fn heal_link(&self, a: Rank, b: Rank) {
        {
            let mut l = self.broken_links.write();
            l.remove(&(a, b));
            l.remove(&(b, a));
        }
        self.fire_link(&[(a, b), (b, a)], false);
    }

    /// Whether messages can flow `src → dst` right now (both endpoints
    /// alive, link intact).
    pub fn link_ok(&self, src: Rank, dst: Rank) -> bool {
        self.is_alive(src) && self.is_alive(dst) && !self.link_broken(src, dst)
    }

    /// Whether the directed link `src → dst` is broken, whatever the
    /// liveness of its ends.
    pub(crate) fn link_broken(&self, src: Rank, dst: Rank) -> bool {
        self.broken_links.read().contains(&(src, dst))
    }

    // ---- Step-indexed injection sites (see `crate::inject`) ------------

    /// Cross the named injection site on behalf of `rank`, **from the
    /// rank's own thread**: counts the occurrence, logs it while
    /// recording, and applies the action of every armed [`Injection`] the
    /// crossing matches, in arming order. If that took out the crossing
    /// rank, the calling thread then unwinds with [`RankKilled`], like
    /// [`FaultPlane::assert_alive`] after an external kill; any other
    /// victim is only poisoned and learns of it at its next communication
    /// call. Free when injection is disabled: one relaxed atomic load.
    pub fn site(&self, rank: Rank, site: SiteName) {
        if self.site_hit(rank, site) {
            self.assert_alive(rank);
        }
    }

    /// [`FaultPlane::site`] for crossings performed by helper threads
    /// (the checkpoint library thread, the network scheduler): never
    /// unwinds the calling thread. A kill of the crossing rank, too, only
    /// poisons its liveness flag — external `kill -9` semantics.
    pub fn site_passive(&self, rank: Rank, site: SiteName) {
        self.site_hit(rank, site);
    }

    /// Whether the crossing fired anything.
    fn site_hit(&self, rank: Rank, site: SiteName) -> bool {
        if !self.inject_on.load(Ordering::Relaxed) {
            return false;
        }
        // The state lock is released before the actions run: a kill fires
        // hooks and a delay sleeps.
        let actions = self.inject.lock().cross(rank, site);
        actions.iter().for_each(|a| a.apply(self));
        !actions.is_empty()
    }

    /// Arm step-indexed injections (cumulative across calls).
    pub fn arm_injections(&self, injections: impl IntoIterator<Item = Injection>) {
        if self.inject.lock().arm(injections) {
            self.inject_on.store(true, Ordering::Release);
        }
    }

    /// Start logging site crossings, keeping at most `cap_per_site`
    /// occurrences per `(site, rank)` in the log (counters are unbounded;
    /// only the log is capped). The log enumerates the kill points a
    /// sweep can replay.
    pub fn record_sites(&self, cap_per_site: u64) {
        self.inject.lock().start_recording(cap_per_site);
        self.inject_on.store(true, Ordering::Release);
    }

    /// The recorded site crossings, in crossing order.
    pub fn site_log(&self) -> Vec<SiteRecord> {
        self.inject.lock().log()
    }

    /// Armed injections that have fired so far, in firing order.
    pub fn injections_fired(&self) -> Vec<Injection> {
        self.inject.lock().fired()
    }

    /// Total crossings of `(site, rank)` so far.
    pub fn site_count(&self, site: &str, rank: Rank) -> u64 {
        self.inject.lock().count(site, rank)
    }
}

/// What a fault does — the one action vocabulary, under every trigger of a
/// [`FaultSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill one rank.
    KillRank(Rank),
    /// Kill a node and every rank on it.
    KillNode(NodeId),
    /// Break the (bidirectional) link between two ranks.
    BreakLink(Rank, Rank),
    /// Heal the (bidirectional) link between two ranks.
    HealLink(Rank, Rank),
    /// Stall the thread the trigger fires on (a slow step, e.g. a GC pause
    /// or network hiccup, without killing anything). Only a site crossing
    /// has such a thread; [`FaultSchedule::timed`] refuses it.
    Delay(Duration),
}

impl FaultAction {
    fn apply(&self, plane: &FaultPlane) {
        match *self {
            FaultAction::KillRank(r) => {
                plane.kill_rank(r);
            }
            FaultAction::KillNode(n) => {
                plane.kill_node(n);
            }
            FaultAction::BreakLink(a, b) => plane.break_link(a, b),
            FaultAction::HealLink(a, b) => plane.heal_link(a, b),
            FaultAction::Delay(d) => std::thread::sleep(d),
        }
    }

    /// Whether this is a kill (of a rank or a node).
    pub fn is_kill(&self) -> bool {
        matches!(self, FaultAction::KillRank(_) | FaultAction::KillNode(_))
    }

    /// Whether the action touches `rank` itself: kills it or its node, cuts
    /// or heals one of its links, or — fired at its crossing — stalls it.
    pub fn involves(&self, rank: Rank, topo: &Topology) -> bool {
        match *self {
            FaultAction::KillRank(r) => r == rank,
            FaultAction::KillNode(n) => topo.node_of(rank) == n,
            FaultAction::BreakLink(a, b) | FaultAction::HealLink(a, b) => a == rank || b == rank,
            FaultAction::Delay(_) => true,
        }
    }
}

impl Wire for FaultAction {
    fn encode(&self, e: &mut Enc) {
        match *self {
            FaultAction::KillRank(r) => e.u8(0).u32(r),
            FaultAction::KillNode(n) => e.u8(1).u32(n.0),
            FaultAction::BreakLink(a, b) => e.u8(2).u32(a).u32(b),
            FaultAction::HealLink(a, b) => e.u8(3).u32(a).u32(b),
            FaultAction::Delay(d) => e.u8(DELAY_TAG).u64(d.as_nanos() as u64),
        };
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => FaultAction::KillRank(d.u32()?),
            1 => FaultAction::KillNode(NodeId(d.u32()?)),
            2 => FaultAction::BreakLink(d.u32()?, d.u32()?),
            3 => FaultAction::HealLink(d.u32()?, d.u32()?),
            DELAY_TAG => FaultAction::Delay(Duration::from_nanos(d.u64()?)),
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

const DELAY_TAG: u8 = 4;

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultAction::KillRank(r) => write!(f, "kill_rank:{r}"),
            FaultAction::KillNode(n) => write!(f, "kill_node:{}", n.0),
            FaultAction::BreakLink(a, b) => write!(f, "break_link:{a}-{b}"),
            FaultAction::HealLink(a, b) => write!(f, "heal_link:{a}-{b}"),
            FaultAction::Delay(d) => write!(f, "delay:{}us", d.as_micros()),
        }
    }
}

/// A deterministic failure plan: [`FaultAction`]s under three triggers —
/// the victim's own iteration count (the paper's `exit(-1)` at a fixed
/// iteration, for reproducible redo-work time), wall-clock time (the
/// paper's random `kill -9` during the run, for Table I) and a named
/// protocol step ([`Injection`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    at_iteration: Vec<(Rank, u64)>,
    timed: Vec<(Duration, FaultAction)>,
    injections: Vec<Injection>,
}

impl FaultSchedule {
    /// An empty schedule (failure-free run).
    pub fn none() -> Self {
        Self::default()
    }

    /// Kill `rank` when *it* reaches iteration `iter` (the application
    /// driver polls [`FaultSchedule::kill_at_iteration`]).
    pub fn kill_rank_at_iteration(mut self, rank: Rank, iter: u64) -> Self {
        self.at_iteration.push((rank, iter));
        self
    }

    /// Apply `action` `after` the schedule timer starts.
    ///
    /// # Panics
    /// On [`FaultAction::Delay`]: the timer has no thread worth stalling.
    pub fn timed(mut self, after: Duration, action: FaultAction) -> Self {
        assert!(!matches!(action, FaultAction::Delay(_)), "a Delay needs a site to stall at");
        self.timed.push((after, action));
        self
    }

    /// Arm a step-indexed [`Injection`] when the schedule starts. Kills
    /// are idempotent on the fault plane, so a step-indexed kill and a
    /// wall-clock kill of the same rank compose into exactly one kill
    /// event.
    pub fn inject(mut self, inj: Injection) -> Self {
        self.injections.push(inj);
        self
    }

    /// This schedule with only those wall-clock actions `keep` accepts;
    /// iteration kills and injections stay. The process backend splits a
    /// schedule with it: the supervisor takes the timed kills, each rank
    /// process the rest.
    pub fn retain_timed(mut self, keep: impl Fn(&FaultAction) -> bool) -> Self {
        self.timed.retain(|(_, a)| keep(a));
        self
    }

    /// The armed step-indexed injections, for inspection.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// Should `rank` kill itself upon reaching `iter`?
    pub fn kill_at_iteration(&self, rank: Rank, iter: u64) -> bool {
        self.at_iteration.iter().any(|&(r, i)| r == rank && i == iter)
    }

    /// Iteration-triggered kills, for inspection.
    pub fn iteration_kills(&self) -> &[(Rank, u64)] {
        &self.at_iteration
    }

    /// Arm the step-indexed injections on `plane`, then spawn the timer
    /// thread applying the timed actions (if any) to it — the one
    /// interpreter of a schedule on both backends. The returned guard
    /// aborts outstanding actions when dropped.
    pub fn start_timer(&self, plane: Arc<FaultPlane>) -> ScheduleTimer {
        plane.arm_injections(self.injections.iter().cloned());
        let mut timed = self.timed.clone();
        timed.sort_by_key(|(d, _)| *d);
        let cancel = Arc::new(Monitor::new(false));
        let c2 = Arc::clone(&cancel);
        let run = move || {
            let start = std::time::Instant::now();
            for (after, action) in timed {
                if c2.wait_for(|&cancelled| cancelled, Some(start + after)) {
                    return;
                }
                action.apply(&plane);
            }
        };
        let builder = std::thread::Builder::new().name("fault-schedule".into());
        // Nothing timed (every benchmark job), no thread.
        let handle = (!self.timed.is_empty()).then(|| builder.spawn(run).expect("spawn timer"));
        ScheduleTimer { cancel, handle }
    }
}

/// Shipped to a rank process through its environment, so decoded from
/// untrusted bytes: a timed [`FaultAction::Delay`] is as illegal as in
/// [`FaultSchedule::timed`].
impl Wire for FaultSchedule {
    fn encode(&self, e: &mut Enc) {
        self.at_iteration.encode(e);
        self.timed.encode(e);
        self.injections.encode(e);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        let s = Self {
            at_iteration: Wire::decode(d)?,
            timed: Wire::decode(d)?,
            injections: Wire::decode(d)?,
        };
        match s.timed.iter().any(|(_, a)| matches!(a, FaultAction::Delay(_))) {
            true => Err(CodecError::BadTag(DELAY_TAG)),
            false => Ok(s),
        }
    }
}

/// Guard for the schedule timer thread; cancels pending actions on drop.
pub struct ScheduleTimer {
    cancel: Arc<Monitor<bool>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ScheduleTimer {
    /// Stop applying further actions and join the timer thread: a drop.
    pub fn cancel(self) {}

    /// Wait for all scheduled actions to be applied.
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ScheduleTimer {
    fn drop(&mut self) {
        self.cancel.update(|c| *c = true);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(n: u32) -> Arc<FaultPlane> {
        FaultPlane::new(Topology::new(n, 2))
    }

    #[test]
    fn kill_rank_is_idempotent_and_bumps_epoch() {
        let p = plane(4);
        let e0 = p.epoch();
        assert!(p.kill_rank(1));
        assert!(!p.kill_rank(1));
        assert!(!p.is_alive(1));
        assert_eq!(p.alive_count(), 3);
        assert_eq!(p.epoch(), e0 + 1);
    }

    #[test]
    fn kill_node_takes_all_ranks_and_fires_hook_once() {
        let p = plane(6); // 2 ranks/node → 3 nodes
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        p.on_kill(move |ev| s2.lock().push(ev.clone()));
        let died = p.kill_node(NodeId(1));
        assert_eq!(died, vec![2, 3]);
        assert!(!p.node_is_alive(NodeId(1)));
        let evs = seen.lock();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].node, Some(NodeId(1)));
        assert_eq!(evs[0].ranks, vec![2, 3]);
    }

    #[test]
    fn directed_link_break_is_asymmetric() {
        let p = plane(4);
        p.break_link_directed(0, 1);
        assert!(!p.link_ok(0, 1));
        assert!(p.link_ok(1, 0));
        p.heal_link(0, 1);
        assert!(p.link_ok(0, 1));
    }

    #[test]
    fn link_ok_requires_both_endpoints_alive() {
        let p = plane(4);
        p.kill_rank(2);
        assert!(!p.link_ok(0, 2));
        assert!(!p.link_ok(2, 0));
        assert!(p.link_ok(0, 1));
    }

    #[test]
    fn assert_alive_raises_rank_killed() {
        let p = plane(2);
        p.kill_rank(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.assert_alive(0)));
        let payload = r.unwrap_err();
        let rk = payload.downcast_ref::<RankKilled>().expect("RankKilled payload");
        assert_eq!(rk.rank, 0);
    }

    #[test]
    fn schedule_iteration_kills() {
        let s = FaultSchedule::none().kill_rank_at_iteration(3, 100).kill_rank_at_iteration(5, 100);
        assert!(s.kill_at_iteration(3, 100));
        assert!(!s.kill_at_iteration(3, 99));
        assert!(!s.kill_at_iteration(4, 100));
        assert_eq!(s.iteration_kills().len(), 2);
    }

    #[test]
    fn schedule_timer_applies_actions() {
        let p = plane(4);
        let s = FaultSchedule::none()
            .timed(Duration::from_millis(5), FaultAction::KillRank(1))
            .timed(Duration::from_millis(10), FaultAction::BreakLink(0, 2));
        let t = s.start_timer(Arc::clone(&p));
        t.join();
        assert!(!p.is_alive(1));
        assert!(!p.link_ok(0, 2));
    }

    #[test]
    fn schedule_timer_cancel_skips_pending() {
        let p = plane(4);
        let s = FaultSchedule::none().timed(Duration::from_secs(60), FaultAction::KillRank(1));
        let t = s.start_timer(Arc::clone(&p));
        t.cancel();
        assert!(p.is_alive(1));
    }

    #[test]
    fn sites_are_free_until_enabled() {
        let p = plane(4);
        p.site(0, "x");
        p.site(0, "x");
        // Nothing enabled injection: no counters were kept.
        assert_eq!(p.site_count("x", 0), 0);
        p.record_sites(8);
        p.site(0, "x");
        assert_eq!(p.site_count("x", 0), 1);
        assert_eq!(p.site_log().len(), 1);
    }

    #[test]
    fn site_kill_fires_at_exact_occurrence_and_raises() {
        let p = plane(4);
        let s = FaultSchedule::none().inject(Injection::kill("loop.step", 1, 3));
        let t = s.start_timer(Arc::clone(&p));
        t.join();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..5 {
                p.site(1, "loop.step");
            }
        }));
        let payload = r.unwrap_err();
        assert_eq!(payload.downcast_ref::<RankKilled>().unwrap().rank, 1);
        assert!(!p.is_alive(1));
        assert_eq!(p.site_count("loop.step", 1), 3);
        assert_eq!(p.injections_fired().len(), 1);
    }

    /// A wall-clock kill and a step-indexed kill of the same rank must
    /// compose into exactly one kill event — kill is idempotent on the
    /// plane, whichever trigger wins the race.
    #[test]
    fn timed_and_step_kills_compose_without_double_kill() {
        let p = plane(4);
        let events = Arc::new(Mutex::new(Vec::new()));
        let e2 = Arc::clone(&events);
        p.on_kill(move |ev| e2.lock().push(ev.clone()));
        // Wall-clock kill lands first…
        let s = FaultSchedule::none()
            .timed(Duration::ZERO, FaultAction::KillRank(1))
            .inject(Injection::kill("loop.step", 1, 1));
        let t = s.start_timer(Arc::clone(&p));
        t.join();
        assert!(!p.is_alive(1));
        // …then the victim's thread crosses the armed site anyway: it
        // must still unwind (it is dead), but not fire a second event.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.site(1, "loop.step")));
        assert!(r.unwrap_err().downcast_ref::<RankKilled>().is_some());
        let evs = events.lock();
        assert_eq!(evs.len(), 1, "one rank, two triggers, exactly one kill event");
        assert_eq!(evs[0].ranks, vec![1]);
    }

    /// Same composition, opposite order: the step kill fires first, the
    /// timed kill arrives later and must be a no-op.
    #[test]
    fn step_then_timed_kill_is_still_one_event() {
        let p = plane(4);
        let events = Arc::new(Mutex::new(Vec::new()));
        let e2 = Arc::clone(&events);
        p.on_kill(move |ev| e2.lock().push(ev.clone()));
        p.arm_injections([Injection::kill("loop.step", 2, 1)]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.site(2, "loop.step")));
        assert!(r.unwrap_err().downcast_ref::<RankKilled>().is_some());
        assert!(!p.kill_rank(2), "already dead: wall-clock kill is a no-op");
        assert_eq!(events.lock().len(), 1);
    }

    /// A site may name any victim: it is poisoned like an external
    /// `kill -9`, the crossing rank carries on, and a later timed kill of
    /// the same victim is a no-op.
    #[test]
    fn site_kill_of_another_rank_poisons_it_and_spares_the_crosser() {
        let p = plane(4);
        let events = Arc::new(Mutex::new(Vec::new()));
        let e2 = Arc::clone(&events);
        p.on_kill(move |ev| e2.lock().push(ev.clone()));
        p.arm_injections([Injection::at("loop.step", 0, 1, FaultAction::KillRank(3))]);
        p.site(0, "loop.step"); // returns: the crosser is not the victim
        assert!(p.is_alive(0) && !p.is_alive(3));
        let late = FaultSchedule::none().timed(Duration::ZERO, FaultAction::KillRank(3));
        late.start_timer(Arc::clone(&p)).join();
        let evs = events.lock();
        assert_eq!(evs.len(), 1, "one victim, two triggers, exactly one kill event");
        assert_eq!(evs[0].ranks, vec![3]);
    }

    #[test]
    fn every_injection_on_one_crossing_fires_in_arming_order() {
        let p = plane(4);
        let armed = [
            Injection::at("net.op", 0, 1, FaultAction::HealLink(0, 2)),
            Injection::at("net.op", 0, 1, FaultAction::BreakLink(0, 2)),
        ];
        p.arm_injections(armed.clone());
        p.site(0, "net.op");
        assert!(!p.link_ok(0, 2), "healed first, broken second");
        assert_eq!(p.injections_fired(), armed);
    }

    /// A stall needs a thread to stall; the timer's own is nobody's.
    #[test]
    fn a_timed_delay_is_refused_by_the_builder_and_by_the_decoder() {
        let delay = FaultAction::Delay(Duration::from_millis(1));
        let built = std::panic::catch_unwind(|| FaultSchedule::none().timed(Duration::ZERO, delay));
        assert!(built.is_err());
        let mut e = Enc::new();
        e.u64(0).u64(1).u64(0);
        delay.encode(&mut e);
        e.u64(0);
        assert_eq!(FaultSchedule::from_bytes(&e.finish()), Err(CodecError::BadTag(DELAY_TAG)));
    }

    #[test]
    fn link_hooks_fire_per_direction_on_break_and_heal() {
        let p = plane(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        p.on_link(move |src, dst, broken| s2.lock().push((src, dst, broken)));
        p.break_link(0, 2);
        p.heal_link(0, 2);
        p.break_link_directed(3, 1);
        let evs = seen.lock();
        assert_eq!(
            *evs,
            vec![(0, 2, true), (2, 0, true), (0, 2, false), (2, 0, false), (3, 1, true),]
        );
    }

    #[test]
    fn heal_link_injection_restores_flow() {
        let p = plane(4);
        p.arm_injections([
            Injection::at("net.op", 0, 1, FaultAction::BreakLink(0, 2)),
            Injection::at("net.op", 0, 2, FaultAction::HealLink(0, 2)),
        ]);
        p.site(0, "net.op");
        assert!(!p.link_ok(0, 2));
        p.site(0, "net.op");
        assert!(p.link_ok(0, 2));
        assert!(p.is_alive(0), "link ops never kill");
    }

    #[test]
    fn break_link_and_delay_ops_do_not_unwind() {
        let p = plane(4);
        p.arm_injections([
            Injection::at("net.op", 0, 1, FaultAction::BreakLink(0, 2)),
            Injection::at("net.op", 0, 2, FaultAction::Delay(Duration::from_millis(1))),
        ]);
        p.site(0, "net.op"); // break link 0↔2
        assert!(!p.link_ok(0, 2));
        assert!(p.is_alive(0));
        p.site(0, "net.op"); // delay, returns
        assert!(p.is_alive(0));
    }

    #[test]
    fn passive_site_kill_poisons_without_unwinding() {
        let p = plane(6); // 2 ranks/node → 3 nodes
        p.arm_injections([Injection::at("ckpt.copy", 2, 1, FaultAction::KillNode(NodeId(1)))]);
        p.site_passive(2, "ckpt.copy"); // must NOT panic this thread
        assert!(!p.is_alive(2));
        assert!(!p.is_alive(3), "node kill takes the whole node");
        assert!(!p.node_is_alive(NodeId(1)));
    }
}
