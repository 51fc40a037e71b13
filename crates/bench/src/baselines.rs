//! The alternative failure-detection methods the paper investigated and
//! rejected (§IV-A-b).
//!
//! 1. **Ping-based all-to-all**: each process periodically pings *every*
//!    other process. Not scalable, and introduces overhead in failure-free
//!    runs because the pinging happens on the workers' critical path.
//! 2. **Ping-based neighbor level**: each process `i` pings only `i+1`;
//!    a suspicion escalates to an all-to-all scan for a global view.
//!    Cheaper, but still on the critical path, and reaching consensus
//!    between processes that detected *different* failure sets adds
//!    deadlock-prone complexity.
//!
//! These exist to reproduce the paper's comparison: the ablation bench
//! runs the same workload under each detector and shows that only the
//! dedicated-FD design is overhead-free for the workers. They detect (and
//! agree on) failures but do not drive recovery — the paper rejected them
//! before that stage.

use std::time::{Duration, Instant};

use ft_cluster::Rank;
use ft_gaspi::{GaspiProc, Timeout};

/// A detector a *worker* embeds in its iteration loop (unlike the
/// dedicated FD, which runs on its own spare process).
pub trait InlineDetector {
    /// Called by the worker between iterations; returns newly suspected
    /// ranks (empty almost always). The time this takes is pure overhead
    /// on the worker's critical path.
    fn tick(&mut self, proc: &GaspiProc) -> Vec<Rank>;

    /// Total time spent detecting so far (the failure-free overhead).
    fn time_spent(&self) -> Duration;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// All-to-all: ping every other live rank each `interval`.
pub struct AllToAllDetector {
    peers: Vec<Rank>,
    suspected: Vec<Rank>,
    interval: Duration,
    ping_timeout: Timeout,
    last: Option<Instant>,
    spent: Duration,
}

impl AllToAllDetector {
    /// Detector over `peers` (excluding self), scanning every `interval`.
    pub fn new(peers: Vec<Rank>, interval: Duration, ping_timeout: Timeout) -> Self {
        Self {
            peers,
            suspected: Vec::new(),
            interval,
            ping_timeout,
            last: None,
            spent: Duration::ZERO,
        }
    }
}

impl InlineDetector for AllToAllDetector {
    fn tick(&mut self, proc: &GaspiProc) -> Vec<Rank> {
        let now = Instant::now();
        if let Some(last) = self.last {
            if now.duration_since(last) < self.interval {
                return Vec::new();
            }
        }
        self.last = Some(now);
        let t0 = Instant::now();
        let mut newly = Vec::new();
        for &r in &self.peers {
            if self.suspected.contains(&r) {
                continue;
            }
            if proc.proc_ping(r, self.ping_timeout).is_err() {
                self.suspected.push(r);
                newly.push(r);
            }
        }
        self.spent += t0.elapsed();
        newly
    }

    fn time_spent(&self) -> Duration {
        self.spent
    }

    fn name(&self) -> &'static str {
        "all-to-all"
    }
}

/// Neighbor-level: ping only the next live peer in the ring; escalate to
/// an all-to-all scan when the neighbor is suspected.
pub struct NeighborRingDetector {
    peers: Vec<Rank>, // sorted ring (excluding self)
    me: Rank,
    suspected: Vec<Rank>,
    interval: Duration,
    ping_timeout: Timeout,
    last: Option<Instant>,
    spent: Duration,
    /// All-to-all escalations performed (for reports).
    pub escalations: u32,
}

impl NeighborRingDetector {
    /// Ring detector for `me` among `peers`.
    pub fn new(me: Rank, mut peers: Vec<Rank>, interval: Duration, ping_timeout: Timeout) -> Self {
        peers.retain(|&r| r != me);
        peers.sort_unstable();
        Self {
            peers,
            me,
            suspected: Vec::new(),
            interval,
            ping_timeout,
            last: None,
            spent: Duration::ZERO,
            escalations: 0,
        }
    }

    /// The current ring successor of `me` (first live peer after it).
    fn successor(&self) -> Option<Rank> {
        let live: Vec<Rank> =
            self.peers.iter().copied().filter(|r| !self.suspected.contains(r)).collect();
        if live.is_empty() {
            return None;
        }
        live.iter().copied().find(|&r| r > self.me).or_else(|| live.first().copied())
    }
}

impl InlineDetector for NeighborRingDetector {
    fn tick(&mut self, proc: &GaspiProc) -> Vec<Rank> {
        let now = Instant::now();
        if let Some(last) = self.last {
            if now.duration_since(last) < self.interval {
                return Vec::new();
            }
        }
        self.last = Some(now);
        let t0 = Instant::now();
        let mut newly = Vec::new();
        if let Some(next) = self.successor() {
            if proc.proc_ping(next, self.ping_timeout).is_err() {
                self.suspected.push(next);
                newly.push(next);
                // Escalate: all-to-all for the global health view.
                self.escalations += 1;
                for &r in &self.peers {
                    if self.suspected.contains(&r) {
                        continue;
                    }
                    if proc.proc_ping(r, self.ping_timeout).is_err() {
                        self.suspected.push(r);
                        newly.push(r);
                    }
                }
            }
        }
        self.spent += t0.elapsed();
        newly
    }

    fn time_spent(&self) -> Duration {
        self.spent
    }

    fn name(&self) -> &'static str {
        "neighbor-ring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_gaspi::{GaspiConfig, GaspiWorld};

    #[test]
    fn all_to_all_detects_all_failures() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(5));
        world.fault().kill_rank(2);
        world.fault().kill_rank(3);
        let p = world.proc_handle(0);
        let mut d = AllToAllDetector::new(vec![1, 2, 3, 4], Duration::ZERO, Timeout::Ms(300));
        let mut newly = d.tick(&p);
        newly.sort_unstable();
        assert_eq!(newly, vec![2, 3]);
        // Second tick: nothing new, already suspected.
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.tick(&p).is_empty());
        assert!(d.time_spent() > Duration::ZERO);
    }

    #[test]
    fn neighbor_ring_escalates_to_global_view() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(5));
        world.fault().kill_rank(1);
        world.fault().kill_rank(3);
        let p = world.proc_handle(0);
        let mut d =
            NeighborRingDetector::new(0, vec![1, 2, 3, 4], Duration::ZERO, Timeout::Ms(300));
        // Successor of 0 is 1 (dead) → escalation finds 3 as well.
        let mut newly = d.tick(&p);
        newly.sort_unstable();
        assert_eq!(newly, vec![1, 3]);
        assert_eq!(d.escalations, 1);
        // New successor is 2 (alive): quiet tick.
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.tick(&p).is_empty());
    }

    #[test]
    fn ring_wraps_around() {
        let d = NeighborRingDetector::new(4, vec![0, 1, 2, 3], Duration::ZERO, Timeout::Ms(100));
        assert_eq!(d.successor(), Some(0));
    }

    #[test]
    fn interval_gates_ticks() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(2));
        let p = world.proc_handle(0);
        let mut d = AllToAllDetector::new(vec![1], Duration::from_secs(3600), Timeout::Ms(100));
        let _ = d.tick(&p);
        let before = d.time_spent();
        // Gated: no pings, no time accrued.
        assert!(d.tick(&p).is_empty());
        assert_eq!(d.time_spent(), before);
    }
}
