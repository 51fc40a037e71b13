//! The fault detector from outside: healthy scans, kill → acknowledgment
//! rounds and the notify flood, on a world without rank threads.
//!
//! Every workload runs these at its own world size — the paper's Table I at
//! that rank count — and `fd-scale` runs them at 1 024 ranks as its main act.
//! Ranks are driven through `proc_handle`s; the detector is the production
//! `run_detector` loop on a benchmark thread.

use std::sync::Arc;

use crate::api::{
    create_ctrl_segment, glo_health_chk_graced, read_plan, run_detector, signal_done,
    DetectorConfig, EventLog, FaultPlane, GaspiConfig, GaspiProc, GaspiWorld, Rank, TcpTransport,
    Timeout, Topology, Transport, WorldLayout, CTRL_SEG, DONE_NOTIF,
};
use crate::sysinfo::now_ns;

/// Longest a round waits for an acknowledgment before it counts as failed.
const ACK_DEADLINE_NS: u64 = 5_000_000_000;
/// Segment the flood notifies into (the control segment is 0).
const FLOOD_SEG: u16 = 1;
const FLOOD_QUEUES: u16 = 4;

/// A world whose ranks are all driven from this process, on either transport.
pub enum Cluster {
    /// One in-memory world hosting every rank.
    Sim(GaspiWorld),
    /// One single-rank world per rank, each on its own loopback
    /// `TcpTransport` — the process backend's wiring inside one process.
    Tcp(Vec<(GaspiWorld, Arc<TcpTransport>)>),
}

impl Cluster {
    pub fn sim(cfg: GaspiConfig) -> Cluster {
        Cluster::Sim(GaspiWorld::new(cfg))
    }

    pub fn tcp(cfg: GaspiConfig) -> std::io::Result<Cluster> {
        let n = cfg.num_ranks;
        let mut ranks = Vec::with_capacity(n as usize);
        for r in 0..n {
            let fault = FaultPlane::new(Topology::new(n, 1));
            let tcp = Arc::new(TcpTransport::listen(r, n, Arc::clone(&fault), cfg.model.clone())?);
            let transport: Arc<dyn Transport> = Arc::clone(&tcp) as Arc<dyn Transport>;
            ranks.push((GaspiWorld::with_transport(cfg.clone(), fault, transport, r), tcp));
        }
        let ports: Vec<u16> = ranks.iter().map(|(_, t)| t.port()).collect();
        ranks.iter().for_each(|(_, t)| t.set_peers(&ports));
        Ok(Cluster::Tcp(ranks))
    }

    pub fn proc(&self, rank: Rank) -> GaspiProc {
        match self {
            Cluster::Sim(w) => w.proc_handle(rank),
            Cluster::Tcp(ranks) => ranks[rank as usize].0.proc_handle(rank),
        }
    }

    /// Fail-stop `rank`: poison it on the fault plane, or — the in-process
    /// stand-in for a dead OS process — shut its transport down so peers
    /// see their sockets reset.
    pub fn kill(&self, rank: Rank) {
        match self {
            Cluster::Sim(w) => {
                w.fault().kill_rank(rank);
            }
            Cluster::Tcp(ranks) => ranks[rank as usize].1.shutdown(),
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Cluster::Tcp(ranks) = self {
            ranks.iter().for_each(|(_, t)| t.shutdown());
        }
    }
}

/// A world of `layout.total()` ranks with control segments on every rank,
/// ready for scans: what `fd-scale` reports as its set-up.
pub struct FdWorld {
    pub cluster: Cluster,
    pub layout: WorldLayout,
    pub fd: GaspiProc,
    /// Every rank but the detector.
    pub targets: Vec<Rank>,
}

impl FdWorld {
    pub fn build(cluster: Cluster, layout: WorldLayout) -> FdWorld {
        for r in 0..layout.total() {
            create_ctrl_segment(&cluster.proc(r), &layout)
                .expect("fresh rank takes a control segment");
        }
        let fd = cluster.proc(layout.fd_rank());
        FdWorld { cluster, layout, fd, targets: (0..layout.fd_rank()).collect() }
    }

    /// One production scan (`glo_health_chk_graced`, default detector
    /// configuration) over all healthy ranks. Returns its duration in ns,
    /// or `Err` with the ranks it wrongly reported.
    pub fn scan(&self) -> Result<u64, Vec<Rank>> {
        let cfg = DetectorConfig::default();
        let t0 = now_ns();
        let failed =
            glo_health_chk_graced(&self.fd, &self.targets, cfg.ping_timeout, cfg.suspect_grace);
        let t1 = now_ns();
        if failed.is_empty() {
            Ok(t1 - t0)
        } else {
            Err(failed)
        }
    }

    /// Run `body` while the production detector loop (default configuration)
    /// scans on its own thread, then end the loop the way a finished
    /// application does.
    fn with_detector<T>(&self, body: impl FnOnce() -> T) -> T {
        let cfg = DetectorConfig::default();
        std::thread::scope(|s| {
            let handle = s.spawn(|| run_detector(&self.fd, &self.layout, &cfg, &EventLog::new()));
            let out = body();
            // Rank 0 is never a victim: it speaks for the application.
            let _ = signal_done(&self.cluster.proc(0), self.layout.fd_rank(), 0, Timeout::Ms(2000));
            let _ = handle.join().expect("detector thread");
            // Re-arm for the next detector on this world.
            let _ = self.fd.notify_reset(CTRL_SEG, DONE_NOTIF);
            out
        })
    }

    /// Kill `victims`, then start the production detector loop and wait for
    /// the recovery plan naming them. Returns `(last, all)`: ns from the kill
    /// until the plan is readable on the last surviving rank, and until it
    /// is readable on every survivor. `Err` when the plan's failed set is
    /// not exactly the killed set (or never arrives).
    ///
    /// The loop's first scan starts at once, so the figure is the detecting
    /// scan + rescue assignment + acknowledgment broadcast — what a
    /// detection costs — without the wait for the next scan to begin, which
    /// is uniform in `[0, scan_interval]` by configuration. Killing under a
    /// running loop instead makes the figure bimodal: a kill that lands
    /// mid-scan leaves pings unanswered and costs a full `ping_timeout`.
    pub fn detect_ack(&self, victims: &[Rank]) -> Result<(u64, u64), String> {
        let mut want = victims.to_vec();
        want.sort_unstable();
        let survivors: Vec<GaspiProc> = self
            .targets
            .iter()
            .filter(|r| !want.contains(r))
            .map(|&r| self.cluster.proc(r))
            .collect();
        let last = survivors.last().expect("a survivor");
        let t_kill = now_ns();
        victims.iter().for_each(|&v| self.cluster.kill(v));
        self.with_detector(|| {
            let plan_names_all = |p: &GaspiProc| match read_plan(p) {
                Ok(Some(plan)) if want.iter().all(|v| plan.failed.contains(v)) => Some(plan),
                _ => None,
            };
            let plan = loop {
                if let Some(plan) = plan_names_all(last) {
                    break plan;
                }
                if now_ns() - t_kill > ACK_DEADLINE_NS {
                    return Err(format!("no plan naming {want:?} within the deadline"));
                }
                std::thread::yield_now();
            };
            let t_last = now_ns();
            for p in &survivors {
                while plan_names_all(p).is_none() {
                    if now_ns() - t_kill > ACK_DEADLINE_NS {
                        return Err(format!("rank {} never saw the plan", p.rank()));
                    }
                    std::thread::yield_now();
                }
            }
            let t_all = now_ns();
            let mut got = plan.failed.clone();
            got.sort_unstable();
            if got != want {
                return Err(format!("plan reports {got:?}, killed {want:?}"));
            }
            Ok((t_last - t_kill, t_all - t_kill))
        })
    }

    /// Give every rank the small segment the flood notifies into.
    pub fn prepare_flood(&self) {
        for r in 0..self.layout.total() {
            self.cluster.proc(r).segment_create(FLOOD_SEG, 64).expect("flood segment");
        }
    }

    /// Post `msgs` one-sided notifications from two sender ranks round-robin
    /// over every other rank and wait for all of them to complete; with
    /// `scanning`, the production detector loop (default configuration) runs
    /// alongside. Returns the flood's duration in ns.
    pub fn flood(&self, msgs: u64, scanning: bool) -> u64 {
        let n = self.layout.fd_rank();
        let run = || {
            let t0 = now_ns();
            std::thread::scope(|s| {
                for sender in 0..2u32 {
                    let p = self.cluster.proc(sender);
                    s.spawn(move || {
                        for j in 0..msgs / 2 {
                            let mut dst = (j % u64::from(n)) as Rank;
                            if dst == sender {
                                dst = (dst + 1) % n;
                            }
                            let q = (j % u64::from(FLOOD_QUEUES)) as u16;
                            p.notify(dst, FLOOD_SEG, sender, 1, q).expect("post notify");
                        }
                        for q in 0..FLOOD_QUEUES {
                            p.wait(q, Timeout::Ms(60_000)).expect("flood drains");
                        }
                    });
                }
            });
            now_ns() - t0
        };
        if scanning {
            self.with_detector(run)
        } else {
            run()
        }
    }
}

/// Scan and detect+ack figures of one workload-sized world.
#[derive(Debug, Default)]
pub struct FdSamples {
    pub scan_s: Vec<f64>,
    pub detect_ack_s: Vec<f64>,
    pub all_ack_s: Vec<f64>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub problems: Vec<String>,
}

impl FdSamples {
    pub fn note_scan(&mut self, r: Result<u64, Vec<Rank>>) {
        self.ops_attempted += 1;
        match r {
            Ok(ns) => self.scan_s.push(ns as f64 / 1e9),
            Err(ranks) => {
                self.ops_failed += 1;
                self.problems.push(format!("healthy scan reported {ranks:?}"));
            }
        }
    }

    pub fn note_detect(&mut self, r: Result<(u64, u64), String>) {
        self.ops_attempted += 1;
        match r {
            Ok((last, all)) => {
                self.detect_ack_s.push(last as f64 / 1e9);
                self.all_ack_s.push(all as f64 / 1e9);
            }
            Err(why) => {
                self.ops_failed += 1;
                self.problems.push(why);
            }
        }
    }
}
