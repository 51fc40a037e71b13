//! Table I measurements: FD ping-scan time and failure detection +
//! acknowledgment time versus node count.

use std::time::{Duration, Instant};

use ft_cluster::{FaultSchedule, Rank};
use ft_core::detector::glo_health_chk_graced;
use ft_core::{EventKind, FtConfig, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld, Timeout};

use crate::miniapp::{MiniApp, MiniConfig};

/// One Table I column.
#[derive(Debug, Clone)]
pub struct FdScalePoint {
    /// Node (= rank, one per node) count being scanned.
    pub nodes: u32,
    /// Failure-free full-scan durations.
    pub scan_times: Vec<Duration>,
    /// Kill-to-acknowledgment latencies.
    pub detect_times: Vec<Duration>,
}

/// Measure the FD's full ping-scan time over `nodes` healthy ranks,
/// `runs` times (paper: "Avg. ping scan time"), Listing 1's sequential
/// per-ping loop.
pub fn measure_scan(nodes: u32, runs: usize, seed: u64) -> Vec<Duration> {
    measure_scan_with(nodes, runs, seed, false)
}

/// [`measure_scan`] with a choice of scan strategy: `batched = true` uses
/// the production epoch-batched fan-out scan (`glo_health_chk_graced`,
/// one transport pass per scan), `false` the paper's sequential Listing 1
/// loop (`glo_health_chk`: one blocking ping per target), kept here as
/// the exhibit it is.
pub fn measure_scan_with(nodes: u32, runs: usize, seed: u64, batched: bool) -> Vec<Duration> {
    let world = GaspiWorld::new(GaspiConfig::new(nodes + 1).with_seed(seed));
    let fd = world.proc_handle(nodes);
    let targets: Vec<Rank> = (0..nodes).collect();
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let timeout = Timeout::Ms(2000);
            let failed: Vec<Rank> = if batched {
                glo_health_chk_graced(&fd, &targets, timeout, Duration::ZERO)
            } else {
                targets.iter().copied().filter(|&r| fd.proc_ping(r, timeout).is_err()).collect()
            };
            assert!(failed.is_empty(), "scan over healthy ranks found {failed:?}");
            t0.elapsed()
        })
        .collect()
}

/// Measure kill → acknowledgment latency under a live workload (paper:
/// "Failure detection and ack. time", one random kill per run).
///
/// The kill is injected only after *every* worker has finished setup (the
/// paper kills during steady state, at "a random instance during the
/// application run"); a watcher thread observes the job's event log,
/// waits a pseudo-random extra delay, kills the victim, and records the
/// exact kill instant. `scan_interval` matches the paper's 3 s pause
/// between scans (scaled); the expected latency is ≈ interval/2 + scan +
/// ack, flat in `nodes`.
pub fn measure_detection(
    nodes: u32,
    runs: usize,
    scan_interval: Duration,
    seed: u64,
) -> Vec<Duration> {
    let mut out = Vec::with_capacity(runs);
    for run in 0..runs {
        // Pseudo-random victim and extra delay, deterministic per (seed,
        // run).
        let h = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((run as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let victim = (h % u64::from(nodes.saturating_sub(1).max(1))) as Rank;
        let extra = Duration::from_millis(5 + (h >> 32) % 40);

        let layout = WorldLayout::new(nodes, 2);
        let world = GaspiWorld::new(GaspiConfig::new(layout.total()).with_seed(seed + run as u64));
        // Keep the run alive well past the kill plus detection and
        // recovery. No busy-spin work: this harness also runs on small
        // machines where hundreds of spinning rank threads would starve
        // the detector (the workers' allreduce per step keeps the job
        // live and synchronized either way).
        let cfg = FtConfig::builder(layout)
            .max_iters(1_000_000) // ended by the stop flag below
            .checkpoint_every(0)
            .detector(ft_core::DetectorConfig { scan_interval, ..Default::default() })
            .abandon(Duration::from_secs(60))
            .build()
            .unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mc = MiniConfig { stop: Some(std::sync::Arc::clone(&stop)), ..MiniConfig::default() };

        // Watcher: wait for all workers' SetupDone, kill the victim, wait
        // for the acknowledgment + recovery to complete, then stop the run.
        let events = ft_core::EventLog::new();
        let ev2 = events.clone();
        let fault = world.fault();
        let kill_time = std::sync::Arc::new(parking_lot_mutex());
        let kt2 = std::sync::Arc::clone(&kill_time);
        let watcher = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            let wait_for = |pred: &dyn Fn(&ft_core::Event) -> bool| -> bool {
                loop {
                    if ev2.first_where(|e| pred(e)).is_some() {
                        return true;
                    }
                    if Instant::now() > deadline {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            };
            // All workers through setup.
            loop {
                let ready = ev2.all_where(|e| matches!(e.kind, EventKind::SetupDone)).len() as u32;
                if ready >= nodes {
                    break;
                }
                if Instant::now() > deadline {
                    stop.store(true, std::sync::atomic::Ordering::Release);
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(extra);
            fault.kill_rank(victim);
            *kt2.lock() = Some(ev2.now());
            // Let the recovery land, then end the run.
            let _ = wait_for(&|e| matches!(e.kind, EventKind::Restored { epoch: 1, .. }));
            stop.store(true, std::sync::atomic::Ordering::Release);
        });

        let report =
            ft_core::run_ft_job_with(&world, cfg, FaultSchedule::none(), events, move |ctx| {
                MiniApp::new(ctx, mc.clone())
            });
        watcher.join().expect("watcher thread");
        let killed_at = kill_time.lock().take();
        // The reporter reconstructs the epoch-1 timeline; its signal
        // instant (last worker observing the acknowledgment) is the end
        // of the paper's detection + acknowledgment window.
        let rep = ft_telemetry::OverheadReport::from_log(&report.events);
        let t_ack = rep.epochs.iter().find(|e| e.epoch == 1).map(|e| e.t_signal);
        if let (Some(k), Some(t)) = (killed_at, t_ack) {
            out.push(t.saturating_sub(k));
        }
    }
    out
}

fn parking_lot_mutex() -> parking_lot::Mutex<Option<Duration>> {
    parking_lot::Mutex::new(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_time_grows_with_nodes() {
        let small = crate::stats::mean(&measure_scan(8, 5, 1));
        let large = crate::stats::mean(&measure_scan(64, 5, 1));
        assert!(large > small, "scan must grow with node count: {small:?} vs {large:?}");
        // Roughly linear: 8× the nodes should be ≳3× the time (loose
        // bound; scheduling noise is real).
        assert!(large.as_secs_f64() > 2.0 * small.as_secs_f64());
    }

    #[test]
    fn detection_time_is_bounded_by_interval_plus_scan() {
        let interval = Duration::from_millis(30);
        let times = measure_detection(8, 3, interval, 42);
        assert_eq!(times.len(), 3, "every run must detect its failure");
        for t in &times {
            assert!(*t < Duration::from_millis(500), "detection took implausibly long: {t:?}");
        }
    }
}
