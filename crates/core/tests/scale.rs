//! The scale ladder: full jobs of the shared accumulator at 16, 64, 128
//! and 256 workers (3 spares, a commit every 50 steps, 300 steps). A clean
//! job must end with every worker's exact accumulator and no detection,
//! at the benchmark's 1 s ping and at the default 200 ms one; a job with
//! one worker killed at step 120 must end with every worker exact.
//!
//! Run in release: `cargo test --release -p ft-core --test scale`. The
//! rungs run one at a time — each job already has more threads than the
//! host has cores.

mod common;

use std::sync::Mutex;
use std::time::Duration;

use common::{expected_acc, Acc};
use ft_cluster::FaultSchedule;
use ft_core::{run_ft_job, DetectorConfig, EventKind, FtConfig, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld, Timeout};

const RUNGS: [u32; 4] = [16, 64, 128, 256];
const STEPS: u64 = 300;
const KILL_AT: u64 = 120;

/// One rung at a time, across the tests of this file.
static ONE_JOB: Mutex<()> = Mutex::new(());

/// Run one rung and check every worker's accumulator; returns the number
/// of `FdDetect` events.
fn rung(workers: u32, ping: Timeout, schedule: FaultSchedule) -> usize {
    let _one = ONE_JOB.lock().unwrap_or_else(|e| e.into_inner());
    let layout = WorldLayout::new(workers, 3);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()).with_seed(21));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(50)
        .max_iters(STEPS)
        .abandon(Duration::from_secs(60))
        .detector(DetectorConfig { ping_timeout: ping, ..Default::default() })
        .build()
        .unwrap();
    let report = run_ft_job(&world, cfg, schedule, Acc::new);
    let detections =
        report.events.all_where(|e| matches!(e.kind, EventKind::FdDetect { .. })).len();
    let summaries = report.worker_summaries();
    assert_eq!(
        summaries.len(),
        workers as usize,
        "{workers} workers, ping {ping:?}: not every worker finished ({detections} detections)"
    );
    let expected = expected_acc(workers, STEPS);
    for (app, (acc, _)) in &summaries {
        assert_eq!(*acc, expected, "{workers} workers, ping {ping:?}: app rank {app} is wrong");
    }
    detections
}

fn clean(ping: Timeout) {
    for workers in RUNGS {
        let detections = rung(workers, ping, FaultSchedule::none());
        assert_eq!(detections, 0, "{workers} workers, ping {ping:?}: a clean job saw a detection");
    }
}

#[test]
fn clean_jobs_at_the_benchmarks_1s_ping() {
    clean(Timeout::Ms(1000));
}

#[test]
fn clean_jobs_at_the_default_200ms_ping() {
    clean(DetectorConfig::default().ping_timeout);
}

#[test]
fn one_kill_at_step_120_leaves_every_worker_exact() {
    for workers in RUNGS {
        let schedule = FaultSchedule::none().kill_rank_at_iteration(workers / 2, KILL_AT);
        let detections = rung(workers, DetectorConfig::default().ping_timeout, schedule);
        assert!(detections >= 1, "{workers} workers: the kill was never detected");
    }
}
