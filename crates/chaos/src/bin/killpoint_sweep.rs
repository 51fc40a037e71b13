//! CI driver: run the exhaustive single-kill sweep and the pair sweep on
//! the 4-worker/1-idle/1-FD world, write the
//! `gaspi-ft/killpoint-sweep/v1` report to `target/telemetry/`, and exit
//! non-zero on any contract violation or insufficient coverage.
//!
//! Usage: `killpoint_sweep [BUDGET_SECS]` — wall-clock budget for
//! single-kill replays (default 300; enumeration and the pair sweep
//! always run).

use std::process::ExitCode;
use std::time::Duration;

use ft_chaos::{class_label, exhaustive_sweep, pair_sweep, write_report, SweepConfig};

/// Minimum distinct `(site, rank)` kill points the CI world must cover.
const MIN_KILL_POINTS: usize = 30;

fn main() -> ExitCode {
    let budget = match std::env::args().nth(1).map_or(Ok(300), |s| s.parse::<u64>()) {
        Ok(secs) => secs,
        Err(e) => {
            eprintln!("usage: killpoint_sweep [BUDGET_SECS] ({e})");
            return ExitCode::FAILURE;
        }
    };
    let cfg = SweepConfig::ci();
    println!(
        "killpoint sweep: {} workers / {} spares, {} iters, budget {budget}s",
        cfg.workers, cfg.spares, cfg.max_iters
    );

    let mut report = exhaustive_sweep(&cfg, Some(Duration::from_secs(budget)));
    report.pairs = pair_sweep(&cfg);

    let (correct, degraded) = report.class_counts();
    println!(
        "enumerated {} triples, replayed {} ({} correct, {} degraded, {} skipped on budget), \
         {} distinct (site, rank) kill points",
        report.enumerated,
        report.replayed.len(),
        correct,
        degraded,
        report.skipped_budget,
        report.distinct_kill_points()
    );
    for p in &report.pairs {
        let (label, fired) = (p.scenario.label, p.facts.fired.len());
        println!("pair {label}: {} ({fired} injections fired)", class_label(&p.outcome));
    }
    for v in &report.violations {
        eprintln!("VIOLATION: {v}");
    }

    if let Err(e) = write_report("killpoint-sweep.json", report.to_json()) {
        eprintln!("could not write the report: {e}");
        return ExitCode::FAILURE;
    }

    if !report.clean() {
        eprintln!("sweep found contract violations");
        return ExitCode::FAILURE;
    }
    if report.distinct_kill_points() < MIN_KILL_POINTS {
        eprintln!(
            "coverage floor not met: {} distinct kill points < {MIN_KILL_POINTS}",
            report.distinct_kill_points()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
