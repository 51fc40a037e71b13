//! Regression tests for the process-backend conformance driver.
//!
//! Each test runs the `process_sweep` binary in one of its supervisor
//! modes (`smoke`, or one row of `ft_chaos::process_scenarios` by its
//! label) — the binary re-executes itself as the rank children, so this
//! exercises the full path: spawn, PORT/MAP handshake, TCP transport,
//! fault delivery (armed exits and real `SIGKILL`s), reaping, and
//! contract classification. The binary exits non-zero on any contract
//! violation, so the assertion here is simply "exit success", with the
//! captured output attached on failure.

#![cfg(unix)]

use std::process::Command;
use std::time::{Duration, Instant};

/// Hard ceiling well above the binary's own per-job deadlines, so a
/// supervisor-level hang fails the test instead of wedging CI.
const TEST_DEADLINE: Duration = Duration::from_secs(240);

fn run_mode(mode: &str, args: &[&str]) {
    let t0 = Instant::now();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_process_sweep"));
    cmd.arg(mode).args(args);
    let out = cmd.output().unwrap_or_else(|e| panic!("failed to launch process_sweep {mode}: {e}"));
    let elapsed = t0.elapsed();
    assert!(
        out.status.success(),
        "process_sweep {mode} failed ({:?}, {elapsed:?})\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(elapsed < TEST_DEADLINE, "process_sweep {mode} took {elapsed:?} (> {TEST_DEADLINE:?})");
}

/// Smoke conformance: replay a small triple subset as real-process jobs
/// and require zero violations. Three kill triples plus one partition
/// triple keeps this in test budget while still crossing spawn +
/// injected-kill + link-fault + degraded classification.
#[test]
fn process_smoke_conformance() {
    run_mode("smoke", &["3", "1"]);
}

/// The paper's `kill -9` experiment end to end: SIGKILL a worker process
/// mid-solve, require detect → rebuild → restore → exact final values.
#[test]
fn process_fdkill_end_to_end() {
    run_mode("fdkill", &[]);
}

/// A timed FD↔worker partition mid-solve: link ops must reach the
/// children (`LinkFault` events), the detector
/// must observe the partitioned worker, and the final values must equal
/// the in-memory backend's for the same schedule.
#[test]
fn process_partition_end_to_end() {
    run_mode("partition", &[]);
}

/// The paper's link-fault path with an *asymmetric* partition: one
/// worker loses sight of a peer the FD still reaches; the worker's
/// suspect report must drive detection, rebuild, restore, exact values.
#[test]
fn process_asymmetric_partition() {
    run_mode("asym", &[]);
}

/// A transient partition healed before the detector's grace expires must
/// reach a child and cause no spurious recovery and complete exactly.
#[test]
fn process_heal_before_timeout() {
    run_mode("heal", &[]);
}

/// A cooperative iteration kill *and* a wall-clock `SIGKILL` in one job,
/// on a world with spare capacity for both: the contract must hold.
#[test]
fn process_storm() {
    run_mode("storm", &[]);
}

/// The typed replacement of the old string split must be able to say no:
/// `asym`'s `DetectsOnly` accepts a detection naming the two endpoints of
/// the severed link, and rejects one naming a rank outside it — as it
/// rejects a run in which nothing was detected at all.
#[test]
fn asym_detects_only_rejects_an_outside_rank() {
    use ft_chaos::{process_scenarios, Expect, Facts};
    use ft_core::EventKind;

    let asym = process_scenarios().into_iter().find(|s| s.label == "asym").expect("asym row");
    let detects_only =
        asym.expect.iter().find(|e| matches!(e, Expect::DetectsOnly(_))).expect("DetectsOnly");
    let verdict = |detections: &[&[u32]]| {
        let facts = Facts::default();
        for (i, failed) in detections.iter().enumerate() {
            let epoch = i as u64 + 1;
            facts.events.record(5, EventKind::FdDetect { epoch, failed: failed.to_vec() });
        }
        detects_only.check(&asym.world, &facts, &|| unreachable!("no reference needed"))
    };
    assert_eq!(verdict(&[&[0]]), Ok(()));
    assert_eq!(verdict(&[&[1], &[0, 1]]), Ok(()));
    let err = verdict(&[&[0], &[1, 3]]).expect_err("rank 3 is outside the partition");
    assert!(err.contains("[1, 3]"), "{err}");
    assert!(verdict(&[]).is_err(), "no detection at all must fail too");
}
