//! Process-backend conformance driver: the kill-point sweep's chaos
//! contract over real OS rank processes.
//!
//! This binary is both supervisor and child: re-executed with the
//! `FT_PROC_*` environment set, it runs one rank of the sweep job over TCP
//! (its first argument names the world); otherwise it is a supervisor and
//! exits non-zero on any contract violation or unmet expectation:
//!
//! * `smoke [KILLS [PARTITIONS]]` (default) — enumerate kill points in
//!   memory and replay a coverage-spread subset (default 6 kills, each at
//!   its own site, and 2 partitions) as real-process jobs, the fault shipped
//!   in the serialized schedule (an armed child exits mid-protocol).
//! * `e2e` — every row of `ft_chaos::process_scenarios` (the rows'
//!   comments say what each must show); a row's label alone (`storm`,
//!   `fdkill`, `partition`, `asym`, `heal`) runs that row.
//!
//! `smoke` writes the `gaspi-ft/process-sweep/v1` document,
//! `target/telemetry/process-sweep.json`, afresh; `e2e` adds its
//! `scenarios` array to the document `smoke` left there. A single row
//! prints its verdict and writes nothing.

use std::process::ExitCode;
use std::time::Instant;

use ft_chaos::{
    class_label, maybe_run_child, process_scenarios, process_smoke_sweep, telemetry_dir,
    triple_row, world_json, write_report, Backend, Json, Scenario, SweepConfig,
};

/// Schema identifier of the process-sweep report document.
const SCHEMA: &str = "gaspi-ft/process-sweep/v1";
/// Its file name under `target/telemetry/`.
const REPORT: &str = "process-sweep.json";

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "smoke".into());
    let rows: Vec<Scenario> =
        process_scenarios().into_iter().filter(|s| mode == "e2e" || mode == s.label).collect();
    // Child processes carry their rank in the environment and divert
    // here; the argument they were launched with — a scenario label, or
    // `smoke` — tells them which world this job runs in.
    let world = rows.first().map_or_else(SweepConfig::ci, |s| s.world.clone());
    if let Some(code) = maybe_run_child(&world) {
        std::process::exit(code);
    }
    if !rows.is_empty() {
        return scenarios(rows, mode == "e2e");
    }
    // Supervisor-only arguments: children are launched with the mode alone.
    let count =
        |n: usize, default: usize| std::env::args().nth(n).map_or(Ok(default), |s| s.parse());
    match (mode.as_str(), count(2, 6), count(3, 2)) {
        ("smoke", Ok(kills), Ok(partitions)) => smoke(&world, kills, partitions),
        _ => {
            eprintln!("usage: process_sweep [smoke [KILLS [PARTITIONS]] | e2e | SCENARIO-LABEL]");
            ExitCode::FAILURE
        }
    }
}

/// A report document: the schema head, then `members`.
fn document(members: Vec<(&'static str, Json)>) -> Json {
    let head =
        [("schema", Json::Str(SCHEMA.to_string())), ("backend", Json::Str("process".into()))];
    Json::obj(head.into_iter().chain(members))
}

/// The document `e2e` writes: the one `smoke` left — if it is this build's
/// (same schema, the smoke world) — with `scenarios` put in place of any
/// older ones; a fresh one otherwise. Nothing else is ever carried over.
fn with_scenarios(rows: Vec<Json>) -> Json {
    let left = std::fs::read_to_string(telemetry_dir().join(REPORT)).ok();
    let smoke = left.and_then(|text| Json::parse(&text)).filter(|doc| {
        doc.get("schema").and_then(Json::as_str) == Some(SCHEMA)
            && doc.get("world") == Some(&world_json(&SweepConfig::ci()))
    });
    let mut doc = smoke.unwrap_or_else(|| document(Vec::new()));
    if let Json::Obj(members) = &mut doc {
        members.retain(|(key, _)| key != "scenarios");
        members.push(("scenarios".to_string(), Json::Arr(rows)));
    }
    doc
}

fn scenarios(rows: Vec<Scenario>, report: bool) -> ExitCode {
    let mut failed = Vec::new();
    let mut json_rows = Vec::new();
    for row in rows {
        let label = row.label;
        println!("== {label}: {:?}", row.schedule);
        let out = row.execute(Backend::Process { child_arg: label });
        println!(
            "  {} in {:?}: killed {:?} (by signal {:?}), {} events",
            class_label(&out.outcome),
            out.facts.elapsed,
            out.facts.killed,
            out.facts.by_signal,
            out.facts.events.snapshot().len(),
        );
        if let Err(why) = &out.outcome {
            eprintln!("FAILURE in {label}: {why}");
            failed.push(label);
        }
        json_rows.push(out.row());
    }
    if let Some(Err(e)) = report.then(|| write_report(REPORT, with_scenarios(json_rows))) {
        eprintln!("could not write the report: {e}");
        return ExitCode::FAILURE;
    }
    if failed.is_empty() {
        println!("all scenario rows passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("failed scenario rows: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn smoke(cfg: &SweepConfig, max_kills: usize, max_partitions: usize) -> ExitCode {
    println!(
        "process smoke sweep: {} workers / {} spares as OS processes, {max_kills} kill + \
         {max_partitions} partition triples",
        cfg.workers, cfg.spares
    );
    let t0 = Instant::now();
    let (replays, selection) = match process_smoke_sweep(cfg, max_kills, max_partitions, "smoke") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("process sweep failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    for r in &replays {
        println!(
            "  {} at {} occ {} rank {}: process={} in-memory={}",
            r.armed.action,
            r.armed.site,
            r.armed.occurrence,
            r.armed.rank,
            class_label(&r.process),
            class_label(&r.in_memory),
        );
    }
    let (kills, partitions): (Vec<_>, Vec<_>) =
        replays.iter().partition(|r| r.armed.action.is_kill());
    let violations = replays.iter().filter(|r| r.process.is_err()).count();
    let agreements = kills.iter().filter(|r| r.agree()).count();
    let rows = |rs: &[&ft_chaos::Replay]| Json::Arr(rs.iter().map(|r| r.row()).collect());
    let excluded = selection.excluded.iter().map(|(rec, why)| {
        let reason = [("reason", Json::Str(why.code().to_string()))];
        triple_row(&rec.site, rec.rank, rec.occurrence, reason)
    });
    let doc = document(vec![
        ("world", world_json(cfg)),
        ("replayed", Json::num_u64(kills.len() as u64)),
        ("violations", Json::num_u64(violations as u64)),
        ("backend_agreements", Json::num_u64(agreements as u64)),
        ("triples", rows(&kills)),
        ("excluded", Json::Arr(excluded.collect())),
        ("over_budget", Json::num_u64(selection.over_budget as u64)),
        ("link_faults", Json::obj([("partition_replays", Json::num_u64(partitions.len() as u64))])),
        ("partitions", rows(&partitions)),
        ("elapsed_s", Json::Num(t0.elapsed().as_secs_f64())),
    ]);
    if let Err(e) = write_report(REPORT, doc) {
        eprintln!("could not write the report: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "replayed {} kill + {} partition triples as real-process jobs in {:?}, {violations} \
         violations, {agreements}/{} backend agreement",
        kills.len(),
        partitions.len(),
        t0.elapsed(),
        kills.len(),
    );
    let sites: std::collections::BTreeSet<&str> =
        kills.iter().map(|r| r.armed.site.as_str()).collect();
    if violations > 0 || sites.len() < max_kills.max(1) || partitions.is_empty() {
        eprintln!("process sweep found contract violations (or kills on too few sites: {sites:?})");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
