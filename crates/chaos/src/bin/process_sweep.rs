//! Process-backend conformance driver: the kill-point sweep's chaos
//! contract over real OS rank processes.
//!
//! This binary is both supervisor and child: re-executed with the
//! `FT_PROC_*` environment set, it runs one rank of the sweep job over
//! TCP; otherwise it runs one of three supervisor modes and exits
//! non-zero on any contract violation:
//!
//! * `smoke [KILLS [PARTITIONS]]` (default) — enumerate kill points in
//!   memory, replay a coverage-spread subset (default 6 kill and 2
//!   partition triples) as real-process jobs with the kill shipped in
//!   the serialized schedule (an armed child exits mid-protocol), and
//!   write the `gaspi-ft/process-sweep/v1` report to
//!   `target/telemetry/process-sweep.json`.
//! * `storm` — one longer seeded job with a cooperative iteration kill
//!   *and* a wall-clock `SIGKILL` from the supervisor, on a world with
//!   spare capacity for both.
//! * `fdkill` — the paper's `kill -9` experiment end to end: `SIGKILL` a
//!   worker mid-solve, assert the victim died by signal, the detector
//!   observed it, the group rebuilt, state restored from checkpoints,
//!   survivors finished with the exact expected value, all within a
//!   wall-clock bound.
//! * `partition` — a timed `BreakLink(fd, worker)` mid-solve: the link
//!   faults must reach the children (`link_faults` listed, `LinkFault`
//!   events recorded), the detector must observe the partitioned worker,
//!   and the job must finish with exactly the same final values as the
//!   in-memory backend running the same schedule.
//! * `asym` — an *asymmetric* partition (the paper's link-fault path): a
//!   step-indexed `BreakLink` fires on one worker's plane only, so the
//!   FD still sees the severed peer while the worker does not; the
//!   worker's suspect report must drive detection, group rebuild,
//!   restore, and exact completion.
//! * `heal` — a transient FD↔worker partition healed before the
//!   detector's `suspect_grace` expires: no detection, no recovery, full
//!   exact completion.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ft_chaos::{
    classify_process, maybe_run_child, process_partition_sweep, process_smoke_sweep, run_process,
    run_with_schedule, Json, RunClass, SweepConfig,
};
use ft_cluster::{FaultAction, FaultSchedule, Injection};
use ft_core::ProcOutcome;

/// Schema identifier of the process-sweep report document.
const SCHEMA: &str = "gaspi-ft/process-sweep/v1";

/// The longer-running world for the wall-clock modes: kills must land
/// mid-solve, so the job computes for several seconds instead of
/// milliseconds (an allreduce iteration over loopback TCP runs in the
/// low hundreds of microseconds). Contract arithmetic is unchanged.
fn wallclock_cfg(spares: u32) -> SweepConfig {
    SweepConfig { max_iters: 20_000, checkpoint_every: 200, spares, ..SweepConfig::ci() }
}

/// The `heal` mode's world: wall-clock sized, with enough detector
/// hysteresis that a partition healed within ~200 ms never surfaces.
fn heal_cfg() -> SweepConfig {
    SweepConfig { suspect_grace: Duration::from_millis(200), ..wallclock_cfg(2) }
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "smoke".into());
    // Child processes carry their rank in the environment and divert
    // before mode handling; the mode argument tells them which world
    // configuration this job was launched with.
    let cfg = match mode.as_str() {
        "storm" => wallclock_cfg(3),
        "fdkill" | "partition" | "asym" => wallclock_cfg(2),
        "heal" => heal_cfg(),
        _ => SweepConfig::ci(),
    };
    if let Some(code) = maybe_run_child(&cfg) {
        std::process::exit(code);
    }
    match mode.as_str() {
        "smoke" => {
            // Supervisor-only arguments: children are launched with the
            // mode alone.
            let count = |n: usize, default: usize| {
                std::env::args().nth(n).map_or(Ok(default), |s| s.parse::<usize>())
            };
            match (count(2, 6), count(3, 2)) {
                (Ok(kills), Ok(partitions)) => smoke(&cfg, kills, partitions),
                _ => {
                    eprintln!("usage: process_sweep smoke [KILLS [PARTITIONS]]");
                    ExitCode::FAILURE
                }
            }
        }
        "storm" => storm(&cfg, &mode),
        "fdkill" => fdkill(&cfg, &mode),
        "partition" => partition(&cfg, &mode),
        "asym" => asym(&cfg, &mode),
        "heal" => heal(&cfg, &mode),
        other => {
            eprintln!("unknown mode {other:?} (expected smoke|storm|fdkill|partition|asym|heal)");
            ExitCode::FAILURE
        }
    }
}

fn class_label(c: &Result<RunClass, String>) -> String {
    match c {
        Ok(RunClass::Correct) => "correct".to_string(),
        Ok(RunClass::Degraded) => "degraded".to_string(),
        Err(v) => format!("violation: {v}"),
    }
}

fn smoke(cfg: &SweepConfig, max_triples: usize, max_partitions: usize) -> ExitCode {
    println!(
        "process smoke sweep: {} workers / {} spares as OS processes, {max_triples} kill + \
         {max_partitions} partition triples",
        cfg.workers, cfg.spares
    );
    let t0 = Instant::now();
    let sweep = match process_smoke_sweep(cfg, max_triples, &["smoke"], Duration::from_secs(60)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("process sweep failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let partitions =
        match process_partition_sweep(cfg, max_partitions, &["smoke"], Duration::from_secs(60)) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("process partition sweep failed to run: {e}");
                return ExitCode::FAILURE;
            }
        };
    let outcomes = &sweep.outcomes;
    let mut violations = 0;
    let mut agreements = 0;
    let mut rows = Vec::new();
    for o in outcomes {
        if o.process.is_err() {
            violations += 1;
        }
        if o.agree() {
            agreements += 1;
        }
        println!(
            "  kill {} occ {} rank {}: process={} in-memory={}",
            o.triple.site,
            o.triple.occurrence,
            o.triple.rank,
            class_label(&o.process),
            class_label(&o.in_memory),
        );
        rows.push(Json::obj([
            ("site", Json::Str(o.triple.site.clone())),
            ("rank", Json::num_u64(u64::from(o.triple.rank))),
            ("occurrence", Json::num_u64(o.triple.occurrence)),
            ("outcome", Json::Str(class_label(&o.process))),
            ("in_memory", Json::Str(class_label(&o.in_memory))),
            ("backends_agree", Json::Bool(o.agree())),
        ]));
    }
    let mut partition_rows = Vec::new();
    for p in &partitions {
        if p.process.is_err() {
            violations += 1;
        }
        println!(
            "  break {} occ {} rank {} peer {}: process={} in-memory={}",
            p.triple.site,
            p.triple.occurrence,
            p.triple.rank,
            p.peer,
            class_label(&p.process),
            class_label(&p.in_memory),
        );
        partition_rows.push(Json::obj([
            ("site", Json::Str(p.triple.site.clone())),
            ("rank", Json::num_u64(u64::from(p.triple.rank))),
            ("occurrence", Json::num_u64(p.triple.occurrence)),
            ("peer", Json::num_u64(u64::from(p.peer))),
            ("outcome", Json::Str(class_label(&p.process))),
            ("in_memory", Json::Str(class_label(&p.in_memory))),
        ]));
    }
    let excluded_rows: Vec<Json> = sweep
        .excluded
        .iter()
        .map(|(rec, why)| {
            Json::obj([
                ("site", Json::Str(rec.site.clone())),
                ("rank", Json::num_u64(u64::from(rec.rank))),
                ("occurrence", Json::num_u64(rec.occurrence)),
                ("reason", Json::Str(why.code().to_string())),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("backend", Json::Str("process".to_string())),
        (
            "world",
            Json::obj([
                ("workers", Json::num_u64(u64::from(cfg.workers))),
                ("spares", Json::num_u64(u64::from(cfg.spares))),
                ("seed", Json::num_u64(cfg.seed)),
                ("max_iters", Json::num_u64(cfg.max_iters)),
            ]),
        ),
        ("replayed", Json::num_u64(outcomes.len() as u64)),
        ("violations", Json::num_u64(violations)),
        ("backend_agreements", Json::num_u64(agreements)),
        ("triples", Json::Arr(rows)),
        ("excluded", Json::Arr(excluded_rows)),
        ("over_budget", Json::num_u64(sweep.over_budget as u64)),
        ("link_faults", Json::obj([("partition_replays", Json::num_u64(partitions.len() as u64))])),
        ("partitions", Json::Arr(partition_rows)),
        ("elapsed_s", Json::Num(t0.elapsed().as_secs_f64())),
    ]);
    let out = ft_chaos::telemetry_dir();
    let path = out.join("process-sweep.json");
    match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, doc.render())) {
        Ok(()) => println!("report written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write report to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "replayed {} kill + {} partition triples as real-process jobs in {:?}, {violations} \
         violations, {agreements}/{} backend agreement",
        outcomes.len(),
        partitions.len(),
        t0.elapsed(),
        outcomes.len(),
    );
    if violations > 0 || outcomes.is_empty() || partitions.is_empty() {
        eprintln!("process sweep found contract violations (or replayed nothing)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn storm(cfg: &SweepConfig, mode: &str) -> ExitCode {
    // Two independent deaths: rank 0 exits cooperatively at iteration
    // 700 (the `exit(-1)` style), rank 2 is SIGKILLed from outside at
    // 600 ms (the `kill -9` style). Three spares cover both plus the FD.
    let schedule = FaultSchedule::none()
        .kill_rank_at_iteration(0, 700)
        .timed(Duration::from_millis(600), FaultAction::KillRank(2));
    println!("process storm: cooperative kill (rank 0 @ iter 700) + SIGKILL (rank 2 @ 600ms)");
    let report = match run_process(cfg, schedule, &[mode], Duration::from_secs(90)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("storm failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("  outcomes: {:?}", report.outcomes);
    match classify_process(cfg, &report) {
        Ok(class) => {
            println!("storm contract held: {class:?} ({:?} killed)", report.killed());
            ExitCode::SUCCESS
        }
        Err(v) => {
            eprintln!("VIOLATION: {v}");
            ExitCode::FAILURE
        }
    }
}

/// Decode a process report's worker summaries into `(app, f64)` pairs,
/// sorted by app rank.
fn decode_summaries(report: &ft_core::process::ProcJobReport) -> Vec<(u32, f64)> {
    let mut v: Vec<(u32, f64)> = report
        .worker_summaries()
        .iter()
        .filter_map(|(app, bytes)| {
            <[u8; 8]>::try_from(*bytes).ok().map(|a| (*app, f64::from_le_bytes(a)))
        })
        .collect();
    v.sort_by_key(|&(app, _)| app);
    v
}

fn finish(mut failures: Vec<String>, label: &str) -> ExitCode {
    if failures.is_empty() {
        println!("{label} passed");
        ExitCode::SUCCESS
    } else {
        failures.dedup();
        for f in &failures {
            eprintln!("FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}

fn partition(cfg: &SweepConfig, mode: &str) -> ExitCode {
    const VICTIM: u32 = 1;
    let fd = cfg.ft_config().layout.fd_rank();
    let break_at = Duration::from_millis(500);
    let schedule = FaultSchedule::none().timed(break_at, FaultAction::BreakLink(fd, VICTIM));
    println!(
        "partition e2e: break link FD({fd})↔worker({VICTIM}) at {break_at:?}, expect \
         detect→rebuild→restore and in-memory value agreement"
    );
    let reference = run_with_schedule(cfg, schedule.clone(), false);
    let report = match run_process(cfg, schedule, &[mode], Duration::from_secs(90)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("partition run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (r, o) in report.outcomes.iter().enumerate() {
        println!("  rank {r}: {o:?}");
    }
    let mut failures = Vec::new();
    if report.link_faults.is_empty() {
        failures.push("no link faults listed as enforced in the report".into());
    }
    if report.events_matching("LinkFault").is_empty() {
        failures.push("no LinkFault events recorded by the children".into());
    }
    if report.events_matching("FdDetect").is_empty() {
        failures.push("FD never detected the partitioned worker".into());
    }
    for name in ["GroupRebuilt", "Restored"] {
        if report.events_matching(name).is_empty() {
            failures.push(format!("no {name} events recorded"));
        }
    }
    match classify_process(cfg, &report) {
        Ok(RunClass::Correct) => {}
        Ok(RunClass::Degraded) => failures
            .push("run degraded; a single partition with a spare rescue must complete".into()),
        Err(v) => failures.push(format!("contract violation: {v}")),
    }
    match reference.class {
        Ok(_) => {
            let got = decode_summaries(&report);
            let mut want = reference.summaries.clone();
            want.sort_by_key(|&(app, _)| app);
            if got != want {
                failures.push(format!(
                    "final values diverge from the in-memory backend: process {got:?}, \
                     in-memory {want:?}"
                ));
            }
        }
        Err(v) => failures.push(format!("in-memory reference run violated: {v}")),
    }
    println!(
        "  {} enforced link ops, {} LinkFault / {} FdDetect events",
        report.link_faults.len(),
        report.events_matching("LinkFault").len(),
        report.events_matching("FdDetect").len(),
    );
    finish(failures, "partition e2e")
}

fn asym(cfg: &SweepConfig, mode: &str) -> ExitCode {
    // Rank 1's 1000th allreduce breaks — on rank 1's plane only — its
    // link to rank 0, its binomial-tree partner in every iteration. The
    // FD still reaches rank 0, so only rank 1's suspect report can
    // surface the fault; recovery then *enforces* rank 0's death
    // (`proc_kill` over the survivors' intact links, the paper's
    // §IV-A-a false-positive handling) and a rescue adopts its state.
    const CROSSER: u32 = 1;
    const SEVERED_PEER: u32 = 0;
    let schedule = FaultSchedule::none().inject(Injection::at(
        "gaspi.allreduce",
        CROSSER,
        1000,
        FaultAction::BreakLink(CROSSER, SEVERED_PEER),
    ));
    println!(
        "asymmetric-partition e2e: worker {CROSSER} loses sight of worker {SEVERED_PEER} \
         mid-solve (FD still sees it); expect report→detect→rebuild→restore"
    );
    let report = match run_process(cfg, schedule, &[mode], Duration::from_secs(90)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("asym run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (r, o) in report.outcomes.iter().enumerate() {
        println!("  rank {r}: {o:?}");
    }
    let mut failures = Vec::new();
    let detects = report.events_matching("FdDetect");
    // Both endpoints of the severed link may report each other (the
    // worker's sends are refused on its own plane; the peer's incoming
    // frames bounce as RESP_BROKEN), so detection must name one or both
    // of them — and nobody else.
    let endpoint_only = |l: &str| {
        l.split("failed: [")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .is_some_and(|list| {
                list.split(',')
                    .all(|r| matches!(r.trim(), s if s == CROSSER.to_string() || s == SEVERED_PEER.to_string()))
            })
    };
    if detects.is_empty() {
        failures.push("the worker's suspect report never drove a detection".into());
    } else if !detects.iter().all(|l| endpoint_only(l)) {
        failures.push(format!("detection named ranks outside the partition: {detects:?}"));
    }
    if report.events_matching("LinkFault").is_empty() {
        failures.push("no LinkFault events recorded by the crossing rank".into());
    }
    for name in ["GroupRebuilt", "Restored"] {
        if report.events_matching(name).is_empty() {
            failures.push(format!("no {name} events recorded"));
        }
    }
    match classify_process(cfg, &report) {
        Ok(RunClass::Correct) => {}
        Ok(RunClass::Degraded) => {
            failures.push("run degraded; the rescue must complete the job exactly".into())
        }
        Err(v) => failures.push(format!("contract violation: {v}")),
    }
    println!(
        "  {} FdDetect / {} GroupRebuilt / {} Restored events",
        detects.len(),
        report.events_matching("GroupRebuilt").len(),
        report.events_matching("Restored").len(),
    );
    finish(failures, "asymmetric-partition e2e")
}

fn heal(cfg: &SweepConfig, mode: &str) -> ExitCode {
    const VICTIM: u32 = 1;
    let fd = cfg.ft_config().layout.fd_rank();
    let break_at = Duration::from_millis(400);
    let heal_at = Duration::from_millis(460);
    let schedule = FaultSchedule::none()
        .timed(break_at, FaultAction::BreakLink(fd, VICTIM))
        .timed(heal_at, FaultAction::HealLink(fd, VICTIM));
    println!(
        "heal-before-timeout e2e: FD({fd})↔worker({VICTIM}) broken {break_at:?}–{heal_at:?}, \
         grace {:?}; expect NO recovery and exact completion",
        cfg.suspect_grace
    );
    let report = match run_process(cfg, schedule, &[mode], Duration::from_secs(90)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("heal run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (r, o) in report.outcomes.iter().enumerate() {
        println!("  rank {r}: {o:?}");
    }
    let mut failures = Vec::new();
    if report.link_faults.len() < 2 {
        failures
            .push(format!("expected break + heal in link_faults, got {:?}", report.link_faults));
    }
    // The crux: a partition healed inside the grace window must cause no
    // spurious recovery — detection, rebuild, and kill stay silent.
    for name in ["FdDetect", "FdAck", "KillFired"] {
        let n = report.events_matching(name).len();
        if n != 0 {
            failures.push(format!("spurious recovery: {n} {name} events after a healed link"));
        }
    }
    match classify_process(cfg, &report) {
        Ok(RunClass::Correct) => {}
        Ok(RunClass::Degraded) => {
            failures.push("run degraded although the partition healed in time".into())
        }
        Err(v) => failures.push(format!("contract violation: {v}")),
    }
    println!(
        "  {} enforced link ops, {} FdDetect events (want 0)",
        report.link_faults.len(),
        report.events_matching("FdDetect").len(),
    );
    finish(failures, "heal-before-timeout e2e")
}

fn fdkill(cfg: &SweepConfig, mode: &str) -> ExitCode {
    const VICTIM: u32 = 1;
    let kill_at = Duration::from_millis(500);
    let schedule = FaultSchedule::none().timed(kill_at, FaultAction::KillRank(VICTIM));
    println!("fd-kill e2e: SIGKILL rank {VICTIM} at {kill_at:?}, expect detect→rebuild→restore");
    let t0 = Instant::now();
    let report = match run_process(cfg, schedule, &[mode], Duration::from_secs(90)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fd-kill run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = t0.elapsed();
    for (r, o) in report.outcomes.iter().enumerate() {
        println!("  rank {r}: {o:?}");
    }
    let mut failures = Vec::new();
    match &report.outcomes[VICTIM as usize] {
        ProcOutcome::Killed { by_signal: true } => {}
        other => failures.push(format!("victim outcome {other:?}, expected death by SIGKILL")),
    }
    for (name, needed) in
        [("FdDetect", 1usize), ("GroupRebuilt", cfg.workers as usize), ("Restored", 1)]
    {
        let n = report.events_matching(name).len();
        if n < needed {
            failures.push(format!("{name}: {n} events, expected >= {needed}"));
        }
    }
    match classify_process(cfg, &report) {
        Ok(RunClass::Correct) => {}
        Ok(RunClass::Degraded) => {
            failures.push("run degraded; a single kill with a spare rescue must complete".into())
        }
        Err(v) => failures.push(format!("contract violation: {v}")),
    }
    // Detection + rebuild + restore + redo must be bounded: the whole
    // job (including ~0.5 s of pre-kill compute) well under the 90 s
    // supervisor deadline.
    if elapsed > Duration::from_secs(60) {
        failures.push(format!("end-to-end recovery took {elapsed:?} (> 60 s bound)"));
    }
    println!(
        "  victim SIGKILLed, {} FdDetect / {} GroupRebuilt / {} Restored events, {elapsed:?} total",
        report.events_matching("FdDetect").len(),
        report.events_matching("GroupRebuilt").len(),
        report.events_matching("Restored").len(),
    );
    if failures.is_empty() {
        println!("fd-kill e2e passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}
