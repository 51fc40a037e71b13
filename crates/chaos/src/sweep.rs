//! One sweep job on either backend — [`run`] → [`Facts`] → [`classify`] —
//! and the exhaustive single-kill sweep built on it.

use std::time::{Duration, Instant};

use ft_cluster::{FaultSchedule, Injection, Rank, SiteRecord, Wire};
use ft_core::process::{run_supervisor, ProcJobReport, ProcOutcome, SupervisorConfig};
use ft_core::{run_ft_job, DetectorConfig, EventLog, FtConfig, StrategyKind, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld, RankOutcome, Timeout};

use crate::app::SweepApp;
use crate::report::{SweepReport, TripleOutcome};

/// Parameters of one sweep: the world shape and the job size.
///
/// Keep the job *small* — the exhaustive sweep replays one full job per
/// enumerated `(site, occurrence, rank)` triple.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Application ranks.
    pub workers: u32,
    /// Spare ranks (last one is the FD, the rest idle rescues).
    pub spares: u32,
    /// Iterations of the accumulator job.
    pub max_iters: u64,
    /// Checkpoint interval in iterations.
    pub checkpoint_every: u64,
    /// Detector hysteresis for suspected ranks (see
    /// `ft_core::DetectorConfig::suspect_grace`). Zero — immediate
    /// verification — except in the transient-partition scenarios.
    pub suspect_grace: Duration,
    /// Recovery model every replay runs (the sweep enumerates that
    /// strategy's own injection sites, so each model is swept against
    /// its own failure surface).
    pub strategy: StrategyKind,
}

/// World seed (latency jitter is disabled; the seed still names the run
/// in the report).
pub const SEED: u64 = 42;
/// Occurrences logged per `(site, rank)` — what the enumeration pass
/// enumerates (counters are exact; only the *log* is capped).
const RECORD_CAP: u64 = 2;
/// Per-run hang bound: a replay that makes no progress for this long
/// degrades cleanly instead of hanging the sweep.
const ABANDON: Duration = Duration::from_secs(3);

impl SweepConfig {
    /// The CI world: 4 workers, 1 idle rescue, 1 FD.
    pub fn ci() -> Self {
        Self {
            workers: 4,
            spares: 2,
            max_iters: 12,
            checkpoint_every: 4,
            suspect_grace: Duration::ZERO,
            strategy: StrategyKind::CheckpointRestart,
        }
    }

    /// The GASPI world configuration of this sweep world (supervisor
    /// bookkeeping and every rank process must agree on it bit for bit).
    pub fn gaspi_config(&self) -> GaspiConfig {
        GaspiConfig::deterministic(self.workers + self.spares).with_seed(SEED)
    }

    /// The driver configuration this sweep world runs (shared by the
    /// in-memory backend and the process backend's supervisor/children,
    /// which must agree on it exactly).
    pub fn ft_config(&self) -> FtConfig {
        FtConfig::builder(WorldLayout::new(self.workers, self.spares))
            .checkpoint_every(self.checkpoint_every)
            .max_iters(self.max_iters)
            .abandon(ABANDON)
            .strategy(self.strategy)
            // Replays are serial; a fast detector keeps the sweep
            // wall-clock proportional to the triple count, not to
            // detection latency.
            .detector(DetectorConfig {
                scan_interval: Duration::from_millis(5),
                ping_timeout: Timeout::Ms(60),
                ack_timeout: Timeout::Ms(500),
                suspect_grace: self.suspect_grace,
            })
            .build()
            .expect("sweep world config must validate")
    }
}

/// How one replay ended, when it did not violate the chaos contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunClass {
    /// Every application rank finished with the exact expected value.
    Correct,
    /// Incomplete, but cleanly: at least one recorded failure, and every
    /// summary that *was* produced is exact.
    Degraded,
}

/// Where a sweep job runs.
#[derive(Debug, Clone, Copy)]
pub enum Backend<'a> {
    /// Rank threads over the simulated transport, one shared fault plane
    /// that logs the site crossings (what the enumeration pass reads).
    InMemory,
    /// One OS process per rank over TCP (`ft_core::process`).
    Process {
        /// What the current binary is re-executed with: it must route the
        /// rank process into [`crate::maybe_run_child`] with the same `cfg`.
        child_arg: &'a str,
    },
}

/// Supervisor deadline of one process-backend job: a hang ends as
/// `broken` facts, not as a wedged sweep.
const PROCESS_DEADLINE: Duration = Duration::from_secs(90);

/// What one job left behind, whichever backend ran it: everything the
/// chaos contract and the scenario expectations are judged on.
#[derive(Debug, Default)]
pub struct Facts {
    /// `(app_rank, accumulator)` of every finished worker, by app rank.
    pub summaries: Vec<(u32, f64)>,
    /// Ranks that died to a kill.
    pub killed: Vec<Rank>,
    /// Of those, the ones a real signal killed (process backend only).
    pub by_signal: Vec<Rank>,
    /// Ranks that returned with an error.
    pub errored: usize,
    /// Ranks that hung, crashed or reported garbage (or a supervisor that
    /// could not run the job) — each a contract violation by itself.
    pub broken: Vec<String>,
    /// The job's event log.
    pub events: EventLog,
    /// Site crossings, capped per `(site, rank)` (in memory only: a rank
    /// process's fault plane dies with it).
    pub log: Vec<SiteRecord>,
    /// Injections that fired (in memory only, likewise).
    pub fired: Vec<Injection>,
    /// Wall-clock of the whole job.
    pub elapsed: Duration,
}

/// Run the sweep job once under `schedule`.
pub fn run(cfg: &SweepConfig, schedule: FaultSchedule, backend: Backend) -> Facts {
    let ft = cfg.ft_config();
    let t0 = Instant::now();
    let mut facts = match backend {
        Backend::Process { child_arg } => {
            let sup = SupervisorConfig::new(ft.layout.total(), schedule)
                .with_args([child_arg])
                .with_deadline(PROCESS_DEADLINE);
            match run_supervisor(sup) {
                Ok(report) => process_facts(report),
                Err(e) => Facts { broken: vec![format!("supervisor: {e}")], ..Facts::default() },
            }
        }
        Backend::InMemory => {
            let world = GaspiWorld::new(cfg.gaspi_config());
            world.fault().record_sites(RECORD_CAP);
            let report = run_ft_job(&world, ft, schedule, SweepApp::new);
            let broken = report.outcomes.iter().enumerate().filter_map(|(r, o)| match o {
                RankOutcome::Failed(e) => Some(format!("rank {r} failed: {e:?}")),
                RankOutcome::Panicked(msg) => Some(format!("rank {r} panicked: {msg}")),
                _ => None,
            });
            Facts {
                summaries: report.worker_summaries().into_iter().map(|(a, v)| (a, *v)).collect(),
                killed: report.killed(),
                errored: report.completed().into_iter().filter(|r| r.error.is_some()).count(),
                broken: broken.collect(),
                log: world.fault().site_log(),
                fired: world.fault().injections_fired(),
                events: report.events,
                ..Facts::default()
            }
        }
    };
    facts.elapsed = t0.elapsed();
    facts
}

fn process_facts(report: ProcJobReport) -> Facts {
    let mut facts = Facts { killed: report.killed(), ..Facts::default() };
    for (app, bytes) in report.worker_summaries() {
        match f64::from_bytes(bytes) {
            Ok(summary) => facts.summaries.push((app, summary)),
            Err(_) => facts.broken.push(format!("app rank {app}: malformed 8-byte summary")),
        }
    }
    for (rank, o) in report.outcomes.iter().enumerate() {
        match o {
            ProcOutcome::TimedOut => facts.broken.push(format!("rank {rank} timed out (hang)")),
            ProcOutcome::Crashed(d) => facts.broken.push(format!("rank {rank} crashed: {d}")),
            ProcOutcome::Killed { by_signal: true } => facts.by_signal.push(rank as Rank),
            ProcOutcome::Killed { by_signal: false } => {}
            ProcOutcome::Completed(r) => facts.errored += usize::from(r.error.is_some()),
        }
    }
    Facts { events: report.events, ..facts }
}

/// The chaos contract, one statement for both backends: nothing hung or
/// crashed; complete ⇒ every worker summary is the exact expected value;
/// incomplete ⇒ at least one recorded kill or error and no stray wrong
/// summaries.
pub fn classify(cfg: &SweepConfig, facts: &Facts) -> Result<RunClass, String> {
    if let Some(b) = facts.broken.first() {
        return Err(b.clone());
    }
    let expected = SweepApp::expected(cfg.workers, cfg.max_iters);
    for (app, acc) in &facts.summaries {
        if *acc != expected {
            return Err(format!("app rank {app} produced {acc}, expected {expected}"));
        }
    }
    if facts.summaries.len() == cfg.workers as usize {
        return Ok(RunClass::Correct);
    }
    if facts.errored + facts.killed.len() == 0 {
        return Err(format!(
            "incomplete ({}/{} summaries) without any recorded failure",
            facts.summaries.len(),
            cfg.workers
        ));
    }
    Ok(RunClass::Degraded)
}

/// Replay the job with `armed` as its one fault, classifying the outcome
/// against the chaos contract.
pub fn replay(cfg: &SweepConfig, armed: &Injection, backend: Backend) -> Result<RunClass, String> {
    classify(cfg, &run(cfg, FaultSchedule::none().inject(armed.clone()), backend))
}

/// Exhaustive single-kill sweep: enumerate every `(site, occurrence,
/// rank)` triple of a failure-free run, then replay one job per triple
/// with a kill armed there. `budget` caps replay wall-clock (the
/// enumeration always completes); remaining triples are counted as
/// skipped, never silently dropped.
pub fn exhaustive_sweep(cfg: &SweepConfig, budget: Option<Duration>) -> SweepReport {
    let t0 = Instant::now();
    let recording = run(cfg, FaultSchedule::none(), Backend::InMemory);
    let mut violations = Vec::new();
    let class = classify(cfg, &recording);
    if class != Ok(RunClass::Correct) {
        violations.push(format!("failure-free recording run: {class:?}"));
    }
    let mut replayed = Vec::new();
    for triple in &recording.log {
        if budget.is_some_and(|b| t0.elapsed() >= b) {
            break;
        }
        let SiteRecord { site, rank, occurrence } = triple;
        let kill = Injection::kill(site.clone(), *rank, *occurrence);
        let outcome = replay(cfg, &kill, Backend::InMemory);
        if let Err(v) = &outcome {
            violations.push(format!("kill {site} occ {occurrence} rank {rank}: {v}"));
        }
        replayed.push(TripleOutcome { triple: triple.clone(), outcome });
    }
    SweepReport {
        cfg: cfg.clone(),
        enumerated: recording.log.len(),
        skipped_budget: recording.log.len() - replayed.len(),
        replayed,
        violations,
        pairs: Vec::new(),
        elapsed: t0.elapsed(),
    }
}
