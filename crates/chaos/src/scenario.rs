//! Scenarios: a labelled world, a fault schedule and typed expectations,
//! judged by one runner on either backend. The pair sweep's
//! recovery-window scenarios run in memory; the end-to-end table
//! ([`process_scenarios`]) runs as real rank processes.

use std::time::Duration;

use ft_cluster::{FaultAction, FaultSchedule, Injection, Rank};
use ft_core::EventKind;

use crate::sweep::{classify, run, Backend, Facts, RunClass, SweepConfig};

/// A named predicate over event kinds.
pub type Pred = (&'static str, fn(&EventKind) -> bool);

/// The [`Pred`] "is a `$kind` event".
macro_rules! kind {
    ($kind:ident) => {
        (stringify!($kind), |k| matches!(k, EventKind::$kind { .. }))
    };
}

/// One thing a scenario must show, beyond the chaos contract (which every
/// scenario must hold).
#[derive(Debug, Clone)]
pub enum Expect {
    /// At least this many events of the kind.
    AtLeast(Pred, usize),
    /// No event of the kind.
    Never(Pred),
    /// The contract class: `Correct` — every application rank finishes
    /// with the exact expected value — or `Degraded`, where completing is
    /// the failure.
    Ends(RunClass),
    /// The final values equal the in-memory backend's under the same
    /// schedule (whose run must itself hold the contract).
    AgreesWithInMemory,
    /// The rank's process died to a real signal.
    DiedBySignal(Rank),
    /// The detector detected, and named these ranks only.
    DetectsOnly(&'static [Rank]),
    /// The whole job took no longer than this.
    Within(Duration),
}

impl Expect {
    /// `Err(why)` when `facts` — of a job in `world` — do not show this.
    /// `reference` runs the same scenario in memory, for
    /// [`Expect::AgreesWithInMemory`] to compare against.
    pub fn check(
        &self,
        world: &SweepConfig,
        facts: &Facts,
        reference: &dyn Fn() -> Facts,
    ) -> Result<(), String> {
        let count = |p: &Pred| facts.events.all_where(|e| (p.1)(&e.kind)).len();
        let (ok, why) = match self {
            Expect::AtLeast(p, n) => {
                (count(p) >= *n, format!("{}: {} events, expected >= {n}", p.0, count(p)))
            }
            Expect::Never(p) => (count(p) == 0, format!("{} spurious {} events", count(p), p.0)),
            Expect::Ends(class) => {
                let got = classify(world, facts);
                (got == Ok(*class), format!("expected {class:?}, got {got:?}"))
            }
            Expect::AgreesWithInMemory => {
                let reference = reference();
                classify(world, &reference)
                    .map_err(|v| format!("in-memory reference run violated: {v}"))?;
                let (here, there) = (&facts.summaries, &reference.summaries);
                (here == there, format!("final values {here:?} diverge from in-memory {there:?}"))
            }
            Expect::DiedBySignal(rank) => (
                facts.by_signal.contains(rank),
                format!("rank {rank} did not die by signal ({:?} did)", facts.by_signal),
            ),
            Expect::DetectsOnly(ranks) => {
                let named = facts.events.snapshot().into_iter().filter_map(|e| match e.kind {
                    EventKind::FdDetect { failed, .. } => Some(failed),
                    _ => None,
                });
                let named: Vec<Vec<Rank>> = named.collect();
                (
                    !named.is_empty() && named.iter().flatten().all(|r| ranks.contains(r)),
                    format!("detection must name some of {ranks:?} and nobody else: {named:?}"),
                )
            }
            Expect::Within(bound) => {
                (facts.elapsed <= *bound, format!("took {:?} (> {bound:?})", facts.elapsed))
            }
        };
        ok.then_some(()).ok_or(why)
    }
}

/// One row of a scenario table.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name: report row, CI diff and, on the process backend, the
    /// argument that tells a rank process which world it is in.
    pub label: &'static str,
    /// World shape and job size.
    pub world: SweepConfig,
    /// The faults.
    pub schedule: FaultSchedule,
    /// What the run must show, beyond holding the chaos contract.
    pub expect: Vec<Expect>,
}

/// A scenario and how its run ended.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The contract class; `Err` lists a contract violation and every
    /// expectation not met.
    pub outcome: Result<RunClass, String>,
    /// What the run left behind.
    pub facts: Facts,
}

impl Scenario {
    /// Run on `backend` and judge: the chaos contract, then every
    /// expectation.
    pub fn execute(self, backend: Backend) -> ScenarioOutcome {
        let facts = run(&self.world, self.schedule.clone(), backend);
        let reference = || run(&self.world, self.schedule.clone(), Backend::InMemory);
        let class = classify(&self.world, &facts);
        let violation = class.as_ref().err().map(|v| format!("contract violation: {v}"));
        let unmet =
            self.expect.iter().filter_map(|e| e.check(&self.world, &facts, &reference).err());
        let failures: Vec<String> = violation.into_iter().chain(unmet).collect();
        let outcome = if failures.is_empty() { class } else { Err(failures.join("; ")) };
        ScenarioOutcome { scenario: self, outcome, facts }
    }
}

/// The recovery-window scenarios of the pair sweep: a first kill plus
/// injections armed inside the recovery it opens (a second injection that
/// *fired* proves the kill landed inside the window).
///
/// Occurrence arithmetic, for the `ci()` world (checkpoint every 4 of 12
/// iterations): the first kill lands at worker 1's 6th `gaspi.allreduce`
/// — after the version-1 checkpoint exists, mid steady-state — so the
/// recovery it triggers restores real state and re-homes it. Survivors
/// crossed `recover.begin` once already (initial group formation), so
/// occurrence 2 is the first *real* recovery.
pub fn pair_scenarios(cfg: &SweepConfig) -> Vec<Scenario> {
    let row = |label, kills: &[(&str, Rank, u64)], expect| {
        let arm = |s: FaultSchedule, &(site, rank, occ)| s.inject(Injection::kill(site, rank, occ));
        let schedule = kills.iter().fold(FaultSchedule::none(), arm);
        Scenario { label, world: cfg.clone(), schedule, expect }
    };
    let first = ("gaspi.allreduce", 1, 6);
    vec![
        // Second worker dies while the survivors are rebuilding the group.
        row("kill-during-group-rebuild", &[first, ("recover.begin", 2, 2)], vec![]),
        // The freshly adopted rescue dies while re-homing the restored
        // checkpoint to its neighbor (its first replication ever).
        row(
            "kill-during-neighbor-recopy",
            &[first, ("ckpt.neighbor.copy", cfg.workers, 1)],
            vec![],
        ),
        // A second survivor dies between the FD's plan broadcast and the
        // commit — the group must re-form at a later epoch.
        row("kill-during-group-commit", &[first, ("gaspi.group.commit", 3, 2)], vec![]),
        // Three worker kills against one idle rescue + FD promotion:
        // capacity is exhausted and the job must degrade cleanly.
        row(
            "spare-exhaustion",
            &[("gaspi.allreduce", 0, 3), first, ("gaspi.allreduce", 2, 9)],
            vec![Expect::Ends(RunClass::Degraded)],
        ),
    ]
}

/// Run every pair scenario in memory.
pub fn pair_sweep(cfg: &SweepConfig) -> Vec<ScenarioOutcome> {
    pair_scenarios(cfg).into_iter().map(|s| s.execute(Backend::InMemory)).collect()
}

/// The world of the wall-clock rows: kills must land mid-solve, so the
/// job computes for seconds instead of milliseconds (an allreduce
/// iteration over loopback TCP runs in the low hundreds of microseconds).
/// Contract arithmetic is unchanged.
fn wallclock(spares: u32) -> SweepConfig {
    SweepConfig { max_iters: 20_000, checkpoint_every: 200, spares, ..SweepConfig::ci() }
}

/// The end-to-end table of the process backend (`process_sweep e2e`, or
/// one row by label): each row a real-process job under a wall-clock or
/// step-indexed fault, with what the paper's §VI experiment must show.
pub fn process_scenarios() -> Vec<Scenario> {
    use Expect::*;
    use FaultAction::{BreakLink, HealLink, KillRank};
    let ms = Duration::from_millis;
    let fd = wallclock(2).ft_config().layout.fd_rank();
    let healed: Pred = ("LinkFault { broken: false }", |k| {
        matches!(k, EventKind::LinkFault { broken: false, .. })
    });
    vec![
        // Two independent deaths: rank 0 exits cooperatively at iteration
        // 700 (the `exit(-1)` style), rank 2 is SIGKILLed from outside at
        // 600 ms (the `kill -9` style). Three spares cover both plus the
        // FD; the contract alone is the expectation.
        Scenario {
            label: "storm",
            world: wallclock(3),
            schedule: FaultSchedule::none()
                .kill_rank_at_iteration(0, 700)
                .timed(ms(600), KillRank(2)),
            expect: vec![],
        },
        // The paper's `kill -9` experiment end to end: SIGKILL a worker
        // mid-solve; the victim died by signal, the detector observed it,
        // every member rebuilt the group, state restored from checkpoints,
        // survivors finished with the exact expected value — detection +
        // rebuild + restore + redo well under the supervisor deadline.
        Scenario {
            label: "fdkill",
            world: wallclock(2),
            schedule: FaultSchedule::none().timed(ms(500), KillRank(1)),
            expect: vec![
                DiedBySignal(1),
                AtLeast(kind!(FdDetect), 1),
                AtLeast(kind!(GroupRebuilt), 4),
                AtLeast(kind!(Restored), 1),
                Ends(RunClass::Correct),
                Within(Duration::from_secs(60)),
            ],
        },
        // A timed FD↔worker break mid-solve: the link op must reach the
        // children (`LinkFault` events recorded), the
        // detector must observe the partitioned worker, and the job must
        // finish with exactly the in-memory backend's final values.
        Scenario {
            label: "partition",
            world: wallclock(2),
            schedule: FaultSchedule::none().timed(ms(500), BreakLink(fd, 1)),
            expect: vec![
                AtLeast(kind!(LinkFault), 1),
                AtLeast(kind!(FdDetect), 1),
                AtLeast(kind!(GroupRebuilt), 1),
                AtLeast(kind!(Restored), 1),
                Ends(RunClass::Correct),
                AgreesWithInMemory,
            ],
        },
        // An *asymmetric* partition (the paper's link-fault path): rank 1's
        // 1000th allreduce breaks — on rank 1's plane only — its link to
        // rank 0, the root of its allreduce star in every iteration. The FD
        // still reaches rank 0, so only a worker's suspect report can
        // surface the fault; recovery then *enforces* the suspect's death
        // (`proc_kill`, the paper's §IV-A-a false-positive handling) and a
        // rescue adopts its state. Both endpoints may report each other
        // (the worker's sends are refused on its own plane; the peer's
        // frames bounce as `RESP_BROKEN`), so detection names one or both
        // of them — and nobody else.
        Scenario {
            label: "asym",
            world: wallclock(2),
            schedule: FaultSchedule::none().inject(Injection::at(
                "gaspi.allreduce",
                1,
                1000,
                BreakLink(1, 0),
            )),
            expect: vec![
                DetectsOnly(&[0, 1]),
                AtLeast(kind!(LinkFault), 1),
                AtLeast(kind!(GroupRebuilt), 1),
                AtLeast(kind!(Restored), 1),
                Ends(RunClass::Correct),
            ],
        },
        // A transient FD↔worker partition healed before the detector's
        // `suspect_grace` (200 ms here) expires: the heal reaches a child,
        // and no spurious recovery — detection, acknowledgment and kill
        // stay silent — with full exact completion.
        Scenario {
            label: "heal",
            world: SweepConfig { suspect_grace: ms(200), ..wallclock(2) },
            schedule: FaultSchedule::none()
                .timed(ms(400), BreakLink(fd, 1))
                .timed(ms(460), HealLink(fd, 1)),
            expect: vec![
                AtLeast(healed, 1),
                Never(kind!(FdDetect)),
                Never(kind!(FdAck)),
                Never(kind!(KillFired)),
                Ends(RunClass::Correct),
            ],
        },
    ]
}
