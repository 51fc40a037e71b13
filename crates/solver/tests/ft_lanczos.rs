//! End-to-end tests of the fault-tolerant Lanczos application.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ft_checkpoint::{Checkpointer, Pfs, PfsConfig};
use ft_cluster::{FaultAction, FaultPlane, FaultSchedule, Injection, Rank};
use ft_core::{
    run_ft_job, DetectorConfig, EventKind, FtApp, FtConfig, FtCtx, FtResult, JobReport,
    RecoveryPlan, WorldLayout,
};
use ft_gaspi::{GaspiConfig, GaspiWorld};
use ft_matgen::graphene::Graphene;
use ft_matgen::spectra::{Diagonal, ToeplitzTridiag};
use ft_matgen::{RowEntry, RowGen};
use ft_solver::ft_lanczos::{FtLanczos, FtLanczosConfig, LanczosSummary};
use ft_solver::seq::SeqLanczos;

fn run_job(
    gen: Arc<dyn RowGen>,
    workers: u32,
    spares: u32,
    iters: u64,
    ckpt_every: u64,
    redundant: bool,
    schedule: FaultSchedule,
) -> JobReport<LanczosSummary> {
    let layout = WorldLayout::new(workers, spares);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(ckpt_every)
        .max_iters(iters)
        .redundant_fd(redundant)
        .abandon(std::time::Duration::from_secs(30))
        .build()
        .unwrap();
    let app_cfg = Arc::new(FtLanczosConfig {
        pfs: Some(Pfs::new(PfsConfig::instant())),
        ..FtLanczosConfig::fixed_iters(gen)
    });
    run_ft_job(&world, cfg, schedule, move |ctx| FtLanczos::new(ctx, Arc::clone(&app_cfg)))
}

fn summaries(report: &JobReport<LanczosSummary>, workers: u32) -> Vec<LanczosSummary> {
    let s = report.worker_summaries();
    assert_eq!(s.len(), workers as usize, "all app ranks must finish");
    s.into_iter().map(|(_, x)| x.clone()).collect()
}

#[test]
fn distributed_matches_sequential_reference() {
    let gen = Graphene::new(8, 6).with_nnn(-0.15);
    let iters = 40;
    let seq = SeqLanczos::run(&gen, iters, 0x1A5C_205E);
    let report = run_job(Arc::new(gen), 3, 1, iters, 10, false, FaultSchedule::none());
    for s in summaries(&report, 3) {
        assert_eq!(s.iters, iters);
        // Distributed reductions reorder the sums relative to the
        // sequential reference; agreement is to rounding, not bitwise.
        for (a, b) in s.alphas.iter().zip(&seq.alphas) {
            assert!((a - b).abs() < 1e-9, "alpha {a} vs {b}");
        }
        for (a, b) in s.betas.iter().zip(&seq.betas) {
            assert!((a - b).abs() < 1e-9, "beta {a} vs {b}");
        }
    }
}

/// With one worker the step adds the same terms in the same order as the
/// sequential reference — the product row by row, the dot, the update and
/// its norm — so α/β agree bit for bit. Any reordering of the kernel or
/// the vector passes fails here.
#[test]
fn one_worker_is_the_sequential_reference_bit_for_bit() {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (lx, ly, iters) in [(8, 6, 40), (48, 32, 30)] {
        let gen = Graphene::new(lx, ly).with_nnn(-0.15);
        let seq = SeqLanczos::run(&gen, iters, 0x1A5C_205E);
        let report = run_job(Arc::new(gen), 1, 1, iters, 10, false, FaultSchedule::none());
        let s = &summaries(&report, 1)[0];
        assert_eq!(bits(&s.alphas), bits(&seq.alphas), "{lx}x{ly}: alpha");
        assert_eq!(bits(&s.betas), bits(&seq.betas), "{lx}x{ly}: beta");
    }
}

#[test]
fn eigenvalues_match_known_spectrum() {
    // Full Krylov space on a diagonal matrix: extremes are exact.
    let gen = Diagonal::new((0..48).map(|i| 1.0 + 0.25 * f64::from(i)).collect());
    let exact = gen.eigenvalues();
    let report = run_job(Arc::new(gen), 4, 1, 48, 12, false, FaultSchedule::none());
    for s in summaries(&report, 4) {
        let eig = &s.eigenvalues;
        assert!((eig[0] - exact[0]).abs() < 1e-7, "{} vs {}", eig[0], exact[0]);
        assert!(
            (eig.last().unwrap() - exact.last().unwrap()).abs() < 1e-7,
            "{} vs {}",
            eig.last().unwrap(),
            exact.last().unwrap()
        );
    }
}

#[test]
fn recovered_run_reproduces_failure_free_bit_for_bit() {
    // The headline determinism claim: kill a worker mid-run; after
    // recovery and redo, the α/β sequences (and thus every eigenvalue)
    // must equal the failure-free run's *exactly*.
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let iters = 60;
    let clean = run_job(Arc::new(gen.clone()), 4, 3, iters, 10, false, FaultSchedule::none());
    let clean_s = summaries(&clean, 4);

    let schedule = FaultSchedule::none().kill_rank_at_iteration(1, 37);
    let faulty = run_job(Arc::new(gen), 4, 3, iters, 10, false, schedule);
    assert_eq!(faulty.killed(), vec![1]);
    let faulty_s = summaries(&faulty, 4);

    assert_eq!(clean_s[0].alphas, faulty_s[0].alphas, "alpha sequence must be bit-identical");
    assert_eq!(clean_s[0].betas, faulty_s[0].betas, "beta sequence must be bit-identical");
    assert_eq!(clean_s[0].eigenvalues, faulty_s[0].eigenvalues);
    // And all workers agree among themselves.
    for s in &faulty_s {
        assert_eq!(s.alphas, faulty_s[0].alphas);
    }
}

#[test]
fn fd_takeover_is_invisible_to_the_numerics() {
    // The primary FD dies mid-run and the shadow takes over; no worker
    // fails. The takeover plan lands wherever each worker happens to be —
    // mid-halo, mid-allreduce, mid-commit — so the run is repeated: every
    // time, α/β on every rank must equal the clean run's, bit for bit.
    // The run is long enough that the 60 ms kill lands mid-run.
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let iters = 1000;
    let clean = run_job(Arc::new(gen.clone()), 4, 3, iters, 50, true, FaultSchedule::none());
    let clean_s = summaries(&clean, 4);
    for run in 0..10 {
        // layout: idle 4, shadow 5, primary FD 6
        let schedule = FaultSchedule::none()
            .timed(std::time::Duration::from_millis(60), FaultAction::KillRank(6));
        let faulty = run_job(Arc::new(gen.clone()), 4, 3, iters, 50, true, schedule);
        let took_over = |e: &ft_core::Event| matches!(e.kind, EventKind::FdTakeover { .. });
        assert!(faulty.events.first_where(took_over).is_some(), "run {run}: kill landed too late");
        assert!(faulty.first_error().is_none(), "run {run}: {:?}", faulty.first_error());
        for (app, s) in summaries(&faulty, 4).iter().enumerate() {
            assert_eq!(s.alphas, clean_s[0].alphas, "run {run}, app rank {app}: alpha");
            assert_eq!(s.betas, clean_s[0].betas, "run {run}, app rank {app}: beta");
        }
    }
}

#[test]
fn two_failures_still_bitwise_identical() {
    let gen = ToeplitzTridiag::new(240, 2.0, -1.0);
    let iters = 50;
    let clean = run_job(Arc::new(gen.clone()), 4, 4, iters, 10, false, FaultSchedule::none());
    let clean_s = summaries(&clean, 4);

    let schedule =
        FaultSchedule::none().kill_rank_at_iteration(0, 23).kill_rank_at_iteration(2, 41);
    let faulty = run_job(Arc::new(gen), 4, 4, iters, 10, false, schedule);
    let faulty_s = summaries(&faulty, 4);
    assert_eq!(clean_s[0].alphas, faulty_s[0].alphas);
    assert_eq!(clean_s[0].betas, faulty_s[0].betas);
    // Spectrum estimates stay inside the true spectral interval [~0, ~4]
    // (Ritz values are bounded by the extremes of the operator).
    let exact = ToeplitzTridiag::new(240, 2.0, -1.0).eigenvalues();
    let (lo, hi) = (exact[0], *exact.last().unwrap());
    for &e in &faulty_s[0].eigenvalues {
        assert!(e >= lo - 1e-9 && e <= hi + 1e-9, "Ritz value {e} outside [{lo}, {hi}]");
    }
}

/// A check every 5 steps, a commit at each. A kill 3 steps before the
/// stopping check: the survivors keep their live state, the rescue replays
/// the 2 steps past the commit, and every rank still stops at the check
/// the failure-free run stopped at, with the same α/β.
#[test]
fn convergence_check_stops_early_and_agrees() {
    let run = |schedule| {
        let gen = Diagonal::new((0..64).map(f64::from).collect());
        let layout = WorldLayout::new(4, 1);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let cfg = FtConfig::builder(layout)
            .checkpoint_every(5)
            .max_iters(64)
            .abandon(std::time::Duration::from_secs(30))
            .build()
            .unwrap();
        let app_cfg = Arc::new(FtLanczosConfig {
            conv_check_every: 5,
            conv_tol: 1e-9,
            ..FtLanczosConfig::fixed_iters(Arc::new(gen))
        });
        let report =
            run_ft_job(&world, cfg, schedule, move |ctx| FtLanczos::new(ctx, Arc::clone(&app_cfg)));
        summaries(&report, 4)
    };
    let clean = run(FaultSchedule::none());
    let stop = clean[0].iters;
    assert!(clean.iter().all(|x| x.iters == stop));
    assert!(stop < 64, "convergence should stop early, got {stop}");
    let faulty = run(FaultSchedule::none().kill_rank_at_iteration(1, stop - 3));
    let iters: Vec<u64> = faulty.iter().map(|x| x.iters).collect();
    assert_eq!(iters, vec![stop; 4], "a kill at {}", stop - 3);
    assert_bitwise(&clean, &faulty, "a kill between two checks");
}

/// Every rank's `(from, to)` replay records and resume points, in job order.
fn replays_and_resumes(report: &JobReport<LanczosSummary>) -> (Vec<(u64, u64)>, Vec<u64>) {
    let ev = report.events.snapshot();
    let replays = ev
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Replayed { from, to, .. } => Some((from, to)),
            _ => None,
        })
        .collect();
    let resumes = ev
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Restored { iter, .. } => Some(iter),
            _ => None,
        })
        .collect();
    (replays, resumes)
}

fn assert_bitwise(clean: &[LanczosSummary], faulty: &[LanczosSummary], what: &str) {
    assert_eq!(faulty.len(), clean.len(), "{what}: all app ranks must finish");
    for (app, s) in faulty.iter().enumerate() {
        assert_eq!(s.alphas, clean[0].alphas, "{what}, app rank {app}: alpha");
        assert_eq!(s.betas, clean[0].betas, "{what}, app rank {app}: beta");
    }
}

/// The benchmark's `cr-latency` shape: 4 workers, a commit every 100
/// steps, a kill at 160. The survivors keep their live state at 160; the
/// rescue alone reloads commit 100 and replays to 160 from its senders'
/// post logs, and the live steps resume there on every rank.
#[test]
fn a_checkpoint_restart_failure_replays_to_the_frontier() {
    let gen = Graphene::new(48, 32).with_nnn(-0.1);
    let iters = 200;
    let clean = run_job(Arc::new(gen.clone()), 4, 4, iters, 100, false, FaultSchedule::none());
    let schedule = FaultSchedule::none().kill_rank_at_iteration(1, 160);
    let faulty = run_job(Arc::new(gen), 4, 4, iters, 100, false, schedule);
    assert_eq!(faulty.killed(), vec![1]);
    assert_bitwise(&summaries(&clean, 4), &summaries(&faulty, 4), "replayed");
    let (replays, resumes) = replays_and_resumes(&faulty);
    assert_eq!(replays, vec![(100, 160)], "the rescue alone replays");
    assert_eq!(resumes, vec![160; 4], "live steps resume at the frontier on every rank");
}

/// A kill inside the recovery — on the rescue while it replays, or on a
/// survivor in the hand-over that feeds it — leaves the next recovery
/// exact, even when the dead rescue's re-homed plan and state had not yet
/// reached its neighbor.
#[test]
fn a_kill_inside_the_replay_is_recovered_exactly() {
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let (workers, spares, iters, every) = (4, 4, 60, 10);
    let clean =
        run_job(Arc::new(gen.clone()), workers, spares, iters, every, false, FaultSchedule::none());
    let clean_s = summaries(&clean, workers);
    let layout = WorldLayout::new(workers, spares);
    let rescue: Rank = RecoveryPlan::initial().after_failures(&layout, &[1], None).rescues[0];
    for (victim, site, who) in
        [(rescue, "strategy.replay.step", "the rescue"), (0, "gaspi.alltoall", "a survivor")]
    {
        let schedule = FaultSchedule::none().kill_rank_at_iteration(1, 39).inject(Injection::kill(
            site,
            victim,
            if victim == 0 { 1 } else { 3 },
        ));
        let faulty = run_job(Arc::new(gen.clone()), workers, spares, iters, every, false, schedule);
        let mut killed = faulty.killed();
        killed.sort_unstable();
        assert_eq!(killed, vec![victim.min(1), victim.max(1)], "{who}: both kills fired");
        assert_bitwise(&clean_s, &summaries(&faulty, workers), who);
    }
}

/// A second failure in the same interval: the first rescue replayed
/// `30..33` and logged what it posted as it went, so it feeds the second
/// rescue's replay of `30..37` like any survivor — exactly. At a kill at 33
/// the drain rule guarantees only commit 20's copies, so app rank 1 holds
/// 200 ms right after its commit at 30 for every copy of it to land.
#[test]
fn a_second_failure_in_one_interval_is_fed_from_the_first_rescues_replay() {
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let clean = run_job(Arc::new(gen.clone()), 4, 4, 60, 10, false, FaultSchedule::none());
    let hold = FaultAction::Delay(Duration::from_millis(200));
    let schedule = FaultSchedule::none()
        .inject(Injection::at("driver.checkpoint.commit", 1, 3, hold))
        .kill_rank_at_iteration(1, 33)
        .kill_rank_at_iteration(2, 37);
    let faulty = run_job(Arc::new(gen), 4, 4, 60, 10, false, schedule);
    assert_eq!(faulty.killed(), vec![1, 2]);
    assert_bitwise(&summaries(&clean, 4), &summaries(&faulty, 4), "second failure");
    let (replays, _) = replays_and_resumes(&faulty);
    assert_eq!(replays, vec![(30, 33), (30, 37)], "one replay per rescue");
}

/// Two adjacent app ranks lost in one interval: each rescue's halo comes
/// partly from the other, which has nothing to hand over, so the group
/// takes the global redo from the commit (30, or 20 if a copy of 30 was
/// still in flight) — exactly. Two ranks share a node, so both victims'
/// checkpoints outlive them on their nodes.
#[test]
fn adjacent_victims_in_one_interval_take_the_global_redo() {
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let run = |schedule| {
        let layout = WorldLayout::new(4, 4);
        let gaspi = GaspiConfig::deterministic(layout.total()).with_ranks_per_node(2);
        let cfg = FtConfig::builder(layout)
            .checkpoint_every(10)
            .max_iters(60)
            .abandon(std::time::Duration::from_secs(30))
            .build()
            .unwrap();
        let app_cfg = Arc::new(FtLanczosConfig {
            pfs: Some(Pfs::new(PfsConfig::instant())),
            ..FtLanczosConfig::fixed_iters(Arc::new(gen.clone()))
        });
        let world = GaspiWorld::new(gaspi);
        run_ft_job(&world, cfg, schedule, move |ctx| FtLanczos::new(ctx, Arc::clone(&app_cfg)))
    };
    let clean = run(FaultSchedule::none());
    let faulty =
        run(FaultSchedule::none().kill_rank_at_iteration(1, 37).kill_rank_at_iteration(2, 37));
    assert_eq!(faulty.killed(), vec![1, 2]);
    assert_bitwise(&summaries(&clean, 4), &summaries(&faulty, 4), "adjacent");
    let (replays, resumes) = replays_and_resumes(&faulty);
    assert!(replays.is_empty(), "no replay: {replays:?}");
    let commit = |r: &u64| (20..=30).contains(r) && r.is_multiple_of(10);
    assert!(resumes.iter().all(|r| commit(r) && *r == resumes[0]), "global redo: {resumes:?}");
}

/// A kill right after a commit, while the victim's neighbor copy is still
/// in flight: the vote picks the previous version, which no survivor's log
/// reaches back to (each restarted at the newer commit), so the group takes
/// the global redo from it — exactly. If the copy did land, the commit is
/// the frontier and there is nothing to redo.
#[test]
fn a_kill_at_a_commit_whose_copy_is_in_flight_takes_the_global_redo() {
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let (workers, iters, every) = (4, 60, 10);
    let clean =
        run_job(Arc::new(gen.clone()), workers, 4, iters, every, false, FaultSchedule::none());
    let schedule = FaultSchedule::none().kill_rank_at_iteration(1, 40);
    let faulty = run_job(Arc::new(gen), workers, 4, iters, every, false, schedule);
    assert_bitwise(&summaries(&clean, workers), &summaries(&faulty, workers), "commit kill");
    let (replays, resumes) = replays_and_resumes(&faulty);
    assert!(replays.is_empty(), "no replay: {replays:?}");
    assert!(resumes.iter().all(|&r| r.is_multiple_of(10) && r <= 40), "resumed at {resumes:?}");
}

/// A kill before the job's first commit: the fresh start is commit 0, and
/// every survivor's log reaches back to it, so the survivors keep their
/// live state and the rescue alone resets to the initial state and replays
/// `0..kill` instead of the group redoing it globally.
#[test]
fn a_failure_before_the_first_commit_replays_from_zero() {
    let gen = Graphene::new(48, 32).with_nnn(-0.1);
    let (iters, kill) = (120, 60);
    let clean = run_job(Arc::new(gen.clone()), 4, 4, iters, 100, false, FaultSchedule::none());
    let schedule = FaultSchedule::none().kill_rank_at_iteration(1, kill);
    let faulty = run_job(Arc::new(gen), 4, 4, iters, 100, false, schedule);
    assert_eq!(faulty.killed(), vec![1]);
    assert_bitwise(&summaries(&clean, 4), &summaries(&faulty, 4), "fresh start");
    let (replays, resumes) = replays_and_resumes(&faulty);
    assert_eq!(replays, vec![(0, kill)], "the rescue alone replays");
    assert_eq!(resumes, vec![kill; 4], "live steps resume at the frontier on every rank");
}

/// The drain rule: a copy job drains its state stream one step before each
/// commit (at interval 1, right after it), so a kill finds the victim's
/// newest copy landed up to the commit before the last drain. Here the
/// victim's first state copy after iteration 20 stalls 200 ms on its way to
/// the neighbor, and the kill comes two commits later. Without the drain
/// both newer copies queue behind the stalled one, the rescue can offer
/// only a version the survivors have pruned, and the group starts over from
/// 0; with it, the group resumes no earlier than the rule allows.
#[test]
fn a_kill_behind_a_stalled_copy_resumes_where_the_drain_rule_allows() {
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let (workers, iters, stall_at, victim) = (4, 40, 20, 1);
    for every in [1, 2] {
        let clean =
            run_job(Arc::new(gen.clone()), workers, 4, iters, every, false, FaultSchedule::none());
        // The victim's first copy is its plan's, in `setup`; the n-th
        // commit's is its (1 + n)-th.
        let stall = FaultAction::Delay(std::time::Duration::from_millis(200));
        let kill = stall_at + 2 * every;
        let schedule = FaultSchedule::none()
            .inject(Injection::at("ckpt.neighbor.copy", victim, 1 + stall_at / every, stall))
            .kill_rank_at_iteration(victim, kill);
        let faulty = run_job(Arc::new(gen.clone()), workers, 4, iters, every, false, schedule);
        assert_eq!(faulty.killed(), vec![victim]);
        let what = format!("interval {every}");
        assert_bitwise(&summaries(&clean, workers), &summaries(&faulty, workers), &what);
        // The newest commit whose drain came before the kill.
        let floor = (kill + 1 - every) / every * every;
        let (_, resumes) = replays_and_resumes(&faulty);
        assert!(
            !resumes.is_empty() && resumes.iter().all(|&r| r >= floor),
            "{what}: resumed at {resumes:?}, the drain rule allows {floor} and later"
        );
    }
}

/// At interval 1, a rescue lost right after its takeover, before the copy
/// of what it re-homed left its node: the next rescue finds that version in
/// the stream of the rank the first one replaced, which nobody prunes any
/// more, and both recoveries resume at the kill, not at 0.
#[test]
fn a_rescue_lost_before_its_rehomed_copy_lands_resumes_from_its_predecessor() {
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let (workers, iters, kill) = (4, 40, 20);
    let clean = run_job(Arc::new(gen.clone()), workers, 4, iters, 1, false, FaultSchedule::none());
    let layout = WorldLayout::new(workers, 4);
    let rescue: Rank = RecoveryPlan::initial().after_failures(&layout, &[1], None).rescues[0];
    // The rescue's first two copies are its re-homed plan and state.
    let stall = FaultAction::Delay(std::time::Duration::from_millis(200));
    let schedule = FaultSchedule::none()
        .kill_rank_at_iteration(1, kill)
        .kill_rank_at_iteration(rescue, kill)
        .inject(Injection::at("ckpt.neighbor.copy", rescue, 1, stall))
        .inject(Injection::at("ckpt.neighbor.copy", rescue, 2, stall));
    let faulty = run_job(Arc::new(gen), workers, 4, iters, 1, false, schedule);
    let mut killed = faulty.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, rescue]);
    assert_bitwise(&summaries(&clean, workers), &summaries(&faulty, workers), "second rescue");
    let (_, resumes) = replays_and_resumes(&faulty);
    assert_eq!(resumes, vec![kill; 2 * workers as usize], "two recoveries, both at the kill");
}

/// Graphene whose third generation of `row` holds until `until_dead` has
/// died. With `row` the last of a victim's chunk, that is its first
/// rescue's assembly (setup generated the row for the victim's needed
/// columns and for its chunk), held to its end: the chunk is still
/// assembling when `until_dead` dies.
struct HeldRow {
    inner: Graphene,
    row: u64,
    calls: AtomicU64,
    fault: Arc<FaultPlane>,
    until_dead: Rank,
    /// Set when the held generation returns: whether `until_dead` had died.
    released: OnceLock<bool>,
}

impl RowGen for HeldRow {
    fn dim(&self) -> u64 {
        self.inner.dim()
    }

    fn max_row_entries(&self) -> usize {
        self.inner.max_row_entries()
    }

    fn row(&self, row: u64, out: &mut Vec<RowEntry>) {
        if row == self.row && self.calls.fetch_add(1, Ordering::SeqCst) == 2 {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.fault.is_alive(self.until_dead) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = self.released.set(!self.fault.is_alive(self.until_dead));
        }
        self.inner.row(row, out);
    }
}

/// The rescue of app rank 1 in [`run_held`]'s layout.
fn first_rescue() -> Rank {
    RecoveryPlan::initial().after_failures(&WorldLayout::new(4, 4), &[1], None).rescues[0]
}

/// The `ft_lanczos` job of [`run_job`] (4 workers, 4 spares, a commit
/// every 10 of 60 steps) on a 6 × 5 sheet whose app rank 1 is killed at
/// step 35, with the first rescue's chunk held until `until_dead` dies.
fn run_held(
    until_dead: Rank,
    schedule: FaultSchedule,
) -> (JobReport<LanczosSummary>, Arc<HeldRow>) {
    let layout = WorldLayout::new(4, 4);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let gen = Arc::new(HeldRow {
        inner: Graphene::new(6, 5).with_nnn(-0.1),
        row: 29, // the last of app rank 1's rows 15..30
        calls: AtomicU64::new(0),
        fault: world.fault(),
        until_dead,
        released: OnceLock::new(),
    });
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(60)
        .abandon(Duration::from_secs(30))
        .build()
        .unwrap();
    let app_cfg = Arc::new(FtLanczosConfig {
        pfs: Some(Pfs::new(PfsConfig::instant())),
        ..FtLanczosConfig::fixed_iters(Arc::clone(&gen) as Arc<dyn RowGen>)
    });
    let schedule = schedule.kill_rank_at_iteration(1, 35);
    let report =
        run_ft_job(&world, cfg, schedule, move |ctx| FtLanczos::new(ctx, Arc::clone(&app_cfg)));
    (report, gen)
}

/// A survivor lost while the first rescue's chunk still assembles: the
/// rescue's first allreduce, the vote of its restore, kills app rank 3, and
/// its helper holds the chunk until then. The next recovery restores both
/// rescues, and the first one's replay waits for its chunk — exactly.
#[test]
fn a_survivor_lost_while_the_rescues_chunk_assembles_is_recovered_exactly() {
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let clean = run_job(Arc::new(gen), 4, 4, 60, 10, false, FaultSchedule::none());
    let kill_3 = Injection::at("gaspi.allreduce", first_rescue(), 1, FaultAction::KillRank(3));
    let (faulty, held) = run_held(3, FaultSchedule::none().inject(kill_3));
    assert_eq!(faulty.killed(), vec![1, 3]);
    assert_eq!(held.released.get(), Some(&true), "the chunk assembled past the second kill");
    assert_bitwise(&summaries(&clean, 4), &summaries(&faulty, 4), "survivor lost");
}

/// The rescue itself lost in its restore vote, before anything waited for
/// its chunk: its helper, detached, runs on past its rank's death without
/// touching it, and the next rescue recovers the job — exactly.
#[test]
fn a_rescue_lost_before_its_chunk_is_used_leaves_a_harmless_helper() {
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let clean = run_job(Arc::new(gen), 4, 4, 60, 10, false, FaultSchedule::none());
    let rescue = first_rescue();
    let kill_rescue = Injection::kill("gaspi.allreduce", rescue, 1);
    let (faulty, held) = run_held(rescue, FaultSchedule::none().inject(kill_rescue));
    let mut killed = faulty.killed();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, rescue]);
    assert_bitwise(&summaries(&clean, 4), &summaries(&faulty, 4), "rescue lost");
    let deadline = Instant::now() + Duration::from_secs(5);
    while held.released.get().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(held.released.get(), Some(&true), "the detached helper ran past its rank");
}

/// [`FtLanczos`] with one rank stalled for 20 ms at the top of one step.
struct Stalled {
    inner: FtLanczos,
    rank: Rank,
    iter: u64,
}

impl FtApp for Stalled {
    type Summary = LanczosSummary;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.inner.setup(ctx)
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.inner.join_as_rescue(ctx)
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        if (ctx.proc.rank(), iter) == (self.rank, self.iter) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.inner.step(ctx, iter)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        self.inner.state_stream()
    }

    fn export_state(&self, ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        self.inner.export_state(ctx, iter)
    }

    fn load_state(&mut self, ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        self.inner.load_state(ctx, data)
    }

    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.inner.reset_state(ctx)
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.inner.rewire(ctx, plan)
    }

    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<LanczosSummary> {
        self.inner.finalize(ctx)
    }
}

/// Detection does not wait for the next scan when the victim dies at the
/// top of a step: its partners post their share of `A·v` to it and park
/// in the step's allreduce, and the broken write, on the halo queue, ends
/// that park and reports the victim. App rank 1 stalls 20 ms before its
/// post, so that post finds app rank 2 dead.
#[test]
fn a_dead_partner_is_detected_from_inside_the_allreduce() {
    let gen: Arc<dyn RowGen> = Arc::new(Graphene::new(6, 5).with_nnn(-0.1));
    let clean = run_job(Arc::clone(&gen), 4, 3, 60, 10, false, FaultSchedule::none());
    let layout = WorldLayout::new(4, 3);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(60)
        .abandon(Duration::from_secs(20))
        .detector(DetectorConfig { scan_interval: Duration::from_secs(2), ..Default::default() })
        .build()
        .unwrap();
    let app_cfg = Arc::new(FtLanczosConfig {
        pfs: Some(Pfs::new(PfsConfig::instant())),
        ..FtLanczosConfig::fixed_iters(gen)
    });
    let schedule = FaultSchedule::none().kill_rank_at_iteration(2, 25);
    let report = run_ft_job(&world, cfg, schedule, move |ctx| Stalled {
        inner: FtLanczos::new(ctx, Arc::clone(&app_cfg)),
        rank: 1,
        iter: 25,
    });
    assert_eq!(report.killed(), vec![2]);
    assert_bitwise(&summaries(&clean, 4), &summaries(&report, 4), "partner detected");
    let at = |f: fn(&EventKind) -> bool| report.events.first_where(|e| f(&e.kind)).map(|e| e.t);
    let killed = at(|k| matches!(k, EventKind::KillFired { .. })).expect("the kill fired");
    let detected = at(|k| matches!(k, EventKind::FdDetect { .. })).expect("the kill was detected");
    let took = detected.saturating_sub(killed);
    assert!(took < Duration::from_millis(200), "detected {took:?} after the kill");
}
