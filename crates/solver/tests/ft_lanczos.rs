//! End-to-end tests of the fault-tolerant Lanczos application.

use std::sync::Arc;

use ft_checkpoint::{Pfs, PfsConfig};
use ft_cluster::{FaultAction, FaultSchedule};
use ft_core::{run_ft_job, EventKind, FtConfig, JobReport, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld};
use ft_matgen::graphene::Graphene;
use ft_matgen::spectra::{Diagonal, ToeplitzTridiag};
use ft_matgen::RowGen;
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
    let gen = Graphene::new(6, 5).with_nnn(-0.1);
    let iters = 400;
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

#[test]
fn convergence_check_stops_early_and_agrees() {
    let gen = Diagonal::new((0..64).map(f64::from).collect());
    let layout = WorldLayout::new(4, 1);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout).checkpoint_every(10).max_iters(64).build().unwrap();
    let app_cfg = Arc::new(FtLanczosConfig {
        conv_check_every: 5,
        conv_tol: 1e-9,
        ..FtLanczosConfig::fixed_iters(Arc::new(gen))
    });
    let report = run_ft_job(&world, cfg, FaultSchedule::none(), move |ctx| {
        FtLanczos::new(ctx, Arc::clone(&app_cfg))
    });
    let s = summaries(&report, 4);
    // All ranks stopped at the same iteration, before the cap.
    assert!(s.iter().all(|x| x.iters == s[0].iters));
    assert!(s[0].iters < 64, "convergence should stop early, got {}", s[0].iters);
}
