//! The paper's `kill -9` experiment on the **process backend**: the same
//! fault-tolerant Lanczos eigensolver as the `ft_lanczos` example, but
//! every rank is a real OS process speaking GASPI over TCP, and the
//! failure is a genuine `SIGKILL` delivered by the supervisor while the
//! solve is in flight.
//!
//! Three runs, one punchline:
//!
//! 1. **in-memory baseline** — the simulator backend, failure-free;
//! 2. **process, failure-free** — same job across real rank processes;
//! 3. **process, SIGKILL** — a worker process is killed mid-solve; the
//!    detector notices, a spare is activated, the group rebuilds, state
//!    restores from neighbor checkpoints, and the job completes.
//!
//! All three α/β histories must match **bit for bit** — the transport
//! seam changes how bytes move and how processes die, never the numbers.
//!
//! Run: `cargo run --release --example process_lanczos`
//! (it re-executes itself as the rank children). The SIGKILL lands at half
//! the measured failure-free process wall time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gaspi_ft::cluster::{CodecError, Enc, FaultAction, FaultSchedule, Wire};
use gaspi_ft::core::process::{run_supervisor, SupervisorConfig};
use gaspi_ft::core::{
    child_env, run_child, run_ft_job, EventKind, FtConfig, ProcOutcome, WorldLayout,
};
use gaspi_ft::gaspi::{GaspiConfig, GaspiWorld, Timeout};
use gaspi_ft::matgen::graphene::Graphene;
use gaspi_ft::solver::ft_lanczos::{FtLanczos, FtLanczosConfig, LanczosSummary};

const WORKERS: u32 = 4;
const SPARES: u32 = 2; // one rescue + the fault detector
const VICTIM: u32 = 2;
const MAX_ITERS: u64 = 3000;
const CHECKPOINT_EVERY: u64 = 150;

/// The world every participant builds from scratch: supervisor
/// bookkeeping, the in-memory baseline, and each rank child must agree
/// bit for bit.
fn world_cfg() -> (FtConfig, GaspiConfig) {
    let layout = WorldLayout::new(WORKERS, SPARES);
    let ft = FtConfig::builder(layout)
        .max_iters(MAX_ITERS)
        .checkpoint_every(CHECKPOINT_EVERY)
        .abandon(Duration::from_secs(30))
        .detector(ft_core::DetectorConfig {
            scan_interval: Duration::from_millis(5),
            ping_timeout: Timeout::Ms(60),
            ack_timeout: Timeout::Ms(500),
            ..Default::default()
        })
        .build()
        .expect("example config must validate");
    let gaspi = GaspiConfig::deterministic(layout.total()).with_seed(7);
    (ft, gaspi)
}

fn app_cfg() -> Arc<FtLanczosConfig> {
    let gen = Graphene::new(32, 24).with_nnn(-0.1); // 1536 sites
    Arc::new(FtLanczosConfig::fixed_iters(Arc::new(gen)))
}

/// Wire format for a child's final summary, the layout of
/// `(u64, (Vec<f64>, Vec<f64>))`: iters, then the α and β histories as
/// little-endian f64 — exactly the bits the parity check compares.
fn encode_summary(s: &LanczosSummary) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(s.iters).f64s(&s.alphas).f64s(&s.betas);
    e.finish()
}

/// Read a child's summary. The bytes come from another process.
fn decode_summary(b: &[u8]) -> Result<Summary, CodecError> {
    let (iters, (alphas, betas)) = Wire::from_bytes(b)?;
    Ok((iters, alphas, betas))
}

/// Decoded child summary: iteration count plus the α and β histories.
type Summary = (u64, Vec<f64>, Vec<f64>);

/// Run one job over the process backend and return per-app-rank decoded
/// summaries plus the report.
fn run_process(
    schedule: FaultSchedule,
    label: &str,
) -> (Vec<(u32, Summary)>, gaspi_ft::core::process::ProcJobReport, Duration) {
    let (ft, _) = world_cfg();
    println!("== {label} ==");
    let t0 = Instant::now();
    let sup =
        SupervisorConfig::new(ft.layout.total(), schedule).with_deadline(Duration::from_secs(120));
    let report = run_supervisor(sup).expect("process job supervisor");
    let elapsed = t0.elapsed();
    println!("  wall time: {elapsed:?}");
    let summaries = report
        .worker_summaries()
        .into_iter()
        .map(|(app, bytes)| {
            let s = decode_summary(bytes)
                .unwrap_or_else(|e| panic!("app rank {app}: malformed summary: {e}"));
            (app, s)
        })
        .collect();
    (summaries, report, elapsed)
}

fn main() {
    // ---- child hook: a supervised rank process diverts here ----------
    if let Some(env) = child_env() {
        let (ft, gaspi) = world_cfg();
        let cfg = app_cfg();
        std::process::exit(run_child(
            env,
            ft,
            gaspi,
            move |ctx| FtLanczos::new(ctx, Arc::clone(&cfg)),
            encode_summary,
        ));
    }

    // ---- 1. in-memory baseline --------------------------------------
    let (ft, gaspi) = world_cfg();
    println!("== in-memory baseline ({WORKERS} workers, simulator backend) ==");
    let t0 = Instant::now();
    let world = GaspiWorld::new(gaspi);
    let cfg = app_cfg();
    let baseline = run_ft_job(&world, ft, FaultSchedule::none(), move |ctx| {
        FtLanczos::new(ctx, Arc::clone(&cfg))
    });
    println!("  wall time: {:?}", t0.elapsed());
    let base_s = baseline.worker_summaries();
    assert_eq!(base_s.len(), WORKERS as usize, "baseline must complete every app rank");
    let (ref_alphas, ref_betas) = (&base_s[0].1.alphas, &base_s[0].1.betas);
    println!(
        "  {} workers x {} iterations; lowest eigenvalue {:.12}",
        base_s.len(),
        base_s[0].1.iters,
        base_s[0].1.eigenvalues[0]
    );

    // ---- 2. process backend, failure-free ---------------------------
    let (clean, _, clean_wall) = run_process(
        FaultSchedule::none(),
        "process backend, failure-free (real rank processes over TCP)",
    );
    assert_eq!(clean.len(), WORKERS as usize, "clean process run must complete every app rank");
    for (app, (_, alphas, betas)) in &clean {
        assert_eq!((alphas, betas), (ref_alphas, ref_betas), "app rank {app}: α/β mismatch");
    }
    println!("  α/β identical to in-memory baseline: yes (bit for bit)");

    // ---- 3. process backend, SIGKILL mid-solve ----------------------
    let kill_at = clean_wall / 2;
    let schedule = FaultSchedule::none().timed(kill_at, FaultAction::KillRank(VICTIM));
    let (healed, report, _) =
        run_process(schedule, &format!("process backend, SIGKILL rank {VICTIM} at {kill_at:?}"));
    assert!(
        matches!(report.outcomes[VICTIM as usize], ProcOutcome::Killed { by_signal: true }),
        "victim must die by SIGKILL, got {:?}",
        report.outcomes[VICTIM as usize]
    );
    let count = |pred: fn(&EventKind) -> bool| report.events.all_where(|e| pred(&e.kind)).len();
    println!(
        "  victim SIGKILLed; {} FdDetect / {} GroupRebuilt / {} Restored events",
        count(|k| matches!(k, EventKind::FdDetect { .. })),
        count(|k| matches!(k, EventKind::GroupRebuilt { .. })),
        count(|k| matches!(k, EventKind::Restored { .. })),
    );
    assert_eq!(healed.len(), WORKERS as usize, "healed run must complete every app rank");
    for (app, (_, alphas, betas)) in &healed {
        assert_eq!((alphas, betas), (ref_alphas, ref_betas), "app rank {app}: α/β mismatch");
    }

    // ---- the punchline ----------------------------------------------
    println!(
        "\nα/β histories — in-memory vs process vs process+SIGKILL: \
         IDENTICAL (bit for bit) across {} real rank processes",
        world_cfg().0.layout.total()
    );
    println!("lowest eigenvalue (all runs): {:.12}", base_s[0].1.eigenvalues[0]);
}
