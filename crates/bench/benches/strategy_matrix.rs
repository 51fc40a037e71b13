//! **Strategy matrix** — the Fig. 4 overhead decomposition (OHF1
//! detection, OHF2 group rebuild, OHF3 restore, redo-work) measured
//! under all three recovery strategies on identical kill schedules:
//! checkpoint/restart (the paper's model), ABFT checksum reconstruction,
//! and hot-standby replication.
//!
//! The interesting contrast is *where the failure cost goes*. C/R pays
//! on failure: rollback to the last interval checkpoint plus redo of the
//! lost work. ABFT and replication pay per step (a parity allreduce, a
//! replica push) and resume at the failure frontier — their redo column
//! is structurally zero.
//!
//! Run: `cargo bench -p ft-bench --bench strategy_matrix`
//! Environment: `FT_MATRIX_SMOKE=1` shrinks the workload to CI size.
//!
//! Output: `target/telemetry/strategy_matrix.json`, schema
//! `gaspi-ft/strategy-matrix/v1`.

use std::time::Duration;

use ft_bench::scenario::{run_scenario, Kills, Scenario, ScenarioResult, Workload};
use ft_bench::table::Table;
use ft_core::StrategyKind;
use ft_telemetry::Json;

/// Schema tag of the emitted report.
const SCHEMA: &str = "gaspi-ft/strategy-matrix/v1";

const STRATEGIES: [StrategyKind; 3] =
    [StrategyKind::CheckpointRestart, StrategyKind::Abft, StrategyKind::Replicated];

/// The shared scenario set: failure-free, one mid-interval kill, two
/// sequential kills. Kill placement follows the Fig. 4 methodology —
/// 60 % of an interval past a checkpoint, so C/R's redo-work is
/// deterministic and maximally visible.
fn matrix_scenarios(w: &Workload) -> Vec<Scenario> {
    let iv = w.checkpoint_every;
    let kill_after = |ckpt_no: u64| ckpt_no * iv + (6 * iv) / 10;
    vec![
        Scenario {
            name: "failure-free",
            health_check: true,
            checkpointing: true,
            kills: Kills::None,
        },
        Scenario {
            name: "1 fail",
            health_check: true,
            checkpointing: true,
            kills: Kills::AtIterations(vec![(1, kill_after(1))]),
        },
        Scenario {
            name: "2 fail",
            health_check: true,
            checkpointing: true,
            kills: Kills::AtIterations(vec![(1, kill_after(1)), (2, kill_after(2))]),
        },
    ]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn row_json(strategy: StrategyKind, r: &ScenarioResult) -> Json {
    Json::obj([
        ("strategy", Json::Str(strategy.name().to_string())),
        ("scenario", Json::Str(r.name.to_string())),
        ("total_ms", Json::Num(ms(r.total))),
        ("compute_ms", Json::Num(ms(r.compute))),
        ("ohf1_detect_ms", Json::Num(ms(r.detect))),
        ("ohf2_rebuild_ms", Json::Num(ms(r.telemetry.rebuild()))),
        ("ohf3_restore_ms", Json::Num(ms(r.telemetry.restore()))),
        ("redo_ms", Json::Num(ms(r.redo))),
        ("redo_epochs", Json::num_u64(r.telemetry.redo_epochs() as u64)),
        ("recoveries", Json::num_u64(r.recoveries as u64)),
        ("failures", Json::num_u64(r.failures as u64)),
        ("consistent", Json::Bool(r.consistent)),
    ])
}

fn main() {
    let smoke = std::env::var_os("FT_MATRIX_SMOKE").is_some();
    let base = if smoke {
        Workload {
            workers: 4,
            spares: 3,
            lx: 8,
            ly: 4,
            iters: 120,
            checkpoint_every: 40,
            scan_interval: Duration::from_millis(5),
            ..Workload::default()
        }
    } else {
        Workload::default()
    };
    println!(
        "Strategy matrix: FT-Lanczos on {} workers + {} spares, graphene {}x{} ({} rows), {} iterations, checkpoint every {}{}\n",
        base.workers,
        base.spares,
        base.lx,
        base.ly,
        2 * base.lx * base.ly,
        base.iters,
        base.checkpoint_every,
        if smoke { " [smoke]" } else { "" },
    );

    let mut t = Table::new(&[
        "strategy",
        "scenario",
        "total",
        "OHF1 detect",
        "OHF2 rebuild",
        "OHF3 restore",
        "redo",
        "redo epochs",
        "consistent",
    ]);
    let mut rows = Vec::new();
    for strategy in STRATEGIES {
        let w = Workload { strategy, ..base.clone() };
        for sc in matrix_scenarios(&w) {
            eprintln!("running: {} / {} ...", strategy.name(), sc.name);
            let r = run_scenario(&w, &sc);
            t.row(vec![
                strategy.name().to_string(),
                r.name.to_string(),
                format!("{:.3}s", r.total.as_secs_f64()),
                format!("{:.1}ms", ms(r.detect)),
                format!("{:.1}ms", ms(r.telemetry.rebuild())),
                format!("{:.1}ms", ms(r.telemetry.restore())),
                format!("{:.1}ms", ms(r.redo)),
                r.telemetry.redo_epochs().to_string(),
                r.consistent.to_string(),
            ]);
            rows.push((strategy, r));
        }
    }
    println!("{}", t.render());

    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        (
            "workload",
            Json::obj([
                ("workers", Json::num_u64(u64::from(base.workers))),
                ("spares", Json::num_u64(u64::from(base.spares))),
                ("rows", Json::num_u64(2 * base.lx * base.ly)),
                ("iters", Json::num_u64(base.iters)),
                ("checkpoint_every", Json::num_u64(base.checkpoint_every)),
                ("smoke", Json::Bool(smoke)),
            ]),
        ),
        ("rows", Json::Arr(rows.iter().map(|(s, r)| row_json(*s, r)).collect())),
    ]);
    ft_bench::report::write_report("strategy_matrix.json", &doc);

    // ---- shape checks -------------------------------------------------
    assert!(rows.iter().all(|(_, r)| r.consistent), "every cell must end consistent");
    for (s, r) in &rows {
        if *s != StrategyKind::CheckpointRestart && r.failures > 0 {
            assert_eq!(
                r.telemetry.redo_epochs(),
                0,
                "{}/{}: frontier recovery must not redo work",
                s.name(),
                r.name
            );
        }
    }
    let cell = |s: StrategyKind, name: &str| {
        rows.iter().find(|(x, r)| *x == s && r.name == name).map(|(_, r)| r).unwrap()
    };
    let cr = cell(StrategyKind::CheckpointRestart, "1 fail");
    let rep = cell(StrategyKind::Replicated, "1 fail");
    let abft = cell(StrategyKind::Abft, "1 fail");
    println!("shape checks:");
    println!(
        "  1-fail failure cost (OHF3 + redo): C/R {:.1}ms, ABFT {:.1}ms, replication {:.1}ms",
        ms(cr.telemetry.restore() + cr.redo),
        ms(abft.telemetry.restore() + abft.redo),
        ms(rep.telemetry.restore() + rep.redo),
    );
    println!(
        "  1-fail steady-state (compute): C/R {:.3}s, ABFT {:.3}s, replication {:.3}s",
        cr.compute.as_secs_f64(),
        abft.compute.as_secs_f64(),
        rep.compute.as_secs_f64(),
    );
    assert!(cr.redo > Duration::ZERO, "C/R must show redo-work after a mid-interval kill");
}
