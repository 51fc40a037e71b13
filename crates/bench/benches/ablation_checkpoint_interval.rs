//! **Ablation (paper §VI discussion)** — checkpoint-interval sweep.
//!
//! "The redo-work time constitutes a major part of the total overhead.
//! The average time for redo-work is the time between two successive
//! checkpoints. Owing to a good checkpoint strategy with very low
//! overhead, the checkpoint frequency can be increased which will lead to
//! the reduction of redo-work time."
//!
//! This sweep runs the FT-Lanczos with one injected failure at a fixed
//! iteration under different checkpoint intervals and shows redo-work
//! shrinking with the interval while the failure-free checkpoint cost
//! stays negligible.
//!
//! Run: `cargo bench -p ft-bench --bench ablation_checkpoint_interval`

use ft_bench::scenario::{run_scenario, Kills, Scenario, Workload};
use ft_bench::table::Table;

fn main() {
    let intervals = [25u64, 50, 100, 200, 300];
    let kill_iter = 555; // fixed failure point, redo = kill_iter % interval
    let w = Workload::default();
    println!(
        "Checkpoint-interval sweep: {} workers, {} iterations, kill at iteration {kill_iter}\n",
        w.workers, w.iters
    );

    let mut t =
        Table::new(&["interval", "total", "redo-work", "re-init", "detect", "expected redo iters"]);
    let mut redos = Vec::new();
    for &interval in &intervals {
        eprintln!("interval {interval} ...");
        let w = Workload { checkpoint_every: interval, ..Workload::default() };
        let sc = Scenario {
            name: "1 fail",
            health_check: true,
            checkpointing: true,
            kills: Kills::AtIterations(vec![(2, kill_iter)]),
        };
        let r = run_scenario(&w, &sc);
        assert!(r.consistent, "run with interval {interval} must stay consistent");
        t.row(vec![
            interval.to_string(),
            format!("{:.3}s", r.total.as_secs_f64()),
            format!("{:.3}s", r.redo.as_secs_f64()),
            format!("{:.3}s", r.reinit.as_secs_f64()),
            format!("{:.3}s", r.detect.as_secs_f64()),
            (kill_iter % interval).to_string(),
        ]);
        redos.push(r.redo);
    }
    println!("{}", t.render());
    println!("paper: redo-work ≈ time since the last checkpoint; denser checkpoints shrink it");

    // Shape: redo at the densest interval is below redo at the sparsest.
    let densest = redos.first().unwrap();
    let sparsest = redos.last().unwrap();
    assert!(
        densest < sparsest,
        "denser checkpoints must reduce redo-work: {densest:?} vs {sparsest:?}"
    );
}
