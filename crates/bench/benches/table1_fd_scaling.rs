//! **Table I** — "The average ping scan time of the FD process and the
//! failure detection time (and standard deviation using 10 runs) with
//! respect to the number of nodes."
//!
//! Paper values (256-node cluster, 3 s scan interval, ~1 ms/ping):
//!
//! | nodes              |     8 |    16 |    32 |    64 |   128 |   256 |
//! |--------------------|-------|-------|-------|-------|-------|-------|
//! | avg ping scan [s]  | 0.010 | 0.018 | 0.036 | 0.067 | 0.129 | 0.255 |
//! | detect + ack [s]   | 4.9   | 5.3   | 5.5   | 4.3   | 5.7   | 5.3   |
//!
//! Shape: scan time grows ~linearly with the node count; detection+ack is
//! roughly flat (dominated by scan-interval/2 + scan + ack). The same
//! must hold on the simulated cluster at its scaled clock.
//!
//! This harness extends the sweep past the paper's 256-node cluster to
//! 4096 ranks (the sharded transport's design point) and adds a third
//! measured column: the production epoch-batched scan (`glo_health_chk_graced`,
//! one fan-out posting per scan instead of one blocking round trip per
//! node). The sequential scan stays the paper-faithful Listing 1 loop and
//! must stay ~linear; the batched scan overlaps all pings in flight and
//! grows far slower. Sizes past 256 have no paper reference values and
//! print "—" in those columns.
//!
//! Run: `cargo bench -p ft-bench --bench table1_fd_scaling`
//! Environment: `T1_RUNS` (default 10), `T1_MAX_NODES` (default 4096),
//! `T1_MAX_DETECT_NODES` (default 64).

use std::time::Duration;

use ft_bench::fdscale::{measure_detection, measure_scan_with};
use ft_bench::stats::{fmt_mean_std, mean};
use ft_bench::table::Table;
use ft_telemetry::Json;

fn main() {
    let runs: usize = std::env::var("T1_RUNS").ok().and_then(|s| s.parse().ok()).unwrap_or(10);
    let max_nodes: u32 =
        std::env::var("T1_MAX_NODES").ok().and_then(|s| s.parse().ok()).unwrap_or(4096);
    // Detection runs spin up a full FT job per sample (N+2 live rank
    // threads each); cap their sweep separately so the harness stays
    // tractable on small machines. The scan sweep — the paper's linear
    // claim, now extended to 4096 — always goes to `max_nodes`.
    let max_detect: u32 =
        std::env::var("T1_MAX_DETECT_NODES").ok().and_then(|s| s.parse().ok()).unwrap_or(64);
    let scan_interval = Duration::from_millis(30); // paper: 3 s (scaled 100×)
    let sizes: Vec<u32> = [8u32, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        .into_iter()
        .filter(|&n| n <= max_nodes)
        .collect();

    println!(
        "Table I on the simulated cluster: {runs} runs per point, scan interval {scan_interval:?} (paper: 3 s)\n"
    );
    let mut t = Table::new(&[
        "num. of nodes",
        "avg ping scan time",
        "batched scan time",
        "failure detect + ack time",
        "paper scan[s]",
        "paper detect[s]",
    ]);
    // Reference values exist only for the paper's 8..256 sweep; larger
    // sizes index past these arrays and print "—".
    let paper_scan = [0.010, 0.018, 0.036, 0.067, 0.129, 0.255];
    let paper_det = [4.9, 5.3, 5.5, 4.3, 5.7, 5.3];
    let mut scan_means = Vec::new();
    let mut batched_means = Vec::new();
    let mut det_means = Vec::new();
    let mut json_rows = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        eprintln!("measuring {n} nodes ...");
        let scans = measure_scan_with(n, runs, 7 + u64::from(n), false);
        let batched = measure_scan_with(n, runs, 7 + u64::from(n), true);
        let dets = if n <= max_detect {
            let dets = measure_detection(n, runs, scan_interval, 1000 + u64::from(n));
            assert!(
                dets.len() * 10 >= runs * 8,
                "at least 80% of detection runs must observe the failure ({}/{runs})",
                dets.len()
            );
            dets
        } else {
            Vec::new()
        };
        scan_means.push(mean(&scans));
        batched_means.push(mean(&batched));
        if !dets.is_empty() {
            det_means.push(mean(&dets));
        }
        t.row(vec![
            n.to_string(),
            fmt_mean_std(&scans),
            fmt_mean_std(&batched),
            if dets.is_empty() {
                "(skipped, see T1_MAX_DETECT_NODES)".into()
            } else {
                fmt_mean_std(&dets)
            },
            paper_scan.get(i).map_or_else(|| "—".into(), |v| format!("{v:.3}")),
            paper_det.get(i).map_or_else(|| "—".into(), |v| format!("{v:.1}")),
        ]);
        json_rows.push(Json::obj([
            ("nodes", Json::num_u64(u64::from(n))),
            ("scan_mean_s", Json::Num(mean(&scans).as_secs_f64())),
            ("scan_batched_mean_s", Json::Num(mean(&batched).as_secs_f64())),
            (
                "detect_ack_mean_s",
                if dets.is_empty() { Json::Null } else { Json::Num(mean(&dets).as_secs_f64()) },
            ),
            ("detect_runs", Json::num_u64(dets.len() as u64)),
        ]));
    }
    println!("{}", t.render());

    // Machine-readable Table I (detection latencies come from the
    // telemetry reporter's epoch timelines, see `fdscale`).
    let doc = Json::obj([("rows", Json::Arr(json_rows))]);
    ft_bench::report::write_report("table1_fd_scaling.json", &doc);

    // ---- shape checks -------------------------------------------------
    if sizes.len() >= 3 {
        let first = scan_means[0].as_secs_f64();
        let last = scan_means[scan_means.len() - 1].as_secs_f64();
        let factor = last / first;
        let nodes_factor = f64::from(sizes[sizes.len() - 1]) / f64::from(sizes[0]);
        println!(
            "shape checks:\n  scan time grew {factor:.1}× over a {nodes_factor:.0}× node increase (paper: ~linear, 25×)"
        );
        let dmin = det_means.iter().map(|d| d.as_secs_f64()).fold(f64::MAX, f64::min);
        let dmax = det_means.iter().map(|d| d.as_secs_f64()).fold(0.0, f64::max);
        println!(
            "  detection+ack spread: {:.3}s .. {:.3}s (paper: flat, 4.3–5.7 s at 3 s interval)",
            dmin, dmax
        );
        assert!(factor > nodes_factor / 4.0, "scan time must grow with node count");
        assert!(
            dmax < 20.0 * dmin.max(1e-3),
            "detection time must stay roughly flat across node counts"
        );
        // The batched scan overlaps every ping; at the largest size its
        // full scan must beat the sequential one-round-trip-per-node loop
        // outright (at 4096 ranks the gap is ~two orders of magnitude).
        if *sizes.last().unwrap() >= 256 {
            let bat_last = batched_means[batched_means.len() - 1].as_secs_f64();
            println!(
                "  batched scan at {} nodes: {bat_last:.4}s vs sequential {last:.4}s ({:.1}× faster)",
                sizes.last().unwrap(),
                last / bat_last.max(1e-9),
            );
            assert!(
                bat_last < last,
                "batched scan must beat the sequential loop at scale: {bat_last:.4}s vs {last:.4}s"
            );
        }
    }
}
