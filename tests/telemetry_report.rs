//! End-to-end telemetry: run a miniature Fig. 4 failure scenario and
//! assert that the produced JSON overhead report is complete — the
//! schema tag, the OHF1/OHF2/OHF3 decomposition, redo time, the epoch
//! timeline, scan statistics, and all three counter families.

use ft_bench::scenario::{run_scenario, Kills, Scenario, Workload};
use ft_telemetry::Json;

#[test]
fn fig4_scenario_produces_schema_complete_json_report() {
    let w = Workload {
        workers: 4,
        spares: 2,
        lx: 8,
        ly: 4,
        iters: 60,
        checkpoint_every: 20,
        ..Workload::default()
    };
    let sc = Scenario {
        name: "1 fail",
        health_check: true,
        checkpointing: true,
        kills: Kills::AtIterations(vec![(1, 45)]),
    };
    let result = run_scenario(&w, &sc);
    assert!(result.consistent, "the scenario must complete consistently");
    assert_eq!(result.recoveries, 1);

    let text = result.telemetry.to_json_string();
    let json = Json::parse(&text).expect("report must be valid JSON");

    // Schema tag.
    assert_eq!(json.get("schema").and_then(Json::as_str), Some(ft_telemetry::report::SCHEMA));

    // The decomposition: all four components present, identity holds.
    let num = |k: &str| {
        json.get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("report must carry a numeric `{k}`"))
    };
    let total = num("total_s");
    let compute = num("compute_s");
    let ohf1 = num("ohf1_detect_s");
    let ohf2 = num("ohf2_rebuild_s");
    let ohf3 = num("ohf3_restore_s");
    let reinit = num("reinit_s");
    let redo = num("redo_s");
    assert!(total > 0.0);
    assert!(ohf1 > 0.0, "a killed rank must cost detection time");
    assert!(redo > 0.0, "redo-work must be visible");
    assert!((ohf2 + ohf3 - reinit).abs() < 1e-9, "OHF2 + OHF3 must equal re-init");
    assert!(
        (compute + ohf1 + reinit + redo - total).abs() < 1e-9,
        "decomposition must sum to the total"
    );

    // One recovery epoch with its full timeline.
    let epochs = json.get("epochs").and_then(Json::as_arr).expect("epochs array");
    assert_eq!(epochs.len(), 1);
    for key in ["epoch", "t_kill_s", "t_signal_s", "t_restored_s", "ohf1_s", "redo_s"] {
        assert!(epochs[0].get(key).is_some(), "epoch timeline must carry `{key}`");
    }

    // Scan statistics (the health check was on).
    let scan = json.get("scan").expect("scan stats");
    assert!(scan.get("scans").and_then(Json::as_u64).unwrap() > 0);
    assert!(scan.get("mean_s").and_then(Json::as_f64).unwrap() > 0.0);

    // Counter registry: all three families, with activity where the
    // scenario guarantees it.
    let counters = json.get("counters").expect("counter registry");
    let fam = |f: &str, k: &str| {
        counters
            .get(f)
            .and_then(|v| v.get(k))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("counters must carry `{f}.{k}`"))
    };
    assert!(fam("transport", "msg_posted") > 0);
    assert!(fam("transport", "pings") > 0, "the FD must have pinged");
    assert!(fam("gaspi", "notifications_posted") > 0, "halo exchange posts notifications");
    assert!(fam("gaspi", "group_commits") > 0, "recovery rebuilds the group");
    assert!(fam("checkpoint", "local_writes") > 0, "checkpoints were written");
    assert!(fam("checkpoint", "restore_bytes") > 0, "the recovery restored state");

    // Degraded-mode flags present and quiet in this scenario.
    assert_eq!(json.get("fd_promoted").and_then(Json::as_bool), Some(false));
    assert_eq!(json.get("capacity_exhausted").and_then(Json::as_bool), Some(false));
}
