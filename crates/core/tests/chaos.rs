//! Chaos test: seeded random failure storms against the full recovery
//! stack. Any number of ranks — workers, idles, even the FD — may die at
//! random times. The contract under test:
//!
//! * the job never hangs (bounded by the abandon policy);
//! * if every application rank reports a summary, the results are the
//!   deterministic ground truth (no silent corruption, ever);
//! * otherwise the degradation is clean: failures exceeded what the
//!   spare pool / detector redundancy could absorb, and surviving ranks
//!   report errors instead of wrong numbers.

mod common;

use std::time::Duration;

use common::{expected_acc, Acc};
use ft_cluster::{FaultAction, FaultSchedule};
use ft_core::{run_ft_job, Event, EventKind, FtConfig, JobReport, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld};

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn storm(seed: u64) {
    let mut z = seed;
    let workers = 3 + (splitmix(&mut z) % 3) as u32; // 3..=5
    let spares = 2 + (splitmix(&mut z) % 3) as u32; // 2..=4
    let kills = 1 + (splitmix(&mut z) % 4) as usize; // 1..=4
    let redundant = splitmix(&mut z).is_multiple_of(2);
    let layout = WorldLayout::new(workers, spares);
    let total = layout.total();

    let mut schedule = FaultSchedule::none();
    let mut victims = Vec::new();
    for _ in 0..kills {
        let victim = (splitmix(&mut z) % u64::from(total)) as u32;
        if victims.contains(&victim) {
            continue;
        }
        victims.push(victim);
        let at = Duration::from_millis(10 + splitmix(&mut z) % 140);
        schedule = schedule.timed(at, FaultAction::KillRank(victim));
    }

    let world = GaspiWorld::new(GaspiConfig::deterministic(total).with_seed(seed));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(10)
        .max_iters(600)
        .redundant_fd(redundant && spares >= 2)
        .abandon(Duration::from_secs(5))
        .build()
        .unwrap();
    let report = run_ft_job(&world, cfg, schedule, Acc::new);

    let summaries = report.worker_summaries();
    let expected = expected_acc(workers, 600);
    if summaries.len() == workers as usize {
        for (app, (acc, _)) in &summaries {
            assert_eq!(
                *acc, expected,
                "seed {seed}: app rank {app} produced a WRONG result (victims {victims:?})"
            );
        }
    } else {
        // Clean degradation: someone must have recorded why.
        let errored = report.completed().into_iter().filter(|r| r.error.is_some()).count();
        let killed = report.killed().len();
        assert!(
            errored + killed > 0,
            "seed {seed}: incomplete without any recorded failure (victims {victims:?})"
        );
        // And no stray *wrong* summaries either: whoever finished must
        // still be correct.
        for (app, (acc, _)) in &summaries {
            assert_eq!(
                *acc, expected,
                "seed {seed}: partial completion with corrupt result at app rank {app}"
            );
        }
    }
}

/// One `#[test]` per seed in the fixed bank: a failing seed is a stable
/// test name (`chaos_storm_seed_7`) that can be rerun and bisected
/// directly, instead of a number buried in a loop's panic message.
macro_rules! storm_matrix {
    ($($name:ident => $seed:expr),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                storm($seed);
            }
        )+
    };
}

storm_matrix! {
    chaos_storm_seed_0 => 0,
    chaos_storm_seed_1 => 1,
    chaos_storm_seed_2 => 2,
    chaos_storm_seed_3 => 3,
    chaos_storm_seed_4 => 4,
    chaos_storm_seed_5 => 5,
    chaos_storm_seed_6 => 6,
    chaos_storm_seed_7 => 7,
    chaos_storm_seed_8 => 8,
    chaos_storm_seed_9 => 9,
    chaos_storm_seed_10 => 10,
    chaos_storm_seed_11 => 11,
}

/// Storm at the sharded transport's scale: a 512-rank world (506 workers,
/// 5 idle spares + the FD) with three timed worker kills. Every rank is a
/// live thread and every step is a fault-tolerant allreduce across all
/// 506 workers, so this exercises shard contention, the stream tables,
/// and recovery re-wiring at two orders of magnitude above the seed
/// tests. Iteration count is kept small — the point is width, not depth.
/// Returns the report and the victims.
fn storm_512() -> (JobReport<(f64, u64)>, Vec<u32>) {
    let workers = 506u32;
    let layout = WorldLayout::new(workers, 6);
    let total = layout.total();
    assert_eq!(total, 512);

    let mut z = 512u64;
    let mut schedule = FaultSchedule::none();
    let mut victims = Vec::new();
    for _ in 0..3 {
        let victim = (splitmix(&mut z) % u64::from(workers)) as u32;
        if victims.contains(&victim) {
            continue;
        }
        victims.push(victim);
        let at = Duration::from_millis(20 + splitmix(&mut z) % 200);
        schedule = schedule.timed(at, FaultAction::KillRank(victim));
    }

    let world = GaspiWorld::new(GaspiConfig::deterministic(total).with_seed(512));
    let cfg = FtConfig::builder(layout)
        .checkpoint_every(5)
        .max_iters(10)
        .abandon(Duration::from_secs(60))
        .build()
        .unwrap();
    (run_ft_job(&world, cfg, schedule, Acc::new), victims)
}

#[test]
fn chaos_storm_512_ranks() {
    let (report, victims) = storm_512();
    let workers = 506;
    let summaries = report.worker_summaries();
    let expected = expected_acc(workers, 10);
    if summaries.len() == workers as usize {
        for (app, (acc, _)) in &summaries {
            assert_eq!(
                *acc, expected,
                "512-rank storm: app rank {app} produced a WRONG result (victims {victims:?})"
            );
        }
    } else {
        let errored = report.completed().into_iter().filter(|r| r.error.is_some()).count();
        let killed = report.killed().len();
        assert!(
            errored + killed > 0,
            "512-rank storm: incomplete without any recorded failure (victims {victims:?})"
        );
        for (app, (acc, _)) in &summaries {
            assert_eq!(
                *acc, expected,
                "512-rank storm: partial completion with corrupt result at app rank {app}"
            );
        }
    }
}

/// The storm's first group forms before its kills take anyone else down:
/// every worker that was not killed records `GroupRebuilt { epoch: 0 }`.
/// Not required yet: it races the launch of 512 rank threads against the
/// first kill at 47 ms (see ROADMAP item 21). Run it with
/// `cargo test --release -p ft-core --test chaos -- --ignored`.
#[test]
#[ignore = "races thread launch against the first timed kill; ROADMAP item 21"]
fn chaos_storm_512_ranks_forms_its_first_group() {
    let (report, victims) = storm_512();
    let killed = report.killed();
    let formed = |r| {
        let first = |e: &Event| e.rank == r && e.kind == EventKind::GroupRebuilt { epoch: 0 };
        report.events.first_where(first).is_some()
    };
    let missing: Vec<u32> = (0..506).filter(|r| !killed.contains(r) && !formed(*r)).collect();
    assert!(
        missing.is_empty(),
        "workers {missing:?} never formed the first group (victims {victims:?})"
    );
}

/// CI sweep hook: `FT_CHAOS_SEEDS="100..120"` or `FT_CHAOS_SEEDS="17,42,99"`
/// runs extra storms beyond the fixed bank. A no-op when unset, so local
/// `cargo test` stays fast.
#[test]
fn chaos_storm_env_seeds() {
    let Ok(spec) = std::env::var("FT_CHAOS_SEEDS") else {
        return;
    };
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        if let Some((lo, hi)) = part.split_once("..") {
            let lo: u64 = lo.trim().parse().expect("FT_CHAOS_SEEDS range start");
            let hi: u64 = hi.trim().parse().expect("FT_CHAOS_SEEDS range end");
            for seed in lo..hi {
                storm(seed);
            }
        } else {
            storm(part.parse().expect("FT_CHAOS_SEEDS seed"));
        }
    }
}
