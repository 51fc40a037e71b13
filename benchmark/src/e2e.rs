//! The untraced pass: the eight end-to-end metrics of one workload.
//!
//! A run repeats fixed-size work until its time budget is spent and reports
//! each metric as the median over the repeats. Job workloads repeat the
//! `noft` / `ft` / `kills` trio, order alternated, each followed by a few
//! detector rounds at the job's own world size; `fd-scale` repeats blocks of
//! its round. `Timed` runs in its O(1) mode throughout. Repeats during which
//! the hypervisor took the CPU away are set aside (see [`crate::quiet`]).

use crate::api::{GaspiConfig, WorldLayout};
use crate::fd::{Cluster, FdSamples, FdWorld};
use crate::job::{check_against_sequential, Job, Reference, Variant, VariantRun};
use crate::quiet;
use crate::report::{Metric, RunResult};
use crate::stats::median;
use crate::sysinfo::{now_ns, vm_hwm_mib};
use crate::workloads::{self, Backend, FD_SCALE_KILLS, FD_SCALE_RANKS};

/// Detect+ack rounds (and ten scans each) a job workload spends after every
/// trio on the detector figures at its own world size.
const JOB_FD_ROUNDS_PER_REPEAT: u64 = 8;
const JOB_FD_SCANS_PER_ROUND: usize = 10;
/// `fd-scale` rounds per repeat: ≈ 1 s, long enough to tell steal apart.
const FD_SCALE_ROUNDS_PER_REPEAT: u64 = 6;
/// Quiet repeats a full-profile run makes even if that overruns its budget.
const MIN_QUIET_REPEATS: usize = 3;
const FD_SCALE_SCANS_PER_ROUND: usize = 5;
/// Notifications per flood.
pub const FLOOD_MSGS: u64 = 40_000;
/// How many budgets a run may spend reaching its minimum repeat count.
const OVERRUN: f64 = 1.5;
/// Longest a run waits, in total, for a disturbed machine to calm down.
const MAX_WAIT_S: f64 = 6.0;

/// Units of the end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("iters_per_s", "1/s"),
    ("setup_s", "s"),
    ("ft_slowdown", "ratio"),
    ("failure_cost_s", "s"),
    ("fd_scan_s", "s"),
    ("detect_ack_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The samples of one repeat (or, merged, of a run).
#[derive(Default)]
struct Samples {
    wall_s: Vec<f64>,
    iters_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    ft_slowdown: Vec<f64>,
    /// Per-repeat median stall: the samples the spread is taken over.
    failure_cost_s: Vec<f64>,
    /// Every stall of every repeat: the value is their median.
    stalls_pooled_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    fd: FdSamples,
    /// Share of the machine's CPU time stolen while these were taken.
    steal: f64,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.wall_s.extend(other.wall_s);
        self.iters_per_s.extend(other.iters_per_s);
        self.setup_s.extend(other.setup_s);
        self.ft_slowdown.extend(other.ft_slowdown);
        self.failure_cost_s.extend(other.failure_cost_s);
        self.stalls_pooled_s.extend(other.stalls_pooled_s);
        self.peak_rss_mb.extend(other.peak_rss_mb);
        self.fd.scan_s.extend(other.fd.scan_s);
        self.fd.detect_ack_s.extend(other.fd.detect_ack_s);
        self.fd.all_ack_s.extend(other.fd.all_ack_s);
    }

    fn into_metrics(self) -> Vec<Metric> {
        let pooled = median(&self.stalls_pooled_s);
        let n_stalls = self.stalls_pooled_s.len();
        let samples = [
            self.wall_s,
            self.iters_per_s,
            self.setup_s,
            self.ft_slowdown,
            self.failure_cost_s,
            self.fd.scan_s,
            self.fd.detect_ack_s,
            self.peak_rss_mb,
        ];
        END_TO_END
            .into_iter()
            .zip(samples)
            .map(|((name, unit), samples)| {
                let mut m = Metric::from_samples(name, unit, samples);
                if name == "failure_cost_s" {
                    m.value = pooled;
                    m.detail = Some(format!("median of {n_stalls} pooled recoveries"));
                }
                m
            })
            .collect()
    }
}

/// Whether to start another repeat after `done` good ones: always the first;
/// then while the next one fits the budget; then up to the minimum count, but
/// only until [`OVERRUN`] budgets are spent (a run must end well inside the
/// contract's 180 s whatever the machine is doing).
fn keep_going(done: usize, min: usize, elapsed_s: f64, last_s: f64, budget_s: f64) -> bool {
    done == 0
        || elapsed_s + last_s <= budget_s
        || (done < min && elapsed_s + last_s <= OVERRUN * budget_s.max(10.0))
}

/// What [`repeat_quietly`] hands back.
struct Repeats {
    /// The repeats to report, merged.
    samples: Samples,
    kept: usize,
    /// Repeats set aside because the machine was disturbed during them.
    set_aside: usize,
    /// Seconds spent waiting for the machine to calm down.
    waited_s: f64,
}

/// Run `repeat` until the budget is spent, steal measured around each one.
fn repeat_quietly(
    min_repeats: usize,
    seconds: f64,
    mut repeat: impl FnMut(usize) -> Samples,
) -> Repeats {
    let t_start = now_ns();
    let elapsed = || (now_ns() - t_start) as f64 / 1e9;
    let mut all: Vec<Samples> = Vec::new();
    let (mut quiet_ones, mut last_s, mut waited_s) = (0usize, 0.0f64, 0.0f64);
    while keep_going(quiet_ones, min_repeats, elapsed(), last_s, seconds) {
        let t0 = elapsed();
        let cpu = quiet::cpu_times();
        let mut s = repeat(all.len());
        s.steal = quiet::steal_since(cpu);
        last_s = elapsed() - t0;
        if s.steal <= quiet::QUIET_STEAL {
            quiet_ones += 1;
        } else if seconds > 0.0 {
            waited_s += quiet::wait_until_quiet(MAX_WAIT_S - waited_s);
        }
        all.push(s);
    }
    let steal: Vec<f64> = all.iter().map(|s| s.steal).collect();
    let keep = quiet::select(&steal, min_repeats);
    let (kept, set_aside) = (keep.len(), all.len() - keep.len());
    let mut samples = Samples::default();
    for (i, s) in all.into_iter().enumerate() {
        if keep.contains(&i) {
            samples.absorb(s);
        }
    }
    Repeats { samples, kept, set_aside, waited_s }
}

/// A few scans and one kill-1 detect+ack round on a thread-less world of the
/// job's own size, layout and transport.
fn job_fd_round(job: &Job, round: u64, fd: &mut FdSamples) {
    let mut cfg = job.gaspi_config();
    cfg.seed = workloads::mix(job.seeds.gaspi, 100 + round);
    let cluster = match job.shape.backend {
        Backend::Sim => Cluster::sim(cfg),
        Backend::Tcp => match Cluster::tcp(cfg) {
            Ok(c) => c,
            Err(e) => {
                fd.ops_attempted += 1;
                fd.ops_failed += 1;
                fd.problems.push(format!("loopback cluster: {e}"));
                return;
            }
        },
    };
    let world = FdWorld::build(cluster, job.layout());
    for _ in 0..JOB_FD_SCANS_PER_ROUND {
        fd.note_scan(world.scan());
    }
    let victim =
        workloads::pick_victims(workloads::mix(job.seeds.victims, round), job.shape.workers, 1);
    fd.note_detect(world.detect_ack(&victim));
}

/// Fold the detector figures' operations into the result.
fn count_fd_ops(result: &mut RunResult, fd: &mut FdSamples) {
    result.ops_attempted += fd.ops_attempted;
    result.ops_failed += fd.ops_failed;
    result.problems.append(&mut fd.problems);
}

fn finish(mut result: RunResult, r: Repeats, t_start: u64) -> RunResult {
    result.repeats = r.kept;
    result.set_aside = r.set_aside;
    result.waited_s = r.waited_s;
    result.measured_s = (now_ns() - t_start) as f64 / 1e9;
    result.metrics = r.samples.into_metrics();
    result
}

/// Measure a job workload for about `seconds`.
pub fn measure_job(job: &Job, seconds: f64) -> RunResult {
    let mut result = RunResult::new(job.workload, false);
    let t_start = now_ns();
    let mut reference: Option<Reference> = None;

    let min_repeats = if job.quick { 1 } else { MIN_QUIET_REPEATS };
    let mut repeats = repeat_quietly(min_repeats, seconds, |repeat| {
        let order = if repeat.is_multiple_of(2) {
            [Variant::NoFt, Variant::Ft, Variant::Kills]
        } else {
            [Variant::Kills, Variant::Ft, Variant::NoFt]
        };
        let mut runs: Vec<VariantRun> = order.iter().map(|&v| job.run(v, false)).collect();
        runs.sort_by_key(|r| r.variant as u8);
        let [noft, ft, kills] = &runs[..] else { unreachable!("three variants") };

        for run in &runs {
            let mut problems = run.problems.clone();
            if let Some(w0) = run.workers.iter().find(|w| w.app_rank == 0) {
                let r = reference.get_or_insert_with(|| Reference {
                    alphas: w0.alphas.clone(),
                    betas: w0.betas.clone(),
                });
                if !r.matches(&w0.alphas, &w0.betas) {
                    problems.push("α/β not bit-identical to the workload's first run".into());
                }
            }
            result.ops_attempted += 1;
            if !problems.is_empty() {
                result.ops_failed += 1;
                let label = format!("repeat {repeat} {}", run.variant.name());
                result.problems.extend(problems.iter().map(|p| format!("{label}: {p}")));
            }
        }

        let mut s = Samples::default();
        s.wall_s.push(ft.wall_s());
        s.iters_per_s.push(job.shape.iters as f64 / ft.solve_span_s());
        s.setup_s.push(ft.setup_s());
        s.ft_slowdown.push(ft.solve_span_s() / noft.solve_span_s());
        let stalls: Vec<f64> = kills.stalls().iter().map(|st| st.stall_ns() as f64 / 1e9).collect();
        for st in kills.stalls() {
            assert_eq!(
                st.parts_ns().iter().sum::<i64>(),
                st.stall_ns(),
                "the four stall parts must sum to the stall"
            );
        }
        if !stalls.is_empty() {
            s.failure_cost_s.push(median(&stalls));
        }
        s.stalls_pooled_s = stalls;
        if job.shape.backend == Backend::Tcp {
            s.peak_rss_mb.push(ft.children_hwm_mib());
        }

        // The detector figures ride along with every repeat, so they see the
        // same stretch of machine time as the jobs do.
        let rounds = if job.quick { 3 } else { JOB_FD_ROUNDS_PER_REPEAT };
        for r in 0..rounds {
            job_fd_round(job, repeat as u64 * rounds + r, &mut s.fd);
        }
        count_fd_ops(&mut result, &mut s.fd);
        s
    });
    if job.shape.backend == Backend::Sim {
        match footprint_mib(job) {
            Ok(mib) => repeats.samples.peak_rss_mb = mib,
            Err(e) => result.problems.push(format!("footprint child: {e}")),
        }
    }
    let mut result = finish(result, repeats, t_start);

    // Outside the measured window: numerics against ground truth.
    match &reference {
        None => result.problems.push("no run produced an α/β history".into()),
        Some(r) => {
            let mut problems: Vec<String> = check_against_sequential(job, r).into_iter().collect();
            if job.shape.backend == Backend::Tcp {
                problems.extend(check_tcp_against_sim(job, r));
            }
            if !problems.is_empty() {
                // Every run reproduced the same wrong history.
                result.ops_failed = result.ops_attempted;
                result.problems.extend(problems);
            }
        }
    }
    result
}

/// Processes whose footprint is taken; the median is reported.
const FOOTPRINT_CHILDREN: usize = 3;

/// `VmHWM` in MiB of fresh processes that each run the `ft` variant once.
///
/// Rank threads come and go with every job and glibc gives each thread an
/// arena of its own, so the high-water mark of a process that has run many
/// jobs says more about which arenas happened to be reused than about the
/// job (78–117 MiB from run to run on `cr-kernel`). The children run with
/// `MALLOC_ARENA_MAX=1`: one arena, so the figure is the job's live memory
/// plus one allocator's slack, and it repeats. Nothing is timed in them.
fn footprint_mib(job: &Job) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..FOOTPRINT_CHILDREN)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "footprint",
                    job.workload,
                    &job.seed.to_string(),
                    &u8::from(job.quick).to_string(),
                ])
                .env("MALLOC_ARENA_MAX", "1")
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim().parse::<f64>().map_err(|_| format!("unexpected output {text:?}"))
        })
        .collect()
}

/// Entry of a footprint child (`footprint <workload> <seed> <quick>`): run
/// the `ft` variant once and print this process's `VmHWM` in MiB.
pub fn footprint_child(args: &[String]) -> i32 {
    let job = match args {
        [workload, seed, quick] => Job::from_args(workload, seed, quick),
        _ => None,
    };
    let Some(job) = job else {
        eprintln!("ft-benchmark: footprint child started with unusable arguments {args:?}");
        return 2;
    };
    let run = job.run(Variant::Ft, false);
    println!("{}", vm_hwm_mib());
    i32::from(!run.problems.is_empty())
}

/// `cr-tcp`'s history must be the bit-identical prefix of what the simulator
/// backend computes for `cr-latency` from the same seed.
fn check_tcp_against_sim(job: &Job, tcp: &Reference) -> Option<String> {
    let sim_job = Job::new("cr-latency", workloads::cr_latency(), job.quick, job.seed);
    let sim = sim_job.run(Variant::NoFt, false);
    let Some(w0) = sim.workers.iter().find(|w| w.app_rank == 0) else {
        return Some("cr-latency reference run on the simulator produced no summary".into());
    };
    let sim_ref = Reference { alphas: w0.alphas.clone(), betas: w0.betas.clone() };
    (!sim_ref.has_prefix(tcp))
        .then(|| "α/β are not the bit-identical prefix of cr-latency's on the simulator".into())
}

/// The `fd-scale` layout: 1 008 workers, 16 idle spares, the detector — so
/// eight dead workers each find a rescue and the detector keeps scanning.
pub fn fd_scale_layout() -> WorldLayout {
    WorldLayout::new(FD_SCALE_RANKS - 16, 17)
}

/// One `fd-scale` round on a fresh world: scans, the flood with and without
/// the detector loop, then the kill-8 detect+ack.
fn fd_scale_round(seeds: &workloads::Seeds, round: u64, s: &mut Samples) {
    let layout = fd_scale_layout();
    let t0 = now_ns();
    let cfg = GaspiConfig::new(layout.total()).with_seed(workloads::mix(seeds.gaspi, round));
    let world = FdWorld::build(Cluster::sim(cfg), layout);
    let t_ready = now_ns();
    for _ in 0..FD_SCALE_SCANS_PER_ROUND {
        s.fd.note_scan(world.scan());
    }
    world.prepare_flood();
    let (quiet_ns, scanning_ns) = if round.is_multiple_of(2) {
        let q = world.flood(FLOOD_MSGS, false);
        (q, world.flood(FLOOD_MSGS, true))
    } else {
        let sc = world.flood(FLOOD_MSGS, true);
        (world.flood(FLOOD_MSGS, false), sc)
    };
    // Never rank 0: it ends the detector loop on the application's behalf.
    let victims = workloads::pick_distinct(
        workloads::mix(seeds.victims, round),
        1,
        layout.num_workers,
        FD_SCALE_KILLS,
    );
    s.fd.note_detect(world.detect_ack(&victims));
    drop(world);
    let t_end = now_ns();

    s.setup_s.push((t_ready - t0) as f64 / 1e9);
    s.wall_s.push((t_end - t0) as f64 / 1e9);
    s.iters_per_s.push(FLOOD_MSGS as f64 / (scanning_ns as f64 / 1e9));
    s.ft_slowdown.push(scanning_ns as f64 / quiet_ns as f64);
}

/// Measure `fd-scale` for about `seconds`.
pub fn measure_fd_scale(seed: u64, seconds: f64, quick: bool) -> RunResult {
    let mut result = RunResult::new("fd-scale", false);
    let seeds = workloads::Seeds::from(seed);
    let t_start = now_ns();
    let (min_repeats, rounds) =
        if quick { (1, 2) } else { (MIN_QUIET_REPEATS, FD_SCALE_ROUNDS_PER_REPEAT) };

    let mut repeats = repeat_quietly(min_repeats, seconds, |repeat| {
        let mut s = Samples::default();
        for r in 0..rounds {
            fd_scale_round(&seeds, repeat as u64 * rounds + r, &mut s);
        }
        // Here a failure costs what it takes every survivor to learn of it.
        s.failure_cost_s = s.fd.all_ack_s.clone();
        s.stalls_pooled_s = s.fd.all_ack_s.clone();
        count_fd_ops(&mut result, &mut s.fd);
        s
    });
    repeats.samples.peak_rss_mb.push(vm_hwm_mib());
    finish(result, repeats, t_start)
}

#[cfg(test)]
mod tests {
    use super::keep_going;

    #[test]
    fn repeats_stop_at_the_budget_but_reach_the_minimum_when_they_can() {
        // Always one repeat, even on a zero budget (the quick profile).
        assert!(keep_going(0, 1, 0.0, 0.0, 0.0));
        assert!(!keep_going(1, 1, 0.4, 0.4, 0.0));
        // Fits the budget: go on; would overrun it: stop.
        assert!(keep_going(7, 3, 9.0, 1.5, 12.0));
        assert!(!keep_going(8, 3, 11.0, 1.5, 12.0));
        // Below the minimum the budget may be overrun…
        assert!(keep_going(2, 3, 11.0, 2.0, 12.0));
        // …but not without limit.
        assert!(!keep_going(2, 3, 17.0, 2.0, 12.0));
    }
}
