//! The traced pass: every per-layer metric of one workload.
//!
//! Each variant runs once with `Timed` recording a span per `FtApp` call;
//! the standalone probes run at the workload's shape with a span per probed
//! call; all spans go to `benchmark/out/trace-<workload>.json` and are
//! reduced to the table declared in `BENCHMARK.json`. A few interleaved
//! traced / untraced `ft` pairs give the tracing overhead.
//!
//! `fd-scale` runs no Lanczos job of its own, so its job-shaped rows come
//! from a reference job — `cr-latency` at a fifth of its length — and say
//! nothing about `fd-scale` itself; they are there so every workload reports
//! the same table.

use crate::job::{Job, Reference, Variant, VariantRun};
use crate::probes::{self, Probes};
use crate::report::{Metric, RunResult};
use crate::sysinfo::{now_ns, out_dir};
use crate::timed::{Call, RankTiming};
use crate::trace::{self, TracedRun};
use crate::workloads::{self, Kind, Workload};

/// `(name, unit, better)` of every per-layer metric, in report order — the
/// list `BENCHMARK.json` declares.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    ("cluster.rtt_us", "us", "lower"),
    ("cluster.rtt_us.tail", "us", "lower"),
    ("cluster.flood_msgs_per_s", "1/s", "higher"),
    ("cluster.flood_p99_us", "us", "lower"),
    ("cluster.tcp_rtt_us", "us", "lower"),
    ("gaspi.write_notify_us", "us", "lower"),
    ("gaspi.write_notify_us.tail", "us", "lower"),
    ("gaspi.allreduce_us", "us", "lower"),
    ("gaspi.allreduce_us.tail", "us", "lower"),
    ("gaspi.barrier_us", "us", "lower"),
    ("gaspi.barrier_us.tail", "us", "lower"),
    ("gaspi.allreduce_wide_us", "us", "lower"),
    ("gaspi.group_commit_us", "us", "lower"),
    ("gaspi.write_mbs", "MB/s", "higher"),
    ("gaspi.ping_many_us", "us", "lower"),
    ("sparse.spmv_us", "us", "lower"),
    ("sparse.spmv_gflops", "GFLOP/s", "higher"),
    ("sparse.bytes_per_spmv", "B", "lower"),
    ("sparse.ops_per_byte", "flop/B", "higher"),
    ("machine.triad_gbs", "GB/s", "higher"),
    ("sparse.roofline_frac", "ratio", "higher"),
    ("sparse.halo_us", "us", "lower"),
    ("sparse.halo_us.tail", "us", "lower"),
    ("sparse.halo_bytes", "B", "lower"),
    ("sparse.negotiate_s", "s", "lower"),
    ("matgen.assemble_s", "s", "lower"),
    ("matgen.rows_per_s", "1/s", "higher"),
    ("solver.step_us", "us", "lower"),
    ("solver.step_us.tail", "us", "lower"),
    ("solver.step_self_us", "us", "lower"),
    ("solver.encode_us", "us", "lower"),
    ("solver.load_us", "us", "lower"),
    ("solver.finalize_s", "s", "lower"),
    ("solver.seq_iters_per_s", "1/s", "higher"),
    ("checkpoint.commit_us", "us", "lower"),
    ("checkpoint.commit_mbs", "MB/s", "higher"),
    ("checkpoint.drain_us", "us", "lower"),
    ("checkpoint.restore_us", "us", "lower"),
    ("core.health_check_ns", "ns", "lower"),
    ("core.prepare_us", "us", "lower"),
    ("core.prepare_us.tail", "us", "lower"),
    ("core.detect_s", "s", "lower"),
    ("core.rebuild_s", "s", "lower"),
    ("core.restore_s", "s", "lower"),
    ("core.redo_s", "s", "lower"),
    ("core.rescue_join_s", "s", "lower"),
    ("core.launch_s", "s", "lower"),
    ("core.teardown_s", "s", "lower"),
    ("core.proc_spawn_s", "s", "lower"),
    ("core.ack_broadcast_us", "us", "lower"),
    ("budget.step_residual_frac", "ratio", "lower"),
    ("budget.iter_residual_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// Traced / untraced `ft` pairs behind `trace.overhead_frac`.
const OVERHEAD_PAIRS: usize = 3;

/// Durations in ns of every `call` span of the given ranks.
fn call_ns<'a>(ranks: impl Iterator<Item = &'a RankTiming>, call: Call) -> Vec<f64> {
    ranks
        .flat_map(|t| t.spans.iter().filter(move |s| s.call == call))
        .map(|s| (s.end - s.start) as f64)
        .collect()
}

fn all_ranks(run: &VariantRun) -> impl Iterator<Item = &RankTiming> {
    run.workers.iter().map(|w| &w.timing)
}

/// Reduce the spans of the traced runs to the job-shaped rows.
fn reduce_spans(p: &mut Probes, ft: &VariantRun, kills: &VariantRun, ft_runs: &[&VariantRun]) {
    let empty = RankTiming::default();
    let rank0 = ft.rank0().unwrap_or(&empty);
    let steps: Vec<_> = rank0.spans.iter().filter(|s| s.call == Call::Step).collect();
    let step_ns: Vec<f64> = steps.iter().map(|s| (s.end - s.start) as f64).collect();
    // Between `step(i)` returning and `step(i+1)` being entered the driver
    // runs its health check and the strategy's `prepare`.
    let gap_ns: Vec<f64> = steps.windows(2).map(|w| (w[1].start - w[0].end) as f64).collect();
    let covered_ns: f64 = step_ns.iter().sum::<f64>() + gap_ns.iter().sum::<f64>();
    let span_ns = rank0.last_step_return.saturating_sub(rank0.setup_return) as f64;
    p.timing("solver.step_us", "us", 1e3, &step_ns, true);
    p.timing("core.prepare_us", "us", 1e3, &gap_ns, true);
    p.metrics.push(Metric::single(
        "budget.iter_residual_frac",
        "ratio",
        1.0 - covered_ns / span_ns,
        "1 − (Σ step spans + Σ prepare gaps) ÷ solve span, app rank 0",
    ));
    let exports = call_ns(all_ranks(ft).chain(all_ranks(kills)), Call::Export);
    p.timing("solver.encode_us", "us", 1e3, &exports, false);
    p.timing("solver.load_us", "us", 1e3, &call_ns(all_ranks(kills), Call::Load), false);
    let finalizes = call_ns(ft_runs.iter().flat_map(|r| all_ranks(r)), Call::Finalize);
    p.timing("solver.finalize_s", "s", 1e9, &finalizes, false);
    p.timing("core.rescue_join_s", "s", 1e9, &call_ns(all_ranks(kills), Call::Join), false);

    let parts: Vec<[i64; 4]> = kills.stalls().iter().map(|s| s.parts_ns()).collect();
    let names = ["core.detect_s", "core.rebuild_s", "core.restore_s", "core.redo_s"];
    for (i, name) in names.into_iter().enumerate() {
        let ns: Vec<f64> = parts.iter().map(|part| part[i] as f64).collect();
        p.timing(name, "s", 1e9, &ns, false);
    }
}

/// `run_supervisor` entry → first child's `setup` entry, on a small
/// supervised job (`cr-tcp` at its quick size, failure-free).
fn proc_spawn(p: &mut Probes, result: &mut RunResult, seed: u64) {
    let Some(Kind::Job(shape)) = workloads::by_name("cr-tcp").map(|w| w.kind) else {
        unreachable!("cr-tcp is a job workload")
    };
    let run = Job::new("cr-tcp", shape, true, seed).run(Variant::NoFt, false);
    count(result, "process-spawn probe job", &run);
    p.metrics.push(Metric::single(
        "core.proc_spawn_s",
        "s",
        run.launch_s(),
        "6 rank processes, run_supervisor entry → first child setup entry",
    ));
}

fn count(result: &mut RunResult, label: &str, run: &VariantRun) {
    result.ops_attempted += 1;
    if !run.problems.is_empty() {
        result.ops_failed += 1;
        result.problems.extend(run.problems.iter().map(|p| format!("{label}: {p}")));
    }
}

pub fn measure(w: &Workload, seed: u64, quick: bool) -> RunResult {
    let mut result = RunResult::new(w.name, true);
    let t_start = now_ns();
    let job = match &w.kind {
        Kind::Job(shape) => Job::new(w.name, shape.clone(), quick, seed),
        Kind::FdScale => Job::new("cr-latency", workloads::cr_latency(), true, seed),
    };

    // Each variant once, traced.
    let trio: Vec<VariantRun> = Variant::ALL.iter().map(|&v| job.run(v, true)).collect();
    let [noft, ft, kills] = &trio[..] else { unreachable!("three variants") };
    let reference = ft
        .workers
        .first()
        .map(|w0| Reference { alphas: w0.alphas.clone(), betas: w0.betas.clone() });
    for run in &trio {
        let label = format!("traced {}", run.variant.name());
        count(&mut result, &label, run);
        let same = match (&reference, run.workers.first()) {
            (Some(r), Some(w0)) => r.matches(&w0.alphas, &w0.betas),
            _ => false,
        };
        if !same {
            result.ops_failed = result.ops_failed.max(1);
            result.problems.push(format!("{label}: α/β not bit-identical across the variants"));
        }
    }

    // Tracing overhead: the traced `ft` above and two more, each paired with
    // an untraced one, order alternated.
    let (mut traced_more, mut plain) = (Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        let order = if pair.is_multiple_of(2) { [true, false] } else { [false, true] };
        for trace in order {
            if trace && pair == 0 {
                continue; // the trio's own traced `ft`
            }
            let r = job.run(Variant::Ft, trace);
            count(&mut result, if trace { "traced ft" } else { "untraced ft" }, &r);
            if trace { &mut traced_more } else { &mut plain }.push(r);
        }
    }
    let traced_ft: Vec<&VariantRun> = std::iter::once(ft).chain(&traced_more).collect();
    let overhead: Vec<f64> =
        traced_ft.iter().zip(&plain).map(|(t, u)| t.wall_s() / u.wall_s() - 1.0).collect();
    let all_ft: Vec<&VariantRun> = traced_ft.iter().copied().chain(&plain).collect();

    let mut p = probes::run_all(&job.shape, seed);
    reduce_spans(&mut p, ft, kills, &traced_ft);
    p.metrics.push(Metric::from_samples(
        "core.launch_s",
        "s",
        all_ft.iter().map(|r| r.launch_s()).collect(),
    ));
    p.metrics.push(Metric::from_samples(
        "core.teardown_s",
        "s",
        all_ft.iter().map(|r| r.teardown_s()).collect(),
    ));
    let mut m = Metric::from_samples("trace.overhead_frac", "ratio", overhead);
    m.detail = Some("traced wall ÷ untraced wall − 1, ft variant, interleaved pairs".into());
    p.metrics.push(m);
    proc_spawn(&mut p, &mut result, seed);

    // What the probed layers leave unexplained of one step.
    let step = p.value("solver.step_us");
    let explained =
        p.value("sparse.spmv_us") + p.value("sparse.halo_us") + 2.0 * p.value("gaspi.allreduce_us");
    p.metrics.push(Metric::single(
        "solver.step_self_us",
        "us",
        step - explained,
        "step_us − (spmv_us + halo_us + 2·allreduce_us)",
    ));
    p.metrics.push(Metric::single(
        "budget.step_residual_frac",
        "ratio",
        (step - explained) / step,
        "step_self_us ÷ step_us",
    ));

    // Every span goes to the trace file.
    let ids = |run: &VariantRun, n: usize| format!("{}/{}#{n}", job.workload, run.variant.name());
    let mut traced_runs: Vec<TracedRun> =
        [noft, kills].into_iter().map(|run| TracedRun { id: ids(run, 0), run }).collect();
    traced_runs
        .extend(traced_ft.iter().enumerate().map(|(n, &run)| TracedRun { id: ids(run, n), run }));
    match out_dir().and_then(|d| {
        let path = d.join(format!("trace-{}.json", w.name));
        trace::write(&path, &traced_runs, &p.spans).map(|n| (path, n))
    }) {
        Ok((path, n)) => println!("trace: {n} spans in {}", path.display()),
        Err(e) => result.problems.push(format!("trace file not written: {e}")),
    }

    // Report in the declared order; a row nobody produced stays NaN and
    // makes the pass incorrect.
    result.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let found = p.metrics.iter().find(|m| m.name == name).cloned();
            found.unwrap_or_else(|| Metric::from_samples(name, unit, Vec::new()))
        })
        .collect();
    result.repeats = 1;
    result.measured_s = (now_ns() - t_start) as f64 / 1e9;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert!(names.iter().all(|n| crate::report::valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.iter().all(|m| m.2 == "lower" || m.2 == "higher"));
    }
}
