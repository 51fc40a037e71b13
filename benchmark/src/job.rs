//! One fault-tolerant Lanczos job: build its inputs, run one variant on
//! either backend through the public entry points, and check what came back.

use std::sync::Arc;
use std::time::Duration;

use crate::api::{
    run_child, run_ft_job, run_supervisor, tridiag_eigenvalues, ChildEnv, DetectorConfig,
    FaultSchedule, FtConfig, FtLanczos, FtLanczosConfig, GaspiConfig, GaspiWorld, LanczosSummary,
    Pfs, PfsConfig, Rank, SeqLanczos, StrategyKind, SupervisorConfig, Timeout, WorldLayout,
};
use crate::sysinfo::now_ns;
use crate::timed::{get_u64, put_u64, RankTiming, Stall, Timed};
use crate::workloads::{self, Backend, JobShape, Kind, Seeds};

/// Detector scan interval of the `ft` and `kills` variants: ≈ 6 iterations of
/// `cr-latency` per scan, the paper's 3 s / 0.37 s ratio. The repo default of
/// 30 ms would make every stall a U(0, 30 ms) draw.
const SCAN_INTERVAL: Duration = Duration::from_millis(5);
/// The `noft` variant's detector never scans during a run.
const NEVER: Duration = Duration::from_secs(3600);
/// Per-ping timeout, up from the default 200 ms. A dead rank answers "broken"
/// at once whatever this is; the timeout only decides when a *live* rank that
/// stalls is declared dead. The reference box stalls processes for 200 ms now
/// and then, and at the default that turned ≈ 1 % of `cr-tcp` runs into a
/// false detection (or an idle rank giving up on a live detector) that the
/// job's single rescue could not absorb.
const PING_TIMEOUT: Timeout = Timeout::Ms(1000);

/// The three runs of one trio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Same shape, no fault tolerance at work: the detector sleeps, no
    /// checkpoints are taken, the strategy is the (then idle) C/R.
    NoFt,
    /// The workload's strategy, failure-free.
    Ft,
    /// `Ft` plus the workload's kill schedule.
    Kills,
}

impl Variant {
    pub const ALL: [Variant; 3] = [Variant::NoFt, Variant::Ft, Variant::Kills];

    pub fn name(self) -> &'static str {
        match self {
            Variant::NoFt => "noft",
            Variant::Ft => "ft",
            Variant::Kills => "kills",
        }
    }

    fn parse(s: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.name() == s)
    }
}

/// A job ready to run: the shape plus everything `--seed` generated.
#[derive(Debug, Clone)]
pub struct Job {
    /// Workload the shape comes from (rank children look it up by name).
    pub workload: &'static str,
    pub shape: JobShape,
    pub quick: bool,
    pub seed: u64,
    pub seeds: Seeds,
}

impl Job {
    pub fn new(workload: &'static str, shape: JobShape, quick: bool, seed: u64) -> Self {
        let shape = if quick { shape.quick() } else { shape };
        Self { workload, shape, quick, seed, seeds: Seeds::from(seed) }
    }

    fn app_config(&self) -> Arc<FtLanczosConfig> {
        // The instant PFS tier holds the one-time plan checkpoints, as in the
        // repo's own examples: without it a rescue cannot join once the
        // failed rank's replica-holding neighbour has died too, and seeded
        // victims are often adjacent.
        Arc::new(FtLanczosConfig {
            seed: self.seeds.lanczos,
            pfs: Some(Pfs::new(PfsConfig::instant())),
            ..FtLanczosConfig::fixed_iters(Arc::new(self.shape.matrix()))
        })
    }

    /// The job a re-executed child is told to run: workload name, seed and
    /// quick flag as the parent passed them on the command line.
    pub fn from_args(workload: &str, seed: &str, quick: &str) -> Option<Job> {
        let w = workloads::by_name(workload)?;
        let Kind::Job(shape) = w.kind else { return None };
        Some(Job::new(w.name, shape, quick == "1", seed.parse().ok()?))
    }

    pub fn layout(&self) -> WorldLayout {
        WorldLayout::new(self.shape.workers, self.shape.spares)
    }

    pub fn gaspi_config(&self) -> GaspiConfig {
        let total = self.shape.total_ranks();
        match self.shape.backend {
            Backend::Sim => GaspiConfig::new(total),
            Backend::Tcp => GaspiConfig::deterministic(total),
        }
        .with_seed(self.seeds.gaspi)
    }

    fn ft_config(&self, variant: Variant) -> FtConfig {
        let (every, strategy, scan_interval) = match variant {
            Variant::NoFt => (0, StrategyKind::CheckpointRestart, NEVER),
            _ => (self.shape.checkpoint_every, self.shape.strategy, SCAN_INTERVAL),
        };
        FtConfig::builder(self.layout())
            .max_iters(self.shape.iters)
            .checkpoint_every(every)
            .strategy(strategy)
            .detector(DetectorConfig {
                scan_interval,
                ping_timeout: PING_TIMEOUT,
                ..DetectorConfig::default()
            })
            .build()
            .expect("workload shapes satisfy FtConfig's validation")
    }

    /// Seed-chosen victims, one per kill iteration, never app rank 0.
    pub fn victims(&self) -> Vec<Rank> {
        workloads::pick_victims(self.seeds.victims, self.shape.workers, self.shape.kill_iters.len())
    }

    fn schedule(&self, variant: Variant) -> FaultSchedule {
        let mut s = FaultSchedule::none();
        if variant == Variant::Kills {
            for (rank, &iter) in self.victims().into_iter().zip(&self.shape.kill_iters) {
                s = s.kill_rank_at_iteration(rank, iter);
            }
        }
        s
    }

    /// Spans one rank can record in a traced run: a step and a state export
    /// per iteration, redone iterations and recovery calls on top.
    fn span_capacity(&self) -> usize {
        4 * self.shape.iters as usize + 64
    }
}

/// What one finished worker reported.
#[derive(Debug, Clone)]
pub struct WorkerOut {
    pub app_rank: u32,
    pub iters: u64,
    pub alphas: Vec<f64>,
    pub betas: Vec<f64>,
    pub timing: RankTiming,
}

/// One variant run as seen from outside.
#[derive(Debug, Clone)]
pub struct VariantRun {
    pub variant: Variant,
    /// Before world construction (`sim`) / `run_supervisor` entry (`tcp`).
    pub t0: u64,
    /// Job entry point called (`run_ft_job` / `run_supervisor`).
    pub t_launch: u64,
    /// Job entry point returned.
    pub t_end: u64,
    /// Finished workers, ascending by app rank.
    pub workers: Vec<WorkerOut>,
    /// Why this run counts as a failed operation; empty when it is good.
    pub problems: Vec<String>,
}

fn secs(from: u64, to: u64) -> f64 {
    to.saturating_sub(from) as f64 / 1e9
}

impl VariantRun {
    fn last_setup_return(&self) -> u64 {
        self.workers.iter().map(|w| w.timing.setup_return).max().unwrap_or(0)
    }

    /// World construction + job + join.
    pub fn wall_s(&self) -> f64 {
        secs(self.t0, self.t_end)
    }

    /// Start of the run → last worker's `setup` return.
    pub fn setup_s(&self) -> f64 {
        secs(self.t0, self.last_setup_return())
    }

    /// Last worker's `setup` return → last worker's last `step` return.
    pub fn solve_span_s(&self) -> f64 {
        let end = self.workers.iter().map(|w| w.timing.last_step_return).max().unwrap_or(0);
        secs(self.last_setup_return(), end)
    }

    /// Job entry → first `setup` entry.
    pub fn launch_s(&self) -> f64 {
        let first = self
            .workers
            .iter()
            .map(|w| w.timing.setup_entry)
            .filter(|&t| t != 0)
            .min()
            .unwrap_or(0);
        secs(self.t_launch, first)
    }

    /// Last `finalize` return → job return.
    pub fn teardown_s(&self) -> f64 {
        let last = self.workers.iter().map(|w| w.timing.finalize_return).max().unwrap_or(0);
        secs(last, self.t_end)
    }

    /// App rank 0's timing (never a victim, so present in every good run).
    pub fn rank0(&self) -> Option<&RankTiming> {
        self.workers.iter().find(|w| w.app_rank == 0).map(|w| &w.timing)
    }

    /// The recoveries app rank 0 went through.
    pub fn stalls(&self) -> &[Stall] {
        self.rank0().map_or(&[], |t| &t.stalls)
    }

    /// Sum of the rank children's `VmHWM` in MiB (`tcp` only, else 0).
    pub fn children_hwm_mib(&self) -> f64 {
        self.workers.iter().map(|w| w.timing.vm_hwm_kib).sum::<u64>() as f64 / 1024.0
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The α/β history every run of a workload must reproduce bit for bit, and
/// the sequential reference its lowest eigenvalue is held against.
#[derive(Debug, Clone)]
pub struct Reference {
    pub alphas: Vec<f64>,
    pub betas: Vec<f64>,
}

impl Reference {
    pub fn matches(&self, alphas: &[f64], betas: &[f64]) -> bool {
        same_bits(&self.alphas, alphas) && same_bits(&self.betas, betas)
    }

    /// `other` must be a bit-identical prefix of this history.
    pub fn has_prefix(&self, other: &Reference) -> bool {
        let n = other.alphas.len();
        n <= self.alphas.len()
            && same_bits(&self.alphas[..n], &other.alphas)
            && same_bits(&self.betas[..n], &other.betas)
    }
}

/// Lowest eigenvalue of the leading `k × k` Lanczos tridiagonal.
fn lowest_eigenvalue(alphas: &[f64], betas: &[f64], k: usize) -> f64 {
    tridiag_eigenvalues(&alphas[..k], &betas[..k - 1])[0]
}

/// Hold the first `seq_check_iters` iterations of `reference` against the
/// plain sequential solver: the lowest eigenvalue must agree to 1e-6
/// relative. Returns the problem, if any.
pub fn check_against_sequential(job: &Job, reference: &Reference) -> Option<String> {
    let k = job.shape.seq_check_iters.min(job.shape.iters) as usize;
    if reference.alphas.len() < k || reference.betas.len() < k {
        return Some(format!("α/β history shorter than {k} iterations"));
    }
    let seq = SeqLanczos::run(&job.shape.matrix(), k as u64, job.seeds.lanczos);
    let want = seq.eigenvalues()[0];
    let got = lowest_eigenvalue(&reference.alphas, &reference.betas, k);
    let rel = ((got - want) / want).abs();
    (rel.is_nan() || rel > 1e-6).then(|| {
        format!(
            "lowest eigenvalue {got} is off the sequential reference {want} by {rel:e} relative"
        )
    })
}

/// What a backend hands back before any check: the run, the ranks that
/// died, and the first error any finished rank reported.
type Raw = (VariantRun, Vec<Rank>, Option<String>);

impl Job {
    /// Run one variant and check it on its own terms: every worker summary
    /// present and complete, the scheduled victims (and only they) dead, one
    /// recovery per kill, α/β identical across ranks. Cross-variant identity
    /// is the caller's check (see [`Reference`]).
    pub fn run(&self, variant: Variant, trace: bool) -> VariantRun {
        let (mut run, dead, rank_error) = match self.shape.backend {
            Backend::Sim => self.run_sim(variant, trace),
            Backend::Tcp => self.run_tcp(variant, trace),
        };
        let mut victims = if variant == Variant::Kills { self.victims() } else { Vec::new() };
        victims.sort_unstable();
        let want_kills = victims.len();
        let p = &mut run.problems;
        if dead != victims {
            p.push(format!("killed {dead:?}, scheduled {victims:?}"));
        }
        if run.workers.len() != self.shape.workers as usize {
            p.push(format!("{} of {} worker summaries", run.workers.len(), self.shape.workers));
            // An error on a rank that owes no summary (an idle spare that
            // finds the detector gone once the job is over) fails nothing;
            // one that cost a summary explains the failure.
            p.extend(rank_error.map(|e| format!("rank error: {e}")));
        }
        if let Some(w) = run.workers.iter().find(|w| w.iters != self.shape.iters) {
            p.push(format!("app rank {} stopped at iteration {}", w.app_rank, w.iters));
        }
        if let Some(first) = run.workers.first() {
            if !run
                .workers
                .iter()
                .all(|w| same_bits(&w.alphas, &first.alphas) && same_bits(&w.betas, &first.betas))
            {
                p.push("α/β differ between ranks".into());
            }
        }
        let recoveries =
            run.workers.iter().find(|w| w.app_rank == 0).map_or(0, |w| w.timing.stalls.len());
        if recoveries != want_kills {
            p.push(format!("{recoveries} recoveries for {want_kills} scheduled kills"));
        }
        run
    }

    fn run_sim(&self, variant: Variant, trace: bool) -> Raw {
        let cfg = self.ft_config(variant);
        let app = self.app_config();
        let cap = self.span_capacity();
        let schedule = self.schedule(variant);
        let gaspi = self.gaspi_config();
        let t0 = now_ns();
        let world = GaspiWorld::new(gaspi);
        let t_launch = now_ns();
        let report = run_ft_job(&world, cfg, schedule, move |ctx| {
            Timed::new(FtLanczos::new(ctx, Arc::clone(&app)), ctx.proc.rank(), trace, cap)
        });
        let t_end = now_ns();
        let workers = report
            .worker_summaries()
            .into_iter()
            .map(|(app_rank, (s, timing))| WorkerOut {
                app_rank,
                iters: s.iters,
                alphas: s.alphas.clone(),
                betas: s.betas.clone(),
                timing: timing.clone(),
            })
            .collect();
        let run = VariantRun { variant, t0, t_launch, t_end, workers, problems: Vec::new() };
        (run, report.killed(), report.first_error().map(|e| e.to_string()))
    }

    fn run_tcp(&self, variant: Variant, trace: bool) -> Raw {
        let args = [
            "child".to_string(),
            self.workload.to_string(),
            variant.name().to_string(),
            self.seed.to_string(),
            u8::from(trace).to_string(),
            u8::from(self.quick).to_string(),
        ];
        let sup = SupervisorConfig::new(self.shape.total_ranks(), self.schedule(variant))
            .with_args(args)
            .with_deadline(Duration::from_secs(60));
        let t0 = now_ns();
        let report = run_supervisor(sup);
        let t_end = now_ns();
        let mut run = VariantRun {
            variant,
            t0,
            t_launch: t0,
            t_end,
            workers: Vec::new(),
            problems: Vec::new(),
        };
        match report {
            Err(e) => {
                run.problems.push(format!("supervisor: {e}"));
                (run, Vec::new(), None)
            }
            Ok(report) => {
                for (app_rank, bytes) in report.worker_summaries() {
                    match decode_worker(app_rank, bytes) {
                        Some(w) => run.workers.push(w),
                        None => {
                            run.problems.push(format!("app rank {app_rank}: malformed summary"))
                        }
                    }
                }
                (run, report.killed(), report.first_error().map(String::from))
            }
        }
    }
}

// ---------------------------------------------------------------------
// cr-tcp rank children
// ---------------------------------------------------------------------

fn encode_worker(iters: u64, alphas: &[f64], betas: &[f64], timing: &RankTiming) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 16 * alphas.len() + 32 * timing.spans.len());
    put_u64(&mut out, iters);
    for history in [alphas, betas] {
        put_u64(&mut out, history.len() as u64);
        history.iter().for_each(|x| put_u64(&mut out, x.to_bits()));
    }
    timing.encode(&mut out);
    out
}

fn decode_worker(app_rank: u32, b: &[u8]) -> Option<WorkerOut> {
    let mut at = 0;
    let iters = get_u64(b, &mut at)?;
    let mut history = || {
        let n = usize::try_from(get_u64(b, &mut at)?).ok().filter(|n| *n <= b.len() / 8)?;
        (0..n).map(|_| get_u64(b, &mut at).map(f64::from_bits)).collect::<Option<Vec<f64>>>()
    };
    let alphas = history()?;
    let betas = history()?;
    let timing = RankTiming::decode(b, &mut at)?;
    (at == b.len()).then_some(WorkerOut { app_rank, iters, alphas, betas, timing })
}

/// Entry of a supervised rank child: rebuild the job from the arguments the
/// supervisor passed (`child <workload> <variant> <seed> <trace> <quick>`)
/// and run this rank of it. Returns the process exit code.
pub fn run_tcp_child(env: ChildEnv, args: &[String]) -> i32 {
    let parsed = (|| {
        let [tag, workload, variant, seed, trace, quick] = args else { return None };
        let job = (tag == "child").then(|| Job::from_args(workload, seed, quick)).flatten()?;
        Some((job, Variant::parse(variant)?, trace == "1"))
    })();
    let Some((job, variant, trace)) = parsed else {
        eprintln!("ft-benchmark: rank child started with unusable arguments {args:?}");
        return 2;
    };
    let app = job.app_config();
    let cap = job.span_capacity();
    run_child(
        env,
        job.ft_config(variant),
        job.gaspi_config(),
        move |ctx| Timed::new(FtLanczos::new(ctx, Arc::clone(&app)), ctx.proc.rank(), trace, cap),
        |(summary, timing): &(LanczosSummary, RankTiming)| {
            let mut timing = timing.clone();
            timing.vm_hwm_kib = (crate::sysinfo::vm_hwm_mib() * 1024.0) as u64;
            encode_worker(summary.iters, &summary.alphas, &summary.betas, &timing)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_summary_round_trips_bit_exactly() {
        let (alphas, betas) = ([0.1, -0.0, f64::MIN_POSITIVE], [1.5, 2.5, 3.5]);
        let timing = RankTiming { gaspi_rank: 2, steps_ok: 3, ..RankTiming::default() };
        let bytes = encode_worker(3, &alphas, &betas, &timing);
        let w = decode_worker(2, &bytes).unwrap();
        assert!(same_bits(&w.alphas, &alphas) && same_bits(&w.betas, &betas));
        assert_eq!((w.iters, w.timing), (3, timing));
        assert!(decode_worker(2, &bytes[..bytes.len() - 8]).is_none());
    }

    #[test]
    fn prefix_check_is_bitwise() {
        let long = Reference { alphas: vec![1.0, 2.0, 3.0], betas: vec![4.0, 5.0, 6.0] };
        let short = Reference { alphas: vec![1.0, 2.0], betas: vec![4.0, 5.0] };
        assert!(long.has_prefix(&short) && !short.has_prefix(&long));
        let off = Reference { alphas: vec![1.0, 2.0 + f64::EPSILON * 2.0], betas: vec![4.0, 5.0] };
        assert!(!long.has_prefix(&off));
        assert!(!Reference { alphas: vec![0.0], betas: vec![0.0] }.matches(&[-0.0], &[0.0]));
    }
}
