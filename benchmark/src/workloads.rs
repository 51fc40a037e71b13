//! The six workloads, and how `--seed` turns into their inputs.
//!
//! Sizes are fixed work: a run repeats the same jobs until its time budget
//! is spent, it never scales them. The `why` of each workload is the line
//! recorded in `BENCHMARK.json`; `benchmark/README.md` has the long form.

use crate::api::{Graphene, Rank, StrategyKind};

/// Which transport the job's ranks live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Rank threads over the in-memory simulator (`run_ft_job`).
    Sim,
    /// One OS process per rank over loopback TCP (`run_supervisor`).
    Tcp,
}

/// A fault-tolerant Lanczos job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobShape {
    pub backend: Backend,
    /// Graphene sheet `lx × ly` cells with next-nearest-neighbour hopping:
    /// `2·lx·ly` rows, ≈ 10 nonzeros per row.
    pub lx: u64,
    pub ly: u64,
    pub workers: u32,
    /// Spares including the fault detector.
    pub spares: u32,
    pub iters: u64,
    pub checkpoint_every: u64,
    pub strategy: StrategyKind,
    /// Iterations at which the `kills` variant loses one worker each.
    pub kill_iters: Vec<u64>,
    /// Iterations of the sequential reference the eigenvalue is checked on.
    pub seq_check_iters: u64,
}

impl JobShape {
    pub fn rows(&self) -> u64 {
        2 * self.lx * self.ly
    }

    pub fn total_ranks(&self) -> u32 {
        self.workers + self.spares
    }

    /// The matrix generator every rank (and every probe) builds its chunk from.
    pub fn matrix(&self) -> Graphene {
        Graphene::new(self.lx, self.ly).with_nnn(-0.1)
    }

    /// The `--quick` profile: a fifth of the iterations, kill points and
    /// checkpoint interval scaled along.
    pub fn quick(mut self) -> Self {
        self.iters = (self.iters / 5).max(10);
        self.checkpoint_every = (self.checkpoint_every / 5).max(2);
        self.seq_check_iters = self.seq_check_iters.min(self.iters);
        self.kill_iters.iter_mut().for_each(|k| *k = (*k / 5).max(1));
        self
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Job(JobShape),
    /// 1 024 ranks + 1 detector, no rank threads.
    FdScale,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// The shape `cr-latency` runs at; `cr-tcp` reuses its matrix and interval,
/// and the `fd-scale` traced pass uses it as its reference job.
pub fn cr_latency() -> JobShape {
    JobShape {
        backend: Backend::Sim,
        lx: 48,
        ly: 32,
        workers: 4,
        spares: 4,
        iters: 400,
        checkpoint_every: 100,
        strategy: StrategyKind::CheckpointRestart,
        kill_iters: vec![160, 260, 360],
        seq_check_iters: 400,
    }
}

pub const FD_SCALE_RANKS: u32 = 1024;
/// Ranks the `fd-scale` detect+ack round kills at once.
pub const FD_SCALE_KILLS: usize = 8;

pub fn all() -> [Workload; 6] {
    [
        Workload {
            name: "cr-latency",
            why: "tiny kernel in a long iteration: collectives, halo notify and transport wake-ups dominate; bypasses kernel and checkpoint bandwidth",
            kind: Kind::Job(cr_latency()),
        },
        Workload {
            name: "cr-kernel",
            why: "131 072 rows, 0.5 MiB state per rank: spMVM, vector passes and checkpoint commits are most of the iteration, the latency layers the smaller share",
            kind: Kind::Job(JobShape {
                lx: 256,
                ly: 256,
                spares: 3,
                iters: 80,
                checkpoint_every: 20,
                kill_iters: vec![30, 65],
                seq_check_iters: 24,
                ..cr_latency()
            }),
        },
        Workload {
            name: "abft-latency",
            why: "cr-latency shape under ABFT: the per-iteration full-state parity allreduce is most of the iteration; flat when C/R or kernels change",
            kind: Kind::Job(JobShape {
                iters: 100,
                strategy: StrategyKind::Abft,
                kill_iters: vec![25, 50, 75],
                seq_check_iters: 100,
                ..cr_latency()
            }),
        },
        Workload {
            name: "replicated-latency",
            why: "cr-latency shape under replication: the synchronous per-iteration blob push; the bypass for an ABFT-only change",
            kind: Kind::Job(JobShape {
                iters: 300,
                strategy: StrategyKind::Replicated,
                kill_iters: vec![75, 150, 225],
                seq_check_iters: 300,
                ..cr_latency()
            }),
        },
        Workload {
            name: "cr-tcp",
            why: "the cr-latency job on the other Transport: real rank processes, loopback sockets, a real process death",
            kind: Kind::Job(JobShape {
                backend: Backend::Tcp,
                spares: 2,
                iters: 300,
                kill_iters: vec![160],
                seq_check_iters: 300,
                ..cr_latency()
            }),
        },
        Workload {
            name: "fd-scale",
            why: "1 024 ranks + 1 detector, no rank threads: wide fan-out scans, kill-8 detect+ack and a notify flood, the transport used for throughput not latency",
            kind: Kind::FdScale,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------
// Seed → inputs
// ---------------------------------------------------------------------

/// SplitMix64: one well-mixed `u64` per `(seed, stream)` pair.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs `--seed` generates; the program under test sees only these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Lanczos start vector.
    pub lanczos: u64,
    /// `GaspiConfig` seed (transport jitter).
    pub gaspi: u64,
    /// Victim choice.
    pub victims: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Self {
        Self { lanczos: mix(seed, 1), gaspi: mix(seed, 2), victims: mix(seed, 3) }
    }
}

/// `n` distinct victims among the initial workers other than app rank 0
/// (GASPI ranks `1..workers`), in kill order: a seeded partial shuffle.
pub fn pick_victims(seed: u64, workers: u32, n: usize) -> Vec<Rank> {
    pick_distinct(seed, 1, workers, n)
}

/// `n` distinct ranks in `lo..hi`, by a seeded partial Fisher–Yates shuffle.
pub fn pick_distinct(seed: u64, lo: Rank, hi: Rank, n: usize) -> Vec<Rank> {
    let mut pool: Vec<Rank> = (lo..hi).collect();
    assert!(n <= pool.len(), "cannot pick {n} distinct ranks from {lo}..{hi}");
    for i in 0..n {
        let j = i + (mix(seed, i as u64) % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(Seeds::from(7), Seeds::from(7));
        assert_ne!(Seeds::from(7), Seeds::from(8));
        assert_eq!(pick_victims(42, 4, 3), pick_victims(42, 4, 3));
    }

    #[test]
    fn victims_are_distinct_workers_other_than_rank_zero() {
        for seed in 0..50 {
            let v = pick_victims(seed, 4, 3);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 2, 3], "seed {seed}: {v:?}");
        }
        let eight = pick_distinct(9, 0, 1008, 8);
        let mut d = eight.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn kill_points_fit_the_job_and_its_spares() {
        for w in all() {
            let Kind::Job(j) = w.kind else { continue };
            assert!(j.kill_iters.iter().all(|&k| k > 0 && k < j.iters), "{}", w.name);
            assert!((j.kill_iters.len() as u32) < j.spares, "{}: a rescue per kill", w.name);
            assert!(j.kill_iters.len() < j.workers as usize, "{}", w.name);
            let q = j.quick();
            assert!(q.kill_iters.iter().all(|&k| k < q.iters), "{} quick", w.name);
        }
    }

    #[test]
    fn names_use_the_contract_charset() {
        for w in all() {
            assert!(crate::report::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
