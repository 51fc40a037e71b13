//! Layer probes: each times calls into one layer through its public API, at
//! the workload's shape where shape matters.
//!
//! Probes that need an `FtCtx` run inside the benchmark-owned [`ProbeApp`]
//! under `run_ft_job`; the rest drive `proc_handle`s, rank threads or the
//! transports directly. Every probed call is also a span of the traced pass.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use crate::api::{
    broadcast_plan, default_shards, run_ft_job, Checkpointer, CheckpointerConfig, CommPlan,
    CopyPolicy, DistMatrix, Endpoint, FaultPlane, FaultSchedule, FtApp, FtConfig, FtCtx, FtResult,
    GaspiConfig, GaspiWorld, Graphene, LanczosState, LatencyModel, QueueId, Rank, RecoveryPlan,
    ReduceOp, RowGen, RowPartition, SeqLanczos, SimTransport, SpmvComm, TcpTransport, Timeout,
    Topology, Transport, WorldLayout, ALLREDUCE_MAX_ELEMS,
};
use crate::e2e::fd_scale_layout;
use crate::fd::{Cluster, FdWorld};
use crate::report::Metric;
use crate::stats::{median, tail};
use crate::sysinfo::{cores, llc_bytes, mem_total_bytes, now_ns};
use crate::workloads::JobShape;

const T: Timeout = Timeout::Ms(30_000);

/// One probed call (or one batch of calls too cheap to time singly).
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpan {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Collects what the probes measure.
#[derive(Default)]
pub struct Probes {
    pub metrics: Vec<Metric>,
    pub spans: Vec<ProbeSpan>,
}

/// Spans kept per probe: enough to see the distribution in the trace viewer.
const SPANS_PER_PROBE: usize = 2000;

impl Probes {
    /// Time `f` once under `name`; returns its duration in ns.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = now_ns();
        let r = f();
        let end = now_ns();
        self.note(name, start, end);
        (r, (end - start) as f64)
    }

    fn note(&mut self, name: &'static str, start: u64, end: u64) {
        self.spans.push(ProbeSpan { name, start, end });
    }

    /// Record spans taken on other threads as `(start, end)` pairs and
    /// return their durations in ns.
    fn note_all(&mut self, name: &'static str, pairs: &[(u64, u64)]) -> Vec<f64> {
        for &(s, e) in pairs.iter().take(SPANS_PER_PROBE) {
            self.note(name, s, e);
        }
        pairs.iter().map(|&(s, e)| (e - s) as f64).collect()
    }

    /// A timing metric from ns samples, in `unit` (`scale` ns per unit), plus
    /// its `.tail` companion when `with_tail`.
    pub fn timing(
        &mut self,
        name: &str,
        unit: &'static str,
        scale: f64,
        ns: &[f64],
        with_tail: bool,
    ) {
        let scaled: Vec<f64> = ns.iter().map(|x| x / scale).collect();
        if with_tail {
            let (p, v) = tail(&scaled);
            let detail = format!("p{} of n={}", p * 100.0, scaled.len());
            self.metrics.push(Metric::single(format!("{name}.tail"), unit, v, &detail));
        }
        self.metrics.push(Metric::from_samples(name, unit, scaled));
    }

    fn single(&mut self, name: &str, unit: &'static str, value: f64, detail: &str) {
        self.metrics.push(Metric::single(name, unit, value, detail));
    }

    /// The median of an already recorded metric.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
    }
}

// ---------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------

/// Replies with nothing: the cheapest endpoint, so the transport is what is
/// timed.
struct Sink;
impl Endpoint for Sink {
    fn handle(&self, _src: Rank, _queue: QueueId, _msg: &[u8]) -> Vec<u8> {
        Vec::new()
    }
}

const RTT_CALLS: usize = 2000;

/// `Transport::call` ping-pong between ranks 0 and 1.
fn ping_pong(p: &mut Probes, name: &'static str, t: &dyn Transport) -> Vec<f64> {
    let (tx, rx) = mpsc::channel();
    (0..RTT_CALLS)
        .map(|_| {
            let tx = tx.clone();
            p.time(name, || {
                t.call(
                    0,
                    1,
                    0,
                    8,
                    vec![0; 8],
                    Box::new(move |out, _| {
                        let _ = tx.send(out);
                    }),
                );
                rx.recv_timeout(Duration::from_secs(10)).expect("ping-pong reply")
            })
            .1
        })
        .collect()
}

fn cluster_rtt(p: &mut Probes, seed: u64) {
    let fault = FaultPlane::new(Topology::one_per_node(2));
    let owner = SimTransport::start(LatencyModel::default_sim(), fault, seed);
    let t = owner.handle();
    (0..2).for_each(|r| t.bind(r, Arc::new(Sink)));
    let ns = ping_pong(p, "cluster.rtt", &t);
    p.timing("cluster.rtt_us", "us", 1e3, &ns, true);
}

fn cluster_tcp_rtt(p: &mut Probes) {
    let listen = |r| {
        let fault = FaultPlane::new(Topology::one_per_node(2));
        TcpTransport::listen(r, 2, fault, LatencyModel::default_sim()).expect("loopback listener")
    };
    let (t0, t1) = (listen(0), listen(1));
    let ports = [t0.port(), t1.port()];
    t0.set_peers(&ports);
    t1.set_peers(&ports);
    t0.bind(0, Arc::new(Sink));
    t1.bind(1, Arc::new(Sink));
    let ns = ping_pong(p, "cluster.tcp_rtt", &t0);
    t0.shutdown();
    t1.shutdown();
    p.timing("cluster.tcp_rtt_us", "us", 1e3, &ns, false);
}

const FLOOD_SENDS: u64 = 200_000;
const FLOOD_RANKS: u32 = 1024;

/// 200 k empty `send`s from two senders round-robin over 1 024 bound ranks,
/// zero-latency model: pure scheduler cost.
fn cluster_flood(p: &mut Probes) {
    let model = LatencyModel {
        base: Duration::ZERO,
        per_byte_ns: 0.0,
        jitter: 0.0,
        break_detect: Duration::from_micros(50),
    };
    let fault = FaultPlane::new(Topology::one_per_node(FLOOD_RANKS));
    let owner = SimTransport::start_sharded(model, fault, 99, default_shards());
    let t = owner.handle();
    let sink: Arc<dyn Endpoint> = Arc::new(Sink);
    (0..FLOOD_RANKS).for_each(|r| t.bind(r, Arc::clone(&sink)));
    let lat_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..FLOOD_SENDS).map(|_| AtomicU64::new(0)).collect());
    let done = Arc::new(AtomicU64::new(0));
    let per_sender = FLOOD_SENDS / 2;
    let ((), wall_ns) = p.time("cluster.flood", || {
        std::thread::scope(|s| {
            for sender in 0..2u64 {
                let (t, lat_ns, done) = (t.clone(), Arc::clone(&lat_ns), Arc::clone(&done));
                s.spawn(move || {
                    let src = sender as Rank;
                    for j in 0..per_sender {
                        let mut dst = (j % u64::from(FLOOD_RANKS)) as Rank;
                        if dst == src {
                            dst = (dst + 1) % FLOOD_RANKS;
                        }
                        let (lat_ns, done) = (Arc::clone(&lat_ns), Arc::clone(&done));
                        let idx = (sender * per_sender + j) as usize;
                        let posted = now_ns();
                        t.send(
                            src,
                            dst,
                            (j % 4) as QueueId,
                            0,
                            Vec::new(),
                            Box::new(move |_, _| {
                                lat_ns[idx].store(now_ns() - posted, Ordering::Relaxed);
                                done.fetch_add(1, Ordering::Release);
                            }),
                        );
                    }
                });
            }
        });
        while done.load(Ordering::Acquire) < FLOOD_SENDS {
            std::thread::yield_now();
        }
    });
    drop(owner);
    let mut lats: Vec<f64> =
        lat_ns.iter().map(|a| a.load(Ordering::Relaxed) as f64 / 1e3).collect();
    lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p99 = lats[(lats.len() as f64 * 0.99).ceil() as usize - 1];
    p.single("cluster.flood_msgs_per_s", "1/s", FLOOD_SENDS as f64 / (wall_ns / 1e9), "");
    p.single("cluster.flood_p99_us", "us", p99, "post → completion");
}

// ---------------------------------------------------------------------
// gaspi
// ---------------------------------------------------------------------

const SEG: u16 = 1;

fn gaspi_point_to_point(p: &mut Probes, seed: u64) {
    let world = GaspiWorld::new(GaspiConfig::new(2).with_seed(seed));
    let (p0, p1) = (world.proc_handle(0), world.proc_handle(1));
    p0.segment_create(SEG, 1 << 20).expect("segment");
    p1.segment_create(SEG, 1 << 20).expect("segment");
    let ns: Vec<f64> = (0..2000)
        .map(|_| {
            p.time("gaspi.write_notify", || {
                p0.write_notify(SEG, 0, 1, SEG, 0, 64, 3, 1, 0).expect("post");
                let nid = p1.notify_waitsome(SEG, 0, 8, T).expect("notification");
                p1.notify_reset(SEG, nid).expect("reset");
                p0.wait(0, T).expect("flush");
            })
            .1
        })
        .collect();
    p.timing("gaspi.write_notify_us", "us", 1e3, &ns, true);
    let ns: Vec<f64> = (0..30)
        .map(|_| {
            p.time("gaspi.write_1mib", || {
                p0.write(SEG, 0, 1, SEG, 0, 1 << 20, 0).expect("post");
                p0.wait(0, T).expect("flush");
            })
            .1
        })
        .collect();
    let mbs: Vec<f64> = ns.iter().map(|t| (1u64 << 20) as f64 / 1e6 / (t / 1e9)).collect();
    p.metrics.push(Metric::from_samples("gaspi.write_mbs", "MB/s", mbs));
}

/// Per-rank-0 `(start, end)` pairs of the four collective probes.
type CollectiveSpans = [Vec<(u64, u64)>; 4];

/// Collectives on a committed group of `workers` rank threads; `wide_words`
/// is the width of the wide XOR allreduce (the packed solver state).
fn gaspi_collectives(p: &mut Probes, workers: u32, wide_words: usize, seed: u64) {
    const GROUP: u64 = 1 << 32;
    let world = GaspiWorld::new(GaspiConfig::new(workers).with_seed(seed));
    let outs = world
        .launch(move |proc| {
            let g = proc.group_create_with_id(GROUP)?;
            for r in 0..proc.num_ranks() {
                proc.group_add(g, r)?;
            }
            proc.group_commit(g, T)?;
            let mut spans: CollectiveSpans = Default::default();
            for _ in 0..1000 {
                let t0 = now_ns();
                black_box(proc.allreduce_f64(g, &[1.0], ReduceOp::Sum, T)?);
                spans[0].push((t0, now_ns()));
            }
            for _ in 0..1000 {
                let t0 = now_ns();
                proc.barrier(g, T)?;
                spans[1].push((t0, now_ns()));
            }
            let wide = vec![u64::from(proc.rank()) + 1; wide_words];
            // ≈ 1 s of wide reductions whatever the state size.
            let reps = (3000 / wide_words.div_ceil(ALLREDUCE_MAX_ELEMS)).clamp(5, 40);
            for _ in 0..reps {
                let t0 = now_ns();
                for chunk in wide.chunks(ALLREDUCE_MAX_ELEMS) {
                    black_box(proc.allreduce_u64(g, chunk, ReduceOp::BitXor, T)?);
                }
                spans[2].push((t0, now_ns()));
            }
            for i in 0..100 {
                let t0 = now_ns();
                let fresh = proc.group_create_with_id(GROUP + 1 + i)?;
                for r in 0..proc.num_ranks() {
                    proc.group_add(fresh, r)?;
                }
                proc.group_commit(fresh, T)?;
                spans[3].push((t0, now_ns()));
                proc.group_delete(fresh)?;
            }
            Ok(spans)
        })
        .join();
    let spans = outs
        .into_iter()
        .next()
        .and_then(|o| o.completed())
        .expect("rank 0 finished its collectives");
    let [allreduce, barrier, wide, commit] = &spans;
    let ns = p.note_all("gaspi.allreduce", allreduce);
    p.timing("gaspi.allreduce_us", "us", 1e3, &ns, true);
    let ns = p.note_all("gaspi.barrier", barrier);
    p.timing("gaspi.barrier_us", "us", 1e3, &ns, true);
    let ns = p.note_all("gaspi.allreduce_wide", wide);
    p.timing("gaspi.allreduce_wide_us", "us", 1e3, &ns, false);
    let ns = p.note_all("gaspi.group_commit", commit);
    p.timing("gaspi.group_commit_us", "us", 1e3, &ns, false);
}

/// `proc_ping_many` and `ack::broadcast_plan` over 1 024 targets.
fn fd_fanout(p: &mut Probes, seed: u64) {
    let layout = fd_scale_layout();
    let w = FdWorld::build(Cluster::sim(GaspiConfig::new(layout.total()).with_seed(seed)), layout);
    let ns: Vec<f64> = (0..50)
        .map(|_| {
            let (failed, ns) =
                p.time("gaspi.ping_many", || w.fd.proc_ping_many(&w.targets, Timeout::Ms(2000)));
            assert_eq!(failed.ok(), Some(Vec::new()), "every target is healthy");
            ns
        })
        .collect();
    p.timing("gaspi.ping_many_us", "us", 1e3, &ns, false);
    let ns: Vec<f64> = (1..=30u64)
        .map(|epoch| {
            let plan = RecoveryPlan {
                epoch,
                failed: (0..8).collect(),
                rescues: (layout.num_workers..layout.num_workers + 8).collect(),
                fd_alive: true,
                fd_rank: None,
            };
            let (undelivered, ns) = p.time("core.ack_broadcast", || {
                broadcast_plan(&w.fd, &plan, &w.targets, 0, Timeout::Ms(2000))
            });
            assert_eq!(undelivered.ok(), Some(Vec::new()), "every target takes the plan");
            ns
        })
        .collect();
    p.timing("core.ack_broadcast_us", "us", 1e3, &ns, false);
}

// ---------------------------------------------------------------------
// sparse / matgen / machine
// ---------------------------------------------------------------------

/// One worker's chunk, assembled without a job: the receive side of the
/// plan is all `assemble` and the kernels need.
fn assemble_chunk(gen: &Graphene, part: RowPartition, me: u32) -> DistMatrix {
    let needed = DistMatrix::needed_columns(gen, &part, me);
    let plan = CommPlan::receives_from_needs(me, part.parts(), &needed);
    DistMatrix::assemble(gen, part, me, plan)
}

fn sparse_kernel(p: &mut Probes, shape: &JobShape) {
    let gen = shape.matrix();
    let part = RowPartition::new(gen.dim(), shape.workers);
    let rows0 = part.len(0) as f64;
    let mut assemble_ns = Vec::new();
    let chunks: Vec<DistMatrix> = (0..shape.workers)
        .map(|me| {
            let (dm, ns) = p.time("matgen.assemble", || assemble_chunk(&gen, part, me));
            if me == 0 {
                assemble_ns.push(ns);
            }
            dm
        })
        .collect();
    // Two more samples of chunk 0 for a median.
    for _ in 0..2 {
        assemble_ns.push(p.time("matgen.assemble", || black_box(assemble_chunk(&gen, part, 0))).1);
    }
    p.timing("matgen.assemble_s", "s", 1e9, &assemble_ns, false);
    p.single("matgen.rows_per_s", "1/s", rows0 / (median(&assemble_ns) / 1e9), "chunk 0");

    // All workers at once between barriers, so the probe sees the job's core
    // and bandwidth contention. Sized to ≈ 0.3 s of products.
    let flops0 = chunks[0].flops_per_spmv() as f64;
    let reps = ((0.3e9 / (flops0 / 1.5).max(1.0)) as usize).clamp(50, 2000);
    let barrier = Barrier::new(chunks.len());
    let per_rank: Vec<Vec<(u64, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|dm| {
                let barrier = &barrier;
                s.spawn(move || {
                    let x: Vec<f64> =
                        (0..dm.local_len()).map(|i| (i as f64 * 0.43).sin()).collect();
                    let halo: Vec<f64> =
                        (0..dm.plan.halo_len).map(|i| (i as f64 * 0.29).cos()).collect();
                    let mut y = vec![0.0; dm.local_len()];
                    (0..reps + 3)
                        .map(|_| {
                            barrier.wait();
                            let t0 = now_ns();
                            dm.spmv_local(black_box(&x), black_box(&mut y));
                            dm.spmv_remote_add(black_box(&halo), black_box(&mut y));
                            (t0, now_ns())
                        })
                        .skip(3) // warm-up
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("spmv probe thread")).collect()
    });
    let ns = p.note_all("sparse.spmv", &per_rank[0]);
    p.timing("sparse.spmv_us", "us", 1e3, &ns, false);
    let spmv_ns = median(&ns);
    p.single("sparse.spmv_gflops", "GFLOP/s", flops0 / spmv_ns, "chunk 0, all workers computing");

    // Computed from array sizes: every stored value and index, both row
    // pointer arrays, the gathered vector and halo, y written then updated.
    let dm = &chunks[0];
    let nnz = (dm.a_loc.nnz() + dm.a_rem.nnz()) as f64;
    let rows = dm.local_len() as f64;
    let bytes =
        12.0 * nnz + 16.0 * (rows + 1.0) + 8.0 * (rows + dm.plan.halo_len as f64) + 16.0 * rows;
    p.single("sparse.bytes_per_spmv", "B", bytes, "computed from array sizes, chunk 0");
    p.single("sparse.ops_per_byte", "flop/B", flops0 / bytes, "computed");
}

/// Largest triad array. First-touch page faults cost up to 7 s per GiB on
/// the reference box (a microVM whose memory the host backs lazily), so the
/// three arrays are kept to 384 MiB in total; a sweep over 64 MiB arrays
/// already runs at DRAM speed there (the 260 MiB L3 it reports is the host's,
/// not the guest's share).
const TRIAD_ARRAY_CAP: u64 = 128 << 20;

/// STREAM-style triad `a = b + s·c` on every core at once, arrays four times
/// the reported last-level cache where [`TRIAD_ARRAY_CAP`] and half of RAM
/// allow.
fn machine_triad(p: &mut Probes) {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let ram_cap = mem_total_bytes().map_or(u64::MAX, |m| m / 2 / 3);
    let array_bytes = (4 * llc).min(ram_cap).min(TRIAD_ARRAY_CAP);
    let threads = cores();
    let n = (array_bytes / 8) as usize / threads * threads;
    let per = n / threads;
    let (mut a, b, c) = (vec![0.0f64; n], vec![1.0f64; n], vec![2.0f64; n]);
    let mut best_ns = f64::INFINITY;
    for sweep in 0..3 {
        let ((), ns) = p.time("machine.triad", || {
            std::thread::scope(|s| {
                for ((a, b), c) in a.chunks_mut(per).zip(b.chunks(per)).zip(c.chunks(per)) {
                    s.spawn(move || {
                        for ((ai, bi), ci) in a.iter_mut().zip(b).zip(c) {
                            *ai = *bi + 3.0 * *ci;
                        }
                        black_box(a);
                    });
                }
            });
        });
        // The first sweep faults `a` in.
        if sweep > 0 {
            best_ns = best_ns.min(ns);
        }
    }
    let detail = format!(
        "{} arrays of {} MiB on {threads} threads; reported LLC {} MiB{}",
        3,
        array_bytes >> 20,
        llc >> 20,
        if array_bytes < 4 * llc { " — capped below 4 × LLC, see README" } else { "" }
    );
    p.single("machine.triad_gbs", "GB/s", 24.0 * n as f64 / best_ns, &detail);
}

// ---------------------------------------------------------------------
// Probes that need an FtCtx
// ---------------------------------------------------------------------

const HALO_EXCHANGES: usize = 1000;
const HEALTH_BATCHES: usize = 200;
const HEALTH_BATCH: usize = 100;

#[derive(Debug, Default, Clone)]
struct CtxSamples {
    negotiate: (u64, u64),
    halo: Vec<(u64, u64)>,
    health_batches: Vec<(u64, u64)>,
    send_values: usize,
}

/// Runs under `run_ft_job` at the workload's layout and matrix: the one-time
/// negotiation, then halo exchanges between barriers, then health checks.
struct ProbeApp {
    gen: Arc<Graphene>,
    out: CtxSamples,
}

impl FtApp for ProbeApp {
    type Summary = CtxSamples;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let part = RowPartition::new(self.gen.dim(), ctx.num_app_ranks());
        let me = ctx.app_rank();
        let needed = DistMatrix::needed_columns(self.gen.as_ref(), &part, me);
        let t0 = now_ns();
        let plan = CommPlan::receives_from_needs(me, part.parts(), &needed).negotiate(
            &ctx.proc,
            &|a| ctx.gaspi_of(a),
            part.range(me).start,
            T,
        )?;
        self.out.negotiate = (t0, now_ns());
        self.out.send_values = plan.send_volume();
        let dm = DistMatrix::assemble(self.gen.as_ref(), part, me, plan);
        let comm = SpmvComm::new(&ctx.proc, &dm.plan, 1, 2, 1)?;
        let x: Vec<f64> = (0..dm.local_len()).map(|i| (i as f64 * 0.43).sin()).collect();
        let mut halo = Vec::new();
        ctx.barrier_ft()?;
        for i in 0..HALO_EXCHANGES {
            let t0 = now_ns();
            let pending = comm.post(ctx, &dm.plan, &x, SpmvComm::tag_for_iter(i as u64))?;
            comm.wait(ctx, &dm.plan, pending, &mut halo)?;
            self.out.halo.push((t0, now_ns()));
            // Outside the timed section: keeps partners from overwriting a
            // halo that has not been read yet, as the solver's reductions do.
            ctx.barrier_ft()?;
        }
        for _ in 0..HEALTH_BATCHES {
            let t0 = now_ns();
            for _ in 0..HEALTH_BATCH {
                black_box(ctx.watch.check())?;
            }
            self.out.health_batches.push((t0, now_ns()));
        }
        ctx.barrier_ft()
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        unreachable!("the probe job schedules no failure")
    }

    fn step(&mut self, _ctx: &FtCtx, _iter: u64) -> FtResult<bool> {
        Ok(true)
    }

    fn rewire(&mut self, _ctx: &FtCtx, _plan: &RecoveryPlan) -> FtResult<()> {
        Ok(())
    }

    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<CtxSamples> {
        // App rank 0 tells the detector the job is done right after this
        // returns, and the detector then broadcasts shutdown: hold everyone
        // here until the slowest rank is past its last health check.
        ctx.barrier_ft()?;
        Ok(std::mem::take(&mut self.out))
    }
}

fn ctx_probes(p: &mut Probes, shape: &JobShape, seed: u64) {
    let layout = WorldLayout::new(shape.workers, 1);
    let world = GaspiWorld::new(GaspiConfig::new(layout.total()).with_seed(seed));
    let cfg = FtConfig::builder(layout)
        .max_iters(1)
        .checkpoint_every(0)
        .build()
        .expect("probe job config");
    let gen = Arc::new(shape.matrix());
    let report = run_ft_job(&world, cfg, FaultSchedule::none(), move |_| ProbeApp {
        gen: Arc::clone(&gen),
        out: CtxSamples::default(),
    });
    let summaries = report.worker_summaries();
    assert_eq!(
        summaries.len(),
        shape.workers as usize,
        "every probe rank finishes (first error: {:?})",
        report.first_error()
    );
    let negotiate: Vec<(u64, u64)> = summaries.iter().map(|(_, s)| s.negotiate).collect();
    let ns = p.note_all("sparse.negotiate", &negotiate);
    p.timing("sparse.negotiate_s", "s", 1e9, &ns, false);
    let rank0 = summaries[0].1;
    let ns = p.note_all("sparse.halo", &rank0.halo);
    p.timing("sparse.halo_us", "us", 1e3, &ns, true);
    p.single(
        "sparse.halo_bytes",
        "B",
        8.0 * rank0.send_values as f64,
        "count: 8 B × CommPlan::send_volume, rank 0",
    );
    let per_check: Vec<f64> = p
        .note_all("core.health_check_x100", &rank0.health_batches)
        .iter()
        .map(|b| b / HEALTH_BATCH as f64)
        .collect();
    p.timing("core.health_check_ns", "ns", 1.0, &per_check, false);
}

// ---------------------------------------------------------------------
// solver baseline and checkpoint
// ---------------------------------------------------------------------

fn solver_sequential(p: &mut Probes, shape: &JobShape, seed: u64) {
    let gen = shape.matrix();
    // ≈ 3 M generated rows whatever the matrix size.
    let iters = (3_000_000 / gen.dim()).clamp(5, 200);
    let (_, ns) = p.time("solver.seq", || black_box(SeqLanczos::run(&gen, iters, seed)));
    let detail = format!("{iters} iterations, single thread, rows generated on the fly");
    p.single("solver.seq_iters_per_s", "1/s", iters as f64 / (ns / 1e9), &detail);
}

/// The packed state of one rank halfway through the job.
fn state_image(shape: &JobShape, seed: u64) -> LanczosState {
    let rows = RowPartition::new(shape.rows(), shape.workers).len(0);
    let mut st = LanczosState::init(0, rows, seed);
    let half = (shape.iters / 2) as usize;
    st.alphas = (0..half).map(|i| i as f64 * 0.5).collect();
    st.betas = (0..half).map(|i| 1.0 + i as f64 * 0.25).collect();
    st.iter = half as u64;
    st
}

/// Words of the ABFT parity block for this shape: length header + state.
pub fn packed_state_words(shape: &JobShape, seed: u64) -> usize {
    1 + state_image(shape, seed).encode().len().div_ceil(8)
}

fn checkpoint(p: &mut Probes, shape: &JobShape, seed: u64) {
    const TAG: u32 = 0x40;
    let world = GaspiWorld::new(GaspiConfig::new(4).with_seed(seed));
    let ck = Checkpointer::new(&world.proc_handle(0), CheckpointerConfig::for_tag(TAG), None);
    let mut st = state_image(shape, seed);
    let every = shape.checkpoint_every.max(1);
    let (mut commit_ns, mut drain_ns, mut mbs) = (Vec::new(), Vec::new(), Vec::new());
    // Successive images: both vectors change wholesale, α/β grow by one
    // checkpoint interval.
    for version in 1..=12u64 {
        st.v.iter_mut().for_each(|x| *x += 1.0);
        std::mem::swap(&mut st.v, &mut st.v_prev);
        for _ in 0..every {
            st.alphas.push(st.iter as f64);
            st.betas.push(st.iter as f64 + 0.5);
            st.iter += 1;
        }
        let payload = st.encode();
        let bytes = payload.len() as f64;
        let ((), ns) =
            p.time("checkpoint.commit", || ck.commit(version, payload, CopyPolicy::Replicate));
        commit_ns.push(ns);
        mbs.push(bytes / 1e6 / (ns / 1e9));
        let (drained, ns) = p.time("checkpoint.drain", || ck.drain(Duration::from_secs(10)));
        assert!(drained, "neighbour copy completes");
        drain_ns.push(ns);
    }
    p.timing("checkpoint.commit_us", "us", 1e3, &commit_ns, false);
    p.metrics.push(Metric::from_samples("checkpoint.commit_mbs", "MB/s", mbs));
    p.timing("checkpoint.drain_us", "us", 1e3, &drain_ns, false);
    // A rescue on another node fetches rank 0's newest image from the
    // neighbour replica.
    let rescue = Checkpointer::new(&world.proc_handle(2), CheckpointerConfig::for_tag(TAG), None);
    let restore_ns: Vec<f64> = (0..10)
        .map(|_| {
            let (hit, ns) = p.time("checkpoint.restore", || {
                rescue.restore_latest(0, Duration::from_secs(10)).hit()
            });
            assert_eq!(hit.map(|r| r.version), Some(12), "newest version restored");
            ns
        })
        .collect();
    p.timing("checkpoint.restore_us", "us", 1e3, &restore_ns, false);
}

/// Run every standalone probe at `shape`.
pub fn run_all(shape: &JobShape, seed: u64) -> Probes {
    let mut p = Probes::default();
    cluster_rtt(&mut p, seed);
    cluster_flood(&mut p);
    cluster_tcp_rtt(&mut p);
    gaspi_point_to_point(&mut p, seed);
    gaspi_collectives(&mut p, shape.workers, packed_state_words(shape, seed), seed);
    fd_fanout(&mut p, seed);
    sparse_kernel(&mut p, shape);
    machine_triad(&mut p);
    let roofline = p.value("machine.triad_gbs") * p.value("sparse.ops_per_byte");
    p.single(
        "sparse.roofline_frac",
        "ratio",
        p.value("sparse.spmv_gflops") / roofline,
        "spmv_gflops ÷ (triad_gbs × ops_per_byte)",
    );
    ctx_probes(&mut p, shape, seed);
    solver_sequential(&mut p, shape, seed);
    checkpoint(&mut p, shape, seed);
    p
}
