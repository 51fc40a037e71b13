//! Criterion micro-benchmarks of the application substrates: graphene row
//! generation, the local SpMV kernel, spMVM pre-processing, the QL
//! tridiagonal eigenvalue solve (the paper's `CalcMinimumEigenVal`
//! ingredient), and the checkpoint paths (local write, neighbor
//! replication, restore).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ft_checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy};
use ft_gaspi::{GaspiConfig, GaspiWorld};
use ft_matgen::graphene::Graphene;
use ft_matgen::RowGen;
use ft_solver::tridiag::tridiag_eigenvalues;
use ft_sparse::{CommPlan, DistMatrix, RowPartition};

fn bench_matgen(c: &mut Criterion) {
    let gen = Graphene::new(256, 256).with_nnn(-0.1).with_disorder(0.5, 9);
    let mut buf = Vec::new();
    c.bench_function("graphene row generation", |b| {
        let mut i = 0u64;
        b.iter(|| {
            gen.row(i % gen.dim(), &mut buf);
            i += 1;
            criterion::black_box(buf.len())
        });
    });
}

fn assemble(lx: u64, ly: u64, parts: u32, me: u32) -> DistMatrix {
    let gen = Graphene::new(lx, ly).with_nnn(-0.1);
    let part = RowPartition::new(gen.dim(), parts);
    let needed = DistMatrix::needed_columns(&gen, &part, me);
    let plan = CommPlan::receives_from_needs(me, parts, &needed);
    DistMatrix::assemble(&gen, part, me, plan)
}

fn bench_spmv(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_spmv");
    for (lx, ly) in [(32u64, 32u64), (128, 128)] {
        let dm = assemble(lx, ly, 4, 1);
        let x = vec![1.0; dm.local_len()];
        let halo = vec![0.5; dm.plan.halo_len.max(1)];
        let mut y = vec![0.0; dm.local_len()];
        let rows = dm.local_len();
        g.bench_with_input(BenchmarkId::new("csr", rows), &rows, |b, _| {
            b.iter(|| {
                dm.spmv(&x, &halo, &mut y);
                criterion::black_box(y[0])
            });
        });
    }
    g.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    // The pure (local) half of the paper's expensive pre-processing step:
    // needed-column scan + chunk assembly.
    let gen = Arc::new(Graphene::new(96, 64).with_nnn(-0.1));
    let part = RowPartition::new(gen.dim(), 8);
    c.bench_function("spmvm preprocessing (scan+assemble, 1 rank)", |b| {
        b.iter(|| {
            let needed = DistMatrix::needed_columns(gen.as_ref(), &part, 3);
            let plan = CommPlan::receives_from_needs(3, 8, &needed);
            criterion::black_box(DistMatrix::assemble(gen.as_ref(), part, 3, plan).a_loc.nnz())
        });
    });
}

fn bench_ql(c: &mut Criterion) {
    let mut g = c.benchmark_group("ql_tridiag_eigenvalues");
    for n in [100usize, 1000, 3500] {
        let alpha: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let beta: Vec<f64> = (0..n - 1).map(|i| 0.5 + (i as f64 * 0.05).cos() * 0.3).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| criterion::black_box(tridiag_eigenvalues(&alpha, &beta).len()));
        });
    }
    g.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let world = GaspiWorld::new(GaspiConfig::new(4));
    let p1 = world.proc_handle(1);
    let ck = Checkpointer::new(&p1, CheckpointerConfig::for_tag(1), None);
    let mut g = c.benchmark_group("checkpoint");
    g.sample_size(20);
    for size in [4096usize, 1 << 20] {
        let payload = vec![0xA5u8; size];
        let mut v = 0u64;
        g.bench_with_input(BenchmarkId::new("local_write", size), &size, |b, _| {
            b.iter(|| {
                v += 1;
                ck.commit(v, payload.clone(), CopyPolicy::LocalOnly);
            });
        });
        g.bench_with_input(BenchmarkId::new("write_plus_neighbor_copy", size), &size, |b, _| {
            b.iter(|| {
                v += 1;
                ck.commit(v, payload.clone(), CopyPolicy::Replicate);
                assert!(ck.drain(Duration::from_secs(10)));
            });
        });
        g.bench_with_input(BenchmarkId::new("restore_local", size), &size, |b, _| {
            ck.commit(v, payload.clone(), CopyPolicy::Replicate);
            assert!(ck.drain(Duration::from_secs(10)));
            b.iter(|| {
                criterion::black_box(
                    ck.restore_latest(1, Duration::from_secs(5)).hit().unwrap().version,
                )
            });
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(Duration::from_secs(3));
    targets = bench_matgen, bench_spmv, bench_preprocessing, bench_ql, bench_checkpoint
);
criterion_main!(benches);
