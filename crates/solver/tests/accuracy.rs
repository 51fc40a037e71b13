//! The one-reduction recurrence against the classical one. `SeqLanczos`
//! (and so every distributed run, bit for bit at one worker) takes β from
//! an expansion of `‖w − αv − β_prev·v_prev‖²` over six inner products
//! reduced together; the textbook step reduces `⟨w,v⟩`, updates `w`, and
//! reduces `‖w‖²` a second time. Their extreme Ritz values must agree at
//! the benchmark's shapes and seeds, and through an exact breakdown.

use ft_matgen::graphene::Graphene;
use ft_matgen::spectra::{Diagonal, ToeplitzTridiag};
use ft_matgen::RowGen;
use ft_solver::seq::SeqLanczos;
use ft_solver::{tridiag_eigenvalues, LanczosState};

/// The textbook Lanczos step with two reductions, from the same start
/// vector: `(alphas, betas)`.
fn classical<G: RowGen>(gen: &G, iters: u64, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let n = gen.dim() as usize;
    let mut v = LanczosState::init(0, n, seed).v;
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    v.iter_mut().for_each(|x| *x /= norm);
    let mut v_prev = vec![0.0; n];
    let (mut alphas, mut betas): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut row = Vec::new();
    for _ in 0..iters {
        let mut w: Vec<f64> = (0..n as u64)
            .map(|i| {
                gen.row(i, &mut row);
                row.iter().map(|e| e.val * v[e.col as usize]).sum()
            })
            .collect();
        let alpha: f64 = w.iter().zip(&v).map(|(a, b)| a * b).sum();
        let beta_prev = betas.last().copied().unwrap_or(0.0);
        for ((wi, vi), pi) in w.iter_mut().zip(&v).zip(&v_prev) {
            *wi -= alpha * vi + beta_prev * pi;
        }
        let beta = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        alphas.push(alpha);
        betas.push(beta);
        let next = w.iter().map(|x| if beta > 0.0 { x / beta } else { 0.0 }).collect();
        v_prev = std::mem::replace(&mut v, next);
    }
    (alphas, betas)
}

/// Lowest and highest Ritz value of the leading `k × k` tridiagonal.
fn extremes(alphas: &[f64], betas: &[f64], k: usize) -> [f64; 2] {
    let eig = tridiag_eigenvalues(&alphas[..k], &betas[..k - 1]);
    [eig[0], eig[k - 1]]
}

/// Run both recurrences for the longest of `ks` and hold the extreme Ritz
/// values of every leading `k × k` tridiagonal to `tol` relative.
fn agree<G: RowGen>(gen: &G, ks: &[u64], seed: u64, tol: f64, what: &str) {
    let iters = *ks.iter().max().unwrap();
    let seq = SeqLanczos::run(gen, iters, seed);
    let (alphas, betas) = classical(gen, iters, seed);
    for &k in ks {
        let got = extremes(&seq.alphas, &seq.betas, k as usize);
        let want = extremes(&alphas, &betas, k as usize);
        for (g, w) in got.iter().zip(&want) {
            let rel = ((g - w) / w).abs();
            assert!(rel <= tol, "{what}, seed {seed:#x}, {k} steps: {g} vs {w} ({rel:e} relative)");
        }
    }
}

/// The benchmark's seed derivation for the Lanczos start vector.
fn bench_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn the_latency_shape_agrees_with_two_reductions() {
    // Graphene 48×32: the sequential checks of `cr-latency` (400 steps),
    // `replicated-latency` and `cr-tcp` (300), `abft-latency` (100), and of
    // their `--quick` profiles (80, 60, 20).
    let gen = Graphene::new(48, 32).with_nnn(-0.1);
    for seed in 1..=3 {
        agree(&gen, &[20, 60, 80, 100, 300, 400], bench_seed(seed), 1e-12, "graphene 48×32");
    }
}

#[test]
fn the_kernel_shape_agrees_with_two_reductions() {
    // Graphene 256×256: `cr-kernel`'s sequential check (24 steps; 16 quick).
    let gen = Graphene::new(256, 256).with_nnn(-0.1);
    agree(&gen, &[16, 24], bench_seed(1), 1e-12, "graphene 256×256");
}

#[test]
fn breakdown_agrees_with_two_reductions() {
    // The diagonal breaks down exactly at step 48; 60 steps run past it.
    let diag = Diagonal::new((1..=48).map(f64::from).collect());
    let toeplitz = ToeplitzTridiag::new(240, 2.0, -1.0);
    for seed in [3, 7, 0x1A5C_205E] {
        agree(&diag, &[48, 60], seed, 1e-10, "Diagonal(48)");
        agree(&toeplitz, &[60], seed, 1e-10, "ToeplitzTridiag(240)");
    }
}
