//! Single-process reference Lanczos, for validating the distributed
//! solver against ground truth and against itself.

use ft_matgen::RowGen;

use crate::lanczos::{products, LanczosState};
use crate::tridiag::tridiag_eigenvalues;

/// Result of a sequential Lanczos run.
#[derive(Debug, Clone)]
pub struct SeqLanczos {
    /// α history.
    pub alphas: Vec<f64>,
    /// β history (the norms produced by each step).
    pub betas: Vec<f64>,
}

impl SeqLanczos {
    /// Run `iters` Lanczos steps on the full matrix from `gen`, starting
    /// from the same vector, by the same steps as the distributed solver:
    /// one worker matches it bit for bit.
    pub fn run<G: RowGen>(gen: &G, iters: u64, seed: u64) -> Self {
        let n = gen.dim() as usize;
        let mut st = LanczosState::init(0, n, seed);
        let norm = st.v.iter().map(|x| x * x).sum::<f64>().sqrt();
        st.v.iter_mut().for_each(|x| *x /= norm);
        let (mut w, mut row) = (vec![0.0; n], Vec::with_capacity(gen.max_row_entries()));
        for _ in 0..iters {
            for (i, wi) in w.iter_mut().enumerate() {
                gen.row(i as u64, &mut row);
                *wi = row.iter().fold(0.0, |acc, e| acc + e.val * st.v[e.col as usize]);
            }
            let sums = products(&w, &st.v, &st.v_prev);
            st.advance((&mut w, &[]), sums, Ok).expect("a local sum does not fail");
        }
        Self { alphas: st.alphas, betas: st.betas }
    }

    /// Eigenvalue estimates (ascending) of the Lanczos tridiagonal.
    pub fn eigenvalues(&self) -> Vec<f64> {
        tridiag_eigenvalues(&self.alphas, &self.betas[..self.alphas.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_matgen::spectra::{Diagonal, ToeplitzTridiag};

    #[test]
    fn lanczos_finds_extreme_eigenvalues_of_diagonal() {
        let d = Diagonal::new((0..40).map(|i| f64::from(i) * 0.5).collect());
        let run = SeqLanczos::run(&d, 40, 7);
        let eig = run.eigenvalues();
        let exact = d.eigenvalues();
        // With a full Krylov space, extremes are essentially exact.
        assert!((eig[0] - exact[0]).abs() < 1e-8, "{} vs {}", eig[0], exact[0]);
        assert!(
            (eig.last().unwrap() - exact.last().unwrap()).abs() < 1e-8,
            "{} vs {}",
            eig.last().unwrap(),
            exact.last().unwrap()
        );
    }

    #[test]
    fn lanczos_converges_on_toeplitz_lowest() {
        // The (2,−1) Laplacian's edge eigenvalues cluster quadratically,
        // so convergence of the lowest one is slow; monotone improvement
        // plus a modest absolute error is the right check here.
        let t = ToeplitzTridiag::new(200, 2.0, -1.0);
        let exact = t.eigenvalues();
        let err = |iters: u64| {
            let run = SeqLanczos::run(&t, iters, 3);
            (run.eigenvalues()[0] - exact[0]).abs()
        };
        let (e40, e80, e160) = (err(40), err(80), err(160));
        assert!(e80 < e40 && e160 < e80, "errors must shrink: {e40} {e80} {e160}");
        assert!(e160 < 1e-4, "lowest eigenvalue error after 160 steps: {e160}");
    }
}
