//! Property tests for the QL tridiagonal eigenvalue solver.

use proptest::prelude::*;

use ft_solver::tridiag::tridiag_eigenvalues;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// QL output: right count, ascending order, trace preserved,
    /// Gershgorin-bounded.
    #[test]
    fn ql_spectrum_invariants(
        alpha in proptest::collection::vec(-10.0f64..10.0, 1..40),
    ) {
        let n = alpha.len();
        let beta: Vec<f64> =
            (0..n - 1).map(|i| ((i as f64) * 1.37).sin() * 3.0).collect();
        let eig = tridiag_eigenvalues(&alpha, &beta);
        prop_assert_eq!(eig.len(), n);
        prop_assert!(eig.windows(2).all(|w| w[0] <= w[1]), "ascending");
        let trace: f64 = alpha.iter().sum();
        let sum: f64 = eig.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7 * (1.0 + trace.abs()), "trace preserved");
        // Gershgorin: every eigenvalue within max disc.
        let bound = (0..n)
            .map(|i| {
                let r = if i > 0 { beta[i - 1].abs() } else { 0.0 }
                    + if i + 1 < n { beta[i].abs() } else { 0.0 };
                alpha[i].abs() + r
            })
            .fold(0.0f64, f64::max);
        for &l in &eig {
            prop_assert!(l.abs() <= bound + 1e-7);
        }
    }

    /// Eigenvalues are continuous in the matrix entries: a zero
    /// off-diagonal splits into independent blocks whose union matches.
    #[test]
    fn ql_block_split(
        a1 in proptest::collection::vec(-5.0f64..5.0, 1..8),
        a2 in proptest::collection::vec(-5.0f64..5.0, 1..8),
    ) {
        let mut alpha = a1.clone();
        alpha.extend_from_slice(&a2);
        let n = alpha.len();
        let mut beta = vec![0.7; n - 1];
        beta[a1.len() - 1] = 0.0; // decouple the blocks... unless a1 is all
        // Block split only well-defined when a1 isn't the whole matrix.
        prop_assume!(a1.len() < n);
        let whole = tridiag_eigenvalues(&alpha, &beta);
        let mut parts = tridiag_eigenvalues(&a1, &beta[..a1.len() - 1]);
        parts.extend(tridiag_eigenvalues(&a2, &beta[a1.len()..]));
        parts.sort_by(f64::total_cmp);
        for (w, p) in whole.iter().zip(&parts) {
            prop_assert!((w - p).abs() < 1e-8, "{w} vs {p}");
        }
    }
}
