//! Eigenvalues of a symmetric tridiagonal matrix by the QL method with
//! implicit shifts (the classic EISPACK `tql1`, as used by the paper's
//! `CalcMinimumEigenVal` step).

/// Eigenvalues (ascending) of the symmetric tridiagonal matrix with
/// diagonal `alpha` and sub-diagonal `beta` (`beta.len() + 1 ==
/// alpha.len()`; `beta[i]` couples rows `i` and `i+1`).
///
/// # Panics
/// Panics if the lengths are inconsistent or the iteration fails to
/// converge (pathological input; 50 sweeps is twice EISPACK's bound).
pub fn tridiag_eigenvalues(alpha: &[f64], beta: &[f64]) -> Vec<f64> {
    let n = alpha.len();
    assert!(n >= 1, "empty tridiagonal matrix");
    assert_eq!(beta.len() + 1, n, "sub-diagonal must have n-1 entries");
    let mut d = alpha.to_vec();
    // Work array: e[i] couples i and i+1; e[n-1] is a scratch zero.
    let mut e = Vec::with_capacity(n);
    e.extend_from_slice(beta);
    e.push(0.0);

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a negligible off-diagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "QL iteration failed to converge");
            // Implicit shift from the 2x2 block at l.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                f = 0.0;
                let _ = f;
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(f64::total_cmp);
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < tol, "{g} vs {w} (tol {tol})\n got={got:?}\nwant={want:?}");
        }
    }

    #[test]
    fn one_by_one() {
        assert_eq!(tridiag_eigenvalues(&[3.5], &[]), vec![3.5]);
    }

    #[test]
    fn two_by_two_analytic() {
        // [[a, b], [b, c]] → ((a+c) ± sqrt((a-c)^2 + 4b^2)) / 2
        let (a, b, c): (f64, f64, f64) = (1.0, 2.0, -1.0);
        let disc = ((a - c) * (a - c) + 4.0 * b * b).sqrt();
        let want = vec![(a + c - disc) / 2.0, (a + c + disc) / 2.0];
        assert_close(&tridiag_eigenvalues(&[a, c], &[b]), &want, 1e-12);
    }

    #[test]
    fn toeplitz_spectrum() {
        // diag a, off b: eigenvalues a + 2b cos(kπ/(n+1)).
        let n = 25;
        let (a, b) = (2.0, -1.0);
        let alpha = vec![a; n];
        let beta = vec![b; n - 1];
        let got = tridiag_eigenvalues(&alpha, &beta);
        let mut want: Vec<f64> = (1..=n)
            .map(|k| a + 2.0 * b * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
            .collect();
        want.sort_by(f64::total_cmp);
        assert_close(&got, &want, 1e-10);
    }

    #[test]
    fn diagonal_matrix_passthrough() {
        let alpha = [5.0, -3.0, 0.5, 2.0];
        let beta = [0.0, 0.0, 0.0];
        assert_close(&tridiag_eigenvalues(&alpha, &beta), &[-3.0, 0.5, 2.0, 5.0], 1e-14);
    }

    #[test]
    fn eigenvalue_sum_equals_trace() {
        // Random-ish fixed tridiagonal: trace is invariant.
        let alpha = [0.3, -1.7, 2.2, 0.9, -0.4, 1.1];
        let beta = [0.5, -0.2, 1.3, 0.7, -0.9];
        let eig = tridiag_eigenvalues(&alpha, &beta);
        let trace: f64 = alpha.iter().sum();
        let sum: f64 = eig.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
        // And the spectrum is sorted.
        assert!(eig.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "sub-diagonal")]
    fn length_mismatch_panics() {
        tridiag_eigenvalues(&[1.0, 2.0], &[0.1, 0.2]);
    }
}
