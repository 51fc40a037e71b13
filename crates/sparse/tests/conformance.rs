//! Kernel-conformance suite for the one spMVM kernel: [`Csr::spmv`]
//! against a dense reference over proptest-generated matrices (varying
//! size, random structure, empty rows, empty matrices), `spmv` against
//! `spmv_add` on a zeroed `y`, and the degenerate shapes as named tests.

use proptest::prelude::*;

use ft_sparse::{CommPlan, Csr, DistMatrix, RowPartition};

fn bits(y: &[f64]) -> Vec<u64> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// Build a CSR from raw proptest output: cols are folded into the column
/// space, sorted, deduped (keeping the first value for a duplicate).
fn build(raw_rows: &[Vec<(u32, f64)>], ncols: usize) -> Csr {
    let rows: Vec<Vec<(u32, f64)>> = raw_rows
        .iter()
        .map(|r| {
            let mut r: Vec<(u32, f64)> = r.iter().map(|&(c, v)| (c % ncols as u32, v)).collect();
            r.sort_by_key(|&(c, _)| c);
            r.dedup_by_key(|&mut (c, _)| c);
            r
        })
        .collect();
    let a = Csr::from_rows(&rows, ncols);
    a.validate();
    a
}

proptest! {
    /// `spmv` equals the dense row-by-column product, bitwise: the dense
    /// loop adds the same terms in the same ascending-column order, and
    /// the extra `0.0 * x[c]` terms of unstored entries are exact
    /// identities for finite `x`.
    #[test]
    fn spmv_matches_dense_reference(
        nrows in 0usize..48,
        ncols in 1usize..48,
        raw_rows in proptest::collection::vec(
            proptest::collection::vec((0u32..1024, -2.0f64..2.0), 0..14), 0..48),
        xs in proptest::collection::vec(-2.0f64..2.0, 48),
    ) {
        let raw_rows = &raw_rows[..nrows.min(raw_rows.len())];
        let a = build(raw_rows, ncols);
        let x = &xs[..ncols];
        let n = a.nrows();
        let mut dense = vec![0.0f64; n * ncols];
        for i in 0..n {
            for (c, v) in a.row(i) {
                dense[i * ncols + c as usize] = v;
            }
        }
        let y_ref: Vec<f64> = (0..n)
            .map(|i| (0..ncols).fold(0.0, |acc, c| acc + dense[i * ncols + c] * x[c]))
            .collect();
        let mut y = vec![f64::NAN; n]; // stale y must not leak into the product
        a.spmv(x, &mut y);
        prop_assert_eq!(bits(&y), bits(&y_ref));
    }

    /// The accumulating entry point on a fresh vector is the same product.
    #[test]
    fn spmv_add_on_zeroed_y_matches_spmv(
        nrows in 0usize..40,
        ncols in 1usize..40,
        raw_rows in proptest::collection::vec(
            proptest::collection::vec((0u32..1024, -2.0f64..2.0), 0..10), 0..40),
        xs in proptest::collection::vec(-2.0f64..2.0, 40),
    ) {
        let raw_rows = &raw_rows[..nrows.min(raw_rows.len())];
        let a = build(raw_rows, ncols);
        let x = &xs[..ncols];
        let mut y = vec![f64::NAN; a.nrows()];
        a.spmv(x, &mut y);
        let mut y_add = vec![0.0; a.nrows()];
        a.spmv_add(x, &mut y_add);
        prop_assert_eq!(bits(&y), bits(&y_add));
    }
}

/// The degenerate shapes, pinned as named tests so a regression is
/// visible in `cargo test` output by name.
mod degenerate {
    use super::*;

    fn spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
        let mut y = vec![f64::NAN; a.nrows()];
        a.spmv(x, &mut y);
        y
    }

    #[test]
    fn empty_matrix_zero_rows() {
        assert!(spmv(&Csr::empty(0, 5), &[1.0; 5]).is_empty());
    }

    #[test]
    fn empty_column_space_all_rows_empty() {
        // ncols == 1 with no stored entries is the smallest legal column
        // space (the kernel asserts `x.len() >= ncols`); it must write
        // exact zeros to every row and never read `x`.
        let a = Csr::from_rows(&[vec![], vec![], vec![]], 1);
        assert_eq!(spmv(&a, &[f64::NAN]), vec![0.0; 3], "must not read x for empty rows");
    }

    #[test]
    fn single_row_matches_dot_product() {
        let a = Csr::from_rows(&[vec![(0, 2.0), (2, -3.0), (3, 0.5)]], 4);
        let x = [1.0, 99.0, 2.0, 4.0];
        let expect = (2.0 * 1.0 + -3.0 * 2.0) + 0.5 * 4.0;
        assert_eq!(spmv(&a, &x), vec![expect]);
    }

    #[test]
    fn halo_free_rank_multiplies_with_an_empty_halo() {
        use ft_matgen::spectra::ToeplitzTridiag;
        let gen = ToeplitzTridiag::new(6, 2.0, -1.0);
        let part = RowPartition::new(6, 1);
        let needed = DistMatrix::needed_columns(&gen, &part, 0);
        let plan = CommPlan::receives_from_needs(0, 1, &needed);
        let dm = DistMatrix::assemble(&gen, part, 0, plan);
        assert_eq!((dm.plan.halo_len, dm.a_rem.ncols), (0, 0));
        let mut y = vec![f64::NAN; 6];
        dm.spmv(&[1.0; 6], &[], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }
}
