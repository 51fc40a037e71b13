//! Adversarial float-edge properties: NaN, ±Inf, and subnormal values in
//! `x`, in the halo, and in the matrix itself must stay **contained** —
//! they may poison exactly the rows whose stored entries reference them,
//! and nothing else.

use proptest::prelude::*;

use ft_sparse::{CommPlan, Csr, DistMatrix, RowPartition};

fn spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows()];
    a.spmv(x, &mut y);
    y
}

/// The poison palette: index into this with a proptest-chosen selector.
const POISONS: [f64; 5] =
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE / 4.0, -1.0e-310];

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
    Csr::from_rows(&rows, ncols)
}

proptest! {
    /// Poison arbitrary columns of `x`: rows that do not reference a
    /// poisoned column must be bitwise unaffected.
    #[test]
    fn poisoned_x_columns_stay_contained(
        nrows in 1usize..32,
        ncols in 1usize..32,
        raw_rows in proptest::collection::vec(
            proptest::collection::vec((0u32..1024, -2.0f64..2.0), 0..10), 1..32),
        xs in proptest::collection::vec(-2.0f64..2.0, 32),
        poison_sel in proptest::collection::vec((0usize..32, 0usize..POISONS.len()), 1..5),
    ) {
        let raw_rows = &raw_rows[..nrows.min(raw_rows.len())];
        let a = build(raw_rows, ncols);
        let x_clean = &xs[..ncols];
        let mut x = x_clean.to_vec();
        let mut poisoned = vec![false; ncols];
        for &(pos, kind) in &poison_sel {
            let col = pos % ncols;
            x[col] = POISONS[kind];
            poisoned[col] = true;
        }
        let yc = spmv(&a, x_clean);
        let yd = spmv(&a, &x);
        for i in 0..a.nrows() {
            if a.row(i).any(|(col, _)| poisoned[col as usize]) {
                continue; // this row may legitimately see the poison
            }
            prop_assert_eq!(
                yc[i].to_bits(), yd[i].to_bits(),
                "row {}: {} leaked into a row that references no poisoned column (clean {})",
                i, yd[i], yc[i]
            );
        }
    }

    /// Poison stored matrix values: only the owning rows may change.
    #[test]
    fn poisoned_matrix_values_stay_contained(
        nrows in 1usize..32,
        ncols in 1usize..32,
        raw_rows in proptest::collection::vec(
            proptest::collection::vec((0u32..1024, -2.0f64..2.0), 0..10), 1..32),
        xs in proptest::collection::vec(-2.0f64..2.0, 32),
        poison_sel in proptest::collection::vec((0usize..32, 0usize..POISONS.len()), 1..4),
    ) {
        let raw_rows = &raw_rows[..nrows.min(raw_rows.len())];
        let a = build(raw_rows, ncols);
        let x = &xs[..ncols];
        // Rebuild with poisoned values in the chosen rows' first entries.
        let mut rows: Vec<Vec<(u32, f64)>> =
            (0..a.nrows()).map(|i| a.row(i).collect()).collect();
        let mut hit = vec![false; a.nrows()];
        for &(pos, kind) in &poison_sel {
            let i = pos % a.nrows();
            if let Some(e) = rows[i].first_mut() {
                e.1 = POISONS[kind];
                hit[i] = true;
            }
        }
        let b = Csr::from_rows(&rows, ncols);
        let yc = spmv(&a, x);
        let yd = spmv(&b, x);
        for i in 0..a.nrows() {
            if hit[i] {
                continue;
            }
            prop_assert_eq!(
                yc[i].to_bits(), yd[i].to_bits(),
                "row {}: poisoned matrix value leaked across rows", i
            );
        }
    }
}

/// An explicitly stored zero times an infinite `x` entry is NaN — for the
/// row that stores it, and for no other row.
#[test]
fn stored_zero_times_inf_poisons_only_its_row() {
    let rows: Vec<Vec<(u32, f64)>> = vec![
        vec![(0, 1.0)],
        vec![(1, 0.0)], // 0.0 * inf = NaN
        vec![(2, 2.0)],
    ];
    let a = Csr::from_rows(&rows, 3);
    let x = [1.0, f64::INFINITY, 1.0];
    let y = spmv(&a, &x);
    assert_eq!(y[0].to_bits(), 1.0f64.to_bits());
    assert!(y[1].is_nan(), "0·∞ must be NaN");
    assert_eq!(y[2].to_bits(), 2.0f64.to_bits());
}

/// Halo poisoning through the distributed layer: NaN in every halo slot
/// must reach exactly the rows with remote entries (the partition-border
/// rows of a tridiagonal matrix).
#[test]
fn poisoned_halo_reaches_only_border_rows() {
    use ft_matgen::spectra::ToeplitzTridiag;

    let n = 30u64;
    let gen = ToeplitzTridiag::new(n, 2.0, -1.0);
    let part = RowPartition::new(n, 3);
    let me = 1u32; // middle chunk: remote rows are its first and last
    let needed = DistMatrix::needed_columns(&gen, &part, me);
    let plan = CommPlan::receives_from_needs(me, 3, &needed);
    let dm = DistMatrix::assemble(&gen, part, me, plan);
    let x_local = vec![1.0; dm.local_len()];
    let clean_halo = vec![1.0; dm.plan.halo_len];
    let nan_halo = vec![f64::NAN; dm.plan.halo_len];
    let mut y_clean = vec![0.0; dm.local_len()];
    let mut y_dirty = vec![0.0; dm.local_len()];
    for (halo, y) in [(&clean_halo, &mut y_clean), (&nan_halo, &mut y_dirty)] {
        dm.spmv_local(&x_local, y);
        dm.spmv_remote_add(halo, y);
    }
    let last = dm.local_len() - 1;
    for i in 0..dm.local_len() {
        if i == 0 || i == last {
            assert!(y_dirty[i].is_nan(), "border row {i} must see the halo");
        } else {
            assert_eq!(
                y_clean[i].to_bits(),
                y_dirty[i].to_bits(),
                "interior row {i} must not touch the halo"
            );
        }
    }
}
