//! Property tests: partition, halo slots, and distributed SpMV equality.

use proptest::prelude::*;

use ft_matgen::graphene::Graphene;
use ft_matgen::random::RandomSym;
use ft_matgen::spectra::ToeplitzTridiag;
use ft_matgen::RowGen;
use ft_sparse::{CommPlan, DistMatrix, RowPartition};

proptest! {
    /// Ranges tile, owner agrees, sizes differ by at most one.
    #[test]
    fn partition_invariants(n in 1u64..5000, parts in 1u32..64) {
        prop_assume!(n >= u64::from(parts));
        let p = RowPartition::new(n, parts);
        let mut covered = 0u64;
        let (mut min_len, mut max_len) = (usize::MAX, 0usize);
        for part in 0..parts {
            let r = p.range(part);
            prop_assert_eq!(r.start, covered);
            covered = r.end;
            min_len = min_len.min(p.len(part));
            max_len = max_len.max(p.len(part));
            prop_assert_eq!(p.owner(r.start), part);
            prop_assert_eq!(p.owner(r.end - 1), part);
        }
        prop_assert_eq!(covered, n);
        prop_assert!(max_len - min_len <= 1, "balanced within one row");
    }

    /// halo_slot finds exactly the planned columns, densely.
    #[test]
    fn halo_slots_are_dense_and_exact(
        cols_per_owner in proptest::collection::vec(
            proptest::collection::vec(0u64..1000, 0..10), 1..5),
    ) {
        // A global column has exactly one owner: drop duplicates across
        // owners, as the real needed-columns derivation guarantees.
        let mut needed = std::collections::BTreeMap::new();
        let mut claimed = std::collections::HashSet::new();
        for (i, mut cols) in cols_per_owner.into_iter().enumerate() {
            cols.sort_unstable();
            cols.dedup();
            cols.retain(|c| claimed.insert(*c));
            needed.insert(i as u32 + 1, cols);
        }
        let plan = CommPlan::receives_from_needs(0, 16, &needed);
        let mut seen = vec![false; plan.halo_len];
        for cols in needed.values() {
            for &c in cols {
                let slot = plan.halo_slot(c).expect("planned column must resolve");
                prop_assert!(!seen[slot], "slots must be unique");
                seen[slot] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "halo must be dense");
    }

    /// Chunked SpMV over any partition equals the global product.
    #[test]
    fn chunked_spmv_equals_global(
        n in 8u64..120,
        parts in 1u32..6,
        seed in any::<u64>(),
    ) {
        prop_assume!(n >= u64::from(parts));
        let gen = RandomSym::new(n, 4, 0.5, seed).with_diag_shift(2.0);
        let part = RowPartition::new(n, parts);
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).cos()).collect();
        // Global reference.
        let mut y_ref = vec![0.0; n as usize];
        for i in 0..n {
            for e in gen.row_vec(i) {
                y_ref[i as usize] += e.val * x[e.col as usize];
            }
        }
        for me in 0..parts {
            let needed = DistMatrix::needed_columns(&gen, &part, me);
            let plan = CommPlan::receives_from_needs(me, parts, &needed);
            let dm = DistMatrix::assemble(&gen, part, me, plan);
            dm.a_loc.validate();
            dm.a_rem.validate();
            let r = part.range(me);
            let x_local: Vec<f64> = r.clone().map(|i| x[i as usize]).collect();
            let mut halo = vec![0.0; dm.plan.halo_len];
            for recv in &dm.plan.recvs {
                for (k, &c) in recv.cols.iter().enumerate() {
                    halo[recv.halo_offset + k] = x[c as usize];
                }
            }
            let mut y = vec![0.0; dm.local_len()];
            dm.spmv_local(&x_local, &mut y);
            dm.spmv_remote_add(&halo, &mut y);
            for (k, row) in r.enumerate() {
                prop_assert!((y[k] - y_ref[row as usize]).abs() < 1e-10);
            }
        }
    }
}

/// Multiply every chunk of `gen` over `parts` parts split-phase
/// (`spmv_local`, then `spmv_remote_add`) and compare it bit for bit with
/// an independent row-by-row product in the same order: a row's local
/// terms summed in generator order, then its remote terms summed in halo
/// slot order and added once. Returns each part's count of rows with a
/// remote entry, so callers can check what a case covered.
fn check_split_product<G: RowGen>(gen: &G, parts: u32) -> Vec<usize> {
    let n = gen.dim();
    let part = RowPartition::new(n, parts);
    let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).cos()).collect();
    (0..parts)
        .map(|me| {
            let needed = DistMatrix::needed_columns(gen, &part, me);
            let plan = CommPlan::receives_from_needs(me, parts, &needed);
            let mine = part.range(me);
            let (mut want, mut remote_rows) = (Vec::new(), 0);
            for row in mine.clone() {
                let (mut loc, mut rem) = (0.0, Vec::new());
                for e in gen.row_vec(row) {
                    if mine.contains(&e.col) {
                        loc += e.val * x[e.col as usize];
                    } else {
                        rem.push((plan.halo_slot(e.col).unwrap(), e.val * x[e.col as usize]));
                    }
                }
                rem.sort_by_key(|&(slot, _)| slot);
                if !rem.is_empty() {
                    remote_rows += 1;
                    loc += rem.iter().fold(0.0, |acc, &(_, t)| acc + t);
                }
                want.push(loc.to_bits());
            }
            let dm = DistMatrix::assemble(gen, part, me, plan);
            let x_local = &x[mine.start as usize..mine.end as usize];
            let mut halo = vec![0.0; dm.plan.halo_len];
            for recv in &dm.plan.recvs {
                for (k, &col) in recv.cols.iter().enumerate() {
                    halo[recv.halo_offset + k] = x[col as usize];
                }
            }
            let mut y = vec![f64::NAN; dm.local_len()];
            dm.spmv_local(x_local, &mut y);
            dm.spmv_remote_add(&halo, &mut y);
            let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{parts} parts, part {me}");
            assert_eq!(dm.rem_rows.len(), remote_rows, "{parts} parts, part {me}: remote rows");
            remote_rows
        })
        .collect()
}

proptest! {
    /// Graphene chunks (open or periodic, with next-nearest neighbours)
    /// over any partition.
    #[test]
    fn split_phase_graphene_is_the_row_by_row_product(
        lx in 1u64..7,
        ly in 1u64..7,
        periodic in any::<bool>(),
        parts in 1u32..9,
        seed in any::<u64>(),
    ) {
        let gen =
            Graphene::new(lx, ly).with_nnn(-0.2).with_disorder(0.5, seed).with_periodic(periodic);
        prop_assume!(gen.dim() >= u64::from(parts));
        check_split_product(&gen, parts);
    }

    /// Toeplitz and random symmetric chunks, empty rows included.
    #[test]
    fn split_phase_banded_is_the_row_by_row_product(
        n in 1u64..100,
        parts in 1u32..12,
        bw in 0u64..8,
        density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        prop_assume!(n >= u64::from(parts));
        check_split_product(&ToeplitzTridiag::new(n, 2.0, -1.0), parts);
        check_split_product(&RandomSym::new(n, bw, density, seed), parts);
    }
}

/// The two ends of the remote part: a halo-free rank has no remote row,
/// and a partition of one row per part gives every row a remote entry.
#[test]
fn split_phase_covers_halo_free_and_all_remote_chunks() {
    let gen = ToeplitzTridiag::new(12, 2.0, -1.0);
    assert_eq!(check_split_product(&gen, 1), vec![0]);
    assert_eq!(check_split_product(&gen, 12), vec![1; 12]);
    let gen = Graphene::new(4, 3).with_nnn(-0.1);
    assert_eq!(check_split_product(&gen, 1), vec![0]);
    assert_eq!(check_split_product(&gen, 24), vec![1; 24]);
}

/// Promoted from `props.proptest-regressions` (the shimmed proptest runner
/// keeps no regression corpus): `halo_slots_are_dense_and_exact` with
/// `cols_per_owner = [[846], [846]]` — two owners both claiming global
/// column 846. The dedup-across-owners step must leave the second owner's
/// list empty rather than double-planning the column into two halo slots.
#[test]
fn regression_duplicate_column_across_owners_claims_one_slot() {
    let mut needed = std::collections::BTreeMap::new();
    needed.insert(1u32, vec![846u64]);
    needed.insert(2u32, Vec::new()); // owner 2's claim deduped away
    let plan = CommPlan::receives_from_needs(0, 16, &needed);
    assert_eq!(plan.halo_len, 1);
    assert_eq!(plan.halo_slot(846), Some(0));
    assert_eq!(plan.recvs.len(), 1, "empty claims must not produce a recv spec");
    assert_eq!(plan.recvs[0].from, 1);
}
