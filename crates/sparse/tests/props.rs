//! Property tests: partition, halo slots, and distributed SpMV equality.

use std::time::Duration;

use proptest::prelude::*;

use ft_cluster::FaultSchedule;
use ft_core::{run_ft_job, FtApp, FtConfig, FtCtx, FtResult, RecoveryPlan, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld, Timeout};
use ft_matgen::graphene::Graphene;
use ft_matgen::random::RandomSym;
use ft_matgen::spectra::ToeplitzTridiag;
use ft_matgen::RowGen;
use ft_sparse::{CommPlan, DistMatrix, RowPartition, SpmvComm};

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

/// Each rank's halo for iteration `iter`: its global columns' values.
fn posted_value(col: u64, iter: u64) -> f64 {
    col as f64 + 100.0 * iter as f64
}

/// Posts iterations 0 and 1 on every rank, flushes both, and only then
/// waits for 0 and for 1: the halos each wait read.
struct PostTwiceThenWait(Vec<Vec<f64>>);

impl FtApp for PostTwiceThenWait {
    type Summary = (Vec<u64>, Vec<Vec<f64>>);

    fn setup(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        unreachable!("no failure is scheduled")
    }

    fn step(&mut self, ctx: &FtCtx, _iter: u64) -> FtResult<bool> {
        let gen = ToeplitzTridiag::new(8, 2.0, -1.0);
        let (part, me) = (RowPartition::new(8, ctx.num_app_ranks()), ctx.app_rank());
        let needed = DistMatrix::needed_columns(&gen, &part, me);
        let start = part.range(me).start;
        let plan = CommPlan::receives_from_needs(me, part.parts(), &needed).negotiate(
            &ctx.proc,
            &|a| ctx.gaspi_of(a),
            start,
            Timeout::Ms(10_000),
        )?;
        let comm = SpmvComm::new(&ctx.proc, &plan, 1, 2, 1)?;
        ctx.barrier_ft()?; // every halo segment exists
        let x = |iter| part.range(me).map(|i| posted_value(i, iter)).collect::<Vec<_>>();
        let first = comm.post(ctx, &plan, &x(0), SpmvComm::tag_for_iter(0))?;
        let second = comm.post(ctx, &plan, &x(1), SpmvComm::tag_for_iter(1))?;
        // Both posts have landed everywhere before anyone waits.
        ctx.wait_ft(1)?;
        ctx.barrier_ft()?;
        for pending in [first, second] {
            let mut halo = Vec::new();
            comm.wait(ctx, &plan, pending, &mut halo)?;
            self.0.push(halo);
        }
        ctx.barrier_ft()?;
        Ok(true)
    }

    fn rewire(&mut self, _ctx: &FtCtx, _plan: &RecoveryPlan) -> FtResult<()> {
        Ok(())
    }

    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<Self::Summary> {
        let gen = ToeplitzTridiag::new(8, 2.0, -1.0);
        let part = RowPartition::new(8, ctx.num_app_ranks());
        let needed = DistMatrix::needed_columns(&gen, &part, ctx.app_rank());
        Ok((needed.into_values().flatten().collect(), std::mem::take(&mut self.0)))
    }
}

/// A partner may post iteration `j + 1` before this rank waits for `j`
/// (Lanczos posts before its reduction and waits after it): the two land
/// in the two parities' buffers, and each wait reads its own iteration.
#[test]
fn a_partner_two_posts_ahead_leaves_each_wait_its_own_halo() {
    let layout = WorldLayout::new(3, 1);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg =
        FtConfig::builder(layout).max_iters(1).abandon(Duration::from_secs(5)).build().unwrap();
    let report = run_ft_job(&world, cfg, FaultSchedule::none(), |_| PostTwiceThenWait(Vec::new()));
    let summaries = report.worker_summaries();
    assert_eq!(summaries.len(), 3, "every rank finishes: {:?}", report.first_error());
    for (app, (cols, halos)) in summaries {
        assert!(!cols.is_empty());
        for (iter, halo) in halos.iter().enumerate() {
            let want: Vec<f64> = cols.iter().map(|&c| posted_value(c, iter as u64)).collect();
            assert_eq!(halo, &want, "app rank {app}, iteration {iter}");
        }
    }
}
