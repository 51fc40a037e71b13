//! The distributed matrix: local/remote split and deterministic
//! reductions.

use std::collections::BTreeMap;

use ft_core::{FtCtx, FtResult};
use ft_gaspi::ReduceOp;
use ft_matgen::RowGen;

use crate::csr::Csr;
use crate::partition::RowPartition;
use crate::plan::CommPlan;

/// The spMVM kernel a [`DistMatrix`] runs. There is one — the sequential
/// CSR loop of [`Csr::spmv`] — and this enum exists only so result headers
/// can keep printing which (`"kernel_policy": "Scalar"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Sequential scalar CSR, bitwise reproducible.
    Scalar,
}

impl KernelPolicy {
    /// The kernel every [`DistMatrix`] uses.
    pub fn auto() -> Self {
        KernelPolicy::Scalar
    }
}

/// One rank's chunk of a row-block-distributed sparse matrix, split into
/// the part whose columns are locally owned (`a_loc`, columns index the
/// local vector chunk) and the part whose columns live elsewhere
/// (`a_rem`, columns index the halo buffer) — the structure the paper's
/// spMVM library uses (§V). The remote part keeps only the rows that have
/// a remote entry, so it stays as small as the halo.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    /// The global partition.
    pub part: RowPartition,
    /// This chunk's application rank.
    pub me: u32,
    /// Local part: columns in `0..local_len`.
    pub a_loc: Csr,
    /// Remote part: columns in `0..plan.halo_len`, one row per entry of
    /// `rem_rows`.
    pub a_rem: Csr,
    /// The local row of each `a_rem` row, ascending.
    pub rem_rows: Vec<u32>,
    /// The communication plan (receive side describes the halo layout).
    pub plan: CommPlan,
}

impl DistMatrix {
    /// The needed-columns map for `me`: owner → ascending global columns
    /// (the input of pre-processing).
    pub fn needed_columns<G: RowGen + ?Sized>(
        gen: &G,
        part: &RowPartition,
        me: u32,
    ) -> BTreeMap<u32, Vec<u64>> {
        let my_rows = part.range(me);
        let mut needed: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut buf = Vec::with_capacity(gen.max_row_entries());
        for row in my_rows.clone() {
            gen.row(row, &mut buf);
            for e in buf.iter().filter(|e| !my_rows.contains(&e.col)) {
                needed.entry(part.owner(e.col)).or_default().push(e.col);
            }
        }
        for cols in needed.values_mut() {
            cols.sort_unstable();
            cols.dedup();
        }
        needed
    }

    /// Build the split chunk from a generator and a finished plan. Works
    /// identically for the initial build (after negotiation) and for a
    /// rescue process that restored the plan from a checkpoint and
    /// regenerates the matrix chunk on the fly.
    ///
    /// One pass writes each generated row straight into the two CSR
    /// parts. Their arrays and the remote row list are reserved up front
    /// and the row buffer is reused across rows, so the allocation count
    /// does not grow with the chunk.
    pub fn assemble<G: RowGen + ?Sized>(
        gen: &G,
        part: RowPartition,
        me: u32,
        plan: CommPlan,
    ) -> Self {
        let my_rows = part.range(me);
        let local_len = part.len(me);
        let start = my_rows.start;
        let max = gen.max_row_entries();
        let mut a_loc = Csr::with_capacity(local_len, local_len, local_len * max);
        // The true halo length — a halo-free rank gets an honest
        // zero-column remote part. The matrix is symmetric, so a halo
        // column sits in at most `max` of the chunk's rows.
        let rem_nnz = plan.halo_len * max;
        let mut a_rem = Csr::with_capacity(local_len.min(rem_nnz), plan.halo_len, rem_nnz);
        let mut rem_rows = Vec::with_capacity(local_len.min(rem_nnz));
        let mut buf = Vec::with_capacity(max);
        for row in my_rows.clone() {
            gen.row(row, &mut buf);
            let rem_before = a_rem.nnz();
            for e in &buf {
                if my_rows.contains(&e.col) {
                    a_loc.push((e.col - start) as u32, e.val);
                } else {
                    let slot = plan.halo_slot(e.col).expect("plan covers every halo column");
                    // Halo slots are unordered within a row; `insert` sorts.
                    a_rem.insert(slot as u32, e.val);
                }
            }
            a_loc.end_row();
            if a_rem.nnz() > rem_before {
                a_rem.end_row();
                rem_rows.push((row - start) as u32);
            }
        }
        Self { part, me, a_loc, a_rem, rem_rows, plan }
    }

    /// Rows owned locally.
    pub fn local_len(&self) -> usize {
        self.part.len(self.me)
    }

    /// Flops one full `y = A·x` of this chunk performs (2·nnz: one
    /// multiply and one add per stored entry) — the numerator of the
    /// benchmark's GFLOP/s row.
    pub fn flops_per_spmv(&self) -> u64 {
        2 * (self.a_loc.nnz() as u64 + self.a_rem.nnz() as u64)
    }

    /// The local half of the product: `y = a_loc·x_local`. Needs no halo
    /// data, so it runs while the halo exchange is in flight.
    pub fn spmv_local(&self, x_local: &[f64], y: &mut [f64]) {
        self.a_loc.spmv(x_local, y);
    }

    /// The remote half, run after the halo arrived: `y += a_rem·halo` over
    /// just the rows that have a remote entry.
    pub fn spmv_remote_add(&self, halo: &[f64], y: &mut [f64]) {
        for (&i, d) in self.rem_rows.iter().zip(self.a_rem.row_dots(halo)) {
            y[i as usize] += d;
        }
    }
}

/// Deterministic (run-to-run and membership-order independent) global sum
/// over one value per application rank.
///
/// Each rank contributes its value in its own slot of a `nparts`-wide
/// buffer; the allreduce only ever adds exact zeros to it, so the slots
/// arrive exactly; the final summation then runs in application-rank
/// order on every rank. A recovered run therefore reproduces the
/// failure-free run's floating-point results *bit for bit*, even though
/// the rebuilt group folds its members in a different order.
pub fn det_allreduce_sum(ctx: &FtCtx, value: f64) -> FtResult<f64> {
    Ok(det_allreduce_sums(ctx, [value])?[0])
}

/// [`det_allreduce_sum`] of `K` values: each sum is the one
/// `det_allreduce_sum` of its value alone would give. The `nparts · K`
/// buffer goes out in collectives of at most 255 elements — one while
/// `nparts · K` fits.
///
/// This is the reduction seam of local replay: the sums go through
/// [`FtCtx::logged_sums`], logged, and in a replay read from the feed.
pub fn det_allreduce_sums<const K: usize>(ctx: &FtCtx, values: [f64; K]) -> FtResult<[f64; K]> {
    let mut sums = values;
    ctx.logged_sums(&mut sums, |sums| {
        let nparts = ctx.num_app_ranks() as usize;
        let mut buf = vec![0.0f64; nparts * K];
        let me = ctx.app_rank() as usize;
        buf[me * K..(me + 1) * K].copy_from_slice(sums);
        let mut out = Vec::with_capacity(buf.len());
        for chunk in buf.chunks(ft_gaspi::ALLREDUCE_MAX_ELEMS) {
            out.extend(ctx.allreduce_f64_ft(chunk, ReduceOp::Sum)?);
        }
        for (j, s) in sums.iter_mut().enumerate() {
            *s = out.iter().skip(j).step_by(K).sum();
        }
        Ok(())
    })?;
    Ok(sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_matgen::graphene::Graphene;
    use ft_matgen::spectra::ToeplitzTridiag;

    fn full_plan<G: RowGen>(gen: &G, part: &RowPartition, me: u32) -> CommPlan {
        let needed = DistMatrix::needed_columns(gen, part, me);
        CommPlan::receives_from_needs(me, part.parts(), &needed)
    }

    /// Distributed SpMV with manually filled halo must equal the global
    /// product.
    #[test]
    fn chunked_spmv_matches_global() {
        let gen = Graphene::new(4, 3).with_nnn(-0.2);
        let n = gen.dim();
        let parts = 3;
        let part = RowPartition::new(n, parts);
        // Global reference.
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y_ref = vec![0.0; n as usize];
        for i in 0..n {
            for e in gen.row_vec(i) {
                y_ref[i as usize] += e.val * x[e.col as usize];
            }
        }
        for me in 0..parts {
            let plan = full_plan(&gen, &part, me);
            let dm = DistMatrix::assemble(&gen, part, me, plan);
            dm.a_loc.validate();
            dm.a_rem.validate();
            let r = part.range(me);
            let x_local: Vec<f64> = r.clone().map(|i| x[i as usize]).collect();
            // Fill the halo from the global vector via the plan layout.
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
                assert!(
                    (y[k] - y_ref[row as usize]).abs() < 1e-12,
                    "row {row}: {} vs {}",
                    y[k],
                    y_ref[row as usize]
                );
            }
        }
    }

    #[test]
    fn needed_columns_are_remote_sorted_unique() {
        let gen = ToeplitzTridiag::new(30, 2.0, -1.0);
        let part = RowPartition::new(30, 3);
        let needed = DistMatrix::needed_columns(&gen, &part, 1);
        // Middle chunk (rows 10..20) touches rows 9 and 20.
        assert_eq!(needed.get(&0), Some(&vec![9u64]));
        assert_eq!(needed.get(&2), Some(&vec![20u64]));
        for (owner, cols) in &needed {
            for &c in cols {
                assert_eq!(part.owner(c), *owner);
                assert!(!part.range(1).contains(&c));
            }
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn no_remote_columns_means_empty_plan() {
        let gen = ToeplitzTridiag::new(10, 1.0, 0.5);
        let part = RowPartition::new(10, 1);
        let needed = DistMatrix::needed_columns(&gen, &part, 0);
        assert!(needed.is_empty());
        let plan = full_plan(&gen, &part, 0);
        assert_eq!(plan.halo_len, 0);
        let dm = DistMatrix::assemble(&gen, part, 0, plan);
        assert_eq!(dm.a_rem.nnz(), 0);
    }
}
