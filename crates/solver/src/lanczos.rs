//! The distributed Lanczos iteration (the paper's Algorithm 1).
//!
//! Each step is one spMVM and one global reduction of six inner products,
//! over which `β² = ‖w − αv_j − β_j v_{j−1}‖²` is expanded. It goes
//! through [`ft_sparse::det_allreduce_sums`], so α/β sequences are
//! **bit-for-bit reproducible** across runs and across recoveries — the
//! property the integration tests assert.
//! The halo exchange hides under that reduction (ARCHITECTURE.md §4).

use ft_checkpoint::image::TRAILER_LEN;
use ft_checkpoint::{CodecError, Dec, Enc, Wire};
use ft_core::{FtCtx, FtResult};
use ft_matgen::seeded_u01;
use ft_sparse::{det_allreduce_sum, det_allreduce_sums, DistMatrix, SpmvComm};

use crate::tridiag::tridiag_eigenvalues;

/// The evolving Lanczos state of one rank: the paper's checkpoint content
/// ("two consecutive Lanczos vectors, α, and β", §II/§VI) and the vectors'
/// halos, which a step starts from instead of exchanging `v_j`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LanczosState {
    /// `v_{j-1}` local chunk.
    pub v_prev: Vec<f64>,
    /// `v_j` local chunk.
    pub v: Vec<f64>,
    /// `v_{j-1}` at the columns this rank receives, in halo order.
    pub halo_prev: Vec<f64>,
    /// `v_j` at the columns this rank receives, in halo order.
    pub halo: Vec<f64>,
    /// `α_1..α_j`.
    pub alphas: Vec<f64>,
    /// `β_2..β_{j+1}` (the norm produced by each step).
    pub betas: Vec<f64>,
    /// Completed iterations (`== alphas.len()`).
    pub iter: u64,
}

impl LanczosState {
    /// Deterministic pseudo-random start vector, identical regardless of
    /// how rows are partitioned: entry `i` of the global vector depends
    /// only on `(seed, i)`. Normalized globally, and given its halo, by
    /// [`LanczosState::normalize`].
    pub fn init(local_start: u64, local_len: usize, seed: u64) -> Self {
        let v: Vec<f64> =
            (0..local_len as u64).map(|k| seeded_u01(seed, local_start + k) - 0.5).collect();
        Self { v_prev: vec![0.0; local_len], v, ..Self::default() }
    }

    /// Normalize `v` globally (collective), and set its halo at the global
    /// columns `cols` by the same expression: the owners' entries, bitwise.
    pub fn normalize(&mut self, ctx: &FtCtx, seed: u64, cols: &[u64]) -> FtResult<()> {
        let local: f64 = self.v.iter().map(|x| x * x).sum();
        let norm = det_allreduce_sum(ctx, local)?.sqrt();
        self.v.iter_mut().for_each(|x| *x /= norm);
        self.halo = cols.iter().map(|&c| (seeded_u01(seed, c) - 0.5) / norm).collect();
        self.halo_prev = vec![0.0; self.halo.len()];
        Ok(())
    }

    /// One Lanczos step: `w = A·v_j`, `α_j = w·v_j`,
    /// `β_{j+1} = ‖w − α_j v_j − β_j v_{j−1}‖`, `v_{j+1} = (w − α_j v_j −
    /// β_j v_{j−1}) / β_{j+1}` (collective). `w` and `w_halo` are the
    /// caller's scratch, the product and the partners' share of theirs,
    /// which flies while the six inner products are reduced.
    pub fn step(
        &mut self,
        ctx: &FtCtx,
        dm: &DistMatrix,
        comm: &SpmvComm,
        w: &mut Vec<f64>,
        w_halo: &mut Vec<f64>,
    ) -> FtResult<()> {
        w.resize(self.v.len(), 0.0);
        dm.spmv_local(&self.v, w);
        dm.spmv_remote_add(&self.halo, w);
        let pending = comm.post(ctx, &dm.plan, w, SpmvComm::tag_for_iter(self.iter))?;
        let sums = det_allreduce_sums(ctx, products(w, &self.v, &self.v_prev))?;
        comm.wait(ctx, &dm.plan, pending, w_halo)?;
        self.advance((w, w_halo), sums, |norm2| det_allreduce_sum(ctx, norm2))
    }

    /// The step past `w = A·v_j`, from the global [`products`]: α is
    /// `⟨w,v⟩`, β² their expansion of `‖w − αv − β_prev·v_prev‖²`. Below
    /// 1 % of `‖w‖²` (near a breakdown) that expansion has lost two or more
    /// digits to cancellation, so `reduce` sums the updated `w`'s squares
    /// instead. The state changes only once `reduce` succeeded. The next
    /// halo is bitwise the owners' `v_{j+1}`: their expression, on `w_halo`.
    pub(crate) fn advance(
        &mut self,
        (w, w_halo): (&mut [f64], &[f64]),
        sums: [f64; 6],
        reduce: impl FnOnce(f64) -> FtResult<f64>,
    ) -> FtResult<()> {
        let ([a, ww, wp, vv, pp, vp], b) = (sums, self.betas.last().copied().unwrap_or(0.0));
        let mut beta2 = ww - 2.0 * (a * a + b * wp) + a * a * vv + b * b * pp + 2.0 * a * b * vp;
        for ((wi, &v), &p) in w.iter_mut().zip(&self.v).zip(&self.v_prev) {
            *wi -= a * v + b * p;
        }
        if beta2 < 1e-2 * ww {
            beta2 = reduce(w.iter().map(|x| x * x).sum())?;
        }
        let beta = beta2.sqrt();
        self.alphas.push(a);
        self.betas.push(beta);
        std::mem::swap(&mut self.v_prev, &mut self.v);
        // β = 0: invariant subspace reached (exact breakdown); keep a zero
        // vector, the eigenvalues of T_j are already exact.
        for (vi, wi) in self.v.iter_mut().zip(w.iter()) {
            *vi = if beta > 0.0 { wi / beta } else { 0.0 };
        }
        std::mem::swap(&mut self.halo_prev, &mut self.halo);
        for ((h, &wh), &v) in self.halo.iter_mut().zip(w_halo).zip(&self.halo_prev) {
            *h = if beta > 0.0 { (wh - (a * v + b * *h)) / beta } else { 0.0 };
        }
        self.iter += 1;
        Ok(())
    }

    /// Eigenvalue estimates of the current Lanczos tridiagonal `T_j`
    /// (ascending); the paper's `CalcMinimumEigenVal` via the QL method.
    pub fn eigenvalues(&self) -> Vec<f64> {
        if self.alphas.is_empty() {
            return Vec::new();
        }
        tridiag_eigenvalues(&self.alphas, &self.betas[..self.alphas.len() - 1])
    }

    /// Checkpoint payload: the [`Wire`] encoding.
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }
}

/// Checkpoint payload: the iteration, then `v_{j-1}`, `v_j`, their halos,
/// α and β as six length-prefixed `f64` sections, each copied in bulk. The
/// bytes may be a peer's replica: no count may claim more values than
/// there are bytes left.
impl Wire for LanczosState {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.iter).f64s(&self.v_prev).f64s(&self.v).f64s(&self.halo_prev);
        e.f64s(&self.halo).f64s(&self.alphas).f64s(&self.betas);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(Self {
            iter: d.u64()?,
            v_prev: d.f64s()?,
            v: d.f64s()?,
            halo_prev: d.f64s()?,
            halo: d.f64s()?,
            alphas: d.f64s()?,
            betas: d.f64s()?,
        })
    }

    /// Sized with room for the image trailer a checkpoint commit appends,
    /// so sealing does not reallocate (and copy) the image.
    fn to_bytes(&self) -> Vec<u8> {
        let sections =
            [&self.v_prev, &self.v, &self.halo_prev, &self.halo, &self.alphas, &self.betas];
        let values: usize = sections.iter().map(|s| s.len()).sum();
        let mut e = Enc::with_capacity(56 + 8 * values + TRAILER_LEN);
        Wire::encode(self, &mut e);
        e.finish()
    }
}

/// The local `⟨w,v⟩`, `⟨w,w⟩`, `⟨w,v_prev⟩`, `⟨v,v⟩`, `⟨v_prev,v_prev⟩` and
/// `⟨v,v_prev⟩` in one pass, each summed from −0.0 in index order.
pub(crate) fn products(w: &[f64], v: &[f64], v_prev: &[f64]) -> [f64; 6] {
    let mut s = [-0.0; 6];
    for ((&w, &v), &p) in w.iter().zip(v).zip(v_prev) {
        for (s, x) in s.iter_mut().zip([w * v, w * w, w * p, v * v, p * p, v * p]) {
            *s += x;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn init_is_partition_independent() {
        // The global start vector must not depend on the chunking.
        let whole = LanczosState::init(0, 10, 42);
        let left = LanczosState::init(0, 4, 42);
        let right = LanczosState::init(4, 6, 42);
        assert_eq!(&whole.v[..4], &left.v[..]);
        assert_eq!(&whole.v[4..], &right.v[..]);
    }

    fn midway_state() -> LanczosState {
        let mut s = LanczosState::init(0, 700, 3);
        s.v_prev = s.v.iter().map(|x| x * 0.5).collect();
        s.halo = s.v[..40].to_vec();
        s.halo_prev = s.v_prev[..40].to_vec();
        s.alphas = (0..600).map(|i| i as f64).collect();
        s.betas = (0..600).map(|i| 0.5 + i as f64).collect();
        s.iter = 600;
        s
    }

    #[test]
    fn encode_round_trips_at_its_exact_size() {
        let s = midway_state();
        let bytes = s.encode();
        assert_eq!(bytes.len(), 8 + 6 * 8 + 8 * (700 + 700 + 40 + 40 + 600 + 600));
        assert_eq!(LanczosState::from_bytes(&bytes).unwrap(), s);
        let empty = LanczosState::default();
        assert_eq!(LanczosState::from_bytes(&empty.encode()).unwrap(), empty);
    }

    proptest! {
        /// A receiver's next halo is bitwise the owners' `v_{j+1}` at its
        /// columns, on the expansion (branch 0), on the re-reduce near a
        /// breakdown (1) and at β = 0 (2), whatever α and the previous β.
        #[test]
        fn the_halo_update_is_bitwise_the_owners_next_vector(
            vals in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -4.0f64..4.0), 1..40),
            picks in proptest::collection::vec(0usize..1000, 0..20),
            (a, b, branch) in (-3.0f64..3.0, -1.0f64..2.0, 0..3),
        ) {
            let cols: Vec<usize> = picks.iter().map(|p| p % vals.len()).collect();
            let at = |x: &[f64]| cols.iter().map(|&c| x[c]).collect::<Vec<_>>();
            let (v, v_prev): (Vec<f64>, Vec<f64>) = vals.iter().map(|x| (x.0, x.1)).unzip();
            let mut w: Vec<f64> = vals.iter().map(|x| x.2).collect();
            let (halo, halo_prev, w_halo) = (at(&v), at(&v_prev), at(&w));
            let betas = vec![b.max(0.0)]; // β_j = 0 a third of the time
            let mut st = LanczosState { v, v_prev, halo, halo_prev, betas, ..Default::default() };
            let sums = match branch {
                0 => products(&w, &st.v, &st.v_prev),
                _ => [a, a * a, 0.0, 1.0, 0.0, 0.0], // expands to exactly 0
            };
            st.advance((&mut w, &w_halo), sums, |n2| Ok(if branch == 2 { 0.0 } else { n2 })).unwrap();
            let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(bits(st.halo.clone()), bits(at(&st.v)));
            prop_assert_eq!(bits(st.halo_prev.clone()), bits(at(&st.v_prev)));
        }
    }

    #[test]
    fn a_truncated_image_does_not_decode() {
        let bytes = midway_state().encode();
        for n in [0, 7, 8, 16, 40, bytes.len() / 2, bytes.len() - 8, bytes.len() - 1] {
            assert!(LanczosState::from_bytes(&bytes[..n]).is_err(), "{n}-byte prefix decoded");
        }
    }

    #[test]
    fn eigenvalues_of_empty_state() {
        let s = LanczosState::init(0, 4, 1);
        assert!(s.eigenvalues().is_empty());
    }
}
