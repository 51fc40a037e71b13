//! The distributed Lanczos iteration (the paper's Algorithm 1).
//!
//! Each step is one halo exchange + spMVM and one global reduction of six
//! inner products, over which `β² = ‖w − αv_j − β_j v_{j−1}‖²` is expanded.
//! It goes through [`ft_sparse::det_allreduce_sums`], so α/β
//! sequences are **bit-for-bit reproducible** across runs and across
//! recoveries — the property the integration tests assert.

use ft_checkpoint::image::TRAILER_LEN;
use ft_checkpoint::{CodecError, Dec, Enc, Wire};
use ft_core::{FtCtx, FtResult};
use ft_matgen::seeded_u01;
use ft_sparse::{det_allreduce_sum, det_allreduce_sums, DistMatrix, SpmvComm};

use crate::tridiag::tridiag_eigenvalues;

/// The evolving Lanczos state of one rank: the two live Lanczos vectors
/// (local chunks) and the α/β history — exactly the paper's checkpoint
/// content ("two consecutive Lanczos vectors, α, and β", §II/§VI).
#[derive(Debug, Clone, PartialEq)]
pub struct LanczosState {
    /// `v_{j-1}` local chunk.
    pub v_prev: Vec<f64>,
    /// `v_j` local chunk.
    pub v: Vec<f64>,
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
    /// only on `(seed, i)`. Normalized globally by the caller via
    /// [`LanczosState::normalize`].
    pub fn init(local_start: u64, local_len: usize, seed: u64) -> Self {
        let v: Vec<f64> =
            (0..local_len as u64).map(|k| seeded_u01(seed, local_start + k) - 0.5).collect();
        Self { v_prev: vec![0.0; local_len], v, alphas: Vec::new(), betas: Vec::new(), iter: 0 }
    }

    /// Normalize `v` globally (collective).
    pub fn normalize(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let local: f64 = self.v.iter().map(|x| x * x).sum();
        let norm = det_allreduce_sum(ctx, local)?.sqrt();
        self.v.iter_mut().for_each(|x| *x /= norm);
        Ok(())
    }

    /// One Lanczos step: `w = A·v_j`, `α_j = w·v_j`,
    /// `β_{j+1} = ‖w − α_j v_j − β_j v_{j−1}‖`, `v_{j+1} = (w − α_j v_j −
    /// β_j v_{j−1}) / β_{j+1}` (collective), with `w` the caller's scratch
    /// like `halo`: the product, one pass for the six inner products and
    /// their one reduction, then the update pass and the scaling pass.
    ///
    /// The halo exchange is split-phase: `a_loc·v` runs while the halo
    /// values are in flight, and only the remote part waits for them. The
    /// allreduce below doubles as the inter-iteration barrier that keeps a
    /// partner's `post(k+1)` from overwriting our halo before the `wait(k)`
    /// here consumed it.
    pub fn step(
        &mut self,
        ctx: &FtCtx,
        dm: &DistMatrix,
        comm: &SpmvComm,
        halo: &mut Vec<f64>,
        w: &mut Vec<f64>,
    ) -> FtResult<()> {
        let pending = comm.post(ctx, &dm.plan, &self.v, SpmvComm::tag_for_iter(self.iter))?;
        w.resize(self.v.len(), 0.0);
        dm.spmv_local(&self.v, w);
        comm.wait(ctx, &dm.plan, pending, halo)?;
        dm.spmv_remote_add(halo, w);
        let sums = det_allreduce_sums(ctx, products(w, &self.v, &self.v_prev))?;
        self.advance(w, sums, |norm2| det_allreduce_sum(ctx, norm2))
    }

    /// The step past `w = A·v_j`, from the global [`products`]: α is
    /// `⟨w,v⟩`, β² their expansion of `‖w − αv − β_prev·v_prev‖²`. Below
    /// 1 % of `‖w‖²` (near a breakdown) that expansion has lost two or more
    /// digits to cancellation, so `reduce` sums the updated `w`'s squares
    /// instead. The state changes only once `reduce` succeeded.
    pub(crate) fn advance<F>(&mut self, w: &mut [f64], sums: [f64; 6], reduce: F) -> FtResult<()>
    where
        F: FnOnce(f64) -> FtResult<f64>,
    {
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

/// Checkpoint payload: the iteration, then `v_{j-1}`, `v_j`, α and β as
/// four length-prefixed `f64` sections, each copied in bulk. The bytes
/// may be a peer's replica: no count may claim more values than there
/// are bytes left.
impl Wire for LanczosState {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.iter).f64s(&self.v_prev).f64s(&self.v).f64s(&self.alphas).f64s(&self.betas);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(Self {
            iter: d.u64()?,
            v_prev: d.f64s()?,
            v: d.f64s()?,
            alphas: d.f64s()?,
            betas: d.f64s()?,
        })
    }

    /// Sized with room for the image trailer a checkpoint commit appends,
    /// so sealing does not reallocate (and copy) the image.
    fn to_bytes(&self) -> Vec<u8> {
        let values = self.alphas.len() + self.betas.len() + self.v_prev.len() + self.v.len();
        let mut e = Enc::with_capacity(40 + 8 * values + TRAILER_LEN);
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
        s.alphas = (0..600).map(|i| i as f64).collect();
        s.betas = (0..600).map(|i| 0.5 + i as f64).collect();
        s.iter = 600;
        s
    }

    #[test]
    fn encode_round_trips_at_its_exact_size() {
        let s = midway_state();
        let bytes = s.encode();
        assert_eq!(bytes.len(), 8 + 4 * 8 + 8 * (700 + 700 + 600 + 600));
        assert_eq!(LanczosState::from_bytes(&bytes).unwrap(), s);
        let empty =
            LanczosState { v_prev: vec![], v: vec![], alphas: vec![], betas: vec![], iter: 0 };
        assert_eq!(LanczosState::from_bytes(&empty.encode()).unwrap(), empty);
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
