//! The distributed Lanczos iteration (the paper's Algorithm 1).
//!
//! Each step is one halo exchange + spMVM and two global reductions. All
//! reductions go through [`ft_sparse::det_allreduce_sum`], so α/β
//! sequences are **bit-for-bit reproducible** across runs and across
//! recoveries — the property the integration tests assert.

use ft_checkpoint::{CodecError, Dec, Enc, Wire, DEFAULT_CHUNK_SIZE};
use ft_core::{FtCtx, FtResult};
use ft_sparse::{det_allreduce_sum, DistMatrix, SpmvComm};

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
        let v: Vec<f64> = (0..local_len as u64)
            .map(|k| {
                splitmix_u01(seed ^ (local_start + k).wrapping_mul(0x9E37_79B9_7F4A_7C15)) - 0.5
            })
            .collect();
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
    /// `w ← w − α_j v_j − β_j v_{j−1}`, `β_{j+1} = ‖w‖`,
    /// `v_{j+1} = w / β_{j+1}` (collective), with `w` the caller's scratch
    /// like `halo`: the product, then the dot, the update fused with its
    /// norm, and the scaling.
    ///
    /// The halo exchange is split-phase: `a_loc·v` runs while the halo
    /// values are in flight, and only the remote part waits for them. The
    /// two allreduces below double as the inter-iteration barrier that
    /// keeps a partner's `post(k+1)` from overwriting our halo before the
    /// `wait(k)` here consumed it.
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
        let alpha = det_allreduce_sum(ctx, dot(w, &self.v))?;
        let beta_prev = self.betas.last().copied().unwrap_or(0.0);
        // ‖w‖² starts at −0.0, as `Iterator::sum` in `SeqLanczos` does.
        let mut norm2 = -0.0;
        for ((wi, v), v_prev) in w.iter_mut().zip(&self.v).zip(&self.v_prev) {
            *wi -= alpha * v + beta_prev * v_prev;
            norm2 += *wi * *wi;
        }
        let beta = det_allreduce_sum(ctx, norm2)?.sqrt();
        self.alphas.push(alpha);
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

/// Checkpoint payload: iteration, α, β, and the two Lanczos vectors.
///
/// The layout is **chunk-aligned** for the incremental checkpoint
/// pipeline: each section starts on a [`DEFAULT_CHUNK_SIZE`] boundary
/// (zero padding in between), and the append-only α/β history is
/// *interleaved* `(α_i, β_i)` at the very end. Between adjacent
/// checkpoints the vectors change wholesale but the α/β prefix is
/// immutable — only its trailing chunk (plus the newly appended pairs and
/// the small header) is dirty, which is what keeps the dirty-chunk
/// fraction of a commit low as the history grows. The bytes may be a
/// peer's replica: no count may claim more values than there are bytes
/// left.
impl Wire for LanczosState {
    fn encode(&self, e: &mut Enc) {
        const A: usize = DEFAULT_CHUNK_SIZE;
        e.u64(self.iter)
            .u64(self.v_prev.len() as u64)
            .u64(self.v.len() as u64)
            .u64(self.alphas.len() as u64)
            .u64(self.betas.len() as u64)
            .pad_to(A);
        for &x in &self.v_prev {
            e.f64(x);
        }
        e.pad_to(A);
        for &x in &self.v {
            e.f64(x);
        }
        e.pad_to(A);
        let paired = self.alphas.len().min(self.betas.len());
        for i in 0..paired {
            e.f64(self.alphas[i]).f64(self.betas[i]);
        }
        for &a in &self.alphas[paired..] {
            e.f64(a);
        }
        for &b in &self.betas[paired..] {
            e.f64(b);
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        const A: usize = DEFAULT_CHUNK_SIZE;
        let iter = d.u64()?;
        let n_prev = d.len_prefix(8)?;
        let n_v = d.len_prefix(8)?;
        let n_alphas = d.len_prefix(8)?;
        let n_betas = d.len_prefix(8)?;
        d.align_to(A)?;
        let v_prev = (0..n_prev).map(|_| d.f64()).collect::<Result<Vec<_>, _>>()?;
        d.align_to(A)?;
        let v = (0..n_v).map(|_| d.f64()).collect::<Result<Vec<_>, _>>()?;
        d.align_to(A)?;
        let paired = n_alphas.min(n_betas);
        let mut alphas = Vec::with_capacity(n_alphas);
        let mut betas = Vec::with_capacity(n_betas);
        for _ in 0..paired {
            alphas.push(d.f64()?);
            betas.push(d.f64()?);
        }
        for _ in paired..n_alphas {
            alphas.push(d.f64()?);
        }
        for _ in paired..n_betas {
            betas.push(d.f64()?);
        }
        Ok(Self { v_prev, v, alphas, betas, iter })
    }

    fn to_bytes(&self) -> Vec<u8> {
        let values = self.alphas.len() + self.betas.len() + self.v_prev.len() + self.v.len();
        let mut e = Enc::with_capacity(4 * DEFAULT_CHUNK_SIZE + 8 * values);
        Wire::encode(self, &mut e);
        e.finish()
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn splitmix_u01(mut z: u64) -> f64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
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

    #[test]
    fn encode_is_chunk_aligned_and_append_stable() {
        const A: usize = DEFAULT_CHUNK_SIZE;
        let sec = |len: usize| len.div_ceil(A) * A;
        let n = 700usize; // deliberately not a multiple of the chunk size
        let mut s = LanczosState::init(0, n, 3);
        s.alphas = (0..600).map(|i| i as f64).collect();
        s.betas = (0..600).map(|i| 0.5 + i as f64).collect();
        s.iter = 600;
        let before = s.encode();
        // One more "step": vectors change wholesale, history appends.
        let mut t = s.clone();
        t.v.iter_mut().for_each(|x| *x += 1.0);
        t.alphas.push(7.0);
        t.betas.push(8.0);
        t.iter = 601;
        let after = t.encode();
        // The α/β prefix lives at a stable chunk-aligned offset and its
        // bytes are untouched by the append — the incremental pipeline
        // sees clean chunks there.
        let tail_start = sec(40) + 2 * sec(n * 8);
        let prefix = 600 * 16;
        assert_eq!(before.len(), tail_start + prefix);
        assert_eq!(before[tail_start..], after[tail_start..tail_start + prefix]);
        // The v section did change (and starts on its own chunk).
        let v_start = sec(40) + sec(n * 8);
        assert_ne!(before[v_start..v_start + 64], after[v_start..v_start + 64]);
        assert_eq!(LanczosState::from_bytes(&after).unwrap(), t);
    }

    #[test]
    fn eigenvalues_of_empty_state() {
        let s = LanczosState::init(0, 4, 1);
        assert!(s.eigenvalues().is_empty());
    }
}
