//! # ft-solver — the Lanczos eigensolver and its fault-tolerant application
//!
//! The paper's demonstration application (§V): the Lanczos algorithm, an
//! iterative scheme for finding the low-lying eigenvalues of a sparse
//! symmetric matrix. Each iteration is a distributed spMVM plus one
//! global reduction; every few iterations the eigenvalues of the small
//! Lanczos tridiagonal matrix are extracted with the **QL method** and
//! checked against a convergence criterion.
//!
//! * [`tridiag`] — QL-with-implicit-shifts eigenvalues of a symmetric
//!   tridiagonal matrix (the paper's `CalcMinimumEigenVal`).
//! * [`lanczos`] — the distributed Lanczos step (Algorithm 1) and its
//!   state.
//! * [`seq`] — a single-process reference implementation used to validate
//!   the distributed one.
//! * [`ft_lanczos`] — the fault-tolerant application: an
//!   [`ft_core::FtApp`] checkpointing two consecutive Lanczos vectors,
//!   their halos and the α/β arrays (§V), with the one-time communication-plan
//!   checkpoint that lets a rescue skip pre-processing.
//! * [`heat`] — a second fault-tolerant application (2D Jacobi heat
//!   solver) demonstrating that "the concept can be applied to other
//!   applications" (§I).

pub mod ft_lanczos;
pub mod heat;
pub mod lanczos;
pub mod seq;
mod spmv_rank;
pub mod tridiag;

pub use ft_lanczos::{FtLanczos, FtLanczosConfig, LanczosSummary};
pub use lanczos::LanczosState;
pub use tridiag::tridiag_eigenvalues;
