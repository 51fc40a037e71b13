//! # ft-sparse — distributed spMVM with fault-aware one-sided halo exchange
//!
//! The paper's application substrate (§V): a sparse matrix–vector
//! multiplication library in the GHOST style, adapted for fault
//! tolerance. The matrix is row-block distributed; each process splits its
//! chunk into a **local part** (columns it owns) and a **remote part**
//! (columns owned by others). A one-time **pre-processing** stage
//! determines which right-hand-side entries each process needs, exchanges
//! those index lists, and fixes, for every pair of partners, where in the
//! receiver's halo segment the sender's values land. Before every spMVM,
//! partners *push* the needed RHS values with `write_notify` — pure
//! one-sided communication. The local product itself is one sequential
//! CSR loop ([`Csr::spmv`]), held fixed so the FT layers are what a run
//! measures.
//!
//! Fault-tolerance hooks, as the paper describes:
//!
//! * every blocking call goes through the [`ft_core::HealthWatch`]
//!   wrappers, so a failure acknowledgment interrupts the exchange;
//! * the communication plan is a plain value ([`plan::CommPlan`]) with a
//!   byte codec, checkpointed *once* after pre-processing so a rescue
//!   process resumes "without having to perform the pre-processing step
//!   again";
//! * partners are addressed by **application rank** through the driver's
//!   rank map, so replacing a failed process by its rescue requires no
//!   plan surgery at all — the map update *is* the paper's "refreshes its
//!   list of communication partners".

pub mod csr;
pub mod dist;
pub mod halo;
pub mod partition;
pub mod plan;

pub use csr::Csr;
pub use dist::{det_allreduce_sum, det_allreduce_sums, DistMatrix, KernelPolicy};
pub use halo::{PendingExchange, SpmvComm};
pub use partition::RowPartition;
pub use plan::CommPlan;
