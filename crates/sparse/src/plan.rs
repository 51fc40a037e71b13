//! The spMVM communication plan and its one-time negotiation.
//!
//! "In the pre-processing stage, each process determines the indices of
//! the RHS that it needs from other processes. These indices are
//! communicated to the respective processes, who then write (via
//! one-sided GASPI communication) the RHS values of those indices before
//! every spMVM iteration." (§V)
//!
//! The plan is deliberately a plain value with a byte codec: it is
//! checkpointed once after pre-processing, and a rescue process restores
//! it instead of re-running the exchange. Partners are stored as
//! *application* ranks; the driver's rank map supplies the current GASPI
//! rank at send time, which is how "every non-failing process refreshes
//! its list of communication partners" reduces to a map update.

use std::collections::BTreeMap;

use ft_checkpoint::{CodecError, Dec, Enc, Wire};
use ft_cluster::Rank;
use ft_gaspi::{GaspiError, GaspiProc, GaspiResult, Timeout};

/// Incoming halo block: `cols` (global indices, ascending) arrive from
/// `from` at `halo_offset` in the halo segment. It is also the
/// negotiation request: the block as its receiver `from` asks for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvSpec {
    /// Sending application rank.
    pub from: u32,
    /// First halo-slot index of this block.
    pub halo_offset: usize,
    /// Global column indices, ascending.
    pub cols: Vec<u64>,
}

/// Outgoing halo block: our local rows `local_rows` go to `to`'s halo
/// segment at `dest_offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendSpec {
    /// Receiving application rank.
    pub to: u32,
    /// First halo-slot index on the receiver.
    pub dest_offset: usize,
    /// Local row indices (relative to our chunk) to gather, in the
    /// receiver's column order.
    pub local_rows: Vec<u32>,
}

/// A rank's complete spMVM communication plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommPlan {
    /// This plan's application rank.
    pub me: u32,
    /// Total application ranks.
    pub nparts: u32,
    /// Halo buffer length in slots.
    pub halo_len: usize,
    /// Incoming blocks, ascending by `from`.
    pub recvs: Vec<RecvSpec>,
    /// Outgoing blocks, ascending by `to`.
    pub sends: Vec<SendSpec>,
}

impl CommPlan {
    /// Build the receive side from the needed-columns map (owner →
    /// ascending global columns). Halo slots are assigned in ascending
    /// owner order.
    pub fn receives_from_needs(me: u32, nparts: u32, needed: &BTreeMap<u32, Vec<u64>>) -> Self {
        let mut recvs = Vec::with_capacity(needed.len());
        let mut off = 0usize;
        for (&from, cols) in needed {
            assert_ne!(from, me, "needed set must not contain own columns");
            if cols.is_empty() {
                continue;
            }
            recvs.push(RecvSpec { from, halo_offset: off, cols: cols.clone() });
            off += recvs.last().unwrap().cols.len();
        }
        Self { me, nparts, halo_len: off, recvs, sends: Vec::new() }
    }

    /// Halo slot of a global column, if it is in the plan.
    pub fn halo_slot(&self, col: u64) -> Option<usize> {
        for r in &self.recvs {
            if let Ok(i) = r.cols.binary_search(&col) {
                return Some(r.halo_offset + i);
            }
        }
        None
    }

    /// Total values this rank pushes per iteration.
    pub fn send_volume(&self) -> usize {
        self.sends.iter().map(|s| s.local_rows.len()).sum()
    }

    /// The one-time index exchange (pre-processing). Every rank sends its
    /// request (possibly empty) to every other rank via passive messages
    /// and converts the requests it receives into send specs.
    ///
    /// `gaspi_of` translates application ranks to GASPI ranks;
    /// `my_row_start` anchors the conversion from global columns to local
    /// row indices.
    pub fn negotiate(
        mut self,
        proc: &GaspiProc,
        gaspi_of: &dyn Fn(u32) -> Rank,
        my_row_start: u64,
        timeout: Timeout,
    ) -> GaspiResult<Self> {
        let me = self.me;
        let nparts = self.nparts;
        // Round 1: one request to every other rank.
        for to_app in 0..nparts {
            if to_app == me {
                continue;
            }
            let request = match self.recvs.iter().find(|r| r.from == to_app) {
                Some(r) => RecvSpec { from: me, ..r.clone() },
                None => RecvSpec { from: me, halo_offset: 0, cols: Vec::new() },
            };
            proc.passive_send(gaspi_of(to_app), request.to_bytes(), timeout)?;
        }
        // Round 2: collect exactly nparts−1 requests.
        let mut sends = Vec::new();
        for _ in 0..nparts - 1 {
            let (_, payload) = proc.passive_receive(timeout)?;
            let RecvSpec { from: from_app, halo_offset: dest_offset, cols } =
                RecvSpec::from_bytes(&payload)
                    .map_err(|_| GaspiError::InvalidArg("malformed plan request"))?;
            if cols.is_empty() {
                continue;
            }
            let local_rows = cols
                .iter()
                .map(|&c| {
                    c.checked_sub(my_row_start)
                        .map(|l| l as u32)
                        .ok_or(GaspiError::InvalidArg("requested column not owned"))
                })
                .collect::<GaspiResult<Vec<u32>>>()?;
            sends.push(SendSpec { to: from_app, dest_offset, local_rows });
        }
        sends.sort_by_key(|s| s.to);
        self.sends = sends;
        Ok(self)
    }
}

impl Wire for RecvSpec {
    fn encode(&self, e: &mut Enc) {
        e.u32(self.from);
        self.halo_offset.encode(e);
        e.u64s(&self.cols);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(Self { from: d.u32()?, halo_offset: Wire::decode(d)?, cols: d.u64s()? })
    }
}

impl Wire for SendSpec {
    fn encode(&self, e: &mut Enc) {
        e.u32(self.to);
        self.dest_offset.encode(e);
        e.u32s(&self.local_rows);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(Self { to: d.u32()?, dest_offset: Wire::decode(d)?, local_rows: d.u32s()? })
    }
}

/// The one-time plan checkpoint; the bytes may come from a peer's
/// replica.
impl Wire for CommPlan {
    fn encode(&self, e: &mut Enc) {
        e.u32(self.me).u32(self.nparts);
        self.halo_len.encode(e);
        self.recvs.encode(e);
        self.sends.encode(e);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(Self {
            me: d.u32()?,
            nparts: d.u32()?,
            halo_len: Wire::decode(d)?,
            recvs: Wire::decode(d)?,
            sends: Wire::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_gaspi::{GaspiConfig, GaspiWorld, RankOutcome};

    #[test]
    fn receives_layout_is_dense_and_ordered() {
        let mut needed = BTreeMap::new();
        needed.insert(0u32, vec![1u64, 5]);
        needed.insert(2u32, vec![40u64]);
        needed.insert(3u32, vec![]);
        let p = CommPlan::receives_from_needs(1, 4, &needed);
        assert_eq!(p.halo_len, 3);
        assert_eq!(p.recvs.len(), 2);
        assert_eq!(p.recvs[0].halo_offset, 0);
        assert_eq!(p.recvs[1].halo_offset, 2);
        assert_eq!(p.halo_slot(5), Some(1));
        assert_eq!(p.halo_slot(40), Some(2));
        assert_eq!(p.halo_slot(7), None);
    }

    /// Ring exchange: rank i needs the first row of rank (i+1) % n.
    #[test]
    fn negotiation_builds_matching_sends() {
        let n: u32 = 4;
        let rows_per = 10u64;
        let world = GaspiWorld::new(GaspiConfig::deterministic(n));
        let outs = world
            .launch(move |p| {
                let me = p.rank();
                let next = (me + 1) % n;
                let mut needed = BTreeMap::new();
                needed.insert(next, vec![u64::from(next) * rows_per]);
                let plan = CommPlan::receives_from_needs(me, n, &needed).negotiate(
                    &p,
                    &|a| a,
                    u64::from(me) * rows_per,
                    Timeout::Ms(5000),
                )?;
                Ok(plan)
            })
            .join();
        for (r, o) in outs.into_iter().enumerate() {
            let plan = match o {
                RankOutcome::Completed(p) => p,
                other => panic!("rank {r}: {other:?}"),
            };
            assert_eq!(plan.halo_len, 1);
            assert_eq!(plan.recvs.len(), 1);
            // The previous rank in the ring asks for our row 0.
            assert_eq!(plan.sends.len(), 1);
            let prev = ((r as u32) + n - 1) % n;
            assert_eq!(plan.sends[0].to, prev);
            assert_eq!(plan.sends[0].local_rows, vec![0]);
            assert_eq!(plan.sends[0].dest_offset, 0);
        }
    }
}
