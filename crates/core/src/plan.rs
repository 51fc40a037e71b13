//! The recovery plan: what the fault detector broadcasts after failures —
//! and the only detection state there is.
//!
//! A plan is a *pure function* of the job layout and the cumulative
//! `(failed, rescue)` assignment history, so every process — workers that
//! lived through all epochs and rescues that just woke up — derives the
//! same rank map, worker set, and neighbor ring from the same broadcast.
//!
//! The two questions every role asks of a plan are answered here and
//! nowhere else: *how a plan advances* ([`RecoveryPlan::after_failures`],
//! [`RecoveryPlan::after_takeover`], [`RecoveryPlan::after_done`] — what a
//! detector broadcasts next) and *whether a newer plan changes the worker
//! group* ([`RecoveryPlan::regroups`] — what the health watch asks before
//! it interrupts anything).

use std::collections::VecDeque;

use ft_checkpoint::{CodecError, Dec, Enc, Wire};
use ft_cluster::Rank;

use crate::layout::{RankMap, WorldLayout};

/// Group-id base for worker groups; the group standing after the `k`-th
/// adoption is `WORKER_GROUP_BASE + k`, so every participant derives the
/// same id without negotiation.
pub const WORKER_GROUP_BASE: u64 = 1 << 32;

/// Everything a process needs to run Listing 2.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPlan {
    /// Recovery epoch: 0 = initial world, +1 per acknowledged failure
    /// round.
    pub epoch: u64,
    /// Cumulative failed GASPI ranks, in discovery order.
    pub failed: Vec<Rank>,
    /// Parallel array: `rescues[i]` adopted `failed[i]`'s identity
    /// (`u32::MAX` = no rescue was available for a rank that carried no
    /// work, e.g. a failed idle).
    pub rescues: Vec<Rank>,
    /// Whether a dedicated FD is still in place after this epoch
    /// (paper restriction 2: the FD may have joined the workers).
    pub fd_alive: bool,
    /// Override of the detector's rank: set when a *shadow* detector took
    /// over after the primary died (the paper's proposed "redundancy
    /// approach \[to\] make the FD process fault tolerant", §VIII). `None`
    /// means the layout's default FD rank.
    pub fd_rank: Option<Rank>,
}

/// A rescue slot value meaning "no rescue assigned".
pub const NO_RESCUE: Rank = u32::MAX;

impl RecoveryPlan {
    /// The initial, failure-free plan.
    pub fn initial() -> Self {
        Self { epoch: 0, failed: Vec::new(), rescues: Vec::new(), fd_alive: true, fd_rank: None }
    }

    /// The current detector rank (the layout default unless a shadow took
    /// over).
    pub fn current_fd(&self, layout: &WorldLayout) -> Rank {
        self.fd_rank.unwrap_or_else(|| layout.fd_rank())
    }

    /// Derive the current rank map by replaying the adoption history.
    pub fn rank_map(&self, layout: &WorldLayout) -> RankMap {
        let mut map = RankMap::identity(layout.num_workers);
        for (&f, &r) in self.failed.iter().zip(&self.rescues) {
            if r != NO_RESCUE {
                map.transfer(f, r);
            }
        }
        map
    }

    /// The GASPI ranks forming the worker group at this epoch, sorted.
    pub fn worker_set(&self, layout: &WorldLayout) -> Vec<Rank> {
        self.rank_map(layout).worker_set()
    }

    /// How many adoptions the history holds — its *worker-affecting*
    /// length. The arrays only append, so between two plans of one job the
    /// count names the history: equal counts mean the same rank map. A
    /// process may observe any subsequence of the broadcast plans (a
    /// control segment keeps only the newest), so everything the members
    /// of a worker group must agree on is a function of this count, never
    /// of `epoch`, which also ticks for detector takeovers and idle deaths.
    fn adoptions(&self) -> usize {
        self.rescues.iter().filter(|&&r| r != NO_RESCUE).count()
    }

    /// Deterministic group id for this plan's worker group.
    pub fn group_id(&self) -> u64 {
        WORKER_GROUP_BASE + self.adoptions() as u64
    }

    /// Whether `newer` describes a different worker group than this plan —
    /// the one classification of an acknowledgment. A plan that only moved
    /// the detector or buried an idle does not, and must not interrupt
    /// anything (§VIII: a detector failure is invisible to the workers).
    pub fn regroups(&self, newer: &RecoveryPlan) -> bool {
        self.adoptions() != newer.adoptions()
    }

    /// Whether some application rank has been left without a carrier
    /// (failures exceeded the spare pool, paper restriction 1).
    pub fn exhausted(&self, layout: &WorldLayout) -> bool {
        self.worker_set(layout).iter().any(|w| self.failed.contains(w))
    }

    /// Spares still free to adopt a worker, in activation order. `reserved`
    /// (the shadow detector's rank) is withheld.
    fn idle_pool(&self, layout: &WorldLayout, reserved: Option<Rank>) -> VecDeque<Rank> {
        layout
            .idle_pool()
            .filter(|r| {
                Some(*r) != reserved && !self.failed.contains(r) && !self.rescues.contains(r)
            })
            .collect()
    }

    /// The plan the current detector broadcasts after a scan found `newly`
    /// failed (ascending, none of them failed before): one epoch later,
    /// each failed carrier of an application rank adopted by a spare: the
    /// next of the pool, in layout order, else the detector itself ("the FD
    /// process itself joins the worker group if no idle process is further
    /// available", §IV-D — the plan then has `fd_alive == false`), else nobody
    /// ([`Self::exhausted`]). A rescue named in this very round may itself
    /// be in `newly` further on, and is then rescued in turn.
    pub fn after_failures(
        &self,
        layout: &WorldLayout,
        newly: &[Rank],
        reserved: Option<Rank>,
    ) -> Self {
        let mut next = Self { epoch: self.epoch + 1, ..self.clone() };
        let mut map = self.rank_map(layout);
        let mut pool = self.idle_pool(layout, reserved);
        for &f in newly {
            pool.retain(|&x| x != f);
            let rescue = match map.app_of(f) {
                // A failed idle consumes no rescue.
                None => NO_RESCUE,
                Some(_) => match pool.pop_front() {
                    Some(r) => r,
                    None if next.fd_alive => {
                        next.fd_alive = false;
                        self.current_fd(layout)
                    }
                    None => NO_RESCUE,
                },
            };
            if rescue != NO_RESCUE {
                map.transfer(f, rescue);
            }
            next.failed.push(f);
            next.rescues.push(rescue);
        }
        next
    }

    /// The plan shadow detector `me` broadcasts when it finds the current
    /// detector dead: one epoch later, the old detector buried, `me` in its
    /// place — and the worker group untouched.
    pub fn after_takeover(&self, layout: &WorldLayout, me: Rank) -> Self {
        let mut next = Self { epoch: self.epoch + 1, fd_rank: Some(me), ..self.clone() };
        next.failed.push(self.current_fd(layout));
        next.rescues.push(NO_RESCUE);
        next
    }

    /// The plan the current detector broadcasts when the application is
    /// done: one epoch later, no detector standing (every rank ends on it),
    /// the worker group untouched (a worker in its last step absorbs it).
    pub fn after_done(&self) -> Self {
        Self { epoch: self.epoch + 1, fd_alive: false, ..self.clone() }
    }

    /// The app rank `rank` adopted, if it is a rescue (derived by replay).
    pub fn adopted_app_rank(&self, layout: &WorldLayout, rank: Rank) -> Option<u32> {
        self.rank_map(layout).app_of(rank)
    }
}

/// What the detector writes into every control segment. A torn or forged
/// plan is an error (`ack::read_plan` reads it as no plan).
impl Wire for RecoveryPlan {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.epoch);
        self.fd_alive.encode(e);
        self.fd_rank.encode(e);
        e.u32s(&self.failed).u32s(&self.rescues);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        let epoch = d.u64()?;
        let fd_alive = d.bool()?;
        let fd_rank = Wire::decode(d)?;
        let failed = d.u32s()?;
        let rescues = d.u32s()?;
        if failed.len() != rescues.len() {
            return Err(CodecError::BadLength(rescues.len() as u64));
        }
        Ok(Self { epoch, failed, rescues, fd_alive, fd_rank })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> WorldLayout {
        WorldLayout::new(4, 3) // workers 0-3, idles 4-5, FD 6
    }

    #[test]
    fn initial_plan_is_identity() {
        let p = RecoveryPlan::initial();
        let l = layout();
        assert_eq!(p.worker_set(&l), vec![0, 1, 2, 3]);
        assert_eq!(p.group_id(), WORKER_GROUP_BASE);
        assert_eq!(p.current_fd(&l), 6);
        assert!(!p.exhausted(&l));
    }

    #[test]
    fn single_failure_plan() {
        let l = layout();
        let p0 = RecoveryPlan::initial();
        let p = p0.after_failures(&l, &[2], None);
        assert_eq!((p.epoch, &p.failed, &p.rescues), (1, &vec![2], &vec![4]));
        assert_eq!(p.worker_set(&l), vec![0, 1, 3, 4]);
        assert_eq!(p.rank_map(&l).gaspi_of(2), 4);
        assert_eq!(p.adopted_app_rank(&l, 4), Some(2));
        assert_eq!(p.adopted_app_rank(&l, 5), None);
        assert!(p0.regroups(&p));
        assert_eq!(p.group_id(), WORKER_GROUP_BASE + 1);
    }

    #[test]
    fn chained_failures_including_a_rescue() {
        let l = layout();
        // epoch1: rank2 → rescue4; epoch2: rescue4 itself dies → rescue5.
        let p =
            RecoveryPlan::initial().after_failures(&l, &[2], None).after_failures(&l, &[4], None);
        assert_eq!((p.epoch, &p.failed, &p.rescues), (2, &vec![2, 4], &vec![4, 5]));
        assert_eq!(p.rank_map(&l).gaspi_of(2), 5);
        assert_eq!(p.worker_set(&l), vec![0, 1, 3, 5]);
        // The same two deaths found by one scan: one epoch, same adoptions.
        let batch = RecoveryPlan::initial().after_failures(&l, &[2, 4], None);
        assert_eq!((batch.epoch, &batch.failed, &batch.rescues), (1, &p.failed, &p.rescues));
    }

    #[test]
    fn failed_idle_and_takeover_leave_the_group_alone() {
        let l = layout();
        let p0 = RecoveryPlan::initial();
        let idle = p0.after_failures(&l, &[5], None);
        assert_eq!(idle.rescues, vec![NO_RESCUE]);
        let p1 = p0.after_failures(&l, &[2], Some(5));
        let shadowed = p1.after_takeover(&l, 5);
        assert_eq!((shadowed.epoch, shadowed.current_fd(&l), shadowed.fd_alive), (2, 5, true));
        assert_eq!((&shadowed.failed, &shadowed.rescues), (&vec![2, 6], &vec![4, NO_RESCUE]));
        for (a, b) in [(p0, idle), (p1, shadowed)] {
            assert!(!a.regroups(&b));
            assert_eq!(a.group_id(), b.group_id());
            assert_eq!(a.worker_set(&l), b.worker_set(&l));
        }
    }

    #[test]
    fn pool_then_promotion_then_exhaustion() {
        let l = WorldLayout::new(4, 3); // idles 4-5, FD 6
        let p = RecoveryPlan::initial().after_failures(&l, &[0, 1, 2, 3], None);
        assert_eq!(p.rescues, vec![4, 5, 6, NO_RESCUE]);
        assert!(!p.fd_alive && p.exhausted(&l));
        // With 5 reserved as the shadow, the FD's turn comes one earlier.
        let q = RecoveryPlan::initial().after_failures(&l, &[0, 1], Some(5));
        assert_eq!(
            (q.worker_set(&l), q.fd_alive, q.exhausted(&l)),
            (vec![2, 3, 4, 6], false, false)
        );
    }
}
