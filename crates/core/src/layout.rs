//! Process categories and the application-rank ↔ GASPI-rank map.
//!
//! "The basic idea behind our implementation is to designate some
//! processes as 'idle processes' at the start of the computation to
//! facilitate non-shrinking recovery. The remaining processes form the
//! 'worker group' and do computation. One of the pre-determined idle
//! processes serves as a failure detector process." (§IV)
//!
//! The application always computes with *application ranks* `0..W`; the
//! [`RankMap`] translates them to live GASPI ranks. Initially the map is
//! the identity; when rescue process `g` adopts failed process `f`, the
//! application rank that `f` carried is remapped to `g` — the paper's
//! "rescue processes overtake the identity of the failed processes"
//! (Listing 2, `update_my_rank_active`).

use ft_cluster::Rank;

/// Static job layout: how many ranks compute and how many stand by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldLayout {
    /// Workers (the application's world size `W`; app ranks are `0..W`).
    pub num_workers: u32,
    /// Spare/idle processes, *including* the fault detector (≥1). The
    /// rescue pool size is therefore `num_spares - 1`.
    pub num_spares: u32,
}

impl WorldLayout {
    /// A layout with `num_workers` workers and `num_spares` spares (the
    /// last spare is the FD).
    pub fn new(num_workers: u32, num_spares: u32) -> Self {
        assert!(num_workers >= 1, "need at least one worker");
        assert!(num_spares >= 1, "need at least one spare (the fault detector)");
        Self { num_workers, num_spares }
    }

    /// Total GASPI ranks to launch.
    pub fn total(&self) -> u32 {
        self.num_workers + self.num_spares
    }

    /// The dedicated fault detector's GASPI rank (the last one).
    pub fn fd_rank(&self) -> Rank {
        self.total() - 1
    }

    /// Initial idle pool (spares that are not the FD), in activation
    /// order.
    pub fn idle_pool(&self) -> impl Iterator<Item = Rank> {
        self.num_workers..self.total() - 1
    }

    /// Number of failures the job can absorb before the FD must join the
    /// workers itself (paper restriction 1).
    pub fn rescue_capacity(&self) -> u32 {
        self.num_spares - 1
    }
}

/// Application rank → GASPI rank translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankMap {
    map: Vec<Rank>,
}

impl RankMap {
    /// The identity map over `num_workers` application ranks.
    pub fn identity(num_workers: u32) -> Self {
        Self { map: (0..num_workers).collect() }
    }

    /// Number of application ranks.
    pub fn len(&self) -> u32 {
        self.map.len() as u32
    }

    /// Whether the map is empty (never, for a valid layout).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// GASPI rank currently carrying `app_rank`.
    pub fn gaspi_of(&self, app_rank: u32) -> Rank {
        self.map[app_rank as usize]
    }

    /// Application rank carried by GASPI rank `g`, if any.
    pub fn app_of(&self, g: Rank) -> Option<u32> {
        self.map.iter().position(|&x| x == g).map(|i| i as u32)
    }

    /// Replace the carrier of whatever app rank `failed` held with
    /// `rescue`. Returns the transferred app rank, or `None` if `failed`
    /// carried no app rank (it was an idle process).
    pub fn transfer(&mut self, failed: Rank, rescue: Rank) -> Option<u32> {
        let app = self.app_of(failed)?;
        self.map[app as usize] = rescue;
        Some(app)
    }

    /// The live GASPI ranks of the worker group, sorted (the member list
    /// for the rebuilt group).
    pub fn worker_set(&self) -> Vec<Rank> {
        let mut v = self.map.clone();
        v.sort_unstable();
        v
    }

    /// Raw map (index = app rank).
    pub fn as_slice(&self) -> &[Rank] {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_roles() {
        let l = WorldLayout::new(4, 3); // workers 0..4, idles 4,5, FD 6
        assert_eq!(l.total(), 7);
        assert_eq!(l.fd_rank(), 6);
        assert_eq!(l.idle_pool().collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(l.rescue_capacity(), 2);
    }

    #[test]
    fn single_spare_means_fd_only() {
        let l = WorldLayout::new(2, 1);
        assert_eq!(l.rescue_capacity(), 0);
        assert_eq!(l.idle_pool().count(), 0);
        assert_eq!(l.fd_rank(), 2);
    }

    #[test]
    fn rank_map_transfer_chain() {
        let mut m = RankMap::identity(4);
        assert_eq!(m.gaspi_of(2), 2);
        // gaspi 2 fails, gaspi 5 adopts app rank 2
        assert_eq!(m.transfer(2, 5), Some(2));
        assert_eq!(m.gaspi_of(2), 5);
        assert_eq!(m.app_of(5), Some(2));
        assert_eq!(m.app_of(2), None);
        // then gaspi 5 fails too, gaspi 6 adopts the same app rank
        assert_eq!(m.transfer(5, 6), Some(2));
        assert_eq!(m.gaspi_of(2), 6);
        // transferring a rank that carries nothing is a no-op
        assert_eq!(m.transfer(2, 7), None);
        assert_eq!(m.worker_set(), vec![0, 1, 3, 6]);
    }
}
