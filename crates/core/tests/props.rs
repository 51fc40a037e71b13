//! Property tests for the recovery plan algebra (rank maps, worker sets,
//! status derivation, the wire codec) and for the ABFT stripe code as a
//! pure function.

use proptest::prelude::*;

use ft_core::plan::NO_RESCUE;
use ft_core::stripe;
use ft_core::{ProcStatus, RecoveryPlan, WorldLayout};

/// Generate a consistent adoption history for a layout: failures drawn
/// from live workers/idles, rescues drawn from the remaining idle pool.
fn arb_history(workers: u32, spares: u32, steps: usize, picks: Vec<u16>) -> RecoveryPlan {
    let layout = WorldLayout::new(workers, spares);
    let mut failed = Vec::new();
    let mut rescues = Vec::new();
    let mut pool: Vec<u32> = layout.idle_pool().collect();
    let mut map = ft_core::RankMap::identity(workers);
    let mut pick = picks.into_iter();
    for _ in 0..steps {
        // Pick a live carrier (worker) to fail.
        let carriers: Vec<u32> = (0..layout.total() - 1)
            .filter(|&g| !failed.contains(&g) && map.app_of(g).is_some())
            .collect();
        if carriers.is_empty() {
            break;
        }
        let f = carriers[pick.next().unwrap_or(0) as usize % carriers.len()];
        failed.push(f);
        match pool.first().copied() {
            Some(r) => {
                pool.remove(0);
                map.transfer(f, r);
                rescues.push(r);
            }
            None => rescues.push(NO_RESCUE),
        }
    }
    RecoveryPlan { epoch: failed.len() as u64, failed, rescues, fd_alive: true, fd_rank: None }
}

proptest! {
    /// Non-shrinking recovery: as long as every failure got a rescue, the
    /// worker set always has exactly `workers` members, none failed.
    #[test]
    fn worker_set_is_non_shrinking(
        workers in 1u32..12,
        spares in 1u32..8,
        steps in 0usize..6,
        picks in proptest::collection::vec(any::<u16>(), 8),
    ) {
        let layout = WorldLayout::new(workers, spares);
        let plan = arb_history(workers, spares, steps, picks);
        prop_assume!(plan.rescues.iter().all(|&r| r != NO_RESCUE));
        let ws = plan.worker_set(&layout);
        prop_assert_eq!(ws.len(), workers as usize);
        for &g in &ws {
            prop_assert!(!plan.failed.contains(&g), "failed rank in worker set");
        }
        // Every app rank has exactly one carrier.
        let map = plan.rank_map(&layout);
        let mut carriers: Vec<u32> = (0..workers).map(|a| map.gaspi_of(a)).collect();
        carriers.sort_unstable();
        carriers.dedup();
        prop_assert_eq!(carriers.len(), workers as usize, "carriers must be distinct");
    }

    /// Status derivation is consistent with the rank map: carriers are
    /// WORKING, failed are FAILED, and counts add up.
    #[test]
    fn status_partitions_ranks(
        workers in 1u32..12,
        spares in 1u32..8,
        steps in 0usize..6,
        picks in proptest::collection::vec(any::<u16>(), 8),
    ) {
        let layout = WorldLayout::new(workers, spares);
        let plan = arb_history(workers, spares, steps, picks);
        let st = plan.status(&layout);
        prop_assert_eq!(st.len(), layout.total() as usize);
        let map = plan.rank_map(&layout);
        for (g, s) in st.iter().enumerate() {
            let g = g as u32;
            if plan.failed.contains(&g) {
                prop_assert_eq!(*s, ProcStatus::Failed);
            } else if map.app_of(g).is_some() {
                prop_assert_eq!(*s, ProcStatus::Working);
            } else {
                prop_assert!(matches!(s, ProcStatus::Idle | ProcStatus::Detector));
            }
        }
    }

    /// Plan wire codec roundtrips arbitrary histories.
    #[test]
    fn plan_codec_roundtrip(
        workers in 1u32..12,
        spares in 1u32..8,
        steps in 0usize..6,
        picks in proptest::collection::vec(any::<u16>(), 8),
        fd_alive in any::<bool>(),
    ) {
        let mut plan = arb_history(workers, spares, steps, picks);
        plan.fd_alive = fd_alive;
        let buf = plan.encode();
        prop_assert_eq!(RecoveryPlan::decode(&buf), Some(plan));
    }

    /// Single-erasure code over `n` ranks with arbitrary block lengths
    /// (empty, one byte, not a multiple of `n − 1`, wildly uneven): encode,
    /// drop any one rank, and the survivors' parity stripes plus their
    /// re-dealt stripes give back that rank's exact bytes — and the parity
    /// stripe it owned.
    #[test]
    fn stripe_code_recovers_any_single_loss(
        n in 2usize..10,
        picks in proptest::collection::vec(any::<u16>(), 9),
        lost in any::<u16>(),
        iter in any::<u64>(),
    ) {
        let blocks: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let len = match picks[i] % 4 {
                    0 => 0,
                    1 => 1,
                    2 => usize::from(picks[i]) % 40,
                    _ => usize::from(picks[i]) % 6000,
                };
                (0..len).map(|k| (k * 31 + i * 7 + usize::from(picks[i])) as u8).collect()
            })
            .collect();
        let lost = usize::from(lost) % n;
        // sent[i][j]: what rank i deals rank j.
        let sent: Vec<Vec<Vec<u8>>> =
            (0..n).map(|i| stripe::encode(i, n, iter, &blocks[i])).collect();
        let dealt_to = |j: usize, skip: &[usize]| -> Vec<&[u8]> {
            (0..n).filter(|i| *i != j && !skip.contains(i)).map(|i| sent[i][j].as_slice()).collect()
        };
        let parity: Vec<Vec<u8>> =
            (0..n).map(|j| stripe::parity(iter, dealt_to(j, &[])).unwrap()).collect();
        let longest = blocks.iter().map(Vec::len).max().unwrap();
        for p in &parity {
            prop_assert!(p.len() <= 8 + longest.div_ceil(n - 1), "parity is one stripe wide");
        }
        // The survivors re-deal; each owner forwards the one lost stripe.
        let pieces: Vec<Vec<u8>> = (0..n)
            .map(|j| {
                if j == lost {
                    return Vec::new();
                }
                stripe::lost_piece(&parity[j], iter, dealt_to(j, &[lost])).unwrap()
            })
            .collect();
        prop_assert_eq!(stripe::assemble(lost, n, iter, &pieces), Some(blocks[lost].clone()));
        // The rescue rebuilds the lost parity stripe from the same re-deal.
        prop_assert_eq!(stripe::parity(iter, dealt_to(lost, &[])), Some(parity[lost].clone()));
        // A piece of another generation never assembles.
        prop_assert_eq!(stripe::assemble(lost, n, iter.wrapping_add(1), &pieces), None);
    }
}
