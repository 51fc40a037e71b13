//! Property tests for topology, fault-plane and schedule-codec invariants.

use std::time::Duration;

use proptest::prelude::*;

use ft_cluster::codec::check_wire;
use ft_cluster::{FaultAction, FaultPlane, FaultSchedule, Injection, NodeId, Topology};

/// The `kind`-th action over drawn operands.
fn action(kind: u8, a: u32, b: u32, nanos: u64) -> FaultAction {
    match kind {
        0 => FaultAction::KillRank(a),
        1 => FaultAction::KillNode(NodeId(a)),
        2 => FaultAction::BreakLink(a, b),
        3 => FaultAction::HealLink(a, b),
        _ => FaultAction::Delay(Duration::from_nanos(nanos)),
    }
}

/// One schedule entry per draw: all three triggers, all five actions (four
/// under `timed`, which refuses a `Delay`).
fn schedule(entries: &[(u8, u8, u32, u32, u64)]) -> FaultSchedule {
    entries.iter().fold(FaultSchedule::none(), |s, &(trigger, kind, a, b, n)| match trigger {
        0 => s.kill_rank_at_iteration(a, n),
        1 => s.timed(Duration::from_nanos(n), action(kind % 4, a, b, n)),
        _ => s.inject(Injection::at(format!("site.{}", b % 7), a, n, action(kind, b, a, n))),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A rank process decodes its schedule from an environment variable,
    /// so every schedule meets the wire property.
    #[test]
    fn schedules_meet_the_wire_property(
        entries in proptest::collection::vec(
            (0u8..3, 0u8..5, any::<u32>(), any::<u32>(), any::<u64>()),
            0..6,
        ),
    ) {
        check_wire::<FaultSchedule>(&schedule(&entries));
    }
}

proptest! {
    /// Node ranges tile the rank space and owner lookups agree.
    #[test]
    fn placement_tiles_ranks(num_ranks in 1u32..2000, rpn in 1u32..64) {
        let t = Topology::new(num_ranks, rpn);
        let mut covered = 0u32;
        for node in t.nodes() {
            let ranks: Vec<u32> = t.ranks_on(node).collect();
            prop_assert!(!ranks.is_empty(), "no empty nodes");
            for &r in &ranks {
                prop_assert_eq!(t.node_of(r), node);
                prop_assert_eq!(r, covered);
                covered += 1;
            }
        }
        prop_assert_eq!(covered, num_ranks);
        prop_assert!(t.num_nodes() <= num_ranks);
    }

    /// next_live_node never returns the origin, never returns a dead
    /// node, and returns None exactly when every other node is dead.
    #[test]
    fn next_live_node_contract(
        n in 2u32..40,
        dead_bits in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let t = Topology::one_per_node(n);
        let dead = |node: NodeId| dead_bits[node.0 as usize];
        for from in t.nodes() {
            match t.next_live_node(from, dead) {
                Some(next) => {
                    prop_assert_ne!(next, from);
                    prop_assert!(!dead(next));
                }
                None => {
                    for other in t.nodes().filter(|&x| x != from) {
                        prop_assert!(dead(other), "None only when all others dead");
                    }
                }
            }
        }
    }

    /// Killing any subset of ranks leaves consistent liveness counts and
    /// link states.
    #[test]
    fn kill_consistency(n in 1u32..64, kills in proptest::collection::vec(0u32..64, 0..20)) {
        let t = Topology::new(n, 2);
        let plane = FaultPlane::new(t);
        let mut expected_dead = std::collections::HashSet::new();
        for k in kills {
            if k < n {
                plane.kill_rank(k);
                expected_dead.insert(k);
            }
        }
        prop_assert_eq!(plane.alive_count(), n - expected_dead.len() as u32);
        for r in 0..n {
            prop_assert_eq!(plane.is_alive(r), !expected_dead.contains(&r));
            for s in 0..n {
                let ok = plane.link_ok(r, s);
                prop_assert_eq!(
                    ok,
                    !expected_dead.contains(&r) && !expected_dead.contains(&s)
                );
            }
        }
    }
}
