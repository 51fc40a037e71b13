//! Property tests for the recovery plan as the detection state — the pure
//! transitions (failures → plan, takeover → plan, done → plan), the views derived from
//! a plan (rank map, worker set, group id) and the one classification
//! (does a newer plan change the worker group) — plus the ABFT stripe code
//! as a pure function, the keep-or-redo rule of a restore, and how the supervisor
//! reads a rank process's protocol lines.

use std::time::Duration;

use proptest::prelude::*;

use ft_cluster::codec::to_hex;
use ft_cluster::{Rank, Wire};
use ft_core::ckpt::{frontier_vote, replay_frontier, Standing};
use ft_core::plan::NO_RESCUE;
use ft_core::process::{child_outcome, ChildEnd};
use ft_core::stripe;
use ft_core::{
    Event, EventKind, EventLog, ProcOutcome, ProcResult, RecoveryPlan, Role, WorldLayout,
};

/// A job's detection history: the layout, the shadow withheld from the
/// pool, and every plan broadcast, oldest first.
struct History {
    layout: WorldLayout,
    reserved: Option<Rank>,
    plans: Vec<RecoveryPlan>,
}

/// The free spares of `plan`, derived independently of `plan.rs`.
fn pool(h: &History, plan: &RecoveryPlan) -> Vec<Rank> {
    h.layout
        .idle_pool()
        .filter(|r| Some(*r) != h.reserved && !plan.failed.contains(r) && !plan.rescues.contains(r))
        .collect()
}

/// One failure, `prev → next`, against the assignment rule spelled out.
fn check_step(h: &History, prev: &RecoveryPlan, next: &RecoveryPlan, f: Rank) {
    let l = &h.layout;
    let rescue = *next.rescues.last().unwrap();
    assert_eq!(next.failed.last(), Some(&f));
    let free: Vec<Rank> = pool(h, prev).into_iter().filter(|&r| r != f).collect();
    let Some(app) = prev.rank_map(l).app_of(f) else {
        // An idle (or the standby shadow) died: nobody adopts anything.
        assert_eq!(rescue, NO_RESCUE);
        assert!(!prev.regroups(next));
        assert_eq!(prev.rank_map(l), next.rank_map(l));
        assert_eq!(prev.fd_alive, next.fd_alive);
        return;
    };
    if let Some(&first) = free.first() {
        assert_eq!(rescue, first, "the pool, in layout order");
    } else if prev.fd_alive {
        assert_eq!((rescue, next.fd_alive), (prev.current_fd(l), false), "promotion");
    } else {
        assert_eq!(rescue, NO_RESCUE, "exhaustion: pool empty, FD already promoted");
        assert!(next.exhausted(l) && !prev.regroups(next));
        return;
    }
    assert!(free.is_empty() || next.fd_alive, "promotion only when the pool is empty");
    assert!(prev.regroups(next));
    assert_eq!(next.rank_map(l).gaspi_of(app), rescue);
}

/// Drive the transitions the way the detectors do: scans that find 1–3
/// dead ranks, and (with a reserved shadow) a takeover once the primary is
/// picked to die. Every single-failure step is checked on the way.
fn arb_history(workers: u32, spares: u32, redundant: bool, picks: Vec<u16>) -> History {
    let layout = WorldLayout::new(workers, spares);
    let reserved = (redundant && spares >= 2).then(|| layout.total() - 2);
    let mut h = History { layout, reserved, plans: vec![RecoveryPlan::initial()] };
    let mut picks = picks.into_iter();
    while let Some(pick) = picks.next() {
        let plan = h.plans.last().unwrap().clone();
        if !plan.fd_alive || plan.exhausted(&layout) {
            break; // no detector scans past a promotion or an exhaustion
        }
        let fd = plan.current_fd(&layout);
        let next =
            if pick % 5 == 0 && reserved.is_some_and(|s| s != fd && !plan.failed.contains(&s)) {
                plan.after_takeover(&layout, reserved.unwrap())
            } else {
                let alive: Vec<Rank> =
                    (0..layout.total()).filter(|r| *r != fd && !plan.failed.contains(r)).collect();
                let mut newly: Vec<Rank> = (0..1 + pick % 3)
                    .filter_map(|_| picks.next())
                    .map(|p| alive[usize::from(p) % alive.len()])
                    .collect();
                newly.sort_unstable();
                newly.dedup();
                let at_once = plan.after_failures(&layout, &newly, reserved);
                let folded = newly.iter().fold(plan.clone(), |prev, &f| {
                    let next = prev.after_failures(&layout, &[f], reserved);
                    check_step(&h, &prev, &next, f);
                    next
                });
                // One scan is one epoch, but adopts exactly as its failures
                // taken one at a time would — chained rescues included.
                assert_eq!(at_once, RecoveryPlan { epoch: plan.epoch + 1, ..folded });
                at_once
            };
        h.plans.push(next);
    }
    h
}

proptest! {
    /// What holds of every plan a detector can broadcast.
    #[test]
    fn every_reachable_plan_is_well_formed(
        workers in 1u32..12,
        spares in 1u32..8,
        redundant in any::<bool>(),
        picks in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        let h = arb_history(workers, spares, redundant, picks);
        let l = &h.layout;
        for (i, plan) in h.plans.iter().enumerate() {
            prop_assert_eq!(plan.epoch, i as u64);
            prop_assert_eq!(plan.failed.len(), plan.rescues.len());
            for (i, &r) in plan.rescues.iter().enumerate().filter(|(_, &r)| r != NO_RESCUE) {
                prop_assert!(!plan.rescues[..i].contains(&r), "rank {r} is a rescue twice");
                prop_assert!(!plan.failed[..=i].contains(&r), "rank {r} adopted after it failed");
                // The shadow is withheld from the pool: it only ever joins
                // the workers as a detector promoting itself.
                prop_assert!(Some(r) != h.reserved || (plan.fd_rank, plan.fd_alive) == (Some(r), false));
            }
            // Non-shrinking: every app rank has one live carrier of its own.
            let mut ws = plan.worker_set(l);
            prop_assert_eq!(ws.len(), workers as usize);
            ws.dedup();
            prop_assert_eq!(ws.len(), workers as usize, "carriers must be distinct");
            prop_assert_eq!(plan.exhausted(l), ws.iter().any(|g| plan.failed.contains(g)));
            prop_assert_eq!(RecoveryPlan::from_bytes(&plan.to_bytes()), Ok(plan.clone()));
        }
    }

    /// A rank may see any subsequence of the plans (its control segment
    /// keeps only the newest), so what the members of a group must agree
    /// on has to follow from *which worker group* a plan describes alone:
    /// any two plans of one job either describe the same rank map — then
    /// neither interrupts a holder of the other and both name one group id
    /// — or they differ in both. Takeovers and idle deaths are the former.
    #[test]
    fn regrouping_and_group_id_depend_on_the_rank_map_alone(
        workers in 1u32..12,
        spares in 1u32..8,
        redundant in any::<bool>(),
        picks in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        let h = arb_history(workers, spares, redundant, picks);
        for (i, held) in h.plans.iter().enumerate() {
            for newer in &h.plans[i..] {
                let same_group = held.rank_map(&h.layout) == newer.rank_map(&h.layout);
                prop_assert_eq!(held.regroups(newer), !same_group);
                prop_assert_eq!(held.group_id() == newer.group_id(), same_group);
            }
        }
        for pair in h.plans.windows(2) {
            if pair[1].fd_rank != pair[0].fd_rank {
                prop_assert!(!pair[0].regroups(&pair[1]), "a takeover regroups nothing");
            }
        }
    }

    /// The job's end from any position a detector can reach: the end plan
    /// leaves the worker group, its id and the detector's rank alone — so
    /// a worker still inside its last collective absorbs it — and crosses
    /// the wire like any other plan.
    #[test]
    fn the_end_plan_regroups_nothing_from_any_position(
        workers in 2u32..5,
        spares in 1u32..4,
        redundant in any::<bool>(),
        picks in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        let h = arb_history(workers, spares, redundant, picks);
        let l = &h.layout;
        for plan in &h.plans {
            let end = plan.after_done();
            prop_assert!(!plan.regroups(&end));
            prop_assert_eq!((end.epoch, end.fd_alive), (plan.epoch + 1, false));
            prop_assert_eq!(end.group_id(), plan.group_id());
            prop_assert_eq!(end.worker_set(l), plan.worker_set(l));
            prop_assert_eq!(end.current_fd(l), plan.current_fd(l));
            prop_assert_eq!(RecoveryPlan::from_bytes(&end.to_bytes()), Ok(end.clone()));
        }
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

    /// The keep-or-redo rule over small layouts: 2–4 workers whose halos
    /// flow along random links, 1–2 victims in one interval, survivors
    /// whose logs start at the voted commit `c` or at a later commit the
    /// vote could not pick, broken logs, and survivors straddling the
    /// failed step (done with it, or not). Every member folds the same
    /// votes, in any order, to one `f`. A keep (`f > c`) means every
    /// survivor stands at `f` and each rescue's senders hold `c..f`;
    /// anything else gives `f = c`, the global redo.
    #[test]
    fn a_keep_needs_every_survivor_at_the_frontier_and_every_sender_covering_it(
        workers in 2u32..5,
        links in any::<u8>(),
        victims in proptest::collection::vec(0u32..4, 1..3),
        commit in 0u64..3,
        kill in 0u64..11,
        picks in proptest::collection::vec(0u8..8, 4),
    ) {
        let (every, c) = (10, 10 * commit);
        // Pair (a, b) exchanges halos when its bit is set; the chain
        // a ↔ a + 1 always does.
        let linked = |a: u32, b: u32| {
            let (lo, hi) = (a.min(b), a.max(b));
            hi == lo + 1 || links & (1 << ((lo * 4 + hi) % 8)) != 0
        };
        let mut victims: Vec<u32> = victims.into_iter().map(|v| v % workers).collect();
        victims.sort_unstable();
        victims.dedup();
        let frontier = c + kill;
        let mut ends = Vec::new();
        let mut late_log = false;
        let mut broken = false;
        let standings: Vec<Standing> = (0..workers)
            .map(|a| {
                if victims.contains(&a) {
                    let fed_by_rescue = victims.iter().any(|&v| v != a && linked(v, a));
                    return Standing::Rescue { fed_by_rescue };
                }
                let pick = picks[a as usize];
                // Straddle: a survivor may not have finished the step
                // before the failed one.
                let end = if pick & 1 == 1 && frontier > c { frontier - 1 } else { frontier };
                // A survivor done with the interval committed again, and the
                // vote did not pick that commit: its log restarted there.
                let start = if pick & 2 == 2 && end == c + every { end } else { c };
                late_log |= start > c;
                ends.push(end);
                if pick & 4 == 4 && pick & 3 == 0 {
                    broken = true;
                    return Standing::Survivor(None);
                }
                Standing::Survivor(Some(start..end))
            })
            .collect();
        let votes: Vec<[u64; 2]> = standings.iter().map(|s| frontier_vote(c, s)).collect();
        let f = replay_frontier(c, votes.iter().copied());
        // Each member sees the folded vote, whatever order the fold took.
        for r in 0..votes.len() {
            let rotated = votes[r..].iter().chain(&votes[..r]);
            let folded = rotated.fold([u64::MAX; 2], |a, v| [a[0].min(v[0]), a[1].min(v[1])]);
            prop_assert_eq!(replay_frontier(c, [folded]), f);
        }
        prop_assert!(f >= c);
        if f > c {
            let covers = |a: u32| {
                matches!(&standings[a as usize],
                    Standing::Survivor(Some(log)) if log.start <= c && log.end == f)
            };
            for a in (0..workers).filter(|a| !victims.contains(a)) {
                prop_assert!(covers(a), "app rank {} does not stand at {}", a, f);
            }
            for &v in &victims {
                for a in (0..workers).filter(|&a| a != v && linked(a, v)) {
                    prop_assert!(covers(a), "rescue {}'s sender {} lacks {}..{}", v, a, c, f);
                }
            }
        }
        let fed = victims.iter().any(|&a| victims.iter().any(|&v| v != a && linked(v, a)));
        let straddle = ends.iter().any(|e| Some(e) != ends.first());
        if fed || late_log || broken || straddle || ends.is_empty() {
            prop_assert_eq!(f, c, "global redo");
        } else {
            prop_assert_eq!(f, ends[0]);
        }
    }
}

/// The keep-or-redo rule's keep and its fallbacks, one by one.
#[test]
fn the_frontier_rule_falls_back_to_the_commit() {
    let c = 100;
    let survivor = |r: std::ops::Range<u64>| Standing::Survivor(Some(r));
    let f = |s: &[Standing]| replay_frontier(c, s.iter().map(|s| frontier_vote(c, s)));
    let alone = Standing::Rescue { fed_by_rescue: false };
    let fed = Standing::Rescue { fed_by_rescue: true };
    assert_eq!(f(&[survivor(100..160), alone.clone(), survivor(100..160)]), 160, "a keep");
    assert_eq!(f(&[survivor(100..160), alone.clone(), survivor(100..159)]), c, "a straddle");
    assert_eq!(f(&[survivor(100..160), fed]), c, "a rescue feeds a rescue");
    assert_eq!(f(&[survivor(100..160), survivor(200..200)]), c, "a log past the commit");
    assert_eq!(f(&[survivor(100..160), Standing::Survivor(None)]), c, "a broken log");
    assert_eq!(f(&[survivor(40..99)]), c, "a log that ends before the commit");
    assert_eq!(f(&[alone.clone(), alone]), c, "nobody but rescues voted");
    assert_eq!(f(&[survivor(60..130)]), 130, "a log from before the commit still covers it");
}

/// A protocol line that does not decode is never dropped and never a
/// supervisor panic: the rank that printed it — and exited 0 — crashed.
#[cfg(unix)]
#[test]
fn a_torn_or_non_hex_protocol_line_is_a_crashed_rank() {
    use std::os::unix::process::ExitStatusExt;
    let exit0 = || Some(std::process::ExitStatus::from_raw(0));
    let event = Event { t: Duration::from_micros(5), rank: 0, kind: EventKind::FdPromoted };
    let event = format!("EVENT {}", to_hex(&event.to_bytes()));
    let end = ChildEnd::Ran(ProcResult {
        role: Role::Worker,
        app_rank: Some(3),
        summary: Some(vec![1, 2, 3]),
        error: None,
        shutdown: false,
        t_end: Duration::from_micros(1234),
    });
    let result = format!("RESULT {}", to_hex(&end.to_bytes()));
    let outcome = |lines: &[&str]| {
        let log = EventLog::new();
        let lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        (child_outcome(exit0(), &lines, &log), log.snapshot().len())
    };
    // The well-formed stream completes, application chatter included.
    let (ok, events) = outcome(&["solver: residual 1e-9", &event, &result]);
    assert!(matches!(ok, ProcOutcome::Completed(ref r) if r.app_rank == Some(3)), "{ok:?}");
    assert_eq!(events, 1);
    let torn_event = &event[..event.len() - 3];
    let torn_result = &result[..result.len() - 2];
    let long_result = format!("{result}00");
    for bad in [
        vec![torn_event, result.as_str()],
        vec![event.as_str(), torn_result],
        vec![event.as_str(), long_result.as_str()],
        vec!["EVENT not-hex-at-all", result.as_str()],
        vec![event.as_str(), "RESULT zz"],
        vec![event.as_str(), "RESULT "],
        vec![event.as_str()],
    ] {
        let (got, _) = outcome(&bad);
        assert!(matches!(got, ProcOutcome::Crashed(_)), "{bad:?} gave {got:?}");
    }
    // A child that was killed mid-line was killed, whatever it printed.
    let sigkill = Some(std::process::ExitStatus::from_raw(9));
    let lines = vec![torn_event.to_string()];
    assert!(child_outcome(sigkill, &lines, &EventLog::new()).was_killed());
}
