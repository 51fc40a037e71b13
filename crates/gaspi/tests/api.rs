//! End-to-end tests of the GASPI API over live rank threads.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ft_gaspi::{
    GaspiConfig, GaspiError, GaspiProc, GaspiResult, GaspiWorld, ProcState, RankOutcome, ReduceOp,
    Timeout,
};

const SEG: u16 = 1;
const Q: u16 = 0;

fn join_ok<T: std::fmt::Debug>(outs: Vec<RankOutcome<T>>) -> Vec<T> {
    outs.into_iter()
        .enumerate()
        .map(|(r, o)| match o {
            RankOutcome::Completed(v) => v,
            other => panic!("rank {r} did not complete: {other:?}"),
        })
        .collect()
}

/// All ranks create a segment and barrier on a full group.
fn setup_world(p: &GaspiProc, seg_size: usize) -> GaspiResult<ft_gaspi::Group> {
    p.segment_create(SEG, seg_size)?;
    let g = p.group_create_with_id(1 << 32)?;
    for r in 0..p.num_ranks() {
        p.group_add(g, r)?;
    }
    p.group_commit(g, Timeout::Ms(60_000))?;
    p.barrier(g, Timeout::Ms(60_000))?;
    Ok(g)
}

#[test]
fn write_notify_roundtrip() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let outs = world
        .launch(|p| {
            let _g = setup_world(&p, 256)?;
            let me = p.rank();
            let next = (me + 1) % p.num_ranks();
            // Put my rank (as u64) into my segment, push it to my neighbor
            // with a notification.
            p.with_segment_mut(SEG, |b| ft_gaspi::bytes::put_u64(b, 0, u64::from(me) + 100))?;
            p.write_notify(SEG, 0, next, SEG, 64, 8, 7, 1, Q)?;
            p.wait(Q, Timeout::Ms(5000))?;
            // Await my own notification and read what the previous rank put.
            let nid = p.notify_waitsome(SEG, 0, 16, Timeout::Ms(5000))?;
            assert_eq!(nid, 7);
            assert_eq!(p.notify_reset(SEG, nid)?, 1);
            let got = p.with_segment(SEG, |b| ft_gaspi::bytes::get_u64(b, 64))?;
            let prev = (me + p.num_ranks() - 1) % p.num_ranks();
            Ok(got == u64::from(prev) + 100)
        })
        .join();
    assert!(join_ok(outs).into_iter().all(|ok| ok));
}

#[test]
fn allreduce_sum_min_max_deterministic() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(5));
    let outs = world
        .launch(|p| {
            let g = setup_world(&p, 8)?;
            let x = f64::from(p.rank()) + 1.0; // 1..=5
            let sum = p.allreduce_f64(g, &[x, 2.0 * x], ReduceOp::Sum, Timeout::Ms(5000))?;
            let mn = p.allreduce_f64(g, &[x], ReduceOp::Min, Timeout::Ms(5000))?;
            let mx = p.allreduce_f64(g, &[x], ReduceOp::Max, Timeout::Ms(5000))?;
            let cnt = p.allreduce_u64(g, &[1], ReduceOp::Sum, Timeout::Ms(5000))?;
            Ok((sum, mn, mx, cnt))
        })
        .join();
    for (sum, mn, mx, cnt) in join_ok(outs) {
        assert_eq!(sum, vec![15.0, 30.0]);
        assert_eq!(mn, vec![1.0]);
        assert_eq!(mx, vec![5.0]);
        assert_eq!(cnt, vec![5]);
    }
}

#[test]
fn a_plain_allreduce_folds_in_member_order_with_the_same_bits_everywhere() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let outs = world
        .launch(|p| {
            let g = setup_world(&p, 8)?;
            let x = [1e16, 1.0, -1e16, 1.0][p.rank() as usize];
            p.allreduce_f64(g, &[x], ReduceOp::Sum, Timeout::Ms(5000))
        })
        .join();
    // ((1e16 + 1) − 1e16) + 1 = 1: member 1's 1.0 is rounded away, member
    // 3's is not. Pairwise, (1e16 + 1) + (−1e16 + 1) would give 0.
    for sum in join_ok(outs) {
        assert_eq!(sum.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), [1f64.to_bits()]);
    }
}

#[test]
fn a_late_member_holds_every_other_member_until_it_enters() {
    for late in [0u32, 3] {
        let world = GaspiWorld::new(GaspiConfig::deterministic(4));
        let outs = world
            .launch(move |p| {
                let g = setup_world(&p, 8)?;
                let t = Timeout::Ms(5000);
                // Per collective: when the late member entered, or when
                // this member returned.
                let mut at = Vec::new();
                let mut timed = |call: &dyn Fn() -> GaspiResult<()>| {
                    if p.rank() == late {
                        std::thread::sleep(Duration::from_millis(50));
                        at.push(Instant::now());
                        call()
                    } else {
                        call()?;
                        at.push(Instant::now());
                        Ok(())
                    }
                };
                timed(&|| p.allreduce_f64(g, &[1.0], ReduceOp::Sum, t).map(drop))?;
                timed(&|| p.barrier(g, t))?;
                Ok(at)
            })
            .join();
        let at = join_ok(outs);
        let entered = &at[late as usize];
        for (r, returned) in at.iter().enumerate().filter(|&(r, _)| r != late as usize) {
            for (op, (ret, entered)) in
                ["allreduce", "barrier"].iter().zip(returned.iter().zip(entered))
            {
                assert!(ret >= entered, "rank {r} left the {op} before late rank {late} entered");
            }
        }
    }
}

#[test]
fn allreduce_rejects_oversized_buffers() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let outs = world
        .launch(|p| {
            let g = setup_world(&p, 8)?;
            let big = vec![0.0; 256];
            match p.allreduce_f64(g, &big, ReduceOp::Sum, Timeout::Ms(1000)) {
                Err(GaspiError::InvalidArg(_)) => Ok(true),
                other => panic!("expected InvalidArg, got {other:?}"),
            }
        })
        .join();
    assert!(join_ok(outs).into_iter().all(|ok| ok));
}

#[test]
fn barrier_times_out_when_member_dead() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(3));
    let outs = world
        .launch(|p| {
            let g = setup_world(&p, 8)?;
            // The victim dies only once both peers have left `setup_world`:
            // dying while one is still inside its closing barrier would
            // strand that peer until the helper's 60 s timeout.
            if p.rank() == 2 {
                for _ in 0..2 {
                    let nid = p.notify_waitsome(SEG, 0, 2, Timeout::Ms(60_000))?;
                    p.notify_reset(SEG, nid)?;
                }
                p.exit_failure();
            }
            p.notify(2, SEG, p.rank(), 1, Q)?;
            // Give the victim a moment to die, then barrier: must not hang.
            std::thread::sleep(Duration::from_millis(20));
            match p.barrier(g, Timeout::Ms(300)) {
                Err(GaspiError::Timeout) | Err(GaspiError::RemoteBroken { rank: 2 }) => Ok(true),
                other => panic!("expected Timeout/RemoteBroken, got {other:?}"),
            }
        })
        .join();
    assert!(outs[2].was_killed(), "{outs:?}");
    assert!(matches!(outs[0], RankOutcome::Completed(true)), "{outs:?}");
    assert!(matches!(outs[1], RankOutcome::Completed(true)), "{outs:?}");
}

#[test]
fn ping_healthy_then_dead_then_state_vec() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(3));
    let outs = world
        .launch(|p| {
            match p.rank() {
                1 => {
                    // Live briefly, then die.
                    std::thread::sleep(Duration::from_millis(30));
                    p.exit_failure();
                }
                0 => {
                    // Healthy ping first.
                    p.proc_ping(1, Timeout::Ms(1000))?;
                    assert_eq!(p.state_vec_get()[1], ProcState::Healthy);
                    // Wait for death, then ping must fail and set the
                    // state vector.
                    std::thread::sleep(Duration::from_millis(60));
                    match p.proc_ping(1, Timeout::Block) {
                        Err(GaspiError::RemoteBroken { rank: 1 }) => {}
                        other => panic!("expected RemoteBroken, got {other:?}"),
                    }
                    assert_eq!(p.state_vec_get()[1], ProcState::Corrupt);
                    assert_eq!(p.state_vec_get()[2], ProcState::Healthy);
                    Ok(())
                }
                _ => {
                    std::thread::sleep(Duration::from_millis(120));
                    Ok(())
                }
            }
        })
        .join();
    assert!(outs[1].was_killed());
}

#[test]
fn ping_many_reports_exactly_the_dead_and_marks_corrupt() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(6));
    world.fault().kill_rank(2);
    world.fault().kill_rank(4);
    let p = world.proc_handle(5);
    // Duplicates are pinged once; the failed set is sorted and deduped.
    let failed = p.proc_ping_many(&[0, 1, 2, 3, 4, 2], Timeout::Ms(1000)).unwrap();
    assert_eq!(failed, vec![2, 4]);
    let states = p.state_vec_get();
    assert_eq!(states[2], ProcState::Corrupt);
    assert_eq!(states[4], ProcState::Corrupt);
    assert_eq!(states[0], ProcState::Healthy);
    // Empty target set short-circuits.
    assert!(p.proc_ping_many(&[], Timeout::Ms(100)).unwrap().is_empty());
}

#[test]
fn proc_kill_enforces_death_of_live_rank() {
    // The false-positive scenario (§IV-A-a): a healthy process is killed
    // anyway so it cannot keep participating.
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let fault = world.fault();
    let outs = world
        .launch(|p| {
            if p.rank() == 0 {
                p.proc_kill(1, Timeout::Ms(2000))?;
                // Killing an already-dead rank is still a success.
                p.proc_kill(1, Timeout::Ms(2000))?;
                Ok(true)
            } else {
                // Rank 1 spins doing local work until the kill lands.
                loop {
                    p.with_segment(0, |_| ()).ok();
                    p.proc_ping(0, Timeout::Ms(100)).ok();
                }
            }
        })
        .join();
    assert!(matches!(outs[0], RankOutcome::Completed(true)));
    assert!(outs[1].was_killed());
    assert!(!fault.is_alive(1));
}

#[test]
fn wait_reports_queue_failure_against_dead_target() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let outs = world
        .launch(|p| {
            p.segment_create(SEG, 64)?;
            if p.rank() == 1 {
                p.exit_failure();
            }
            std::thread::sleep(Duration::from_millis(30));
            p.write(SEG, 0, 1, SEG, 0, 8, Q)?;
            match p.wait(Q, Timeout::Ms(2000)) {
                Err(GaspiError::QueueFailure { queue: Q, ranks }) => {
                    assert_eq!(ranks, vec![1]);
                    assert_eq!(p.state_vec_get()[1], ProcState::Corrupt);
                    Ok(true)
                }
                other => panic!("expected QueueFailure, got {other:?}"),
            }
        })
        .join();
    assert!(matches!(outs[0], RankOutcome::Completed(true)));
}

#[test]
fn passive_send_receive() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let outs = world
        .launch(|p| {
            if p.rank() == 0 {
                p.passive_send(1, b"hello".to_vec(), Timeout::Ms(2000))?;
                Ok(None)
            } else {
                let (from, data) = p.passive_receive(Timeout::Ms(2000))?;
                Ok(Some((from, data)))
            }
        })
        .join();
    let vals = join_ok(outs);
    assert_eq!(vals[1], Some((0, b"hello".to_vec())));
}

#[test]
fn notify_waitsome_timeout_and_test() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(1));
    let outs = world
        .launch(|p| {
            p.segment_create(SEG, 8)?;
            assert!(matches!(
                p.notify_waitsome(SEG, 0, 8, Timeout::Ms(20)),
                Err(GaspiError::Timeout)
            ));
            assert!(matches!(
                p.notify_waitsome(SEG, 0, 8, Timeout::Test),
                Err(GaspiError::Timeout)
            ));
            Ok(())
        })
        .join();
    join_ok(outs);
}

#[test]
fn group_commit_detects_member_set_mismatch() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let outs = world
        .launch(|p| {
            let g = p.group_create_with_id(1 << 33)?;
            p.group_add(g, 0)?;
            p.group_add(g, 1)?;
            if p.rank() == 0 {
                // Rank 0 sneaks in a phantom member — fingerprints differ.
                // (2 ranks only, so add rank 1 twice is dedup'd; instead
                // rank 0 commits a *smaller* set.)
            }
            let res = if p.rank() == 0 {
                let g2 = p.group_create_with_id(1 << 34)?;
                p.group_add(g2, 0)?;
                p.group_add(g2, 1)?;
                p.group_commit(g2, Timeout::Ms(400))
            } else {
                let g2 = p.group_create_with_id(1 << 34)?;
                p.group_add(g2, 1)?;
                p.group_commit(g2, Timeout::Ms(400))
            };
            Ok(matches!(res, Err(GaspiError::Group { .. }) | Err(GaspiError::Timeout) | Ok(())))
        })
        .join();
    // Rank 1 commits a singleton {1}: succeeds trivially (no tokens
    // needed... members without self? it contains self only) while rank 0
    // waits for a token from rank 1 that must arrive with a *different*
    // fingerprint → mismatch error. Either way, nobody hangs.
    let vals = join_ok(outs);
    assert!(vals.into_iter().all(|ok| ok));
}

#[test]
fn segment_errors_are_local_and_immediate() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(1));
    let outs = world
        .launch(|p| {
            assert!(matches!(p.segment_size(9), Err(GaspiError::Segment { .. })));
            p.segment_create(2, 16)?;
            assert!(matches!(p.segment_create(2, 16), Err(GaspiError::Segment { .. })));
            assert!(matches!(p.segment_read(2, 10, 10), Err(GaspiError::Segment { .. })));
            assert!(matches!(p.write(2, 0, 0, 9, 0, 8, 99), Err(GaspiError::InvalidArg(_))));
            Ok(())
        })
        .join();
    join_ok(outs);
}

#[test]
fn write_to_missing_remote_segment_fails_on_wait() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let outs = world
        .launch(|p| {
            p.segment_create(SEG, 32)?;
            if p.rank() == 0 {
                // Remote segment 5 never exists on rank 1.
                p.write(SEG, 0, 1, 5, 0, 8, Q)?;
                match p.wait(Q, Timeout::Ms(2000)) {
                    Err(GaspiError::QueueFailure { ranks, .. }) => Ok(ranks == vec![1]),
                    other => panic!("expected QueueFailure, got {other:?}"),
                }
            } else {
                std::thread::sleep(Duration::from_millis(50));
                Ok(true)
            }
        })
        .join();
    assert!(join_ok(outs).into_iter().all(|ok| ok));
}

#[test]
fn threaded_pings_share_one_handle() {
    // The threaded FD pattern: clone the proc handle into scoped threads
    // and ping different targets concurrently.
    let world = GaspiWorld::new(GaspiConfig::deterministic(9));
    let outs = world
        .launch(|p| {
            if p.rank() == 0 {
                let results: Vec<GaspiResult<()>> = std::thread::scope(|s| {
                    let handles: Vec<_> = (1..9)
                        .map(|r| {
                            let p = p.clone();
                            s.spawn(move || p.proc_ping(r, Timeout::Ms(2000)))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                Ok(results.into_iter().all(|r| r.is_ok()))
            } else {
                std::thread::sleep(Duration::from_millis(100));
                Ok(true)
            }
        })
        .join();
    assert!(join_ok(outs).into_iter().all(|ok| ok));
}

// ---------------------------------------------------------------------
// alltoall: the personalised one-hop exchange
// ---------------------------------------------------------------------

/// What `src` sends `dst`: uneven lengths, some of them empty, every byte
/// naming its sender and receiver.
fn a2a_payload(src: u32, dst: u32) -> Vec<u8> {
    let len = (src as usize * 7 + dst as usize * 3) % 5 * 300;
    (0..len).map(|k| (src as usize * 31 + dst as usize * 17 + k) as u8).collect()
}

fn a2a_out(p: &GaspiProc) -> Vec<Vec<u8>> {
    (0..p.num_ranks()).map(|dst| a2a_payload(p.rank(), dst)).collect()
}

/// Slot `src` must hold exactly what `src` addressed to this rank.
fn a2a_check(p: &GaspiProc, got: &[Vec<u8>]) {
    assert_eq!(got.len(), p.num_ranks() as usize);
    for src in (0..p.num_ranks()).filter(|&s| s != p.rank()) {
        assert_eq!(got[src as usize], a2a_payload(src, p.rank()), "{src} -> {}", p.rank());
    }
    assert!(got[p.rank() as usize].is_empty(), "own slot stays empty");
}

#[test]
fn alltoall_delivers_uneven_and_empty_payloads_from_the_right_member() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(5));
    let outs = world
        .launch(|p| {
            let g = setup_world(&p, 8)?;
            assert!(a2a_out(&p).iter().any(Vec::is_empty), "the pattern must include empties");
            let got = p.alltoall(g, &a2a_out(&p), Timeout::Ms(5000))?;
            a2a_check(&p, &got);
            // One payload per member, no more, no fewer.
            let short = vec![Vec::new(); 4];
            assert!(matches!(
                p.alltoall(g, &short, Timeout::Ms(5000)),
                Err(GaspiError::InvalidArg(_))
            ));
            Ok(())
        })
        .join();
    join_ok(outs);
}

#[test]
fn alltoall_timeout_then_resume_loses_and_duplicates_nothing() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let outs = world
        .launch(|p| {
            let g = setup_world(&p, 8)?;
            let out = a2a_out(&p);
            let mut timeouts = 0u32;
            if p.rank() == 3 {
                // Latecomer: everyone else times out first.
                std::thread::sleep(Duration::from_millis(60));
            }
            let got = loop {
                match p.alltoall(g, &out, Timeout::Ms(5)) {
                    Ok(got) => break got,
                    Err(GaspiError::Timeout) => timeouts += 1,
                    Err(e) => return Err(e),
                }
            };
            a2a_check(&p, &got);
            // The resumed call reused its sequence number: the *next*
            // exchange pairs up with everyone's next, not with leftovers
            // of the first (its payloads are the first's, reversed).
            let again: Vec<Vec<u8>> =
                out.iter().map(|m| m.iter().rev().copied().collect()).collect();
            let got2 = p.alltoall(g, &again, Timeout::Ms(5000))?;
            for src in (0..p.num_ranks()).filter(|&s| s != p.rank()) {
                let mut want = a2a_payload(src, p.rank());
                want.reverse();
                assert_eq!(got2[src as usize], want);
            }
            Ok(timeouts)
        })
        .join();
    let timeouts = join_ok(outs);
    assert!(timeouts[..3].iter().all(|&t| t >= 1), "early ranks must time out: {timeouts:?}");
}

#[test]
fn alltoall_times_out_when_member_dead() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(3));
    let outs = world
        .launch(|p| {
            let g = setup_world(&p, 8)?;
            // Same choreography as `barrier_times_out_when_member_dead`.
            if p.rank() == 2 {
                for _ in 0..2 {
                    let nid = p.notify_waitsome(SEG, 0, 2, Timeout::Ms(60_000))?;
                    p.notify_reset(SEG, nid)?;
                }
                p.exit_failure();
            }
            p.notify(2, SEG, p.rank(), 1, Q)?;
            std::thread::sleep(Duration::from_millis(20));
            match p.alltoall(g, &a2a_out(&p), Timeout::Ms(300)) {
                Err(GaspiError::Timeout) | Err(GaspiError::RemoteBroken { rank: 2 }) => Ok(true),
                other => panic!("expected Timeout/RemoteBroken, got {other:?}"),
            }
        })
        .join();
    assert!(outs[2].was_killed(), "{outs:?}");
    assert!(matches!(outs[0], RankOutcome::Completed(true)), "{outs:?}");
    assert!(matches!(outs[1], RankOutcome::Completed(true)), "{outs:?}");
}

#[test]
fn alltoall_on_a_one_member_group_returns_immediately() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let p = world.proc_handle(0);
    let g = p.group_create_with_id(1 << 32).unwrap();
    p.group_add(g, 0).unwrap();
    p.group_commit(g, Timeout::Ms(1000)).unwrap();
    let got = p.alltoall(g, &[b"ignored".to_vec()], Timeout::Test).unwrap();
    assert_eq!(got, vec![Vec::<u8>::new()]);
}

#[test]
fn alltoall_interleaves_with_barrier_and_allreduce() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(4));
    let outs = world
        .launch(|p| {
            let g = setup_world(&p, 8)?;
            let t = Timeout::Ms(5000);
            for round in 0..6u64 {
                let out: Vec<Vec<u8>> = (0..p.num_ranks())
                    .map(|dst| vec![round as u8, p.rank() as u8, dst as u8])
                    .collect();
                let got = p.alltoall(g, &out, t)?;
                for src in (0..p.num_ranks()).filter(|&s| s != p.rank()) {
                    assert_eq!(got[src as usize], [round as u8, src as u8, p.rank() as u8]);
                }
                if round % 2 == 0 {
                    p.barrier(g, t)?;
                }
                let sum = p.allreduce_f64(
                    g,
                    &[(round * 10 + u64::from(p.rank())) as f64],
                    ReduceOp::Sum,
                    t,
                )?;
                assert_eq!(sum, [(round * 40 + 6) as f64]);
            }
            Ok(())
        })
        .join();
    join_ok(outs);
}

#[test]
fn alltoall_crosses_two_loopback_tcp_transports() {
    use ft_cluster::{FaultPlane, LatencyModel, TcpTransport, Topology, Transport};
    use std::sync::Arc;

    // One world per rank, each over its own socket transport — the process
    // backend's shape, hosted on two threads — so group commit and the
    // exchange go through `OP_COLL` frames on a real wire.
    let listen = |me| {
        let fault = FaultPlane::new(Topology::one_per_node(2));
        let model = LatencyModel::deterministic_fast();
        (Arc::new(TcpTransport::listen(me, 2, Arc::clone(&fault), model).unwrap()), fault)
    };
    let ends = [listen(0), listen(1)];
    let ports = [ends[0].0.port(), ends[1].0.port()];
    let worlds: Vec<(GaspiWorld, Arc<TcpTransport>)> = ends
        .into_iter()
        .zip(0..)
        .map(|((tcp, fault), me)| {
            let transport: Arc<dyn Transport> = Arc::clone(&tcp) as Arc<dyn Transport>;
            let world =
                GaspiWorld::with_transport(GaspiConfig::deterministic(2), fault, transport, me);
            tcp.set_peers(&ports);
            (world, tcp)
        })
        .collect();
    std::thread::scope(|s| {
        for (me, (world, _)) in worlds.iter().enumerate() {
            s.spawn(move || {
                let out = world.run_local(me as u32, |p| {
                    let g = p.group_create_with_id(1 << 32)?;
                    p.group_add(g, 0)?;
                    p.group_add(g, 1)?;
                    p.group_commit(g, Timeout::Ms(10_000))?;
                    let got = p.alltoall(g, &a2a_out(&p), Timeout::Ms(10_000))?;
                    a2a_check(&p, &got);
                    // An empty payload is a frame too.
                    let got = p.alltoall(g, &[Vec::new(), Vec::new()], Timeout::Ms(10_000))?;
                    assert_eq!(got, vec![Vec::<u8>::new(); 2]);
                    Ok(())
                });
                assert!(matches!(out, RankOutcome::Completed(())), "rank {me}: {out:?}");
            });
        }
    });
    for (_, tcp) in &worlds {
        tcp.shutdown();
    }
}

/// A one-rank world whose segment `SEG` has notification 3 set to 7.
fn wake_world() -> (GaspiWorld, GaspiProc) {
    let world = GaspiWorld::new(GaspiConfig::deterministic(1));
    let p = world.proc_handle(0);
    p.segment_create(SEG, 8).unwrap();
    p.notify(0, SEG, 3, 7, Q).unwrap();
    p.wait(Q, Timeout::Ms(5000)).unwrap();
    (world, p)
}

/// Wait on notification 10 (never written) with the timeout `t`.
fn park(p: &GaspiProc, t: u64) -> (GaspiResult<u32>, Duration) {
    let t0 = Instant::now();
    (p.notify_waitsome(SEG, 10, 1, Timeout::Ms(t)), t0.elapsed())
}

#[test]
fn wake_on_ends_a_wait_at_once_when_a_listed_slot_already_moved() {
    let (_world, p) = wake_world();
    // Seen 0, holds 7: the condition fired before the wait began.
    let (r, took) = p.wake_on(SEG, &[(2, 0), (3, 0)], None, || park(&p, 5_000));
    assert_eq!(r, Err(GaspiError::Timeout));
    assert!(took < Duration::from_secs(1), "took {took:?}");
    // Seen 7, holds 7: the wait runs its course.
    let (r, took) = p.wake_on(SEG, &[(3, 7)], None, || park(&p, 100));
    assert_eq!(r, Err(GaspiError::Timeout));
    assert!(took >= Duration::from_millis(100));
    // A wait whose own condition holds still completes.
    assert_eq!(
        p.wake_on(SEG, &[(3, 0)], None, || p.notify_waitsome(SEG, 3, 1, Timeout::Ms(100))),
        Ok(3)
    );
}

#[test]
fn a_write_to_a_listed_slot_ends_the_wait_and_to_another_slot_does_not() {
    let (_world, p) = wake_world();
    // Park under a wake on slot 5 while another thread of the rank writes
    // `slot` once the park is about to begin.
    let park_while_written = |slot, t| {
        let (go, went) = mpsc::channel();
        std::thread::scope(|s| {
            let q = p.clone();
            s.spawn(move || {
                went.recv().unwrap();
                q.notify(0, SEG, slot, 1, Q).unwrap();
                q.wait(Q, Timeout::Ms(5000)).unwrap();
            });
            p.wake_on(SEG, &[(5, 0)], None, || {
                go.send(()).unwrap();
                park(&p, t)
            })
        })
    };
    let (r, took) = park_while_written(5, 5_000);
    assert_eq!(r, Err(GaspiError::Timeout));
    assert!(took < Duration::from_secs(1), "took {took:?}");
    assert_eq!(p.notify_reset(SEG, 5), Ok(1));
    let (r, took) = park_while_written(4, 300);
    assert_eq!(r, Err(GaspiError::Timeout));
    assert!(took >= Duration::from_millis(300), "an unlisted slot woke the wait after {took:?}");
    assert_eq!(p.notify_peek(SEG, 4), Ok(1));
}

#[test]
fn wake_on_binds_only_the_calling_thread() {
    let (_world, p) = wake_world();
    let (entered, has_entered) = mpsc::channel();
    let (leave, may_leave) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let q = p.clone();
        s.spawn(move || {
            q.wake_on(SEG, &[(3, 0)], None, || {
                entered.send(()).unwrap();
                may_leave.recv().unwrap();
            })
        });
        has_entered.recv().unwrap();
        // The other thread's condition has fired; this wait ignores it.
        let (r, took) = park(&p, 100);
        leave.send(()).unwrap();
        assert_eq!(r, Err(GaspiError::Timeout));
        assert!(took >= Duration::from_millis(100), "woken by another thread after {took:?}");
    });
}

#[test]
fn an_unwound_wake_on_leaves_the_next_wait_alone() {
    let (_world, p) = wake_world();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        p.wake_on(SEG, &[(3, 0)], None, || panic!("the call unwinds"))
    }));
    assert!(unwound.is_err());
    let (r, took) = park(&p, 100);
    assert_eq!(r, Err(GaspiError::Timeout));
    assert!(took >= Duration::from_millis(100), "a leaked condition woke the wait after {took:?}");
}

/// A blocked wait has no poll lap: it sleeps until something that can end
/// it happens. Its own rank's death is one: the kill ends a
/// `Timeout::Block` wait at once.
#[test]
fn a_blocked_wait_ends_within_100ms_of_its_ranks_kill() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let p = world.proc_handle(0);
    p.segment_create(SEG, 8).unwrap();
    let h = std::thread::spawn(move || p.notify_waitsome(SEG, 0, 1, Timeout::Block));
    std::thread::sleep(Duration::from_millis(50)); // let it park
    let t0 = Instant::now();
    world.fault().kill_rank(0);
    let ended = h.join();
    let took = t0.elapsed();
    let payload = ended.expect_err("the killed rank's wait must unwind");
    assert!(payload.downcast_ref::<ft_cluster::RankKilled>().is_some());
    assert!(took < Duration::from_millis(100), "the kill ended the wait after {took:?}");
}

/// ... and a notified put landing on the awaited slot is another.
#[test]
fn a_blocked_wait_wakes_within_100ms_of_a_notified_put() {
    let world = GaspiWorld::new(GaspiConfig::deterministic(2));
    let (p0, p1) = (world.proc_handle(0), world.proc_handle(1));
    p0.segment_create(SEG, 8).unwrap();
    let h =
        std::thread::spawn(move || (p0.notify_waitsome(SEG, 0, 1, Timeout::Block), Instant::now()));
    std::thread::sleep(Duration::from_millis(50)); // let it park
    let t0 = Instant::now();
    p1.notify(0, SEG, 0, 1, Q).unwrap();
    let (r, woke) = h.join().unwrap();
    assert_eq!(r, Ok(0));
    let took = woke - t0;
    assert!(took < Duration::from_millis(100), "the put woke the wait after {took:?}");
    p1.wait(Q, Timeout::Ms(5000)).unwrap();
}
