//! Property test for the sharded transport's ordering contract: messages
//! on the same `(src, queue, dst)` stream are delivered in post order, for
//! every shard count, under genuinely concurrent senders.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

use ft_cluster::fault::FaultPlane;
use ft_cluster::time::LatencyModel;
use ft_cluster::topology::Topology;
use ft_cluster::transport::{Outcome, SimTransport, Transport};
use proptest::prelude::*;

/// One sender thread's plan: its source rank and the (dst, queue, bytes)
/// of each message it posts, in order.
#[derive(Debug, Clone)]
struct SenderPlan {
    src: u32,
    msgs: Vec<(u32, u16, usize)>,
}

/// Byte sizes drawn by index — a zero-cost, a typical, and a large
/// message whose higher latency would reorder streams without the
/// watermark.
const SIZES: [usize; 3] = [0, 64, 100_000];

fn run_case(ranks: u32, shards: usize, plans: &[SenderPlan]) {
    let fault = FaultPlane::new(Topology::one_per_node(ranks));
    let owner = SimTransport::start_sharded(LatencyModel::default_sim(), fault, 11, shards);
    let t = owner.handle();
    let total: usize = plans.iter().map(|p| p.msgs.len()).sum();
    let (tx, rx) = mpsc::channel::<((u32, u16, u32), u32)>();

    // Concurrent senders: each thread owns one src rank and sends its
    // streams interleaved with the other threads'. No endpoint is bound,
    // so each completion fires on its shard thread at the due time.
    std::thread::scope(|s| {
        for plan in plans {
            let t = t.clone();
            let tx = tx.clone();
            s.spawn(move || {
                let mut per_stream: HashMap<(u32, u16, u32), u32> = HashMap::new();
                for &(dst, queue, bytes) in &plan.msgs {
                    let key = (plan.src, queue, dst);
                    let idx = per_stream.entry(key).or_insert(0);
                    let i = *idx;
                    *idx += 1;
                    let tx = tx.clone();
                    t.send(
                        plan.src,
                        dst,
                        queue,
                        bytes,
                        Vec::new(),
                        Box::new(move |out, _| {
                            assert_eq!(out, Outcome::Delivered);
                            let _ = tx.send((key, i));
                        }),
                    );
                }
            });
        }
    });

    // Every stream must arrive 0, 1, 2, … in order.
    let mut next: HashMap<(u32, u16, u32), u32> = HashMap::new();
    for _ in 0..total {
        let (key, i) = rx.recv_timeout(Duration::from_secs(10)).expect("delivery");
        let n = next.entry(key).or_insert(0);
        assert_eq!(*n, i, "stream {key:?} delivered out of order ({shards} shards)");
        *n += 1;
    }
    drop(owner);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn per_stream_fifo_under_concurrent_senders(
        ranks in 4u32..24,
        shards in 1usize..5,
        raw in proptest::collection::vec(
            proptest::collection::vec((0u32..24, 0u16..3, 0usize..3), 1..40),
            1..5,
        ),
    ) {
        // Each drawn inner vec becomes one sender; srcs are distinct by
        // construction (enumeration), dsts are clamped into this case's
        // rank space, and the size index picks from SIZES.
        let plans: Vec<SenderPlan> = raw
            .into_iter()
            .enumerate()
            .map(|(i, msgs)| SenderPlan {
                src: i as u32 % ranks,
                msgs: msgs
                    .into_iter()
                    .map(|(d, q, s)| (d % ranks, q, SIZES[s]))
                    .collect(),
            })
            .collect();
        // Dedup sources (ranks can be < number of senders after clamping).
        let mut seen = std::collections::HashSet::new();
        let plans: Vec<SenderPlan> =
            plans.into_iter().filter(|p| seen.insert(p.src)).collect();
        prop_assume!(!plans.is_empty());
        run_case(ranks, shards, &plans);
    }
}

/// Deterministic smoke of the same contract at a fixed heavier size, so a
/// regression is caught even if the property draw happens to stay small.
#[test]
fn fifo_smoke_many_streams_many_shards() {
    let plans: Vec<SenderPlan> = (0..4)
        .map(|src| SenderPlan {
            src,
            msgs: (0..200)
                .map(|i| (4 + (i % 12), (i % 3) as u16, (i as usize % 7) * 512))
                .collect(),
        })
        .collect();
    run_case(16, 4, &plans);
}

/// Concurrent senders posting to the *same* destination from different
/// threads: per-sender streams stay FIFO even though they merge into one
/// shard and one endpoint rank.
#[test]
fn fifo_converging_on_one_destination() {
    let plans: Vec<SenderPlan> = (0..3)
        .map(|src| SenderPlan { src, msgs: (0..150).map(|i| (7, 0, (i % 2) * 4096)).collect() })
        .collect();
    run_case(8, 4, &plans);
}
