//! The simulator charges a message its modelled latency, not the host's
//! timer granularity: a shard thread sleeping until a delivery's due
//! time must wake within the slack it derives from the latency model
//! (`base / 2`), not the kernel's 50 µs default.
//!
//! A wall-clock bound, so this runs with the advisory workspace tests,
//! not the required suites: a starved shard thread on a loaded host can
//! push the median past it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ft_cluster::fault::FaultPlane;
use ft_cluster::time::LatencyModel;
use ft_cluster::topology::Topology;
use ft_cluster::transport::{stream_jitter_u, Outcome, SimTransport, Transport};

#[test]
fn idle_delivery_is_late_by_less_than_one_base_latency() {
    const SENDS: u64 = 500;
    const SEED: u64 = 11;
    const BYTES: usize = 64;
    let model = LatencyModel::default_sim();
    let fault = FaultPlane::new(Topology::one_per_node(2));
    let owner = SimTransport::start_sharded(model.clone(), fault, SEED, 2);
    let t = owner.handle();
    // One message in flight at a time: each is due exactly its own
    // jittered latency after its send (no FIFO watermark pushes it out).
    // No endpoint is bound, so the completion fires at the due time.
    let mut late: Vec<Duration> = (0..SENDS)
        .map(|n| {
            let (tx, rx) = mpsc::channel();
            let posted = Instant::now();
            t.send(
                0,
                1,
                0,
                BYTES,
                Vec::new(),
                Box::new(move |out, _| {
                    let _ = tx.send((out, Instant::now()));
                }),
            );
            let (out, delivered) = rx.recv_timeout(Duration::from_secs(5)).expect("delivery");
            assert_eq!(out, Outcome::Delivered);
            let modelled = model.latency_jittered(BYTES, stream_jitter_u(SEED, 0, 0, 1, n));
            (delivered - posted).saturating_sub(modelled)
        })
        .collect();
    late.sort();
    let median = late[late.len() / 2];
    assert!(
        median < model.base,
        "median lateness {median:?} is not below the base latency {:?} (p90 {:?})",
        model.base,
        late[late.len() * 9 / 10],
    );
}
