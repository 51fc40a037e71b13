//! Fault-detection mechanics, in isolation.
//!
//! Shows the detector design the paper chose (§IV-A) — a dedicated FD
//! process scanning with one-sided pings, sequentially and threaded — and
//! the false-positive case where a *network* failure makes a healthy
//! process look dead.
//!
//! Run: `cargo run --example fd_demo`

use std::time::Instant;

use gaspi_ft::cluster::Rank;
use gaspi_ft::gaspi::{GaspiConfig, GaspiProc, GaspiWorld, Timeout};

/// The paper's `glo_health_chk` (Listing 1): ping every rank in `targets`
/// and return those whose ping errored, in ascending rank order. With
/// `threads > 1` the targets are partitioned across scoped ping threads —
/// the paper's threaded FD. (The production detector posts the whole scan
/// as one batch instead: `core::detector::glo_health_chk_graced`.)
fn glo_health_chk(
    proc: &GaspiProc,
    targets: &[Rank],
    ping_timeout: Timeout,
    threads: usize,
) -> Vec<Rank> {
    let scan = |p: &GaspiProc, part: &[Rank]| -> Vec<Rank> {
        part.iter().copied().filter(|&r| p.proc_ping(r, ping_timeout).is_err()).collect()
    };
    if threads <= 1 || targets.len() <= 1 {
        return scan(proc, targets);
    }
    let chunk = targets.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .chunks(chunk)
            .map(|part| {
                let p = proc.clone();
                s.spawn(move || scan(&p, part))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("ping thread")).collect()
    })
}

fn main() {
    let n: u32 = 16;
    let world = GaspiWorld::new(GaspiConfig::new(n));
    let fault = world.fault();
    let fd = world.proc_handle(n - 1);
    let targets: Vec<Rank> = (0..n - 1).collect();

    // ---- dedicated FD: one ping scan over healthy ranks --------------
    let t0 = Instant::now();
    let failed = glo_health_chk(&fd, &targets, Timeout::Ms(500), 1);
    println!(
        "scan over {} healthy ranks: {:?} ({:?}; paper: ~1 ms/process on 256 nodes)",
        targets.len(),
        failed,
        t0.elapsed()
    );

    // ---- kill two ranks; sequential vs threaded scan ------------------
    fault.kill_rank(3);
    fault.kill_rank(11);
    let t0 = Instant::now();
    let seq = glo_health_chk(&fd, &targets, Timeout::Ms(500), 1);
    let seq_t = t0.elapsed();
    let t0 = Instant::now();
    let par = glo_health_chk(&fd, &targets, Timeout::Ms(500), 8);
    let par_t = t0.elapsed();
    assert_eq!(seq, par);
    println!("after kill(3), kill(11):");
    println!("  sequential scan: {seq:?} in {seq_t:?}");
    println!("  threaded scan (8 ping threads): {par:?} in {par_t:?}");

    // ---- false positive: break the link, process stays alive ----------
    fault.break_link_directed(n - 1, 5);
    let suspected = glo_health_chk(&fd, &targets, Timeout::Ms(500), 1);
    println!(
        "after breaking FD→5 link only: suspected {suspected:?} (rank 5 is alive! paper §IV-A-a)"
    );
    assert!(suspected.contains(&5));
    // The recovery protocol resolves this with proc_kill. Note *who*
    // kills: the FD's own link to 5 is broken, so per Listing 2 every
    // healthy process in the rebuilt group enforces the kill — any one of
    // them with an intact link suffices.
    let w0 = world.proc_handle(0);
    w0.proc_kill(5, Timeout::Ms(1000)).unwrap();
    assert!(!fault.is_alive(5));
    println!(
        "proc_kill(5) from a worker enforced death — the false positive cannot corrupt the program"
    );
}
