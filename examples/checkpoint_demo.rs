//! The neighbor node-level checkpoint library by itself (paper §IV-C and
//! Fig. 2): local write, asynchronous neighbor copy, node failure, and
//! the three-tier restore resolution (local → neighbor → PFS).
//!
//! Run: `cargo run --example checkpoint_demo`

use std::sync::Arc;
use std::time::Duration;

use gaspi_ft::checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy, Pfs, PfsConfig};
use gaspi_ft::cluster::NodeId;
use gaspi_ft::gaspi::{GaspiConfig, GaspiWorld};

fn main() {
    let world = GaspiWorld::new(GaspiConfig::new(4)); // 4 ranks, 1 per node
    let fault = world.fault();
    let pfs = Pfs::new(PfsConfig::default());

    // Rank 1 checkpoints every "iteration"; every version also goes to the
    // (slow) PFS tier.
    let p1 = world.proc_handle(1);
    let cfg = CheckpointerConfig {
        keep_versions: 4, // keep all four so the async copies can't race pruning
        ..CheckpointerConfig::for_tag(7)
    };
    let ck1 = Checkpointer::new(&p1, cfg, Some(Arc::clone(&pfs)));
    println!("rank 1 writes checkpoints; its neighbor ring partner is {:?}", ck1.neighbor_node());

    for version in 1..=4u64 {
        // 64 KiB of state, sealed and stored whole, then replicated.
        let mut payload = vec![0xABu8; 1 << 16];
        payload[(1 << 16) - 1024..].fill(version as u8);
        let t0 = std::time::Instant::now();
        ck1.commit(version, payload, CopyPolicy::Replicate);
        println!(
            "  v{version}: local commit returned in {:?} (replication continues in background)",
            t0.elapsed()
        );
    }
    assert!(ck1.drain(Duration::from_secs(10)), "replication must settle");
    let st = ck1.stats();
    println!(
        "  background copies done: {} ok, {} failed; PFS holds {} blobs",
        st.neighbor_copies,
        st.copy_failures,
        pfs.blobs()
    );

    // Node 1 dies — its local checkpoints are gone.
    fault.kill_node(NodeId(1));
    println!("\nnode 1 killed: local checkpoints wiped");

    // A rescue on rank 3 adopts rank 1's state.
    let p3 = world.proc_handle(3);
    let ck3 = Checkpointer::new(&p3, CheckpointerConfig::for_tag(7), Some(Arc::clone(&pfs)));
    ck3.refresh_failed(&[1]);
    let r = ck3.restore_latest(1, Duration::from_secs(5)).hit().expect("restore");
    println!(
        "rescue on rank 3 restored v{} ({} bytes) from {:?}",
        r.version,
        r.data.len(),
        r.provenance
    );
    assert_eq!(r.version, 4);

    // Now kill the replica holder too: only the PFS can serve, and it
    // holds every version.
    fault.kill_node(NodeId(2));
    ck3.refresh_failed(&[1, 2]);
    let r = ck3.restore_latest(1, Duration::from_secs(5)).hit().expect("PFS restore");
    println!(
        "after the replica node died as well: restored v{} from {:?} (every version is there)",
        r.version, r.provenance
    );
    assert_eq!(r.version, 4);
    println!("\nthree-tier resolution works: local → neighbor → PFS, exactly as in paper §IV-C");
}
