//! Property tests: the neighbor ring, and every tier against mangled
//! peer bytes.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use ft_checkpoint::image::{seal, TRAILER_LEN};
use ft_checkpoint::service::{handler, Push, Reply, Request, COPY_QUEUE, FETCH_QUEUE};
use ft_checkpoint::{
    Checkpointer, CheckpointerConfig, NeighborMap, Pfs, PfsConfig, Provenance, RestoreOutcome,
    Restored, Wire,
};
use ft_cluster::codec::mutants;
use ft_cluster::{BlobKey, NodeId, NodeStorage, Topology};
use ft_gaspi::{CkptHandler, GaspiConfig, GaspiWorld};

/// The service's whole reply to a request it rejected.
const REJECTED: [u8; 1] = [0];
const ACCEPTED: [u8; 1] = [1];
/// Rank 1 serves node 1's store; rank 0 is the peer.
const HOLDER: NodeId = NodeId(1);
const TAG: u32 = 7;
const T: Duration = Duration::from_secs(5);

fn holder() -> (Arc<NodeStorage>, CkptHandler) {
    let topo = Topology::one_per_node(2);
    let storage = NodeStorage::new(topo.clone());
    (Arc::clone(&storage), handler(storage, topo))
}

/// A push of `image` as version `version` of rank 0.
fn push(version: u64, image: Vec<u8>) -> Vec<u8> {
    Push { rank: 0, tag: TAG, version, keep: 2, image: Arc::new(image) }.to_bytes()
}

fn newest(h: &CkptHandler) -> Result<Reply, ft_checkpoint::CodecError> {
    let req = Request { rank: 0, tag: TAG, version: None, payload: true };
    Reply::from_bytes(&h(1, 0, FETCH_QUEUE, &req.to_bytes()))
}

fn good(version: u64) -> Vec<u8> {
    seal(version, format!("state of version {version}").into_bytes())
}

/// Three damaged images of `version`: one flipped payload byte, the
/// trailer cut short, and a trailer claiming 2^62 payload bytes.
fn hostile(version: u64) -> [(&'static str, Vec<u8>); 3] {
    let img = good(version);
    let mut flipped = img.clone();
    flipped[3] ^= 0x40;
    let cut = img[..img.len() - 5].to_vec();
    let mut claims = img.clone();
    let len_at = img.len() - TRAILER_LEN + 16;
    claims[len_at..len_at + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
    [("flipped", flipped), ("truncated", cut), ("over-claiming", claims)]
}

/// Each damaged kind of version 2, behind an intact version 1 and alone,
/// on one tier: `restore(images)` puts `(version, image)`s on a fresh
/// store of that tier and asks a checkpointer for the newest, returning
/// the outcome and the checksum failures it counted. The damaged version
/// is rejected — the older one served, or a checksum mismatch when it is
/// alone — and nothing is sized from a claimed length (2^62 bytes would
/// abort).
fn hostile_images_on_one_tier(
    tier: Provenance,
    restore: impl Fn(Vec<(u64, Vec<u8>)>) -> (RestoreOutcome<Restored>, u64),
) {
    for (kind, bad) in hostile(2) {
        let (out, failures) = restore(vec![(1, good(1)), (2, bad.clone())]);
        let r = out.hit().unwrap_or_else(|| panic!("{kind}: version 1 must be served"));
        assert_eq!((r.version, r.provenance, r.data), (1, tier, b"state of version 1".to_vec()));
        assert_eq!(failures, 1, "{kind}: the rejection is counted");
        let (out, _) = restore(vec![(2, bad)]);
        assert_eq!(
            out.map(|r| r.version),
            RestoreOutcome::ChecksumMismatch { version: 2 },
            "{kind}"
        );
    }
}

#[test]
fn hostile_images_are_rejected_on_the_local_tier() {
    hostile_images_on_one_tier(Provenance::Local, |images| {
        let world = GaspiWorld::new(GaspiConfig::deterministic(2));
        for (version, image) in images {
            let key = BlobKey { rank: 0, tag: TAG, version };
            world.storage().put(NodeId(0), key, Arc::new(image));
        }
        let ck = Checkpointer::new(&world.proc_handle(0), CheckpointerConfig::for_tag(TAG), None);
        (ck.restore_latest(0, T), ck.stats().checksum_failures)
    });
}

/// The rescue on rank 2 adopts rank 0 with its node and its replica
/// holder gone, so only the PFS holds anything.
#[test]
fn hostile_images_are_rejected_on_the_pfs_tier() {
    hostile_images_on_one_tier(Provenance::Pfs, |images| {
        let world = GaspiWorld::new(GaspiConfig::deterministic(4));
        let pfs = Pfs::new(PfsConfig::instant());
        for (version, image) in images {
            pfs.write(0, TAG, version, Arc::new(image));
        }
        let cfg = CheckpointerConfig::for_tag(TAG);
        let ck = Checkpointer::new(&world.proc_handle(2), cfg, Some(pfs));
        ck.refresh_failed(&[0, 1]);
        (ck.restore_latest(0, T), ck.stats().checksum_failures)
    });
}

/// The replica tier, through the service handler a requester reaches:
/// the damaged version comes back as a mismatch, never as a payload.
#[test]
fn hostile_images_are_rejected_on_the_replica_tier() {
    for (kind, bad) in hostile(2) {
        let (_, h) = holder();
        assert_eq!(h(1, 0, COPY_QUEUE, &push(1, good(1))), ACCEPTED);
        assert_eq!(h(1, 0, COPY_QUEUE, &push(2, bad.clone())), ACCEPTED);
        let r = newest(&h).unwrap();
        assert_eq!(r.found, Some((1, b"state of version 1".to_vec())), "{kind}");
        assert_eq!(r.mismatch, Some(2), "{kind}");

        let (_, h) = holder();
        assert_eq!(h(1, 0, COPY_QUEUE, &push(2, bad)), ACCEPTED);
        assert_eq!(newest(&h).unwrap(), Reply { found: None, mismatch: Some(2) }, "{kind}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every hostile variant of a valid copy and fetch request
    /// ([`mutants`]): the handler never panics (a push's `version` forged
    /// to `u64::MAX` once overflowed the pruning), a rejected request —
    /// a torn push among them — changes no blob, and whatever an accepted
    /// mangled push stored stays servable.
    #[test]
    fn a_rejected_request_changes_no_blob(
        payload in proptest::collection::vec(any::<u8>(), 1..40),
        version in 1u64..1000,
    ) {
        let (storage, h) = holder();
        let good = push(version, seal(version, payload.clone()));
        prop_assert_eq!(h(1, 0, COPY_QUEUE, &good), ACCEPTED);
        prop_assert_eq!(newest(&h).unwrap().found, Some((version, payload.clone())));

        let fetch = Request { rank: 0, tag: TAG, version: None, payload: true }.to_bytes();
        for (queue, msg) in [(COPY_QUEUE, good), (FETCH_QUEUE, fetch)] {
            for bad in mutants(&msg) {
                let before = (storage.blobs_on(HOLDER), storage.bytes_on(HOLDER));
                let out = h(1, 0, queue, &bad);
                if out == REJECTED || queue == FETCH_QUEUE {
                    let after = (storage.blobs_on(HOLDER), storage.bytes_on(HOLDER));
                    prop_assert_eq!(before, after, "{:?} changed the store", bad);
                }
                let _ = newest(&h);
            }
        }
    }
}

proptest! {
    /// The neighbor ring is a pure function of the failed set: insertion
    /// order never matters, neighbors are never dead, never self.
    #[test]
    fn neighbor_ring_invariants(
        n in 2u32..32,
        mut failed in proptest::collection::vec(0u32..32, 0..16),
    ) {
        failed.retain(|&r| r < n);
        let topo = Topology::one_per_node(n);
        let a = NeighborMap::from_failed(topo.clone(), failed.clone());
        failed.reverse();
        let mut b = NeighborMap::new(topo.clone());
        for &f in &failed {
            b.mark_failed(&[f]);
        }
        for node in topo.nodes() {
            let na = a.neighbor_of(node);
            prop_assert_eq!(na, b.neighbor_of(node), "order independence");
            if let Some(nb) = na {
                prop_assert_ne!(nb, node);
                prop_assert!(!a.node_dead(nb));
            }
        }
    }
}
