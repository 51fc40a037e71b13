//! Property tests: the neighbor ring, and the replica service against
//! mangled peer bytes.

use std::sync::Arc;

use proptest::prelude::*;

use ft_checkpoint::service::{handler, Push, Reply, Request, COPY_QUEUE, FETCH_QUEUE};
use ft_checkpoint::{Manifest, NeighborMap, Wire};
use ft_cluster::codec::mutants;
use ft_cluster::{NodeId, NodeStorage, Topology};
use ft_gaspi::CkptHandler;

/// The service's whole reply to a request it rejected.
const REJECTED: [u8; 1] = [0];
const ACCEPTED: [u8; 1] = [1];
/// Rank 1 serves node 1's store; rank 0 is the peer.
const HOLDER: NodeId = NodeId(1);

fn holder() -> (Arc<NodeStorage>, CkptHandler) {
    let topo = Topology::one_per_node(2);
    let storage = NodeStorage::new(topo.clone());
    (Arc::clone(&storage), handler(storage, topo))
}

/// A push of `version` of rank 0 with `blobs` and `manifest`.
fn push(version: u64, blobs: Vec<(u64, Arc<Vec<u8>>)>, manifest: &[u8]) -> Vec<u8> {
    let manifest = Arc::new(manifest.to_vec());
    Push { rank: 0, tag: 7, version, keep: 2, blobs, manifest, release: vec![] }.to_bytes()
}

/// A well-formed push of `payload` as a full commit `version` of rank 0.
fn full_commit(version: u64, payload: &[u8], chunk: usize) -> Vec<u8> {
    let m = Manifest::describe(version, payload, chunk, true);
    let blobs = m.chunks.iter().zip(payload.chunks(chunk));
    push(version, blobs.map(|(&h, c)| (h, Arc::new(c.to_vec()))).collect(), &m.to_bytes())
}

fn newest(h: &CkptHandler) -> Result<Reply, ft_checkpoint::CodecError> {
    let req = Request { rank: 0, tag: 7, version: None, payload: true };
    Reply::from_bytes(&h(1, 0, FETCH_QUEUE, &req.to_bytes()))
}

/// Regression (SIGABRT at `12b2707`): a manifest is peer bytes too. One
/// that claims 40 000 chunks of 4 GiB − 1 passes `Manifest::from_bytes`;
/// the fetch that meets it must answer a gap, not reserve the 160 TB it
/// describes.
#[test]
fn oversized_manifest_is_a_gap_not_an_allocation() {
    let (_, h) = holder();
    let chunks = vec![0u64; 40_000];
    let m = Manifest {
        version: 1,
        total_len: chunks.len() as u64 * u64::from(u32::MAX),
        chunk_size: u32::MAX,
        full: true,
        checksum: 0,
        chunks,
    };
    assert_eq!(h(1, 0, COPY_QUEUE, &push(1, vec![], &m.to_bytes())), ACCEPTED);
    let r = newest(&h).unwrap();
    assert_eq!((r.found, r.gaps), (None, 1));
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
        chunk in 4usize..17,
        version in 1u64..1000,
    ) {
        let (storage, h) = holder();
        let good = full_commit(version, &payload, chunk);
        prop_assert_eq!(h(1, 0, COPY_QUEUE, &good), ACCEPTED);
        prop_assert_eq!(newest(&h).unwrap().found, Some((version, payload.clone())));

        let fetch = Request { rank: 0, tag: 7, version: None, payload: true }.to_bytes();
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
