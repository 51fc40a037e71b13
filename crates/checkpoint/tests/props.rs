//! Property tests: codec roundtrips, neighbor-ring invariants, and the
//! replica service against mangled peer bytes.

use std::sync::Arc;

use proptest::prelude::*;

use ft_checkpoint::service::{enc_copy, handler, Reply, Request, COPY_QUEUE, FETCH_QUEUE};
use ft_checkpoint::{Dec, Enc, Manifest, NeighborMap};
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

/// A well-formed push of `payload` as a full commit `version` of rank 0.
fn push(version: u64, payload: &[u8], chunk: usize) -> Vec<u8> {
    let m = Manifest::describe(version, payload, chunk, true);
    let blobs: Vec<_> = m
        .chunks
        .iter()
        .zip(payload.chunks(chunk))
        .map(|(&h, c)| (h, Arc::new(c.to_vec())))
        .collect();
    enc_copy(0, 7, version, 2, &blobs, &m.encode(), &[])
}

fn newest() -> Vec<u8> {
    Request { rank: 0, tag: 7, version: None, payload: true }.encode()
}

/// Every proper prefix and every single-bit flip of `msg`.
fn mangled(msg: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..msg.len()).map(|n| msg[..n].to_vec());
    let flips = (0..msg.len() * 8).map(|bit| {
        let mut m = msg.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        m
    });
    prefixes.chain(flips)
}

/// Regression (SIGABRT at `12b2707`): a manifest is peer bytes too. One
/// that claims 40 000 chunks of 4 GiB − 1 passes `Manifest::decode`; the
/// fetch that meets it must answer a gap, not reserve the 160 TB it
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
    assert_eq!(h(1, 0, COPY_QUEUE, &enc_copy(0, 7, 1, 2, &[], &m.encode(), &[])), ACCEPTED);
    let r = Reply::decode(&h(1, 0, FETCH_QUEUE, &newest()));
    assert_eq!((r.found, r.gaps), (None, 1));
}

/// Regression (panic at `12b2707`): `version` is a peer's `u64`, so the
/// pruning arithmetic must not overflow; and a push that stops short
/// must not leave orphan chunks no release list will ever name.
#[test]
fn hostile_push_neither_overflows_nor_leaves_orphans() {
    let (storage, h) = holder();
    let blobs = [(9u64, Arc::new(vec![1u8; 8]))];
    let top = enc_copy(0, 7, u64::MAX, 2, &blobs, b"not a manifest", &[]);
    assert_eq!(h(1, 0, COPY_QUEUE, &top), ACCEPTED);
    assert_eq!(storage.blobs_on(HOLDER), 2);

    let (storage, h) = holder();
    let whole = enc_copy(0, 7, 1, 2, &blobs, b"not a manifest", &[]);
    assert_eq!(h(1, 0, COPY_QUEUE, &whole[..whole.len() - 4]), REJECTED);
    assert_eq!(storage.blobs_on(HOLDER), 0, "a rejected push stores nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every prefix and every single-bit flip of a valid copy and fetch
    /// request, and of a valid reply: the handler and the reply decoder
    /// never panic, a rejected request changes no blob, and a decoded
    /// reply never carries more payload than the bytes it came from.
    #[test]
    fn service_survives_mangled_peer_bytes(
        payload in proptest::collection::vec(any::<u8>(), 1..40),
        chunk in 4usize..17,
        version in 1u64..1000,
    ) {
        let (storage, h) = holder();
        let good = push(version, &payload, chunk);
        prop_assert_eq!(h(1, 0, COPY_QUEUE, &good), ACCEPTED);
        let reply = h(1, 0, FETCH_QUEUE, &newest());
        prop_assert_eq!(Reply::decode(&reply).found, Some((version, payload.clone())));

        for (queue, msg) in [(COPY_QUEUE, good), (FETCH_QUEUE, newest())] {
            for bad in mangled(&msg) {
                let before = (storage.blobs_on(HOLDER), storage.bytes_on(HOLDER));
                let out = h(1, 0, queue, &bad);
                if out == REJECTED || queue == FETCH_QUEUE {
                    let after = (storage.blobs_on(HOLDER), storage.bytes_on(HOLDER));
                    prop_assert_eq!(before, after, "{:?} changed the store", bad);
                }
                // Whatever an accepted mangled push stored must stay
                // servable without a panic.
                Reply::decode(&h(1, 0, FETCH_QUEUE, &newest()));
            }
        }
        for bad in mangled(&reply) {
            if let Some((_, data)) = Reply::decode(&bad).found {
                prop_assert!(data.len() <= bad.len());
            }
        }
    }
}

proptest! {
    /// Arbitrary encode sequences decode to the same values in order.
    #[test]
    fn codec_roundtrip(
        us in proptest::collection::vec(any::<u64>(), 0..20),
        fs in proptest::collection::vec(any::<f64>(), 0..20),
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        tail in any::<u32>(),
    ) {
        let mut e = Enc::new();
        e.u64s(&us).f64s(&fs).bytes(&bytes).u32(tail);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        prop_assert_eq!(d.u64s().unwrap(), us);
        let got = d.f64s().unwrap();
        prop_assert_eq!(got.len(), fs.len());
        for (a, b) in got.iter().zip(&fs) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "bit-exact floats");
        }
        prop_assert_eq!(d.bytes().unwrap(), bytes);
        prop_assert_eq!(d.u32().unwrap(), tail);
        d.expect_end().unwrap();
    }

    /// Truncating an encoded buffer anywhere never panics and never
    /// decodes to a full successful read of all fields.
    #[test]
    fn codec_truncation_safe(
        fs in proptest::collection::vec(any::<f64>(), 1..10),
        cut in 0usize..100,
    ) {
        let mut e = Enc::new();
        e.f64s(&fs);
        let buf = e.finish();
        let cut = cut.min(buf.len().saturating_sub(1));
        let mut d = Dec::new(&buf[..cut]);
        // Either errors or reads a shorter prefix — never panics.
        let _ = d.f64s();
    }

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
