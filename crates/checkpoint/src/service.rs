//! The checkpoint service protocol: the replica-holder side of neighbor
//! replication and restore, spoken over the transport seam.
//!
//! The GASPI endpoint routes any message on a queue `>=`
//! [`ft_gaspi::CKPT_QUEUE_BASE`] to the world's installed checkpoint
//! handler without decoding it; this module defines that handler and the
//! two requests it services:
//!
//! * **copy** — a committing rank pushes its dirty chunks + manifest; the
//!   replica holder writes them into *its* node store and applies the
//!   same pruning/GC, keeping the two stores in lockstep.
//! * **fetch** — one [`Request`]: "the newest version you can serve" or
//!   "exactly version v", with or without the payload. The replica holder
//!   reassembles (and so verifies) from its manifest + chunk replica and
//!   answers one [`Reply`].
//!
//! Under the in-memory backend the handler runs on the scheduler thread
//! against the shared [`NodeStorage`]; under the process backend it runs
//! inside the replica holder's OS process against storage only that
//! process can see — which is exactly why the assembly logic lives here,
//! on the serving side, and the requester gets only bytes. Miss details
//! (gap and checksum-mismatch counts) ride back in the reply so the
//! requester's counters see what the holder saw.
//!
//! Every byte arriving here was written by a peer: a request is decoded
//! completely before it touches the store, and a request that does not
//! decode changes nothing.

use std::sync::Arc;

use ft_cluster::{BlobKey, CodecError, Dec, Enc, NodeStorage, QueueId, Rank, Topology, Wire};
use ft_gaspi::{CkptHandler, GaspiProc};

use crate::chunk::chunk_tag;
use crate::writer::probe_node;

/// Queue for fetch request-reply traffic.
pub const FETCH_QUEUE: QueueId = u16::MAX;
/// Queue for the one-way replication push.
pub const COPY_QUEUE: QueueId = u16::MAX - 1;

const SVC_FETCH: u8 = 1;
const SVC_COPY: u8 = 3;

/// The one question asked of a node's replica store; its encoding is the
/// whole fetch message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Whose checkpoint.
    pub rank: Rank,
    /// Which stream.
    pub tag: u32,
    /// Exactly this version, or (`None`) the newest that reassembles.
    pub version: Option<u64>,
    /// Ship the materialized image, or only name the version.
    pub payload: bool,
}

impl Wire for Request {
    fn encode(&self, e: &mut Enc) {
        e.u8(SVC_FETCH).u32(self.rank).u32(self.tag);
        self.version.encode(e);
        self.payload.encode(e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.u8()? {
            SVC_FETCH => Ok(Self {
                rank: d.u32()?,
                tag: d.u32()?,
                version: Wire::decode(d)?,
                payload: d.bool()?,
            }),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// What one node's store answered (the default is "miss, nothing to
/// count").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reply {
    /// Newest requested version that reassembled and verified, with its
    /// image (empty when the request asked for the version only).
    pub found: Option<(u64, Vec<u8>)>,
    /// Newest version rejected by the whole-payload checksum, if any.
    pub mismatch: Option<u64>,
    /// Versions skipped because the manifest was unreadable or a
    /// referenced chunk was missing.
    pub gaps: u64,
}

impl Wire for Reply {
    fn encode(&self, e: &mut Enc) {
        self.found.encode(e);
        self.mismatch.encode(e);
        e.u64(self.gaps);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self { found: Wire::decode(d)?, mismatch: Wire::decode(d)?, gaps: d.u64()? })
    }
}

/// The replication push, the whole copy message: `rank`'s commit
/// `version` as dirty chunks (`(content hash, bytes)`), the encoded
/// manifest, and the chunk hashes the commit released. `keep` is the
/// sender's `keep_versions`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Push {
    /// Whose checkpoint.
    pub rank: Rank,
    /// Which stream.
    pub tag: u32,
    /// The committed version.
    pub version: u64,
    /// The sender's `keep_versions`.
    pub keep: u64,
    /// The commit's dirty chunks, by content hash.
    pub blobs: Vec<(u64, Arc<Vec<u8>>)>,
    /// The encoded manifest of `version`.
    pub manifest: Arc<Vec<u8>>,
    /// Chunk hashes no retained manifest references any more.
    pub release: Vec<u64>,
}

impl Wire for Push {
    fn encode(&self, e: &mut Enc) {
        e.u8(SVC_COPY).u32(self.rank).u32(self.tag).u64(self.version).u64(self.keep);
        self.blobs.encode(e);
        self.manifest.encode(e);
        self.release.encode(e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.u8()? {
            SVC_COPY => Ok(Self {
                rank: d.u32()?,
                tag: d.u32()?,
                version: d.u64()?,
                keep: d.u64()?,
                blobs: Wire::decode(d)?,
                manifest: Wire::decode(d)?,
                release: Wire::decode(d)?,
            }),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Sized up front: a push carries whole chunks.
    fn to_bytes(&self) -> Vec<u8> {
        let chunks: usize = self.blobs.iter().map(|(_, b)| 16 + b.len()).sum();
        let mut e = Enc::with_capacity(64 + chunks + self.manifest.len() + 8 * self.release.len());
        self.encode(&mut e);
        e.finish()
    }
}

/// Whether the service accepted a push.
pub(crate) fn copy_reply_ok(reply: &[u8]) -> bool {
    bool::from_bytes(reply) == Ok(true)
}

/// Build the service handler over a node store and placement. `to` is the
/// locally hosted rank the message was addressed to; all storage access
/// resolves through its node.
pub fn handler(storage: Arc<NodeStorage>, topo: Topology) -> CkptHandler {
    Arc::new(move |to: Rank, _from: Rank, _queue: QueueId, msg: &[u8]| {
        serve(&storage, &topo, to, msg).unwrap_or_else(|_| false.to_bytes())
    })
}

/// Install the service handler for `proc`'s world (first install wins).
/// Called by [`crate::Checkpointer::new`] and by the drivers, so that
/// ranks which never construct a `Checkpointer` (idle spares) still
/// answer fetches against their node's replica store.
pub fn install(proc: &GaspiProc) {
    proc.install_ckpt_handler(handler(proc.cluster_storage(), proc.topology().clone()));
}

fn serve(
    storage: &NodeStorage,
    topo: &Topology,
    to: Rank,
    msg: &[u8],
) -> Result<Vec<u8>, CodecError> {
    let node = topo.node_of(to);
    // Anything but a push is a fetch to `Request`'s decoder, which
    // refuses an unknown tag.
    if msg.first() != Some(&SVC_COPY) {
        return Ok(probe_node(storage, node, &Request::from_bytes(msg)?).to_bytes());
    }
    let Push { rank, tag, version, keep, blobs, manifest, release } = Push::from_bytes(msg)?;
    // Same order as a local commit: chunks, then the manifest that makes
    // them visible, then pruning and chunk GC.
    let ctag = chunk_tag(tag);
    for (h, blob) in blobs {
        storage.put(node, BlobKey { rank, tag: ctag, version: h }, blob);
    }
    storage.put(node, BlobKey { rank, tag, version }, manifest);
    storage.prune(node, rank, tag, version.saturating_add(1).saturating_sub(keep));
    for h in release {
        storage.remove(node, BlobKey { rank, tag: ctag, version: h });
    }
    Ok(true.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Manifest;

    fn fetch(h: &CkptHandler, version: Option<u64>, payload: bool) -> Reply {
        let req = Request { rank: 0, tag: 7, version, payload };
        Reply::from_bytes(&h(1, 0, FETCH_QUEUE, &req.to_bytes())).unwrap()
    }

    #[test]
    fn push_then_fetch_roundtrip() {
        let topo = Topology::one_per_node(2);
        let h = handler(NodeStorage::new(topo.clone()), topo);
        let payload = b"replica".to_vec();
        let m = Manifest::describe(4, &payload, 4, true);
        let blobs: Vec<_> = m
            .chunks
            .iter()
            .zip(payload.chunks(4))
            .map(|(&h, c)| (h, Arc::new(c.to_vec())))
            .collect();
        let push = Push {
            rank: 0,
            tag: 7,
            version: 4,
            keep: 2,
            blobs,
            manifest: Arc::new(m.to_bytes()),
            release: vec![],
        };
        assert!(copy_reply_ok(&h(1, 0, COPY_QUEUE, &push.to_bytes())));
        assert_eq!(fetch(&h, None, true).found, Some((4, payload.clone())));
        assert_eq!(fetch(&h, Some(4), true).found, Some((4, payload)));
        assert_eq!(fetch(&h, Some(3), true), Reply::default());
        let named = fetch(&h, None, false);
        assert_eq!(named.found, Some((4, Vec::new())), "version only: no image shipped");
    }
}
