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

use ft_cluster::{BlobKey, CodecError, Dec, Enc, NodeStorage, QueueId, Rank, Topology};
use ft_gaspi::{CkptHandler, GaspiProc};

use crate::chunk::chunk_tag;
use crate::writer::probe_node;

/// Queue for fetch request-reply traffic.
pub const FETCH_QUEUE: QueueId = u16::MAX;
/// Queue for the one-way replication push.
pub const COPY_QUEUE: QueueId = u16::MAX - 1;

const SVC_FETCH: u8 = 1;
const SVC_COPY: u8 = 3;

const OK: u8 = 1;
const FAIL: u8 = 0;

fn put_opt(e: &mut Enc, v: Option<u64>) {
    match v {
        Some(v) => e.u8(OK).u64(v),
        None => e.u8(FAIL),
    };
}

fn get_flag(d: &mut Dec<'_>) -> Result<bool, CodecError> {
    match d.u8()? {
        FAIL => Ok(false),
        OK => Ok(true),
        other => Err(CodecError::BadLength(u64::from(other))),
    }
}

fn get_opt(d: &mut Dec<'_>) -> Result<Option<u64>, CodecError> {
    Ok(if get_flag(d)? { Some(d.u64()?) } else { None })
}

/// The one question asked of a node's replica store.
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

impl Request {
    /// The fetch message for this request.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(24);
        e.u8(SVC_FETCH).u32(self.rank).u32(self.tag);
        put_opt(&mut e, self.version);
        e.u8(u8::from(self.payload));
        e.finish()
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let r = Self { rank: d.u32()?, tag: d.u32()?, version: get_opt(d)?, payload: get_flag(d)? };
        d.expect_end()?;
        Ok(r)
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

impl Reply {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match &self.found {
            Some((v, data)) => e.u8(OK).u64(*v).bytes(data),
            None => e.u8(FAIL),
        };
        put_opt(&mut e, self.mismatch);
        e.u64(self.gaps);
        e.finish()
    }

    /// Decode a fetch reply; anything malformed reads as a plain miss.
    pub fn decode(reply: &[u8]) -> Self {
        fn inner(reply: &[u8]) -> Result<Reply, CodecError> {
            let mut d = Dec::new(reply);
            let found = if get_flag(&mut d)? { Some((d.u64()?, d.bytes()?)) } else { None };
            let r = Reply { found, mismatch: get_opt(&mut d)?, gaps: d.u64()? };
            d.expect_end()?;
            Ok(r)
        }
        inner(reply).unwrap_or_default()
    }
}

/// The replication push: `rank`'s commit `version` as dirty chunks
/// (`(content hash, bytes)`), the encoded manifest, and the chunk hashes
/// the commit released. `keep` is the sender's `keep_versions`.
pub fn enc_copy(
    rank: Rank,
    tag: u32,
    version: u64,
    keep: u64,
    blobs: &[(u64, Arc<Vec<u8>>)],
    manifest: &[u8],
    release: &[u64],
) -> Vec<u8> {
    let total: usize = manifest.len() + blobs.iter().map(|(_, d)| d.len()).sum::<usize>();
    let mut e = Enc::with_capacity(total + 64 + blobs.len() * 16);
    e.u8(SVC_COPY).u32(rank).u32(tag).u64(version).u64(keep);
    e.u64(blobs.len() as u64);
    for (h, d) in blobs {
        e.u64(*h).bytes(d);
    }
    e.bytes(manifest);
    e.u64s(release);
    e.finish()
}

pub(crate) fn copy_reply_ok(reply: &[u8]) -> bool {
    reply.first() == Some(&OK)
}

/// Build the service handler over a node store and placement. `to` is the
/// locally hosted rank the message was addressed to; all storage access
/// resolves through its node.
pub fn handler(storage: Arc<NodeStorage>, topo: Topology) -> CkptHandler {
    Arc::new(move |to: Rank, _from: Rank, _queue: QueueId, msg: &[u8]| {
        serve(&storage, &topo, to, msg).unwrap_or_else(|_| vec![FAIL])
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
    let mut d = Dec::new(msg);
    match d.u8()? {
        SVC_FETCH => Ok(probe_node(storage, node, &Request::decode(&mut d)?).encode()),
        SVC_COPY => {
            let (rank, tag, version, keep) = (d.u32()?, d.u32()?, d.u64()?, d.u64()?);
            // A blob is at least a hash and a length prefix.
            let n = d.len_prefix(16)?;
            let blobs =
                (0..n).map(|_| Ok((d.u64()?, d.bytes()?))).collect::<Result<Vec<_>, _>>()?;
            let manifest = d.bytes()?;
            let release = d.u64s()?;
            d.expect_end()?;
            // Same order as a local commit: chunks, then the manifest that
            // makes them visible, then pruning and chunk GC.
            let ctag = chunk_tag(tag);
            for (h, blob) in blobs {
                storage.put(node, BlobKey { rank, tag: ctag, version: h }, Arc::new(blob));
            }
            storage.put(node, BlobKey { rank, tag, version }, Arc::new(manifest));
            storage.prune(node, rank, tag, version.saturating_add(1).saturating_sub(keep));
            for h in release {
                storage.remove(node, BlobKey { rank, tag: ctag, version: h });
            }
            Ok(vec![OK])
        }
        other => Err(CodecError::BadLength(u64::from(other))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Manifest;

    fn fetch(h: &CkptHandler, version: Option<u64>) -> Reply {
        let req = Request { rank: 0, tag: 7, version, payload: true };
        Reply::decode(&h(1, 0, FETCH_QUEUE, &req.encode()))
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
        assert!(copy_reply_ok(&h(
            1,
            0,
            COPY_QUEUE,
            &enc_copy(0, 7, 4, 2, &blobs, &m.encode(), &[])
        )));
        assert_eq!(fetch(&h, None).found, Some((4, payload.clone())));
        assert_eq!(fetch(&h, Some(4)).found, Some((4, payload)));
        assert_eq!(fetch(&h, Some(3)), Reply::default());
        let req = Request { rank: 0, tag: 7, version: None, payload: false };
        let named = Reply::decode(&h(1, 0, FETCH_QUEUE, &req.encode()));
        assert_eq!(named.found, Some((4, Vec::new())), "version only: no image shipped");
    }

    #[test]
    fn reply_decoder_tolerates_garbage() {
        assert_eq!(Reply::decode(&[0xff, 0x01]), Reply::default());
        assert_eq!(Reply::decode(&[]), Reply::default());
        assert!(!copy_reply_ok(&[]));
        assert!(copy_reply_ok(&[OK]));
    }
}
