//! The checkpoint service protocol: the replica-holder side of neighbor
//! replication and restore, spoken over the transport seam.
//!
//! The GASPI endpoint routes any message on a queue `>=`
//! [`ft_gaspi::CKPT_QUEUE_BASE`] to the world's installed checkpoint
//! handler without decoding it; this module defines that handler and the
//! two requests it services:
//!
//! * **copy** — a committing rank pushes one version's sealed image; the
//!   replica holder stores it in *its* node store and applies the same
//!   pruning, keeping the two stores in lockstep.
//! * **fetch** — one [`Request`]: "the newest version you can serve" or
//!   "exactly version v", with or without the payload. The replica holder
//!   answers one [`Reply`] through `answer`, the read path every tier
//!   shares.
//!
//! Under the in-memory backend the handler runs on the scheduler thread
//! against the shared [`NodeStorage`]; under the process backend it runs
//! inside the replica holder's OS process against storage only that
//! process can see — which is why verification happens here, on the
//! serving side, and the requester gets only bytes. A version that failed
//! verification rides back in the reply so the requester's counters see
//! what the holder saw.
//!
//! Every byte arriving here was written by a peer: a request is decoded
//! completely before it touches the store, and a request that does not
//! decode changes nothing.

use std::sync::Arc;

use ft_cluster::{
    BlobKey, CodecError, Dec, Enc, NodeId, NodeStorage, QueueId, Rank, Topology, Wire,
};
use ft_gaspi::{CkptHandler, GaspiProc};

use crate::image::verify;

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
    /// Exactly this version, or (`None`) the newest that verifies.
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

/// What one store answered (the default is "miss, nothing to count").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reply {
    /// Newest requested version that verified, with its payload (empty
    /// when the request asked for the version only).
    pub found: Option<(u64, Vec<u8>)>,
    /// Newest version whose image failed [`crate::image::verify`], if any.
    pub mismatch: Option<u64>,
}

impl Wire for Reply {
    fn encode(&self, e: &mut Enc) {
        self.found.encode(e);
        self.mismatch.encode(e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Self { found: Wire::decode(d)?, mismatch: Wire::decode(d)? })
    }
}

/// The replication push, the whole copy message: `rank`'s sealed image of
/// `version`. `keep` is the sender's `keep_versions`.
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
    /// The version's image, as the sender stored it.
    pub image: Arc<Vec<u8>>,
}

impl Wire for Push {
    fn encode(&self, e: &mut Enc) {
        e.u8(SVC_COPY).u32(self.rank).u32(self.tag).u64(self.version).u64(self.keep);
        self.image.encode(e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.u8()? {
            SVC_COPY => Ok(Self {
                rank: d.u32()?,
                tag: d.u32()?,
                version: d.u64()?,
                keep: d.u64()?,
                image: Wire::decode(d)?,
            }),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Sized up front: a push carries a whole image.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(64 + self.image.len());
        self.encode(&mut e);
        e.finish()
    }
}

/// Whether the service accepted a push.
pub(crate) fn copy_reply_ok(reply: &[u8]) -> bool {
    bool::from_bytes(reply) == Ok(true)
}

/// Answer `req` from one store — the local node, the replica holder and
/// the PFS all run this. Walks the requested versions (`[v]`, or
/// `versions()`, newest first); the first whose image verifies wins, and
/// one that does not is recorded and skipped (the fall-back-to-older
/// behavior).
pub(crate) fn answer(
    req: &Request,
    versions: impl FnOnce() -> Vec<u64>,
    get: impl Fn(u64) -> Option<Arc<Vec<u8>>>,
) -> Reply {
    let versions = req.version.map_or_else(versions, |v| vec![v]);
    let mut reply = Reply::default();
    for v in versions {
        let Some(image) = get(v) else { continue };
        match verify(&image, v) {
            Some(data) => {
                reply.found = Some((v, if req.payload { data.to_vec() } else { Vec::new() }));
                break;
            }
            None => reply.mismatch = reply.mismatch.or(Some(v)),
        }
    }
    reply
}

/// [`answer`] from `node`'s share of `storage`.
pub(crate) fn answer_node(storage: &NodeStorage, node: NodeId, req: &Request) -> Reply {
    let key = |version| BlobKey { rank: req.rank, tag: req.tag, version };
    answer(req, || storage.versions_of(node, req.rank, req.tag), |v| storage.get(node, key(v)))
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
        return Ok(answer_node(storage, node, &Request::from_bytes(msg)?).to_bytes());
    }
    // Same order as a local commit: the one put, then pruning.
    let Push { rank, tag, version, keep, image } = Push::from_bytes(msg)?;
    storage.put(node, BlobKey { rank, tag, version }, image);
    storage.prune(node, rank, tag, version.saturating_add(1).saturating_sub(keep));
    Ok(true.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::seal;

    fn fetch(h: &CkptHandler, version: Option<u64>, payload: bool) -> Reply {
        let req = Request { rank: 0, tag: 7, version, payload };
        Reply::from_bytes(&h(1, 0, FETCH_QUEUE, &req.to_bytes())).unwrap()
    }

    #[test]
    fn push_then_fetch_roundtrip() {
        let topo = Topology::one_per_node(2);
        let h = handler(NodeStorage::new(topo.clone()), topo);
        let payload = b"replica".to_vec();
        let image = Arc::new(seal(4, payload.clone()));
        let push = Push { rank: 0, tag: 7, version: 4, keep: 2, image };
        assert!(copy_reply_ok(&h(1, 0, COPY_QUEUE, &push.to_bytes())));
        assert_eq!(fetch(&h, None, true).found, Some((4, payload.clone())));
        assert_eq!(fetch(&h, Some(4), true).found, Some((4, payload)));
        assert_eq!(fetch(&h, Some(3), true), Reply::default());
        let named = fetch(&h, None, false);
        assert_eq!(named.found, Some((4, Vec::new())), "version only: no image shipped");
    }
}
