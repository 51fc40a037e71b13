//! The checkpointer: whole-image local commit, asynchronous neighbor
//! copy, verified restore.
//!
//! Mirrors the paper's Fig. 2 interaction: at `init` the library spawns a
//! thread that waits for a signal from the application; at a checkpoint
//! iteration the application commits the checkpoint on its local node and
//! signals the thread, which then replicates it to the neighbor node
//! (and, when it was given one, to the PFS). The application never
//! blocks on the replication — which is why the paper measures ≈0.01 %
//! checkpoint overhead in failure-free runs.
//!
//! A version is one sealed image ([`crate::image`]) written by one put, so
//! a commit killed before that put leaves the version invisible and every
//! tier falls back to the previous one. The replica holder and the PFS
//! store the same image, and a restore verifies it on whichever tier
//! serves it.

use std::fmt;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use ft_cluster::{BlobKey, Monitor, NodeId, NodeStorage, Outcome, Rank, Topology, Transport, Wire};
use ft_gaspi::GaspiProc;

use crate::image::seal;
use crate::neighbor::NeighborMap;
use crate::pfs::Pfs;
use crate::service::{self, answer, answer_node, Reply, Request};
use crate::stats::CkptStats;

/// Where a restored checkpoint came from (the paper's OHF3 has different
/// cost depending on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Found on the caller's own node.
    Local,
    /// Fetched from the neighbor node's replica.
    Neighbor(NodeId),
    /// Read back from the parallel file system.
    Pfs,
}

/// A successfully restored checkpoint.
#[derive(Debug, Clone)]
pub struct Restored {
    /// Checkpoint version (the application's checkpoint counter).
    pub version: u64,
    /// Checkpoint payload (always a fully materialized image).
    pub data: Vec<u8>,
    /// Which tier served it.
    pub provenance: Provenance,
}

/// What happens to a commit after the local write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPolicy {
    /// Signal the library thread: asynchronous neighbor copy plus, on a
    /// stream built with a PFS, the PFS spill — the paper's checkpoint path.
    Replicate,
}

/// Outcome of a restore probe or fetch, distinguishing *why* nothing was
/// returned — the vote path in `ft-core` surfaces the distinction in its
/// recovery events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreOutcome<T> {
    /// Restored successfully.
    Hit(T),
    /// No tier holds anything restorable (a fresh start, or everything
    /// genuinely lost).
    NotFound,
    /// A remote tier did not answer within the timeout; state may still
    /// exist there.
    Timeout,
    /// A stored image failed verification, and no other tier could serve
    /// an intact one.
    ChecksumMismatch {
        /// The newest version that failed verification.
        version: u64,
    },
}

/// The miss variants of [`RestoreOutcome`], without their details.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissReason {
    /// See [`RestoreOutcome::NotFound`].
    NotFound,
    /// See [`RestoreOutcome::Timeout`].
    Timeout,
    /// See [`RestoreOutcome::ChecksumMismatch`].
    ChecksumMismatch,
}

impl<T> RestoreOutcome<T> {
    /// The hit value, discarding miss details.
    pub fn hit(self) -> Option<T> {
        match self {
            RestoreOutcome::Hit(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, RestoreOutcome::Hit(_))
    }

    /// Why this missed, `None` for a hit. Used in recovery events.
    pub fn miss_reason(&self) -> Option<MissReason> {
        match self {
            RestoreOutcome::Hit(_) => None,
            RestoreOutcome::NotFound => Some(MissReason::NotFound),
            RestoreOutcome::Timeout => Some(MissReason::Timeout),
            RestoreOutcome::ChecksumMismatch { .. } => Some(MissReason::ChecksumMismatch),
        }
    }

    /// Map the hit value.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RestoreOutcome<U> {
        match self {
            RestoreOutcome::Hit(v) => RestoreOutcome::Hit(f(v)),
            RestoreOutcome::NotFound => RestoreOutcome::NotFound,
            RestoreOutcome::Timeout => RestoreOutcome::Timeout,
            RestoreOutcome::ChecksumMismatch { version } => {
                RestoreOutcome::ChecksumMismatch { version }
            }
        }
    }
}

/// An invalid [`CheckpointerConfig`], as reported by
/// [`CheckpointerConfig::validate`] (which [`Checkpointer::new`] runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `keep_versions` must be ≥ 1.
    ZeroKeepVersions,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroKeepVersions => write!(f, "keep_versions must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checkpointer configuration. Start from [`CheckpointerConfig::for_tag`]
/// and override fields with struct-update syntax.
#[derive(Debug, Clone)]
pub struct CheckpointerConfig {
    /// Stream tag separating independent checkpoint streams (state vs.
    /// communication plan).
    pub tag: u32,
    /// How many recent versions to keep on each tier (≥1; 2 tolerates a
    /// failure *during* checkpointing).
    pub keep_versions: u64,
}

impl CheckpointerConfig {
    /// Defaults matching the paper's setup: neighbor copies on, keep two
    /// versions.
    pub fn for_tag(tag: u32) -> Self {
        Self { tag, keep_versions: 2 }
    }

    /// Check the invariants the writer relies on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.keep_versions == 0 {
            return Err(ConfigError::ZeroKeepVersions);
        }
        Ok(())
    }
}

/// What the application thread and the library thread both work on.
struct Shared {
    rank: Rank,
    node: NodeId,
    topo: Topology,
    cfg: CheckpointerConfig,
    storage: Arc<NodeStorage>,
    transport: Arc<dyn Transport>,
    pfs: Option<Arc<Pfs>>,
    ring: Mutex<NeighborMap>,
    /// Signaled copies the library thread has not finished yet.
    pending: Monitor<u64>,
    stats: Mutex<CkptStats>,
}

/// Per-rank neighbor-level checkpoint/restart handle.
pub struct Checkpointer {
    shared: Arc<Shared>,
    /// Versions for the library thread to replicate; `None` stops it.
    tx: Sender<Option<u64>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

/// The storage tiers, in the order a restore walks them.
enum Tier {
    Local,
    Replica,
    Pfs,
}

impl Checkpointer {
    /// `init`: bind to a rank and spawn the library thread (paper Fig. 2).
    /// With a `pfs`, every version also goes to it, the same image.
    ///
    /// Panics on an invalid config — call
    /// [`CheckpointerConfig::validate`] to check ahead of time.
    pub fn new(proc: &GaspiProc, cfg: CheckpointerConfig, pfs: Option<Arc<Pfs>>) -> Self {
        cfg.validate().expect("invalid CheckpointerConfig");
        // Make sure this world answers replication pushes and fetches
        // addressed to this rank (idempotent; first install wins).
        service::install(proc);
        let rank = proc.rank();
        let topo = proc.topology().clone();
        let shared = Arc::new(Shared {
            rank,
            node: topo.node_of(rank),
            ring: Mutex::new(NeighborMap::new(topo.clone())),
            topo,
            cfg,
            storage: proc.cluster_storage(),
            transport: proc.cluster_transport(),
            pfs,
            pending: Monitor::new(0),
            stats: Mutex::new(CkptStats::default()),
        });
        let (tx, rx) = mpsc::channel::<Option<u64>>();
        let lib = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(format!("ckpt-lib-{rank}"))
            .spawn(move || {
                while let Ok(Some(version)) = rx.recv() {
                    lib.replicate(version);
                }
            })
            .expect("spawn checkpoint library thread");
        Self { shared, tx, worker: Some(worker) }
    }

    /// Point-in-time readout of every counter (see [`CkptStats`]).
    /// Neighbor-copy and PFS-spill counts are updated by the library
    /// thread, so call [`Checkpointer::drain`] first for an exact view
    /// after the last checkpoint.
    pub fn stats(&self) -> CkptStats {
        *self.shared.stats.lock()
    }

    /// Commit checkpoint `version` on the local node and signal the
    /// library thread to replicate it. Returns immediately after the
    /// (in-memory) local write — the fast path the paper relies on.
    ///
    /// The payload is sealed into one image and stored by one put, the
    /// commit point: a kill before it leaves this version invisible and
    /// restore falls back to the previous one.
    ///
    /// `version` must increase by 1 per commit (use the *checkpoint
    /// counter*, not the iteration number): `keep_versions` pruning
    /// assumes consecutive versions.
    pub fn commit(&self, version: u64, payload: Vec<u8>, policy: CopyPolicy) {
        let CopyPolicy::Replicate = policy;
        let s = &*self.shared;
        let fault = s.transport.fault();
        fault.site(s.rank, "ckpt.local.write");
        let bytes = payload.len() as u64;
        // The two site names below are older than the one-image layout;
        // they stay so kill-point sweeps keep enumerating the same triples.
        fault.site(s.rank, "ckpt.chunk.write");
        let image = seal(version, payload);
        fault.site(s.rank, "ckpt.manifest.write");
        s.storage.put(s.node, BlobKey { rank: s.rank, tag: s.cfg.tag, version }, Arc::new(image));
        let keep_from = (version + 1).saturating_sub(s.cfg.keep_versions);
        s.storage.prune(s.node, s.rank, s.cfg.tag, keep_from);
        {
            let mut st = s.stats.lock();
            st.local_writes += 1;
            st.bytes_local += bytes;
        }

        *s.pending.lock() += 1;
        if self.tx.send(Some(version)).is_err() {
            *s.pending.lock() -= 1;
        }
    }

    /// Block until all signaled copies have been replicated (or failed).
    /// `ft-core`'s checkpoint/restart calls it one step before each commit,
    /// so only at interval 1 is the replica round trip on the critical
    /// path.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.shared.pending.wait_for(|&c| c == 0, Some(Instant::now() + timeout))
    }

    /// Fault-aware refresh: fold the cumulative failed list into the
    /// neighbor ring (paper §IV-C). Call after every recovery.
    pub fn refresh_failed(&self, failed: &[Rank]) {
        self.shared.ring.lock().mark_failed(failed);
    }

    /// Current neighbor node for this rank's checkpoints.
    pub fn neighbor_node(&self) -> Option<NodeId> {
        self.shared.ring.lock().neighbor_of(self.shared.node)
    }

    /// The newest version of `for_rank` (the caller's own rank, or the
    /// failed rank a rescue process adopted) that *any* tier can serve,
    /// without transferring a payload: each tier verifies the image before
    /// answering. Feed the group minimum of this into
    /// [`Checkpointer::pull`].
    pub fn probe(&self, for_rank: Rank, timeout: Duration) -> RestoreOutcome<u64> {
        self.walk(for_rank, None, false, timeout).map(|r| r.version)
    }

    /// Restore exactly `version` (the one the group agreed on) from the
    /// nearest tier that holds it intact.
    pub fn pull(
        &self,
        for_rank: Rank,
        version: u64,
        timeout: Duration,
    ) -> RestoreOutcome<Restored> {
        self.walk(for_rank, Some(version), true, timeout)
    }

    /// Restore what the *nearest* tier holding anything of `for_rank`
    /// serves — that tier's newest version that verifies (a damaged image
    /// falls back to the next older one) — in one request. Resolution order: local node → neighbor
    /// replica → PFS. A farther tier may hold a newer version (the
    /// library thread spills to the PFS before the neighbor send); a
    /// caller that needs the newest anywhere asks [`Checkpointer::probe`]
    /// and then [`Checkpointer::pull`].
    pub fn restore_latest(&self, for_rank: Rank, timeout: Duration) -> RestoreOutcome<Restored> {
        self.walk(for_rank, None, true, timeout)
    }

    /// The one tier walk: local node → replica holder → PFS, asking each
    /// the same [`Request`]. With the payload the first tier that answers
    /// wins; a version-only walk costs no transfer, so it asks every tier
    /// and reports the newest (`version = Some(_)` is only ever asked
    /// with the payload). Misses fold into one [`RestoreOutcome`].
    fn walk(
        &self,
        for_rank: Rank,
        version: Option<u64>,
        payload: bool,
        timeout: Duration,
    ) -> RestoreOutcome<Restored> {
        let s = &*self.shared;
        if payload {
            s.transport.fault().site(s.rank, "ckpt.restore");
        }
        let req = Request { rank: for_rank, tag: s.cfg.tag, version, payload };
        let mut misses = Misses::default();
        let mut best: Option<Restored> = None;
        for tier in [Tier::Local, Tier::Replica, Tier::Pfs] {
            let Some(hit) = self.ask_tier(tier, &req, timeout, &mut misses) else {
                continue;
            };
            if payload {
                let mut st = s.stats.lock();
                match hit.provenance {
                    Provenance::Local => st.restores_local += 1,
                    Provenance::Neighbor(_) => st.restores_neighbor += 1,
                    Provenance::Pfs => st.restores_pfs += 1,
                }
                st.restore_bytes += hit.data.len() as u64;
                return RestoreOutcome::Hit(hit);
            }
            if best.as_ref().is_none_or(|b| b.version < hit.version) {
                best = Some(hit);
            }
        }
        best.map_or_else(|| misses.outcome(), RestoreOutcome::Hit)
    }

    /// One tier's answer to `req`; what it skipped on the way lands in
    /// the counters and in `misses`.
    fn ask_tier(
        &self,
        tier: Tier,
        req: &Request,
        timeout: Duration,
        misses: &mut Misses,
    ) -> Option<Restored> {
        let s = &*self.shared;
        let home = s.topo.node_of(req.rank);
        let (reply, provenance) = match tier {
            Tier::Local if home == s.node => {
                (answer_node(&s.storage, s.node, req), Provenance::Local)
            }
            Tier::Local => return None,
            Tier::Replica => {
                let holder = s.ring.lock().neighbor_of(home)?;
                let reply = if holder == s.node {
                    // This rank happens to *be* the replica holder.
                    answer_node(&s.storage, holder, req)
                } else {
                    let dst = s.ring.lock().endpoint_on(holder)?;
                    let Some(reply) = self.ask_replica(dst, req, timeout) else {
                        misses.timeout = true;
                        return None;
                    };
                    reply
                };
                (reply, Provenance::Neighbor(holder))
            }
            Tier::Pfs => {
                // The same images, each read costed.
                let pfs = s.pfs.as_ref()?;
                let reply = answer(
                    req,
                    || pfs.versions_of(req.rank, req.tag),
                    |v| pfs.read(req.rank, req.tag, v),
                );
                (reply, Provenance::Pfs)
            }
        };
        if let Some(v) = reply.mismatch {
            s.stats.lock().checksum_failures += 1;
            misses.mismatch = misses.mismatch.max(Some(v));
        }
        reply.found.map(|(version, data)| Restored { version, data, provenance })
    }

    /// The one request/reply with a remote replica holder: its service
    /// handler probes *its* node storage and the reply carries the image
    /// (or just the version) plus the mismatch it met. `None` means no
    /// answer within `timeout`; a broken link reads as a miss.
    fn ask_replica(&self, dst: Rank, req: &Request, timeout: Duration) -> Option<Reply> {
        let s = &*self.shared;
        let (tx, rx) = mpsc::channel();
        let msg = req.to_bytes();
        s.transport.call(
            s.rank,
            dst,
            service::FETCH_QUEUE,
            msg.len(),
            msg,
            Box::new(move |out, bytes| {
                let reply = match out {
                    // A reply that does not decode is a miss, like a broken link.
                    Outcome::Delivered => Reply::from_bytes(&bytes).unwrap_or_default(),
                    _ => Reply::default(),
                };
                // The asker may have timed out and gone.
                let _ = tx.send(reply);
            }),
        );
        rx.recv_timeout(timeout).ok()
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        let _ = self.tx.send(None);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

/// Running miss state across tiers, resolved into a [`RestoreOutcome`]
/// when no tier hit. Timeout outranks mismatch (it is transient — the
/// data may still exist), mismatch (the newest rejected version)
/// outranks plain not-found.
#[derive(Default)]
struct Misses {
    timeout: bool,
    mismatch: Option<u64>,
}

impl Misses {
    fn outcome<T>(&self) -> RestoreOutcome<T> {
        if self.timeout {
            RestoreOutcome::Timeout
        } else if let Some(version) = self.mismatch {
            RestoreOutcome::ChecksumMismatch { version }
        } else {
            RestoreOutcome::NotFound
        }
    }
}

impl Shared {
    /// One neighbor (and possibly PFS) replication, on the library thread.
    /// Every way it can end — staged and acknowledged, staged and lost,
    /// never staged — goes through [`Shared::copy_finished`].
    fn replicate(self: &Arc<Self>, version: u64) {
        let Some((dst, bytes, msg)) = self.stage_copy(version) else {
            return self.copy_finished(None);
        };
        let me = Arc::clone(self);
        self.transport.send(
            self.rank,
            dst,
            service::COPY_QUEUE,
            bytes,
            msg,
            Box::new(move |out, reply| {
                let landed = out == Outcome::Delivered && service::copy_reply_ok(&reply);
                me.copy_finished(landed.then_some(bytes));
            }),
        );
    }

    /// Spill to the PFS, if any, and build the push for the replica
    /// holder: the stored image, and the same pruning, so the two stores
    /// stay in lockstep. Returns `(endpoint, bytes charged, message)`;
    /// `None` when there is nothing to send or nobody to send it to.
    fn stage_copy(&self, version: u64) -> Option<(Rank, usize, Vec<u8>)> {
        let fault = self.transport.fault();
        // Gone when the node died (or the version was pruned) between
        // signal and copy.
        let image =
            self.storage.get(self.node, BlobKey { rank: self.rank, tag: self.cfg.tag, version })?;
        // Passive site: this is the library thread, not the rank's own, so a
        // matching kill only poisons liveness — re-check and bail like the
        // storage probe above, modeling a rank dying mid-replication.
        fault.site_passive(self.rank, "ckpt.neighbor.copy");
        if !fault.is_alive(self.rank) {
            return None;
        }
        // PFS tier first (blocking, costed — deliberately on this thread, not
        // the application's): the same image.
        if let Some(p) = self.pfs.as_deref() {
            fault.site_passive(self.rank, "ckpt.pfs.write");
            p.write(self.rank, self.cfg.tag, version, Arc::clone(&image));
            self.stats.lock().pfs_spills += 1;
        }
        // The replica holder resolves its own node from the addressed rank,
        // so only the representative rank matters here.
        let dst = {
            let ring = self.ring.lock();
            ring.endpoint_on(ring.neighbor_of(self.node)?)?
        };
        // The image is the latency cost; the envelope framing is not
        // charged.
        let bytes = image.len();
        let msg = service::Push {
            rank: self.rank,
            tag: self.cfg.tag,
            version,
            keep: self.cfg.keep_versions,
            image,
        }
        .to_bytes();
        Some((dst, bytes, msg))
    }

    /// Count one signaled copy as done — `shipped` bytes acknowledged by
    /// the replica holder, or `None` for a failure — and wake `drain`.
    fn copy_finished(&self, shipped: Option<usize>) {
        {
            let mut st = self.stats.lock();
            match shipped {
                Some(bytes) => {
                    st.neighbor_copies += 1;
                    st.copy_bytes += bytes as u64;
                }
                None => st.copy_failures += 1,
            }
        }
        self.pending.update(|c| *c -= 1);
    }
}
