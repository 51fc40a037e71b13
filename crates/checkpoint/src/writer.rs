//! The checkpointer: incremental local commit, asynchronous neighbor
//! copy, reassembling restore.
//!
//! Mirrors the paper's Fig. 2 interaction: at `init` the library spawns a
//! thread that waits for a signal from the application; at a checkpoint
//! iteration the application commits the checkpoint on its local node and
//! signals the thread, which then replicates it to the neighbor node
//! (and, optionally, every k-th version to the PFS). The application never
//! blocks on the replication — which is why the paper measures ≈0.01 %
//! checkpoint overhead in failure-free runs.
//!
//! On top of the paper's design, commits are **incremental and
//! chunk-deduplicated** (see [`crate::chunk`]): the payload is split into
//! fixed-size content-hashed chunks, only chunks whose hash changed since
//! the previous commit are written (and replicated), and a compact
//! manifest per version ties them together. Chunks are written *before*
//! the manifest, so the manifest put is the atomic commit point: a torn
//! commit (killed mid-chunk or mid-manifest) leaves the new version
//! invisible and every tier falls back to the previous consistent one.
//! Periodic full commits (`full_every`), plus forced fulls after a
//! neighbor-ring change or a non-consecutive version, bound the delta
//! chain; a rescue process adopting a failed identity always restores (and
//! re-homes) a fully materialized image.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};

use ft_cluster::codec::content_hash64;
use ft_cluster::{BlobKey, NodeId, NodeStorage, Outcome, Rank, Topology, Transport, Wire};
use ft_gaspi::GaspiProc;

use crate::chunk::{chunk_hashes, chunk_range, chunk_tag, Manifest, DEFAULT_CHUNK_SIZE};
use crate::neighbor::NeighborMap;
use crate::pfs::Pfs;
use crate::service::{self, Reply, Request};
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
    /// Signal the library thread: asynchronous neighbor copy plus the
    /// every-k-th PFS spill — the paper's checkpoint path.
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
    /// A payload was reassembled but rejected by the whole-payload
    /// checksum, and no other tier could serve a valid image.
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
    /// The tag has the reserved chunk-store bit set.
    ReservedTag(u32),
    /// `keep_versions` must be ≥ 1.
    ZeroKeepVersions,
    /// `chunk_size` must be ≥ 1 and fit the manifest's `u32` field.
    BadChunkSize(usize),
    /// `full_every` must be ≥ 1.
    ZeroFullEvery,
    /// `pfs_every = Some(0)` is meaningless — use `None` to disable.
    ZeroPfsEvery,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ReservedTag(t) => {
                write!(f, "tag {t:#x} uses the reserved chunk-store bit")
            }
            ConfigError::ZeroKeepVersions => write!(f, "keep_versions must be >= 1"),
            ConfigError::BadChunkSize(n) => write!(f, "invalid chunk_size {n}"),
            ConfigError::ZeroFullEvery => write!(f, "full_every must be >= 1"),
            ConfigError::ZeroPfsEvery => write!(f, "pfs_every must be None or >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checkpointer configuration. Start from [`CheckpointerConfig::for_tag`]
/// and override fields with struct-update syntax.
#[derive(Debug, Clone)]
pub struct CheckpointerConfig {
    /// Stream tag separating independent checkpoint streams (state vs.
    /// communication plan). The high bit is reserved for the chunk store.
    pub tag: u32,
    /// How many recent versions to keep on each tier (≥1; 2 tolerates a
    /// failure *during* checkpointing).
    pub keep_versions: u64,
    /// Also spill every k-th version to the PFS as a reconstituted full
    /// image (None = never).
    pub pfs_every: Option<u64>,
    /// Chunk size of the incremental pipeline (bytes).
    pub chunk_size: usize,
    /// Write a full (non-incremental) checkpoint whenever
    /// `version % full_every == 0` — bounds the delta-chain length.
    pub full_every: u64,
}

impl CheckpointerConfig {
    /// Defaults matching the paper's setup: neighbor copies on, keep two
    /// versions, no PFS; incremental commits with a full anchor every 8
    /// versions.
    pub fn for_tag(tag: u32) -> Self {
        Self {
            tag,
            keep_versions: 2,
            pfs_every: None,
            chunk_size: DEFAULT_CHUNK_SIZE,
            full_every: 8,
        }
    }

    /// Check the invariants the writer relies on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tag & crate::chunk::CHUNK_TAG_BIT != 0 {
            return Err(ConfigError::ReservedTag(self.tag));
        }
        if self.keep_versions == 0 {
            return Err(ConfigError::ZeroKeepVersions);
        }
        if self.chunk_size == 0 || self.chunk_size > u32::MAX as usize {
            return Err(ConfigError::BadChunkSize(self.chunk_size));
        }
        if self.full_every == 0 {
            return Err(ConfigError::ZeroFullEvery);
        }
        if self.pfs_every == Some(0) {
            return Err(ConfigError::ZeroPfsEvery);
        }
        Ok(())
    }
}

enum Job {
    Copy { version: u64, dirty: Vec<u64>, release: Vec<u64> },
    Stop,
}

/// The per-tag chunk-hash table: what the last commit looked like, which
/// manifests are retained (for chunk GC), and whether the next commit
/// must be full.
#[derive(Default)]
struct ChunkTable {
    /// Chunk hashes of the last committed version, by chunk index.
    last: Vec<u64>,
    /// Version of the last commit (None before the first).
    last_version: Option<u64>,
    /// `(version, chunk hashes)` of the retained manifests, oldest first.
    history: VecDeque<(u64, Vec<u64>)>,
    /// Next commit must be a full checkpoint (fresh table, ring change).
    force_full: bool,
    /// Neighbor-ring generation observed at the last commit.
    ring_gen: u64,
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
    pending: Mutex<u64>,
    drained: Condvar,
    stats: Mutex<CkptStats>,
}

/// Per-rank neighbor-level checkpoint/restart handle.
pub struct Checkpointer {
    shared: Arc<Shared>,
    table: Mutex<ChunkTable>,
    tx: Sender<Job>,
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
            pending: Mutex::new(0),
            drained: Condvar::new(),
            stats: Mutex::new(CkptStats::default()),
        });
        let (tx, rx) = unbounded::<Job>();
        let lib = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(format!("ckpt-lib-{rank}"))
            .spawn(move || {
                while let Ok(Job::Copy { version, dirty, release }) = rx.recv() {
                    lib.replicate(version, &dirty, &release);
                }
            })
            .expect("spawn checkpoint library thread");
        Self { shared, table: Mutex::new(ChunkTable::default()), tx, worker: Some(worker) }
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
    /// The write is incremental: only chunks whose content hash changed
    /// since the previous commit are stored, plus a manifest. Chunks go
    /// first, the manifest last — a kill anywhere in between leaves this
    /// version invisible and restore falls back to the previous one.
    ///
    /// `version` must increase by 1 per commit (use the *checkpoint
    /// counter*, not the iteration number): `keep_versions` pruning
    /// assumes consecutive versions. A non-consecutive version is
    /// tolerated (it forces a full commit) but loses dedup.
    pub fn commit(&self, version: u64, payload: Vec<u8>, policy: CopyPolicy) {
        let CopyPolicy::Replicate = policy;
        let s = &*self.shared;
        let fault = s.transport.fault();
        fault.site(s.rank, "ckpt.local.write");

        let mut t = self.table.lock();
        let ring_gen = s.ring.lock().generation();
        let seq_ok = match t.last_version {
            None => true,
            Some(lv) => version == lv + 1,
        };
        let full = t.force_full
            || !seq_ok
            || t.last_version.is_none()
            || ring_gen != t.ring_gen
            || version.is_multiple_of(s.cfg.full_every);
        if !seq_ok {
            // Superseded chain (restart-from-scratch redo): forget the old
            // history rather than GC against it. The redo rewrites
            // bit-identical content, so the content-addressed chunks are
            // reused, not leaked.
            t.history.clear();
        }

        let hashes = chunk_hashes(&payload, s.cfg.chunk_size);
        let ctag = chunk_tag(s.cfg.tag);
        let mut written = HashSet::new();
        let mut dirty = Vec::new();
        let mut dirty_bytes = 0u64;
        for (i, &h) in hashes.iter().enumerate() {
            let clean = !full && t.last.get(i) == Some(&h);
            if clean || !written.insert(h) {
                continue;
            }
            fault.site(s.rank, "ckpt.chunk.write");
            let blob = payload[chunk_range(i, s.cfg.chunk_size, payload.len())].to_vec();
            dirty_bytes += blob.len() as u64;
            s.storage.put(s.node, BlobKey { rank: s.rank, tag: ctag, version: h }, Arc::new(blob));
            dirty.push(h);
        }

        let manifest = Manifest {
            version,
            total_len: payload.len() as u64,
            chunk_size: s.cfg.chunk_size as u32,
            full,
            checksum: content_hash64(&payload),
            chunks: hashes.clone(),
        };
        fault.site(s.rank, "ckpt.manifest.write");
        let mbytes = manifest.to_bytes();
        let mlen = mbytes.len() as u64;
        s.storage.put(s.node, BlobKey { rank: s.rank, tag: s.cfg.tag, version }, Arc::new(mbytes));

        // The version is now durable locally: prune old manifests, GC the
        // chunks only they referenced, update the table and counters.
        let keep_from = (version + 1).saturating_sub(s.cfg.keep_versions);
        s.storage.prune(s.node, s.rank, s.cfg.tag, keep_from);
        t.history.push_back((version, hashes.clone()));
        let mut dropped: Vec<u64> = Vec::new();
        while t.history.front().is_some_and(|(v, _)| *v < keep_from) {
            let (_, old) = t.history.pop_front().expect("front checked");
            dropped.extend(old);
        }
        let release: Vec<u64> = if dropped.is_empty() {
            Vec::new()
        } else {
            let retained: HashSet<u64> =
                t.history.iter().flat_map(|(_, hs)| hs.iter().copied()).collect();
            let release: Vec<u64> = dropped
                .into_iter()
                .collect::<HashSet<u64>>()
                .into_iter()
                .filter(|h| !retained.contains(h))
                .collect();
            for &h in &release {
                s.storage.remove(s.node, BlobKey { rank: s.rank, tag: ctag, version: h });
            }
            release
        };
        t.last = hashes;
        t.last_version = Some(version);
        t.force_full = false;
        t.ring_gen = ring_gen;
        drop(t);

        {
            let mut st = s.stats.lock();
            st.local_writes += 1;
            st.bytes_local += payload.len() as u64;
            if full {
                st.full_commits += 1;
            } else {
                st.incremental_commits += 1;
            }
            st.chunks_written += dirty.len() as u64;
            st.chunk_bytes += dirty_bytes;
            st.dedup_bytes += payload.len() as u64 - dirty_bytes;
            st.manifest_bytes += mlen;
        }

        *s.pending.lock() += 1;
        if self.tx.send(Job::Copy { version, dirty, release }).is_err() {
            *s.pending.lock() -= 1;
        }
    }

    /// Block until all signaled copies have been replicated (or failed).
    /// Checkpoint/restart calls this only at finalize, never on the fast
    /// path; `ft-core`'s `Replicated` strategy calls it after every
    /// per-iteration commit (a synchronous push), so there the replica
    /// round trip is on the critical path.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut c = self.shared.pending.lock();
        while *c != 0 {
            if self.shared.drained.wait_until(&mut c, deadline).timed_out() {
                return *c == 0;
            }
        }
        true
    }

    /// Fault-aware refresh: fold the cumulative failed list into the
    /// neighbor ring (paper §IV-C). Call after every recovery. The next
    /// commit is forced full so a (possibly new) replica holder receives
    /// a self-contained base image.
    pub fn refresh_failed(&self, failed: &[Rank]) {
        self.shared.ring.lock().mark_failed(failed);
        self.table.lock().force_full = true;
    }

    /// Current neighbor node for this rank's checkpoints.
    pub fn neighbor_node(&self) -> Option<NodeId> {
        self.shared.ring.lock().neighbor_of(self.shared.node)
    }

    /// The newest version of `for_rank` (the caller's own rank, or the
    /// failed rank a rescue process adopted) that *any* tier can serve,
    /// without transferring a payload: each node tier verifies
    /// reassembly before answering. Feed the group minimum of this into
    /// [`Checkpointer::pull`].
    pub fn probe(&self, for_rank: Rank, timeout: Duration) -> RestoreOutcome<u64> {
        self.walk(for_rank, None, false, timeout).map(|r| r.version)
    }

    /// Restore exactly `version` (the one the group agreed on) from the
    /// nearest tier that holds it, reassembled from manifest + chunks and
    /// checksum-verified.
    pub fn pull(
        &self,
        for_rank: Rank,
        version: u64,
        timeout: Duration,
    ) -> RestoreOutcome<Restored> {
        self.walk(for_rank, Some(version), true, timeout)
    }

    /// Restore what the *nearest* tier holding anything of `for_rank`
    /// serves — that tier's newest version that reassembles (a version
    /// with missing chunks or a bad checksum falls back to the next older
    /// one) — in one request. Resolution order: local node → neighbor
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
                (probe_node(&s.storage, s.node, req), Provenance::Local)
            }
            Tier::Local => return None,
            Tier::Replica => {
                let holder = s.ring.lock().neighbor_of(home)?;
                let reply = if holder == s.node {
                    // This rank happens to *be* the replica holder.
                    probe_node(&s.storage, holder, req)
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
                // The PFS stores reconstituted full images; naming its
                // newest version is free, reading one is costed.
                let pfs = s.pfs.as_ref()?;
                let version = req.version.or_else(|| pfs.latest_version(req.rank, req.tag))?;
                let data = if req.payload {
                    pfs.read(req.rank, req.tag, version)?.as_ref().clone()
                } else {
                    Vec::new()
                };
                (Reply { found: Some((version, data)), ..Reply::default() }, Provenance::Pfs)
            }
        };
        let mut st = s.stats.lock();
        st.restore_gaps += reply.gaps;
        if let Some(v) = reply.mismatch {
            st.checksum_failures += 1;
            misses.mismatch = misses.mismatch.max(Some(v));
        }
        reply.found.map(|(version, data)| Restored { version, data, provenance })
    }

    /// The one request/reply with a remote replica holder: its service
    /// handler probes *its* node storage and the reply carries the image
    /// (or just the version) plus the gaps and mismatch it met. `None`
    /// means no answer within `timeout`; a broken link reads as a miss.
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
        let _ = self.tx.send(Job::Stop);
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

/// How one manifest version reassembled on one node.
enum Assembled {
    Ok(Vec<u8>),
    NoManifest,
    Gap,
    Mismatch,
}

/// Reassemble `(rank, tag, version)` from `node`'s manifest + chunk
/// store: fetch every referenced chunk by content hash, concatenate,
/// verify the whole-payload checksum. The manifest may be a peer's
/// bytes, so nothing is sized from what it *claims*: the image buffer is
/// reserved only once every chunk it names is in hand at its exact
/// length.
fn assemble(storage: &NodeStorage, node: NodeId, rank: Rank, tag: u32, version: u64) -> Assembled {
    let Some(mbytes) = storage.get(node, BlobKey { rank, tag, version }) else {
        return Assembled::NoManifest;
    };
    let Ok(m) = Manifest::from_bytes(&mbytes) else {
        // A corrupt (torn) manifest is as unusable as a missing one.
        return Assembled::Gap;
    };
    let ctag = chunk_tag(tag);
    let mut parts = Vec::with_capacity(m.chunks.len());
    let mut len = 0u64;
    for (i, &h) in m.chunks.iter().enumerate() {
        match storage.get(node, BlobKey { rank, tag: ctag, version: h }) {
            Some(c) if c.len() == m.chunk_range(i).len() => {
                len += c.len() as u64;
                parts.push(c);
            }
            _ => return Assembled::Gap,
        }
    }
    if len != m.total_len {
        return Assembled::Gap;
    }
    let mut out = Vec::with_capacity(len as usize);
    for c in &parts {
        out.extend_from_slice(c);
    }
    if content_hash64(&out) != m.checksum {
        return Assembled::Mismatch;
    }
    Assembled::Ok(out)
}

/// Answer `req` from one node's store — the local tier and the service
/// handler run the same probe. Walks the requested versions (`[v]`, or
/// every manifest newest → oldest); the first that reassembles and
/// verifies wins, anything broken is recorded and skipped (the
/// fall-back-on-gap behavior).
pub(crate) fn probe_node(storage: &NodeStorage, node: NodeId, req: &Request) -> Reply {
    let versions = match req.version {
        Some(v) => vec![v],
        None => storage.versions_of(node, req.rank, req.tag),
    };
    let mut reply = Reply::default();
    for v in versions {
        match assemble(storage, node, req.rank, req.tag, v) {
            Assembled::Ok(data) => {
                reply.found = Some((v, if req.payload { data } else { Vec::new() }));
                break;
            }
            Assembled::Mismatch => reply.mismatch = reply.mismatch.or(Some(v)),
            Assembled::Gap => reply.gaps += 1,
            Assembled::NoManifest => {}
        }
    }
    reply
}

impl Shared {
    /// One neighbor (and possibly PFS) replication, on the library thread.
    /// Every way it can end — staged and acknowledged, staged and lost,
    /// never staged — goes through [`Shared::copy_finished`].
    fn replicate(self: &Arc<Self>, version: u64, dirty: &[u64], release: &[u64]) {
        let Some((dst, bytes, msg)) = self.stage_copy(version, dirty, release) else {
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

    /// Spill to the PFS when due and build the push for the replica
    /// holder: only the commit's dirty chunks plus the manifest, and the
    /// same manifest pruning and chunk releases, so the two stores stay
    /// in lockstep. Returns `(endpoint, bytes charged, message)`; `None`
    /// when there is nothing to send or nobody to send it to.
    fn stage_copy(
        &self,
        version: u64,
        dirty: &[u64],
        release: &[u64],
    ) -> Option<(Rank, usize, Vec<u8>)> {
        let fault = self.transport.fault();
        // Gone when the node died (or the version was pruned) between
        // signal and copy.
        let mbytes =
            self.storage.get(self.node, BlobKey { rank: self.rank, tag: self.cfg.tag, version })?;
        // Passive site: this is the library thread, not the rank's own, so a
        // matching kill only poisons liveness — re-check and bail like the
        // storage probe above, modeling a rank dying mid-replication.
        fault.site_passive(self.rank, "ckpt.neighbor.copy");
        if !fault.is_alive(self.rank) {
            return None;
        }
        // PFS tier first (blocking, costed — deliberately on this thread, not
        // the application's). The PFS stores *reconstituted full images*:
        // reassemble from the local manifest + chunk store before writing.
        if let (Some(p), Some(k)) = (self.pfs.as_deref(), self.cfg.pfs_every) {
            if version.is_multiple_of(k) {
                fault.site_passive(self.rank, "ckpt.pfs.write");
                if let Assembled::Ok(img) =
                    assemble(&self.storage, self.node, self.rank, self.cfg.tag, version)
                {
                    p.write(self.rank, self.cfg.tag, version, Arc::new(img));
                    self.stats.lock().pfs_spills += 1;
                }
            }
        }
        // The replica holder resolves its own node from the addressed rank,
        // so only the representative rank matters here.
        let dst = {
            let ring = self.ring.lock();
            ring.endpoint_on(ring.neighbor_of(self.node)?)?
        };
        // Gather the dirty chunk payloads; a chunk GC'd since the commit
        // means this version is already superseded — fail the copy cleanly.
        let ctag = chunk_tag(self.cfg.tag);
        let blobs = dirty
            .iter()
            .map(|&h| {
                let key = BlobKey { rank: self.rank, tag: ctag, version: h };
                Some((h, self.storage.get(self.node, key)?))
            })
            .collect::<Option<Vec<_>>>()?;
        // The payload total is the latency cost; the envelope framing is
        // not charged.
        let bytes = mbytes.len() + blobs.iter().map(|(_, d)| d.len()).sum::<usize>();
        let msg = service::Push {
            rank: self.rank,
            tag: self.cfg.tag,
            version,
            keep: self.cfg.keep_versions,
            blobs,
            manifest: mbytes,
            release: release.to_vec(),
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
        *self.pending.lock() -= 1;
        self.drained.notify_all();
    }
}
