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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};

use ft_cluster::{BlobKey, NodeId, NodeStorage, Outcome, Rank, Topology, Transport};
use ft_gaspi::GaspiProc;

use crate::chunk::{chunk_hashes, chunk_range, chunk_tag, Manifest, DEFAULT_CHUNK_SIZE};
use crate::neighbor::NeighborMap;
use crate::pfs::Pfs;
use crate::service;
use crate::stats::CkptStats;
use ft_cluster::codec::fnv1a64;

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

/// Whether a commit is replicated to the neighbor (and PFS, when due) or
/// stays on the local node only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPolicy {
    /// Signal the library thread: asynchronous neighbor copy plus the
    /// every-k-th PFS spill — the paper's normal checkpoint path.
    Replicate,
    /// Local-node write only (ablations, scratch state).
    LocalOnly,
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

    /// Stable label for the miss ("not-found" / "timeout" /
    /// "checksum-mismatch"), `None` for a hit. Used in recovery events.
    pub fn miss_reason(&self) -> Option<&'static str> {
        match self {
            RestoreOutcome::Hit(_) => None,
            RestoreOutcome::NotFound => Some("not-found"),
            RestoreOutcome::Timeout => Some("timeout"),
            RestoreOutcome::ChecksumMismatch { .. } => Some("checksum-mismatch"),
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

/// An invalid [`CheckpointerConfig`], rejected by the builder (and by
/// [`Checkpointer::new`]).
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

/// Checkpointer configuration.
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

    /// Validating builder over [`CheckpointerConfig::for_tag`] defaults.
    pub fn builder(tag: u32) -> CheckpointerConfigBuilder {
        CheckpointerConfigBuilder { cfg: Self::for_tag(tag) }
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

/// Builder returned by [`CheckpointerConfig::builder`]; `build` validates.
#[derive(Debug, Clone)]
pub struct CheckpointerConfigBuilder {
    cfg: CheckpointerConfig,
}

impl CheckpointerConfigBuilder {
    /// Versions retained per tier.
    pub fn keep_versions(mut self, n: u64) -> Self {
        self.cfg.keep_versions = n;
        self
    }

    /// Spill every k-th version to the PFS.
    pub fn pfs_every(mut self, k: u64) -> Self {
        self.cfg.pfs_every = Some(k);
        self
    }

    /// Chunk size of the incremental pipeline.
    pub fn chunk_size(mut self, bytes: usize) -> Self {
        self.cfg.chunk_size = bytes;
        self
    }

    /// Full-checkpoint period.
    pub fn full_every(mut self, k: u64) -> Self {
        self.cfg.full_every = k;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<CheckpointerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

enum Job {
    Copy { version: u64, dirty: Vec<u64>, release: Vec<u64> },
    Stop,
}

#[derive(Default)]
struct Pending {
    count: Mutex<u64>,
    cv: Condvar,
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

/// Shared state the library thread needs for one replication job.
struct CopyShared {
    rank: Rank,
    node: NodeId,
    cfg: CheckpointerConfig,
    topo: Topology,
    storage: Arc<NodeStorage>,
    transport: Arc<dyn Transport>,
    neighbors: Arc<Mutex<NeighborMap>>,
    pending: Arc<Pending>,
    done: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    spills: Arc<AtomicU64>,
    copy_bytes: Arc<AtomicU64>,
    pfs: Option<Arc<Pfs>>,
}

/// Per-rank neighbor-level checkpoint/restart handle.
pub struct Checkpointer {
    rank: Rank,
    node: NodeId,
    topo: Topology,
    cfg: CheckpointerConfig,
    storage: Arc<NodeStorage>,
    transport: Arc<dyn Transport>,
    pfs: Option<Arc<Pfs>>,
    neighbors: Arc<Mutex<NeighborMap>>,
    table: Mutex<ChunkTable>,
    tx: Sender<Job>,
    worker: Option<std::thread::JoinHandle<()>>,
    pending: Arc<Pending>,
    /// Completed neighbor copies.
    pub copies_done: Arc<AtomicU64>,
    /// Neighbor copies that failed (broken link / dead neighbor).
    pub copy_failures: Arc<AtomicU64>,
    /// Bytes shipped to the neighbor (dirty chunks + manifests).
    pub copy_bytes: Arc<AtomicU64>,
    /// Logical checkpoint bytes committed (full-image equivalent).
    pub bytes_local: AtomicU64,
    /// Checkpoint commits.
    pub local_writes: AtomicU64,
    /// Full (non-incremental) commits.
    pub full_commits: AtomicU64,
    /// Incremental commits.
    pub incremental_commits: AtomicU64,
    /// Dirty chunks written locally.
    pub chunks_written: AtomicU64,
    /// Bytes of dirty chunks written locally.
    pub chunk_bytes: AtomicU64,
    /// Clean payload bytes skipped thanks to chunk dedup.
    pub dedup_bytes: AtomicU64,
    /// Manifest bytes written locally.
    pub manifest_bytes: AtomicU64,
    /// Versions spilled to the PFS tier (library thread).
    pub pfs_spills: Arc<AtomicU64>,
    /// Restores served locally.
    pub restores_local: AtomicU64,
    /// Restores served from the neighbor replica.
    pub restores_neighbor: AtomicU64,
    /// Restores served from the PFS tier.
    pub restores_pfs: AtomicU64,
    /// Total payload bytes restored.
    pub restore_bytes: AtomicU64,
    /// Manifest versions skipped during restore because a chunk was gone.
    pub restore_gaps: Arc<AtomicU64>,
    /// Reassembled payloads rejected by the whole-payload checksum.
    pub checksum_failures: Arc<AtomicU64>,
}

impl Checkpointer {
    /// `init`: bind to a rank and spawn the library thread (paper Fig. 2).
    ///
    /// Panics on an invalid config — construct through
    /// [`CheckpointerConfig::builder`] to validate ahead of time.
    pub fn new(proc: &GaspiProc, cfg: CheckpointerConfig, pfs: Option<Arc<Pfs>>) -> Self {
        cfg.validate().expect("invalid CheckpointerConfig");
        // Make sure this world answers replication pushes and fetches
        // addressed to this rank (idempotent; first install wins).
        service::install(proc);
        let rank = proc.rank();
        let topo = proc.topology().clone();
        let node = topo.node_of(rank);
        let storage = proc.cluster_storage();
        let transport = proc.cluster_transport();
        let neighbors = Arc::new(Mutex::new(NeighborMap::new(topo.clone())));
        let (tx, rx) = unbounded::<Job>();
        let pending = Arc::new(Pending::default());
        let copies_done = Arc::new(AtomicU64::new(0));
        let copy_failures = Arc::new(AtomicU64::new(0));
        let copy_bytes = Arc::new(AtomicU64::new(0));
        let pfs_spills = Arc::new(AtomicU64::new(0));

        let shared = CopyShared {
            rank,
            node,
            cfg: cfg.clone(),
            topo: topo.clone(),
            storage: Arc::clone(&storage),
            transport: transport.clone(),
            neighbors: Arc::clone(&neighbors),
            pending: Arc::clone(&pending),
            done: Arc::clone(&copies_done),
            failed: Arc::clone(&copy_failures),
            spills: Arc::clone(&pfs_spills),
            copy_bytes: Arc::clone(&copy_bytes),
            pfs: pfs.clone(),
        };
        let worker = std::thread::Builder::new()
            .name(format!("ckpt-lib-{rank}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    match job {
                        Job::Stop => break,
                        Job::Copy { version, dirty, release } => {
                            copy_one(&shared, version, &dirty, &release);
                        }
                    }
                }
            })
            .expect("spawn checkpoint library thread");

        Self {
            rank,
            node,
            topo,
            cfg,
            storage,
            transport,
            pfs,
            neighbors,
            table: Mutex::new(ChunkTable::default()),
            tx,
            worker: Some(worker),
            pending,
            copies_done,
            copy_failures,
            copy_bytes,
            bytes_local: AtomicU64::new(0),
            local_writes: AtomicU64::new(0),
            full_commits: AtomicU64::new(0),
            incremental_commits: AtomicU64::new(0),
            chunks_written: AtomicU64::new(0),
            chunk_bytes: AtomicU64::new(0),
            dedup_bytes: AtomicU64::new(0),
            manifest_bytes: AtomicU64::new(0),
            pfs_spills,
            restores_local: AtomicU64::new(0),
            restores_neighbor: AtomicU64::new(0),
            restores_pfs: AtomicU64::new(0),
            restore_bytes: AtomicU64::new(0),
            restore_gaps: Arc::new(AtomicU64::new(0)),
            checksum_failures: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Point-in-time readout of every counter (see [`CkptStats`]).
    /// Neighbor-copy and PFS-spill counts are updated by the library
    /// thread, so call [`Checkpointer::drain`] first for an exact view
    /// after the last checkpoint.
    pub fn stats(&self) -> CkptStats {
        CkptStats {
            local_writes: self.local_writes.load(Ordering::Relaxed),
            bytes_local: self.bytes_local.load(Ordering::Relaxed),
            full_commits: self.full_commits.load(Ordering::Relaxed),
            incremental_commits: self.incremental_commits.load(Ordering::Relaxed),
            chunks_written: self.chunks_written.load(Ordering::Relaxed),
            chunk_bytes: self.chunk_bytes.load(Ordering::Relaxed),
            dedup_bytes: self.dedup_bytes.load(Ordering::Relaxed),
            manifest_bytes: self.manifest_bytes.load(Ordering::Relaxed),
            neighbor_copies: self.copies_done.load(Ordering::Relaxed),
            copy_failures: self.copy_failures.load(Ordering::Relaxed),
            copy_bytes: self.copy_bytes.load(Ordering::Relaxed),
            pfs_spills: self.pfs_spills.load(Ordering::Relaxed),
            restores_local: self.restores_local.load(Ordering::Relaxed),
            restores_neighbor: self.restores_neighbor.load(Ordering::Relaxed),
            restores_pfs: self.restores_pfs.load(Ordering::Relaxed),
            restore_bytes: self.restore_bytes.load(Ordering::Relaxed),
            restore_gaps: self.restore_gaps.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
        }
    }

    /// The stream tag.
    pub fn tag(&self) -> u32 {
        self.cfg.tag
    }

    /// Commit checkpoint `version` on the local node and, under
    /// [`CopyPolicy::Replicate`], signal the library thread to replicate
    /// it. Returns immediately after the (in-memory) local write — the
    /// fast path the paper relies on.
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
        let fault = self.transport.fault();
        fault.site(self.rank, "ckpt.local.write");

        let mut t = self.table.lock();
        let ring_gen = self.neighbors.lock().generation();
        let seq_ok = match t.last_version {
            None => true,
            Some(lv) => version == lv + 1,
        };
        let full = t.force_full
            || !seq_ok
            || t.last_version.is_none()
            || ring_gen != t.ring_gen
            || version.is_multiple_of(self.cfg.full_every);
        if !seq_ok {
            // Superseded chain (restart-from-scratch redo): forget the old
            // history rather than GC against it. The redo rewrites
            // bit-identical content, so the content-addressed chunks are
            // reused, not leaked.
            t.history.clear();
        }

        let hashes = chunk_hashes(&payload, self.cfg.chunk_size);
        let ctag = chunk_tag(self.cfg.tag);
        let mut written = HashSet::new();
        let mut dirty = Vec::new();
        let mut dirty_bytes = 0u64;
        for (i, &h) in hashes.iter().enumerate() {
            let clean = !full && t.last.get(i) == Some(&h);
            if clean || !written.insert(h) {
                continue;
            }
            fault.site(self.rank, "ckpt.chunk.write");
            let blob = payload[chunk_range(i, self.cfg.chunk_size, payload.len())].to_vec();
            dirty_bytes += blob.len() as u64;
            self.storage.put(
                self.node,
                BlobKey { rank: self.rank, tag: ctag, version: h },
                Arc::new(blob),
            );
            dirty.push(h);
        }

        let manifest = Manifest {
            version,
            total_len: payload.len() as u64,
            chunk_size: self.cfg.chunk_size as u32,
            full,
            checksum: fnv1a64(&payload),
            chunks: hashes.clone(),
        };
        fault.site(self.rank, "ckpt.manifest.write");
        let mbytes = manifest.encode();
        let mlen = mbytes.len() as u64;
        self.storage.put(
            self.node,
            BlobKey { rank: self.rank, tag: self.cfg.tag, version },
            Arc::new(mbytes),
        );

        // The version is now durable locally: prune old manifests, GC the
        // chunks only they referenced, update the table and counters.
        let keep_from = (version + 1).saturating_sub(self.cfg.keep_versions);
        self.storage.prune(self.node, self.rank, self.cfg.tag, keep_from);
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
                self.storage.remove(self.node, BlobKey { rank: self.rank, tag: ctag, version: h });
            }
            release
        };
        t.last = hashes;
        t.last_version = Some(version);
        t.force_full = false;
        t.ring_gen = ring_gen;
        drop(t);

        self.local_writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_local.fetch_add(payload.len() as u64, Ordering::Relaxed);
        if full {
            self.full_commits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.incremental_commits.fetch_add(1, Ordering::Relaxed);
        }
        self.chunks_written.fetch_add(dirty.len() as u64, Ordering::Relaxed);
        self.chunk_bytes.fetch_add(dirty_bytes, Ordering::Relaxed);
        self.dedup_bytes.fetch_add(payload.len() as u64 - dirty_bytes, Ordering::Relaxed);
        self.manifest_bytes.fetch_add(mlen, Ordering::Relaxed);

        if policy == CopyPolicy::Replicate {
            *self.pending.count.lock() += 1;
            if self.tx.send(Job::Copy { version, dirty, release }).is_err() {
                let mut c = self.pending.count.lock();
                *c -= 1;
            }
        }
    }

    /// Block until all signaled copies have been replicated (or failed).
    /// Used by tests and by shutdown; the application itself never calls
    /// this on the fast path.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut c = self.pending.count.lock();
        while *c != 0 {
            if self.pending.cv.wait_until(&mut c, deadline).timed_out() {
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
        self.neighbors.lock().mark_failed(failed);
        self.table.lock().force_full = true;
    }

    /// Current neighbor node for this rank's checkpoints.
    pub fn neighbor_node(&self) -> Option<NodeId> {
        self.neighbors.lock().neighbor_of(self.node)
    }

    /// Count a served restore by provenance (the paper's OHF3 cost
    /// differs per tier).
    fn count_restore(&self, r: &Restored) {
        match r.provenance {
            Provenance::Local => self.restores_local.fetch_add(1, Ordering::Relaxed),
            Provenance::Neighbor(_) => self.restores_neighbor.fetch_add(1, Ordering::Relaxed),
            Provenance::Pfs => self.restores_pfs.fetch_add(1, Ordering::Relaxed),
        };
        self.restore_bytes.fetch_add(r.data.len() as u64, Ordering::Relaxed);
    }

    /// Fold one tier's probe misses into the running miss state.
    fn note_probe(&self, probe: &TierProbe, misses: &mut Misses) {
        self.restore_gaps.fetch_add(probe.gaps, Ordering::Relaxed);
        if let Some(v) = probe.mismatch {
            self.checksum_failures.fetch_add(1, Ordering::Relaxed);
            misses.note_mismatch(v);
        }
    }

    /// Restore the newest reachable checkpoint of `for_rank` (usually
    /// `self.rank()`, or the failed rank a rescue process adopted),
    /// reassembled from manifest + chunks and checksum-verified.
    /// Resolution order: local node → neighbor replica → PFS; within a
    /// tier, a version with missing chunks or a bad checksum falls back
    /// to the next older one.
    pub fn restore_latest(&self, for_rank: Rank, timeout: Duration) -> RestoreOutcome<Restored> {
        self.transport.fault().site(self.rank, "ckpt.restore");
        let mut misses = Misses::default();
        // 1. Local.
        if self.topo.node_of(for_rank) == self.node {
            let p = assemble_best(&self.storage, self.node, for_rank, self.cfg.tag);
            self.note_probe(&p, &mut misses);
            if let Some((version, data)) = p.found {
                let r = Restored { version, data, provenance: Provenance::Local };
                self.count_restore(&r);
                return RestoreOutcome::Hit(r);
            }
        }
        // 2. Neighbor replica.
        match self.fetch_from_neighbor(for_rank, None, timeout) {
            Fetch::Found(r) => {
                self.count_restore(&r);
                return RestoreOutcome::Hit(r);
            }
            Fetch::TimedOut => misses.timeout = true,
            Fetch::Miss { mismatch } => {
                if let Some(v) = mismatch {
                    misses.note_mismatch(v);
                }
            }
        }
        // 3. PFS (stores reconstituted full images).
        if let Some(pfs) = self.pfs.as_ref() {
            if let Some(v) = pfs.latest_version(for_rank, self.cfg.tag) {
                if let Some(data) = pfs.read(for_rank, self.cfg.tag, v) {
                    let r = Restored {
                        version: v,
                        data: data.as_ref().clone(),
                        provenance: Provenance::Pfs,
                    };
                    self.count_restore(&r);
                    return RestoreOutcome::Hit(r);
                }
            }
        }
        misses.outcome()
    }

    /// Restore a specific version (after the group agreed on a consistent
    /// one, e.g. via an allreduce-min over each member's newest version).
    pub fn restore_exact(
        &self,
        for_rank: Rank,
        version: u64,
        timeout: Duration,
    ) -> RestoreOutcome<Restored> {
        self.transport.fault().site(self.rank, "ckpt.restore");
        let mut misses = Misses::default();
        if self.topo.node_of(for_rank) == self.node {
            let p = assemble_exact(&self.storage, self.node, for_rank, self.cfg.tag, version);
            self.note_probe(&p, &mut misses);
            if let Some((version, data)) = p.found {
                let r = Restored { version, data, provenance: Provenance::Local };
                self.count_restore(&r);
                return RestoreOutcome::Hit(r);
            }
        }
        match self.fetch_from_neighbor(for_rank, Some(version), timeout) {
            Fetch::Found(r) => {
                self.count_restore(&r);
                return RestoreOutcome::Hit(r);
            }
            Fetch::TimedOut => misses.timeout = true,
            Fetch::Miss { mismatch } => {
                if let Some(v) = mismatch {
                    misses.note_mismatch(v);
                }
            }
        }
        if let Some(pfs) = self.pfs.as_ref() {
            if let Some(data) = pfs.read(for_rank, self.cfg.tag, version) {
                let r =
                    Restored { version, data: data.as_ref().clone(), provenance: Provenance::Pfs };
                self.count_restore(&r);
                return RestoreOutcome::Hit(r);
            }
        }
        misses.outcome()
    }

    /// The newest version this rank could restore for `for_rank`, without
    /// transferring the payload (each tier verifies reassembly before
    /// answering). Feed the group minimum of this into
    /// [`Checkpointer::restore_exact`].
    pub fn latest_restorable(&self, for_rank: Rank, timeout: Duration) -> RestoreOutcome<u64> {
        let mut misses = Misses::default();
        let mut best: Option<u64> = None;
        if self.topo.node_of(for_rank) == self.node {
            let p = assemble_best(&self.storage, self.node, for_rank, self.cfg.tag);
            self.note_probe(&p, &mut misses);
            best = best.max(p.found.map(|(v, _)| v));
        }
        let replica_node = self.neighbors.lock().neighbor_of(self.topo.node_of(for_rank));
        if let Some(nb) = replica_node {
            if nb == self.node {
                let p = assemble_best(&self.storage, nb, for_rank, self.cfg.tag);
                self.note_probe(&p, &mut misses);
                best = best.max(p.found.map(|(v, _)| v));
            } else {
                match self.remote_latest(nb, for_rank, timeout) {
                    Some(v) => best = best.max(v),
                    None => misses.timeout = true,
                }
            }
        }
        if let Some(pfs) = self.pfs.as_ref() {
            best = best.max(pfs.latest_version(for_rank, self.cfg.tag));
        }
        match best {
            Some(v) => RestoreOutcome::Hit(v),
            None => misses.outcome(),
        }
    }

    /// Fetch `for_rank`'s checkpoint from the neighbor replica holder,
    /// which reassembles a full image from its manifest + chunk replica
    /// and ships the materialized bytes.
    fn fetch_from_neighbor(
        &self,
        for_rank: Rank,
        version: Option<u64>,
        timeout: Duration,
    ) -> Fetch {
        let home = self.topo.node_of(for_rank);
        let Some(replica_node) = self.neighbors.lock().neighbor_of(home) else {
            return Fetch::Miss { mismatch: None };
        };
        let tag = self.cfg.tag;
        if replica_node == self.node {
            // The rescue process happens to *be* the replica holder.
            let p = match version {
                Some(v) => assemble_exact(&self.storage, self.node, for_rank, tag, v),
                None => assemble_best(&self.storage, self.node, for_rank, tag),
            };
            let mut misses = Misses::default();
            self.note_probe(&p, &mut misses);
            return match p.found {
                Some((v, data)) => Fetch::Found(Restored {
                    version: v,
                    data,
                    provenance: Provenance::Neighbor(replica_node),
                }),
                None => Fetch::Miss { mismatch: misses.mismatch },
            };
        }
        // Remote fetch: request → the replica holder's service handler
        // reassembles from *its* node storage → costed full-image reply.
        // Gap/mismatch counts observed by the holder ride back in the
        // reply and are folded into this rank's counters.
        let Some(dst) = self.representative_rank(replica_node) else {
            return Fetch::Miss { mismatch: None };
        };
        struct Reply {
            found: Option<(u64, Vec<u8>)>,
            mismatch: Option<u64>,
        }
        type Cell = Arc<(Mutex<Option<Reply>>, Condvar)>;
        let cell: Cell = Arc::new((Mutex::new(None), Condvar::new()));
        let c1 = Arc::clone(&cell);
        let gaps = Arc::clone(&self.restore_gaps);
        let cksum = Arc::clone(&self.checksum_failures);
        let me = self.rank;
        self.transport.call(
            me,
            dst,
            service::FETCH_QUEUE,
            24,
            service::enc_fetch(for_rank, tag, version),
            Box::new(move |out, reply| {
                let r = if out == Outcome::Delivered {
                    service::dec_fetch_reply(&reply)
                } else {
                    service::FetchReply::default()
                };
                gaps.fetch_add(r.gaps, Ordering::Relaxed);
                if r.mismatch.is_some() {
                    cksum.fetch_add(1, Ordering::Relaxed);
                }
                *c1.0.lock() = Some(Reply { found: r.found, mismatch: r.mismatch });
                c1.1.notify_all();
            }),
        );
        let deadline = Instant::now() + timeout;
        let mut g = cell.0.lock();
        while g.is_none() {
            if cell.1.wait_until(&mut g, deadline).timed_out() {
                break;
            }
        }
        match g.take() {
            None => Fetch::TimedOut,
            Some(Reply { found: Some((v, data)), .. }) => Fetch::Found(Restored {
                version: v,
                data,
                provenance: Provenance::Neighbor(replica_node),
            }),
            Some(Reply { found: None, mismatch }) => Fetch::Miss { mismatch },
        }
    }

    /// Version-only remote query against the replica holder (the replica
    /// verifies reassembly before answering). `None` means timeout.
    fn remote_latest(
        &self,
        replica_node: NodeId,
        for_rank: Rank,
        timeout: Duration,
    ) -> Option<Option<u64>> {
        let dst = self.representative_rank(replica_node)?;
        let tag = self.cfg.tag;
        type Cell = Arc<(Mutex<Option<Option<u64>>>, Condvar)>;
        let cell: Cell = Arc::new((Mutex::new(None), Condvar::new()));
        let c1 = Arc::clone(&cell);
        let gaps = Arc::clone(&self.restore_gaps);
        let me = self.rank;
        self.transport.call(
            me,
            dst,
            service::FETCH_QUEUE,
            16,
            service::enc_latest(for_rank, tag),
            Box::new(move |out, reply| {
                let v = if out == Outcome::Delivered {
                    let (v, g) = service::dec_latest_reply(&reply);
                    gaps.fetch_add(g, Ordering::Relaxed);
                    v
                } else {
                    None
                };
                *c1.0.lock() = Some(v);
                c1.1.notify_all();
            }),
        );
        let deadline = Instant::now() + timeout;
        let mut g = cell.0.lock();
        while g.is_none() {
            if cell.1.wait_until(&mut g, deadline).timed_out() {
                break;
            }
        }
        g.take()
    }

    /// Lowest non-failed rank on `node` — the endpoint for remote fetches.
    fn representative_rank(&self, node: NodeId) -> Option<Rank> {
        let nb = self.neighbors.lock();
        self.topo.ranks_on(node).find(|r| !nb.failed().contains(r))
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

/// How a neighbor fetch resolved.
enum Fetch {
    Found(Restored),
    TimedOut,
    Miss { mismatch: Option<u64> },
}

/// Running miss state across tiers, resolved into a [`RestoreOutcome`]
/// when no tier hit. Timeout outranks mismatch (it is transient — the
/// data may still exist), mismatch outranks plain not-found.
#[derive(Default)]
struct Misses {
    timeout: bool,
    mismatch: Option<u64>,
}

impl Misses {
    fn note_mismatch(&mut self, version: u64) {
        let best = self.mismatch.map_or(version, |m| m.max(version));
        self.mismatch = Some(best);
    }

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

/// Result of probing one tier for a reassemblable version.
#[derive(Default)]
pub(crate) struct TierProbe {
    /// Newest `(version, materialized payload)` that reassembled and
    /// verified.
    pub(crate) found: Option<(u64, Vec<u8>)>,
    /// Newest version rejected by the checksum, if any.
    pub(crate) mismatch: Option<u64>,
    /// Versions skipped because a referenced chunk was missing.
    pub(crate) gaps: u64,
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
/// verify the whole-payload checksum.
fn assemble(storage: &NodeStorage, node: NodeId, rank: Rank, tag: u32, version: u64) -> Assembled {
    let Some(mbytes) = storage.get(node, BlobKey { rank, tag, version }) else {
        return Assembled::NoManifest;
    };
    let Ok(m) = Manifest::decode(&mbytes) else {
        // A corrupt (torn) manifest is as unusable as a missing one.
        return Assembled::Gap;
    };
    let ctag = chunk_tag(tag);
    let mut out = Vec::with_capacity(m.total_len as usize);
    for (i, &h) in m.chunks.iter().enumerate() {
        let Some(c) = storage.get(node, BlobKey { rank, tag: ctag, version: h }) else {
            return Assembled::Gap;
        };
        if c.len() != m.chunk_range(i).len() {
            return Assembled::Gap;
        }
        out.extend_from_slice(&c);
    }
    if out.len() as u64 != m.total_len {
        return Assembled::Gap;
    }
    if fnv1a64(&out) != m.checksum {
        return Assembled::Mismatch;
    }
    Assembled::Ok(out)
}

/// Probe exactly one version on one node.
pub(crate) fn assemble_exact(
    storage: &NodeStorage,
    node: NodeId,
    rank: Rank,
    tag: u32,
    version: u64,
) -> TierProbe {
    let mut p = TierProbe::default();
    match assemble(storage, node, rank, tag, version) {
        Assembled::Ok(data) => p.found = Some((version, data)),
        Assembled::Mismatch => p.mismatch = Some(version),
        Assembled::Gap => p.gaps += 1,
        Assembled::NoManifest => {}
    }
    p
}

/// Walk a node's manifest versions newest → oldest; first one that
/// reassembles and verifies wins, anything broken is recorded and
/// skipped (the fall-back-on-gap behavior).
pub(crate) fn assemble_best(
    storage: &NodeStorage,
    node: NodeId,
    rank: Rank,
    tag: u32,
) -> TierProbe {
    let mut p = TierProbe::default();
    for v in storage.versions_of(node, rank, tag) {
        match assemble(storage, node, rank, tag, v) {
            Assembled::Ok(data) => {
                p.found = Some((v, data));
                break;
            }
            Assembled::Mismatch => {
                if p.mismatch.is_none() {
                    p.mismatch = Some(v);
                }
            }
            Assembled::Gap => p.gaps += 1,
            Assembled::NoManifest => {}
        }
    }
    p
}

/// One neighbor (and possibly PFS) replication, on the library thread.
/// Ships only the commit's dirty chunks plus the manifest; applies the
/// same manifest pruning and chunk releases on the replica so the two
/// stores stay in lockstep.
fn copy_one(s: &CopyShared, version: u64, dirty: &[u64], release: &[u64]) {
    let finish = |ok: bool| {
        if ok {
            s.done.fetch_add(1, Ordering::Relaxed);
        } else {
            s.failed.fetch_add(1, Ordering::Relaxed);
        }
        let mut c = s.pending.count.lock();
        *c -= 1;
        s.pending.cv.notify_all();
    };
    let mkey = BlobKey { rank: s.rank, tag: s.cfg.tag, version };
    let Some(mbytes) = s.storage.get(s.node, mkey) else {
        // Node died (or version pruned) between signal and copy.
        finish(false);
        return;
    };
    // Passive site: this is the library thread, not the rank's own, so a
    // matching kill only poisons liveness — re-check and bail like the
    // storage probe above, modeling a rank dying mid-replication.
    s.transport.fault().site_passive(s.rank, "ckpt.neighbor.copy");
    if !s.transport.fault().is_alive(s.rank) {
        finish(false);
        return;
    }
    // PFS tier first (blocking, costed — deliberately on this thread, not
    // the application's). The PFS stores *reconstituted full images*:
    // reassemble from the local manifest + chunk store before writing.
    if let (Some(p), Some(k)) = (s.pfs.as_deref(), s.cfg.pfs_every) {
        if k > 0 && version.is_multiple_of(k) {
            s.transport.fault().site_passive(s.rank, "ckpt.pfs.write");
            if let Assembled::Ok(img) = assemble(&s.storage, s.node, s.rank, s.cfg.tag, version) {
                p.write(s.rank, s.cfg.tag, version, Arc::new(img));
                s.spills.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    // The replica holder resolves its own node from the addressed rank,
    // so only the representative rank matters here.
    let dst = {
        let nb = s.neighbors.lock();
        let Some(nn) = nb.neighbor_of(s.node) else {
            drop(nb);
            finish(false);
            return;
        };
        let Some(dst) = s.topo.ranks_on(nn).find(|r| !nb.failed().contains(r)) else {
            drop(nb);
            finish(false);
            return;
        };
        dst
    };
    // Gather the dirty chunk payloads; a chunk GC'd since the commit
    // means this version is already superseded — fail the copy cleanly.
    let ctag = chunk_tag(s.cfg.tag);
    let mut blobs: Vec<(u64, Arc<Vec<u8>>)> = Vec::with_capacity(dirty.len());
    for &h in dirty {
        let key = BlobKey { rank: s.rank, tag: ctag, version: h };
        match s.storage.get(s.node, key) {
            Some(d) => blobs.push((h, d)),
            None => {
                finish(false);
                return;
            }
        }
    }
    // The push carries the dirty chunks + manifest; the replica holder's
    // service handler writes them into its node store and applies the
    // same pruning. `bytes` (the payload total) is the latency cost, as
    // before; the envelope framing is not charged.
    let bytes = mbytes.len() + blobs.iter().map(|(_, d)| d.len()).sum::<usize>();
    let msg = service::enc_copy(
        s.rank,
        s.cfg.tag,
        version,
        s.cfg.keep_versions,
        &blobs,
        &mbytes,
        release,
    );
    let pending2 = Arc::clone(&s.pending);
    let done2 = Arc::clone(&s.done);
    let failed2 = Arc::clone(&s.failed);
    let wire2 = Arc::clone(&s.copy_bytes);
    s.transport.send(
        s.rank,
        dst,
        service::COPY_QUEUE,
        bytes,
        msg,
        Box::new(move |out, reply| {
            if out == Outcome::Delivered && service::copy_reply_ok(&reply) {
                wire2.fetch_add(bytes as u64, Ordering::Relaxed);
                done2.fetch_add(1, Ordering::Relaxed);
            } else {
                failed2.fetch_add(1, Ordering::Relaxed);
            }
            let mut c = pending2.count.lock();
            *c -= 1;
            pending2.cv.notify_all();
        }),
    );
}
