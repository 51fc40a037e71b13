//! Job-wide event log for overhead decomposition.
//!
//! The paper decomposes failure overhead into detection (OHF1), group
//! rebuild (OHF2), data re-initialization (OHF3), and redo-work time
//! (Fig. 4). The log is shared by every rank of a job — including ranks
//! that later die, whose entries survive them — and the benchmark
//! harnesses reconstruct the decomposition from it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use ft_checkpoint::MissReason;
use ft_cluster::codec::{CodecError, Dec, Enc, Wire};
use ft_cluster::Rank;

/// The stage of the consistent-restore protocol a restore missed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissStage {
    /// The latest-restorable probe behind a rank's vote.
    Vote,
    /// The confirm round's fetch of the agreed version.
    Fetch,
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A rank is about to kill itself on schedule (`exit(-1)` style).
    KillFired {
        /// Iteration at which the kill fired.
        iter: u64,
    },
    /// The FD observed new failures (start of OHF1 accounting).
    FdDetect {
        /// New epoch.
        epoch: u64,
        /// Newly failed ranks.
        failed: Vec<Rank>,
    },
    /// The FD finished broadcasting the acknowledgment.
    FdAck {
        /// Epoch acknowledged.
        epoch: u64,
    },
    /// A worker received the failure acknowledgment signal.
    FailureSignal {
        /// Epoch received.
        epoch: u64,
    },
    /// The new worker group committed (end of OHF2).
    GroupRebuilt {
        /// Epoch recovered to.
        epoch: u64,
    },
    /// A restore probe or fetch missed during the consistent-restore
    /// protocol (the group then degrades to an older version or a fresh
    /// start).
    RestoreMiss {
        /// Protocol stage.
        stage: MissStage,
        /// Why it missed (see `RestoreOutcome::miss_reason`).
        reason: MissReason,
    },
    /// State restored from a checkpoint (end of OHF3).
    Restored {
        /// Epoch recovered to.
        epoch: u64,
        /// Iteration resumed from.
        iter: u64,
    },
    /// A rescue re-ran steps `from..to` from its senders' post logs, with no communication
    /// per step, while the survivors kept their live state at `to` (checkpoint/restart; see
    /// `ft_core::ckpt::replay_frontier`). Only rescues record it.
    Replayed {
        /// Epoch recovered to.
        epoch: u64,
        /// The commit iteration replayed from.
        from: u64,
        /// The frontier replayed to, where live steps resume.
        to: u64,
    },
    /// The worker re-reached its pre-failure iteration (end of redo).
    RedoComplete {
        /// Epoch.
        epoch: u64,
        /// Iteration re-reached.
        iter: u64,
    },
    /// An idle process was activated as a rescue carrying `app_rank`.
    Activated {
        /// Adopted application rank.
        app_rank: u32,
    },
    /// The FD promoted itself to worker (paper restriction 2 reached).
    FdPromoted,
    /// The shadow detector observed the primary FD's death and took over
    /// (the paper's §VIII redundancy proposal).
    FdTakeover {
        /// The dead primary.
        dead_fd: Rank,
    },
    /// A link-fault transition involving this rank was enforced on its
    /// fault plane (on the process backend this severs/refuses real TCP
    /// traffic; in memory it gates simulated delivery).
    LinkFault {
        /// The other endpoint of the affected link.
        peer: Rank,
        /// True for a break, false for a heal.
        broken: bool,
    },
    /// More failures than spares: the job cannot heal (restriction 1).
    CapacityExhausted,
    /// Worker finished the application (at `iter`).
    Finished {
        /// Final iteration count.
        iter: u64,
    },
}

/// A timestamped, rank-tagged event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Time since the job's event log was created.
    pub t: Duration,
    /// GASPI rank that recorded the event.
    pub rank: Rank,
    /// Payload.
    pub kind: EventKind,
}

/// What a rank process ships to its supervisor: `t`, the rank, a kind
/// tag, the kind's fields.
impl Wire for Event {
    fn encode(&self, e: &mut Enc) {
        use EventKind::*;
        self.t.encode(e);
        e.u32(self.rank);
        match &self.kind {
            KillFired { iter } => e.u8(0).u64(*iter),
            FdDetect { epoch, failed } => e.u8(1).u64(*epoch).u32s(failed),
            FdAck { epoch } => e.u8(2).u64(*epoch),
            FailureSignal { epoch } => e.u8(3).u64(*epoch),
            GroupRebuilt { epoch } => e.u8(4).u64(*epoch),
            RestoreMiss { stage, reason } => e.u8(5).u8(*stage as u8).u8(*reason as u8),
            Restored { epoch, iter } => e.u8(6).u64(*epoch).u64(*iter),
            RedoComplete { epoch, iter } => e.u8(7).u64(*epoch).u64(*iter),
            Activated { app_rank } => e.u8(8).u32(*app_rank),
            FdPromoted => e.u8(9),
            FdTakeover { dead_fd } => e.u8(10).u32(*dead_fd),
            LinkFault { peer, broken } => e.u8(11).u32(*peer).u8(u8::from(*broken)),
            CapacityExhausted => e.u8(12),
            Finished { iter } => e.u8(13).u64(*iter),
            Replayed { epoch, from, to } => e.u8(14).u64(*epoch).u64(*from).u64(*to),
        };
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        use EventKind::*;
        let t = Duration::decode(d)?;
        let rank = d.u32()?;
        let kind = match d.u8()? {
            0 => KillFired { iter: d.u64()? },
            1 => FdDetect { epoch: d.u64()?, failed: d.u32s()? },
            2 => FdAck { epoch: d.u64()? },
            3 => FailureSignal { epoch: d.u64()? },
            4 => GroupRebuilt { epoch: d.u64()? },
            5 => RestoreMiss {
                stage: match d.u8()? {
                    0 => MissStage::Vote,
                    1 => MissStage::Fetch,
                    t => return Err(CodecError::BadTag(t)),
                },
                reason: match d.u8()? {
                    0 => MissReason::NotFound,
                    1 => MissReason::Timeout,
                    2 => MissReason::ChecksumMismatch,
                    t => return Err(CodecError::BadTag(t)),
                },
            },
            6 => Restored { epoch: d.u64()?, iter: d.u64()? },
            7 => RedoComplete { epoch: d.u64()?, iter: d.u64()? },
            8 => Activated { app_rank: d.u32()? },
            9 => FdPromoted,
            10 => FdTakeover { dead_fd: d.u32()? },
            11 => LinkFault { peer: d.u32()?, broken: d.bool()? },
            12 => CapacityExhausted,
            13 => Finished { iter: d.u64()? },
            14 => Replayed { epoch: d.u64()?, from: d.u64()?, to: d.u64()? },
            t => return Err(CodecError::BadTag(t)),
        };
        Ok(Event { t, rank, kind })
    }
}

/// Shared job-wide log.
///
/// Clones share one underlying store, so every rank thread (and any
/// harness watcher) records into — and observes — the same stream:
///
/// ```
/// use ft_core::{EventKind, EventLog};
///
/// let log = EventLog::new();
/// let writer = log.clone(); // e.g. handed to a rank thread
/// writer.record(0, EventKind::FailureSignal { epoch: 1 });
/// writer.record(0, EventKind::Finished { iter: 100 });
///
/// let snapshot = log.snapshot(); // sorted by time
/// assert_eq!(snapshot.len(), 2);
/// let done = log
///     .first_where(|e| matches!(e.kind, EventKind::Finished { .. }))
///     .expect("recorded above");
/// assert_eq!(done.rank, 0);
/// ```
#[derive(Clone, Debug)]
pub struct EventLog {
    t0: Instant,
    entries: Arc<Mutex<Vec<Event>>>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EventLog {
    /// Fresh log; `t = 0` is now.
    pub fn new() -> Self {
        Self { t0: Instant::now(), entries: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Record an event for `rank` at the current time.
    pub fn record(&self, rank: Rank, kind: EventKind) {
        let t = self.t0.elapsed();
        self.entries.lock().push(Event { t, rank, kind });
    }

    /// Add an event recorded on another log, timestamp kept: the process
    /// backend's supervisor merges its children's logs this way (their
    /// clocks all start at the port map).
    pub fn push(&self, event: Event) {
        self.entries.lock().push(event);
    }

    /// Time since the log was created (the job clock).
    pub fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    /// Snapshot of all events, sorted by time.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut v = self.entries.lock().clone();
        v.sort_by_key(|e| e.t);
        v
    }

    /// First event matching `pred`, by time.
    pub fn first_where(&self, mut pred: impl FnMut(&Event) -> bool) -> Option<Event> {
        self.snapshot().into_iter().find(|e| pred(e))
    }

    /// All events matching `pred`, by time.
    pub fn all_where(&self, mut pred: impl FnMut(&Event) -> bool) -> Vec<Event> {
        self.snapshot().into_iter().filter(|e| pred(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let log = EventLog::new();
        log.record(3, EventKind::FdPromoted);
        log.record(1, EventKind::FailureSignal { epoch: 1 });
        log.record(3, EventKind::Finished { iter: 10 });
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].t <= w[1].t));
        let f = log.first_where(|e| matches!(e.kind, EventKind::FailureSignal { .. })).unwrap();
        assert_eq!(f.rank, 1);
        assert_eq!(
            log.all_where(|e| e.rank == 3).len(),
            2,
            "rank filter must find both rank-3 events"
        );
    }

    #[test]
    fn clones_share_entries() {
        let log = EventLog::new();
        let log2 = log.clone();
        log2.record(0, EventKind::FdPromoted);
        assert_eq!(log.snapshot().len(), 1);
    }
}
