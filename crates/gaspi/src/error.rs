//! Error and timeout types mirroring GASPI return semantics.

use std::fmt;
use std::time::{Duration, Instant};

use ft_cluster::Rank;

/// Result alias used throughout the GASPI layer.
pub type GaspiResult<T> = Result<T, GaspiError>;

/// The GASPI error space, restricted to what this runtime can produce.
///
/// `GASPI_SUCCESS` is `Ok(..)`; `GASPI_TIMEOUT` is [`GaspiError::Timeout`];
/// everything else maps onto `GASPI_ERROR` with a reason attached (real
/// GASPI returns a bare error code and leaves diagnosis to the state
/// vector — we keep the state vector *and* carry the reason for
/// ergonomics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GaspiError {
    /// The operation did not complete within the caller's timeout
    /// (`GASPI_TIMEOUT`). Not necessarily an error — the paper's workers
    /// loop on timeouts until the fault detector acknowledges a failure.
    Timeout,
    /// One or more requests on a queue completed with a broken connection;
    /// the affected remote ranks are recorded (and marked CORRUPT in the
    /// state vector).
    QueueFailure {
        /// Queue the failed requests were posted to.
        queue: u16,
        /// Remote ranks whose requests failed.
        ranks: Vec<Rank>,
    },
    /// A point-to-point service operation (ping, passive send)
    /// found the remote broken (`GASPI_ERROR` from `gaspi_proc_ping`).
    RemoteBroken {
        /// The unreachable rank.
        rank: Rank,
    },
    /// Local segment misuse: missing id, overlapping create, or an
    /// out-of-bounds offset/length.
    Segment {
        /// Description of the misuse.
        what: &'static str,
    },
    /// Group misuse (unknown group, uncommitted group in a collective,
    /// member set mismatch).
    Group {
        /// Description of the misuse.
        what: &'static str,
    },
    /// Invalid argument (zero notification value, oversized allreduce...).
    InvalidArg(&'static str),
    /// The world is shutting down; outstanding operations were cancelled.
    Shutdown,
}

impl fmt::Display for GaspiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GaspiError::Timeout => write!(f, "GASPI_TIMEOUT"),
            GaspiError::QueueFailure { queue, ranks } => {
                write!(f, "GASPI_ERROR: queue {queue} requests to ranks {ranks:?} broken")
            }
            GaspiError::RemoteBroken { rank } => {
                write!(f, "GASPI_ERROR: remote rank {rank} unreachable")
            }
            GaspiError::Segment { what } => write!(f, "GASPI_ERROR: segment: {what}"),
            GaspiError::Group { what } => write!(f, "GASPI_ERROR: group: {what}"),
            GaspiError::InvalidArg(what) => write!(f, "GASPI_ERROR: invalid argument: {what}"),
            GaspiError::Shutdown => write!(f, "GASPI_ERROR: world shut down"),
        }
    }
}

impl std::error::Error for GaspiError {}

/// Timeout argument accepted by every potentially blocking procedure,
/// mirroring `GASPI_BLOCK` / `GASPI_TEST` / milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeout {
    /// Block until completion (`GASPI_BLOCK`). Operations can still fail
    /// fast when the transport reports a broken connection.
    Block,
    /// Check once and return immediately (`GASPI_TEST`).
    Test,
    /// Give up after this many milliseconds.
    Ms(u64),
}

impl Timeout {
    /// Deadline for a poll loop starting at `now`; `None` means block
    /// forever.
    pub fn deadline_from(self, now: Instant) -> Option<Instant> {
        match self {
            Timeout::Block => None,
            Timeout::Test => Some(now),
            Timeout::Ms(ms) => Some(now + Duration::from_millis(ms)),
        }
    }

    /// Convenience: deadline from `Instant::now()`.
    pub fn deadline(self) -> Option<Instant> {
        self.deadline_from(Instant::now())
    }
}

impl From<Duration> for Timeout {
    fn from(d: Duration) -> Self {
        Timeout::Ms(d.as_millis().min(u128::from(u64::MAX)) as u64)
    }
}

/// Health state of a remote process as recorded in the error state vector
/// (`GASPI_STATE_HEALTHY` / `GASPI_STATE_CORRUPT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// No erroneous operation involving this rank has been observed.
    Healthy,
    /// Some non-local operation involving this rank failed.
    Corrupt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_deadlines() {
        let t0 = Instant::now();
        assert_eq!(Timeout::Block.deadline_from(t0), None);
        assert_eq!(Timeout::Test.deadline_from(t0), Some(t0));
        assert_eq!(Timeout::Ms(5).deadline_from(t0), Some(t0 + Duration::from_millis(5)));
    }

    #[test]
    fn duration_conversion() {
        let t: Timeout = Duration::from_millis(250).into();
        assert_eq!(t, Timeout::Ms(250));
    }

    #[test]
    fn display_formats() {
        let e = GaspiError::QueueFailure { queue: 2, ranks: vec![4, 7] };
        let s = e.to_string();
        assert!(s.contains("queue 2") && s.contains('4') && s.contains('7'));
        assert_eq!(GaspiError::Timeout.to_string(), "GASPI_TIMEOUT");
    }
}
