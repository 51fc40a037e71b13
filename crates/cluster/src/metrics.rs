//! Cheap atomic counters for the simulated cluster.

use std::sync::atomic::{AtomicU64, Ordering};

/// Transport- and runtime-level counters. All counters are monotonic and
/// relaxed; they exist for benchmarking and assertions, not for
/// synchronization.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Messages posted to the transport.
    pub msg_posted: AtomicU64,
    /// Payload bytes posted.
    pub bytes_posted: AtomicU64,
    /// Messages delivered to a live destination.
    pub msg_delivered: AtomicU64,
    /// Messages that completed with [`crate::Outcome::Broken`].
    pub msg_broken: AtomicU64,
    /// Messages dropped because the source died in flight.
    pub msg_dropped_dead_src: AtomicU64,
    /// Ping round trips initiated (maintained by the GASPI layer).
    pub pings: AtomicU64,
    /// Ping round trips that returned an error (maintained by the GASPI
    /// layer).
    pub ping_errors: AtomicU64,
    /// Fan-out batches posted through [`crate::Transport::call_fanout`]
    /// (each batch covers many destinations in one shard-lock pass).
    pub batch_posts: AtomicU64,
}

/// A point-in-time copy of [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// See [`Metrics::msg_posted`].
    pub msg_posted: u64,
    /// See [`Metrics::bytes_posted`].
    pub bytes_posted: u64,
    /// See [`Metrics::msg_delivered`].
    pub msg_delivered: u64,
    /// See [`Metrics::msg_broken`].
    pub msg_broken: u64,
    /// See [`Metrics::msg_dropped_dead_src`].
    pub msg_dropped_dead_src: u64,
    /// See [`Metrics::pings`].
    pub pings: u64,
    /// See [`Metrics::ping_errors`].
    pub ping_errors: u64,
    /// See [`Metrics::batch_posts`].
    pub batch_posts: u64,
}

impl Metrics {
    /// Take a relaxed snapshot of all counters.
    ///
    /// ```
    /// use std::sync::atomic::Ordering;
    /// use ft_cluster::Metrics;
    ///
    /// let m = Metrics::default();
    /// m.msg_posted.fetch_add(3, Ordering::Relaxed);
    /// assert_eq!(m.snapshot().msg_posted, 3);
    /// ```
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            msg_posted: self.msg_posted.load(Ordering::Relaxed),
            bytes_posted: self.bytes_posted.load(Ordering::Relaxed),
            msg_delivered: self.msg_delivered.load(Ordering::Relaxed),
            msg_broken: self.msg_broken.load(Ordering::Relaxed),
            msg_dropped_dead_src: self.msg_dropped_dead_src.load(Ordering::Relaxed),
            pings: self.pings.load(Ordering::Relaxed),
            ping_errors: self.ping_errors.load(Ordering::Relaxed),
            batch_posts: self.batch_posts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_point_in_time() {
        let m = Metrics::default();
        m.msg_posted.fetch_add(5, Ordering::Relaxed);
        m.bytes_posted.fetch_add(100, Ordering::Relaxed);
        let a = m.snapshot();
        m.msg_posted.fetch_add(2, Ordering::Relaxed);
        let b = m.snapshot();
        assert_eq!((a.msg_posted, b.msg_posted), (5, 7));
        assert_eq!(a.bytes_posted, b.bytes_posted);
    }
}
