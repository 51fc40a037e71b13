//! Communication queues: posted/completed accounting and failure records.
//!
//! One-sided requests are posted to a queue and complete asynchronously;
//! `gaspi_wait` blocks until everything posted *so far* on the queue has
//! completed, returning an error if any request completed with a broken
//! connection. Failed remotes are recorded so the caller (and the error
//! state vector) can identify them.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use ft_cluster::Rank;

/// Per-queue state.
#[derive(Default)]
pub(crate) struct Queue {
    posted: AtomicU64,
    completed: AtomicU64,
    failed: Mutex<Vec<Rank>>,
}

impl Queue {
    /// Account a new request; returns the post ticket (1-based count).
    pub fn post(&self) -> u64 {
        self.posted.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Account a successful completion.
    pub fn complete_ok(&self) {
        self.completed.fetch_add(1, Ordering::AcqRel);
    }

    /// Account a failed completion against `rank`.
    pub fn complete_failed(&self, rank: Rank) {
        self.failed.lock().push(rank);
        self.completed.fetch_add(1, Ordering::AcqRel);
    }

    /// Number of requests posted so far (the wait target).
    pub fn posted(&self) -> u64 {
        self.posted.load(Ordering::Acquire)
    }

    /// Whether everything up to `target` has completed.
    pub fn drained_to(&self, target: u64) -> bool {
        self.completed.load(Ordering::Acquire) >= target
    }

    /// Take and clear the failure records.
    pub fn take_failures(&self) -> Vec<Rank> {
        std::mem::take(&mut *self.failed.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_complete_drain() {
        let q = Queue::default();
        let t1 = q.post();
        let t2 = q.post();
        assert_eq!((t1, t2), (1, 2));
        assert!(!q.drained_to(2));
        q.complete_ok();
        assert!(q.drained_to(1));
        assert!(!q.drained_to(2));
        q.complete_ok();
        assert!(q.drained_to(2));
    }

    #[test]
    fn failures_recorded_and_cleared() {
        let q = Queue::default();
        q.post();
        q.post();
        q.complete_failed(3);
        q.complete_ok();
        assert!(q.drained_to(2));
        assert_eq!(q.take_failures(), vec![3]);
        assert!(q.take_failures().is_empty());
    }
}
