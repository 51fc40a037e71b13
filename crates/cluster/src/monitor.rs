//! The one blocking primitive: a value behind a lock, and the condition
//! its waiters park on. A GASPI rank's wake-up [`Signal`], each
//! timing-wheel shard, the checkpoint writer's drain, the schedule timer
//! and the process supervisor's end-of-run set all wait on one. A wait
//! ends on a notify or its own deadline, never on a poll lap. The lock
//! does not poison: a simulated rank unwinds with [`crate::RankKilled`]
//! wherever it was, possibly holding one.

use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};

/// A value and the condition variable its waiters park on.
#[derive(Default)]
pub struct Monitor<T> {
    value: Mutex<T>,
    cv: Condvar,
}

impl<T> Monitor<T> {
    /// A monitor over `value`.
    pub const fn new(value: T) -> Self {
        Self { value: Mutex::new(value), cv: Condvar::new() }
    }

    /// Lock the value. Changing it through the guard wakes nobody: to wake
    /// the waiters, use [`Monitor::update`].
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.value.lock()
    }

    /// Change the value under the lock, then wake every waiter.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let r = f(&mut self.value.lock());
        self.cv.notify_all();
        r
    }

    /// Park on `guard` until a notify or `deadline` (`None`: no deadline).
    /// Returns whether the deadline has passed. The wake may be spurious,
    /// so the caller re-checks what it waits for.
    pub fn wait_until(&self, guard: &mut MutexGuard<'_, T>, deadline: Option<Instant>) -> bool {
        match deadline {
            Some(d) => self.cv.wait_until(guard, d).timed_out(),
            None => {
                self.cv.wait(guard);
                false
            }
        }
    }

    /// Park until `done` holds of the value or `deadline` passes; returns
    /// whether `done` holds.
    pub fn wait_for(&self, done: impl Fn(&T) -> bool, deadline: Option<Instant>) -> bool {
        let mut g = self.value.lock();
        while !done(&g) {
            if self.wait_until(&mut g, deadline) {
                return done(&g);
            }
        }
        true
    }
}

/// A wake-up signal: a generation count that [`Signal::bump`] advances,
/// waking every thread parked in [`Signal::wait_past`].
pub type Signal = Monitor<u64>;

impl Monitor<u64> {
    /// Advance the generation and wake every waiter.
    pub fn bump(&self) {
        self.update(|g| *g = g.wrapping_add(1));
    }

    /// Park until the generation moves past `seen` or `deadline` passes,
    /// then store the generation in `seen`. `seen` carries the last
    /// generation its caller observed, so a bump between the caller's
    /// check and this park ends the park at once.
    pub fn wait_past(&self, seen: &mut u64, deadline: Option<Instant>) {
        let mut g = self.value.lock();
        if *g == *seen {
            self.wait_until(&mut g, deadline);
        }
        *seen = *g;
    }

    /// The current generation, for initialising `seen`.
    pub fn generation(&self) -> u64 {
        *self.value.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn bump_wakes_waiter_and_a_missed_bump_returns_at_once() {
        let s = Arc::new(Signal::default());
        let (s2, mut seen) = (Arc::clone(&s), s.generation());
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            s2.bump();
        });
        let t0 = Instant::now();
        s.wait_past(&mut seen, None); // no deadline: only the bump ends it
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(seen, 1);
        h.join().unwrap();
        s.bump(); // happens "between" checks
        let t0 = Instant::now();
        s.wait_past(&mut seen, None);
        assert!(t0.elapsed() < Duration::from_millis(100), "stale generation returns at once");
    }

    #[test]
    fn deadline_bounds_wait() {
        let s = Signal::default();
        let (t0, mut seen) = (Instant::now(), s.generation());
        s.wait_past(&mut seen, Some(t0 + Duration::from_millis(5)));
        assert!(t0.elapsed() >= Duration::from_millis(4));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_for_ends_on_the_condition_or_the_deadline() {
        let m = Arc::new(Monitor::new(0u32));
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            for _ in 0..3 {
                std::thread::sleep(Duration::from_millis(5));
                m2.update(|v| *v += 1);
            }
        });
        assert!(m.wait_for(|v| *v == 3, None));
        h.join().unwrap();
        let t0 = Instant::now();
        assert!(!m.wait_for(|v| *v == 4, Some(t0 + Duration::from_millis(5))));
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }
}
