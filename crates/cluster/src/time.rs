//! Latency model.
//!
//! The simulated network runs at microsecond scale where the paper's
//! InfiniBand + GPI-2 stack runs at millisecond scale (a `gaspi_proc_ping`
//! costs ≈1 ms there, §VI Table I). All mechanisms are latency-*driven*,
//! not latency-*dependent*: shrinking every constant by the same factor
//! preserves the shape of every measured curve.

use std::time::Duration;

/// Latency/bandwidth model for the simulated interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-message cost (wire + runtime overhead), one way.
    pub base: Duration,
    /// Transfer cost per byte in nanoseconds (inverse bandwidth), one way.
    /// `0.5` ≈ 2 GB/s.
    pub per_byte_ns: f64,
    /// Relative jitter: each latency is multiplied by a factor drawn
    /// uniformly from `[1 - jitter, 1 + jitter]`. Zero disables jitter and
    /// makes message timing fully deterministic.
    pub jitter: f64,
    /// How long the transport takes to report a message to a dead rank or
    /// across a broken link as [`crate::Outcome::Broken`]. Models the
    /// RDMA-connection-break detection the paper's ping relies on.
    pub break_detect: Duration,
}

impl LatencyModel {
    /// Default model: 20 µs base latency, ~2 GB/s bandwidth, 5 % jitter,
    /// 200 µs break detection. Roughly 1/50 of the paper's timescale.
    ///
    /// On Linux the in-memory transport's shard threads run with a timer
    /// slack of `base / 2`, so an idle delivery lands at most ≈ 10 µs
    /// (plus the wake-up itself) after its modelled due time, not the
    /// kernel's default 50 µs.
    pub fn default_sim() -> Self {
        Self {
            base: Duration::from_micros(20),
            per_byte_ns: 0.5,
            jitter: 0.05,
            break_detect: Duration::from_micros(200),
        }
    }

    /// A fully deterministic model for unit tests: fixed latencies, no
    /// jitter, fast break detection.
    pub fn deterministic_fast() -> Self {
        Self {
            base: Duration::from_micros(5),
            per_byte_ns: 0.0,
            jitter: 0.0,
            break_detect: Duration::from_micros(50),
        }
    }

    /// One-way latency for a message of `bytes` payload bytes, before
    /// jitter.
    pub fn latency(&self, bytes: usize) -> Duration {
        self.base + Duration::from_nanos((self.per_byte_ns * bytes as f64) as u64)
    }

    /// Latency with jitter applied; `u` must be uniform in `[0, 1)`.
    pub fn latency_jittered(&self, bytes: usize, u: f64) -> Duration {
        let l = self.latency(bytes);
        if self.jitter == 0.0 {
            return l;
        }
        let factor = 1.0 + self.jitter * (2.0 * u - 1.0);
        l.mul_f64(factor.max(0.0))
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::default_sim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_affine_in_bytes() {
        let m = LatencyModel {
            base: Duration::from_micros(10),
            per_byte_ns: 2.0,
            jitter: 0.0,
            break_detect: Duration::from_micros(100),
        };
        assert_eq!(m.latency(0), Duration::from_micros(10));
        assert_eq!(m.latency(1000), Duration::from_micros(12));
    }

    #[test]
    fn jitter_bounds() {
        let m = LatencyModel { jitter: 0.1, ..LatencyModel::deterministic_fast() };
        let lo = m.latency_jittered(0, 0.0);
        let hi = m.latency_jittered(0, 0.9999);
        let nominal = m.latency(0);
        assert!(lo < nominal && hi > nominal);
        assert!(lo >= nominal.mul_f64(0.9));
        assert!(hi <= nominal.mul_f64(1.1));
    }

    #[test]
    fn zero_jitter_is_exact() {
        let m = LatencyModel::deterministic_fast();
        assert_eq!(m.latency_jittered(64, 0.77), m.latency(64));
    }
}
