//! Order statistics: medians, quartiles and the tail percentile rule.
//!
//! Percentiles use the nearest-rank definition (the `ceil(p·n)`-th smallest
//! sample), so "samples beyond the percentile" is an exact count.

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a single sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.median).abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values order totally"));
    v
}

/// The median: middle sample, or the mean of the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile of already sorted samples, `p` in `(0, 1]`.
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Summarize samples; quartiles are nearest-rank p25 / p75.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    if v.is_empty() {
        return Summary {
            median: f64::NAN,
            q1: f64::NAN,
            q3: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
            n: 0,
        };
    }
    Summary {
        median: median_sorted(&v),
        q1: percentile_sorted(&v, 0.25),
        q3: percentile_sorted(&v, 0.75),
        min: v[0],
        max: v[v.len() - 1],
        n: v.len(),
    }
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest candidate percentile that still has at least ten samples
/// beyond it among `n` samples; `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| {
        let rank = (p * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// The tail of `values`: `(percentile, value)` by [`tail_percentile`], or
/// `(1.0, max)` when there are too few samples for any candidate.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    if v.is_empty() {
        return (1.0, f64::NAN);
    }
    match tail_percentile(v.len()) {
        Some(p) => (p, percentile_sorted(&v, p)),
        None => (1.0, v[v.len() - 1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_ignores_non_finite_samples() {
        assert_eq!(median(&[1.0, f64::NAN, 3.0, f64::INFINITY, 2.0]), 2.0);
    }

    #[test]
    fn summary_quartiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.5, 6.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 8.0, 8));
        assert!((s.spread() - 4.0 / 4.5).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // n = 1000: p99 is rank 990, leaving exactly 10 beyond; p99.9 leaves 1.
        assert_eq!(tail_percentile(1000), Some(0.99));
        // One sample fewer and p99 (rank 990 of 999) leaves only 9.
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn tail_value_is_the_nearest_rank_sample() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 990.0));
        let few = [5.0, 9.0, 1.0];
        assert_eq!(tail(&few), (1.0, 9.0));
    }
}
