//! Mergeable metrics: monotonic counters live in the
//! [`crate::MetricsRegistry`] of a [`crate::Telemetry`] handle; this module
//! provides the log-scale [`Histogram`] they aggregate alongside.

use serde::{Deserialize, Serialize};

/// Buckets per doubling of the observed value (~9% relative resolution).
const BUCKETS_PER_DOUBLING: f64 = 8.0;

/// Bucket index for non-positive or non-finite observations.
const UNDERFLOW: i32 = i32::MIN;

/// A log-scale histogram of non-negative observations.
///
/// Buckets are exponential: index `i` covers `[2^(i/8), 2^((i+1)/8))`, so
/// the bucket map stays tiny across many orders of magnitude (a µs-to-hours
/// latency range fits in ~250 buckets). Non-positive and non-finite values
/// land in a dedicated underflow bucket and do not contribute to `sum`.
///
/// Merging two histograms adds their bucket counts, which makes merge
/// associative and commutative on everything quantiles are computed from —
/// the property the per-thread aggregation relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Histogram {
    /// Sorted `(bucket index, count)` pairs.
    buckets: Vec<(i32, u64)>,
    /// Total observations, including underflow.
    count: u64,
    /// Sum of finite positive observations.
    sum: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(value: f64) -> i32 {
        if value > 0.0 && value.is_finite() {
            #[allow(clippy::cast_possible_truncation)] // clamped below i32 range
            let idx =
                (value.log2() * BUCKETS_PER_DOUBLING).floor().clamp(-16_384.0, 16_384.0) as i32;
            idx
        } else {
            UNDERFLOW
        }
    }

    /// Midpoint value represented by bucket `idx`.
    fn representative(idx: i32) -> f64 {
        if idx == UNDERFLOW {
            0.0
        } else {
            2f64.powf((f64::from(idx) + 0.5) / BUCKETS_PER_DOUBLING)
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = Self::bucket_of(value);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        self.count += 1;
        if idx != UNDERFLOW {
            self.sum += value;
        }
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite positive observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the recorded observations (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let n = self.count as f64;
            self.sum / n
        }
    }

    /// Approximate `q`-quantile: the representative value of the bucket
    /// where the cumulative count crosses `q · count`.
    ///
    /// `q` is clamped to `[0, 1]` (a NaN `q` clamps to 0), so callers
    /// computing quantile positions arithmetically cannot panic on a value
    /// that lands epsilon outside the range. An empty histogram returns 0.0
    /// for every `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let q = if q.is_nan() { 0.0 } else { q };
        if self.count == 0 {
            return 0.0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum += c;
            if cum >= target {
                return Self::representative(idx);
            }
        }
        Self::representative(self.buckets.last().map_or(UNDERFLOW, |&(i, _)| i))
    }

    /// Merges `other` into `self` by adding bucket counts.
    pub fn merge(&mut self, other: &Histogram) {
        for &(idx, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += c,
                Err(pos) => self.buckets.insert(pos, (idx, c)),
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The sorted `(bucket index, count)` pairs (for summarizers).
    #[must_use]
    pub fn buckets(&self) -> &[(i32, u64)] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(f64::from(i));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Log buckets are ~9% wide; allow generous brackets.
        assert!((400.0..700.0).contains(&p50), "p50 = {p50}");
        assert!((900.0..1200.0).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn non_positive_values_underflow() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=10 {
            a.observe(f64::from(i));
            b.observe(f64::from(i * 100));
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 20);
        assert!((m.sum() - (a.sum() + b.sum())).abs() < 1e-9);
        // Merged p25 comes from a's range, p75 from b's.
        assert!(m.quantile(0.25) <= 10.0 * 1.1);
        assert!(m.quantile(0.75) >= 100.0 * 0.9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.observe(f64::from(i));
        }
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
        assert_eq!(h.quantile(1.5), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
        // And clamping still returns data-bracketed values.
        assert!(h.quantile(1.5) >= h.quantile(-0.5));
        assert!(h.quantile(1.0) <= 100.0 * 1.1);
    }

    #[test]
    fn merge_of_disjoint_ranges_keeps_both_tails() {
        // a's values live around 1e-3, b's around 1e6: no shared buckets.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=50 {
            a.observe(1e-3 * f64::from(i) / 50.0);
            b.observe(1e6 * f64::from(i) / 50.0);
        }
        assert!(a.buckets().iter().all(|(i, _)| !b.buckets().iter().any(|(j, _)| i == j)));
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 100);
        assert!((m.sum() - (a.sum() + b.sum())).abs() < 1e-6);
        // Low quantiles come from a's range, high ones from b's, with the
        // bucket list still sorted so the cumulative walk is correct.
        assert!(m.buckets().windows(2).all(|w| w[0].0 < w[1].0));
        assert!(m.quantile(0.25) <= 1e-3 * 1.1);
        assert!(m.quantile(0.75) >= 1e4);
        // Merging into an empty histogram is the identity.
        let mut e = Histogram::new();
        e.merge(&b);
        assert_eq!(e.count(), b.count());
        assert_eq!(e.quantile(0.5), b.quantile(0.5));
    }
}
