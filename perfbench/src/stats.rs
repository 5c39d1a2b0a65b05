//! The one percentile helper every reported timing goes through.
//!
//! Percentiles are exact-rank (nearest-rank): the q-quantile of n sorted
//! samples is the sample at 1-based rank ⌈q·n⌉, so every reported value
//! is one that was actually measured. A summary always carries its sample
//! count, and says whether its tail percentile has at least ten samples
//! beyond it.

/// A sorted sample of one timing (or any other per-operation quantity).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Sorts `samples`; NaNs are dropped (a NaN timing is a benchmark bug,
    /// and it must not poison the order).
    pub fn new(mut samples: Vec<f64>) -> Summary {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The exact-rank `q`-quantile (`0 < q <= 1`), or 0.0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// Median (lower median for an even count).
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Samples strictly above the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = (q.clamp(0.0, 1.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted.len().saturating_sub(rank)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.9)
    }

    /// `p50 … p90 … p99 … (n=…)`, scaled by `scale` and labelled with
    /// `unit`; a p99 with fewer than ten samples beyond it is marked thin.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let thin = if self.beyond(0.99) < 10 { " (thin tail)" } else { "" };
        format!(
            "p50 {:.3}{unit}  p90 {:.3}{unit}  p99 {:.3}{unit}{thin}  (n={})",
            self.p50() * scale,
            self.p90() * scale,
            self.p99() * scale,
            self.n()
        )
    }
}

/// Geometric mean of strictly positive values; `None` when `xs` is empty
/// or holds a non-positive value (a failed task has no meaningful GFLOPS).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = xs.len() as f64;
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / n).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_rank_percentiles_pick_measured_samples() {
        let s = Summary::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.n(), 100);
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0, "rank clamps to the first sample");
        assert_eq!(s.quantile(0.011), 2.0, "rank is the ceiling of q*n");
    }

    #[test]
    fn small_and_empty_samples() {
        assert_eq!(Summary::new(vec![]).p50(), 0.0);
        assert_eq!(Summary::new(vec![]).n(), 0);
        let one = Summary::new(vec![7.5]);
        assert_eq!((one.p50(), one.p99()), (7.5, 7.5));
        let two = Summary::new(vec![3.0, 1.0]);
        assert_eq!(two.p50(), 1.0, "lower median for an even count");
        assert_eq!(two.p99(), 3.0);
    }

    #[test]
    fn nan_samples_are_dropped() {
        let s = Summary::new(vec![2.0, f64::NAN, 1.0]);
        assert_eq!(s.n(), 2);
        assert_eq!(s.quantile(1.0), 2.0);
    }

    #[test]
    fn tail_support_counts_samples_beyond_the_rank() {
        let s = Summary::new((0..1000).map(f64::from).collect());
        assert_eq!(s.beyond(0.99), 10);
        assert!(!s.describe(1.0, "ms").contains("thin"));
        let s = Summary::new((0..999).map(f64::from).collect());
        assert_eq!(s.beyond(0.99), 9);
        assert!(s.describe(1.0, "ms").contains("thin"));
        assert!(s.describe(1.0, "ms").contains("n=999"));
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }
}
