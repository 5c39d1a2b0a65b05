//! Bootstrap statistics for cross-run comparison.
//!
//! Tuning outcomes are noisy: two runs of the *same* configuration with
//! different seeds land on different GFLOPS, so a raw mean delta between two
//! runs says nothing by itself. The tool of choice (standard in the
//! AutoTVM/Tenset tuning-benchmark line) is the bootstrap: resample the
//! recorded trial outcomes with replacement, recompute the delta each time,
//! and read a confidence interval off the resampled distribution. A delta
//! whose interval straddles zero is seed noise, not a regression.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A bootstrap percentile confidence interval for a mean delta
/// (`candidate − base`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BootstrapCi {
    /// Point estimate: mean of candidate minus mean of base.
    pub delta: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level of `[lo, hi]` (e.g. 0.95).
    pub confidence: f64,
    /// Resamples drawn.
    pub resamples: usize,
    /// Whether the paired estimator was used (equal-length inputs).
    pub paired: bool,
}

impl BootstrapCi {
    /// True when the interval excludes zero — the delta is distinguishable
    /// from resampling noise at this confidence level.
    #[must_use]
    pub fn excludes_zero(&self) -> bool {
        self.lo > 0.0 || self.hi < 0.0
    }
}

/// Arithmetic mean; 0.0 for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = xs.len() as f64;
    xs.iter().sum::<f64>() / n
}

/// Population variance; 0.0 for fewer than two samples.
#[must_use]
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    #[allow(clippy::cast_precision_loss)]
    let n = xs.len() as f64;
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n
}

/// Bootstrap CI for the difference in means between `base` and `cand`.
///
/// Equal-length inputs use the **paired** estimator: trial *i* of one run is
/// matched with trial *i* of the other (fixed seeds walk the two runs
/// through the same measurement schedule, so pairing cancels the shared
/// per-position variance) and index tuples are resampled jointly from the
/// per-pair differences. Unequal lengths fall back to the two-sample
/// estimator, resampling each side independently.
///
/// `alpha` is the significance level (0.05 → a 95% interval); it is clamped
/// to `(0, 1)`. The RNG is seeded from `seed`, so a comparison is exactly
/// reproducible. Empty inputs yield a degenerate all-zero interval.
#[must_use]
pub fn bootstrap_mean_delta_ci(
    base: &[f64],
    cand: &[f64],
    resamples: usize,
    alpha: f64,
    seed: u64,
) -> BootstrapCi {
    let alpha = alpha.clamp(1e-6, 1.0 - 1e-6);
    let confidence = 1.0 - alpha;
    let paired = !base.is_empty() && base.len() == cand.len();
    let delta = mean(cand) - mean(base);
    if base.is_empty() || cand.is_empty() || resamples == 0 {
        return BootstrapCi { delta, lo: delta, hi: delta, confidence, resamples: 0, paired };
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut means = Vec::with_capacity(resamples);
    if paired {
        let diffs: Vec<f64> = base.iter().zip(cand).map(|(b, c)| c - b).collect();
        for _ in 0..resamples {
            let mut sum = 0.0;
            for _ in 0..diffs.len() {
                sum += diffs[rng.gen_range(0..diffs.len())];
            }
            #[allow(clippy::cast_precision_loss)]
            let n = diffs.len() as f64;
            means.push(sum / n);
        }
    } else {
        for _ in 0..resamples {
            let mut bsum = 0.0;
            for _ in 0..base.len() {
                bsum += base[rng.gen_range(0..base.len())];
            }
            let mut csum = 0.0;
            for _ in 0..cand.len() {
                csum += cand[rng.gen_range(0..cand.len())];
            }
            #[allow(clippy::cast_precision_loss)]
            let (bn, cn) = (base.len() as f64, cand.len() as f64);
            means.push(csum / cn - bsum / bn);
        }
    }
    means.sort_by(f64::total_cmp);
    let lo = percentile(&means, alpha / 2.0);
    let hi = percentile(&means, 1.0 - alpha / 2.0);
    BootstrapCi { delta, lo, hi, confidence, resamples, paired }
}

/// Value at quantile `q` of an ascending-sorted slice (nearest-rank);
/// the type's default (zero) for an empty slice.
#[must_use]
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ci_centers_on_the_empirical_delta() {
        let base = seq(50, |i| 100.0 + (i % 7) as f64);
        let cand = seq(50, |i| 110.0 + (i % 7) as f64);
        let ci = bootstrap_mean_delta_ci(&base, &cand, 2000, 0.05, 7);
        assert!(ci.paired);
        assert!((ci.delta - 10.0).abs() < 1e-9);
        assert!(ci.lo <= ci.delta && ci.delta <= ci.hi);
        assert!(ci.excludes_zero());
    }

    #[test]
    fn identical_runs_do_not_exclude_zero() {
        let xs = seq(40, |i| 50.0 + ((i * 13) % 11) as f64);
        let ci = bootstrap_mean_delta_ci(&xs, &xs, 1000, 0.05, 3);
        assert_eq!(ci.delta, 0.0);
        assert!(!ci.excludes_zero());
    }

    #[test]
    fn unequal_lengths_use_two_sample_estimator() {
        let base = seq(30, |i| 10.0 + (i % 5) as f64);
        let cand = seq(45, |i| 30.0 + (i % 5) as f64);
        let ci = bootstrap_mean_delta_ci(&base, &cand, 1500, 0.05, 11);
        assert!(!ci.paired);
        assert!(ci.lo > 0.0, "a 20-GFLOPS gap must dominate resampling noise: {ci:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let base = seq(20, |i| i as f64);
        let cand = seq(20, |i| i as f64 * 1.1);
        let a = bootstrap_mean_delta_ci(&base, &cand, 500, 0.05, 42);
        let b = bootstrap_mean_delta_ci(&base, &cand, 500, 0.05, 42);
        assert_eq!(a, b);
        let c = bootstrap_mean_delta_ci(&base, &cand, 500, 0.05, 43);
        assert!(a.lo != c.lo || a.hi != c.hi, "different seeds should differ");
    }

    #[test]
    fn empty_inputs_are_degenerate() {
        let ci = bootstrap_mean_delta_ci(&[], &[1.0], 100, 0.05, 0);
        assert_eq!(ci.resamples, 0);
        assert_eq!(ci.delta, ci.lo);
        assert_eq!(ci.delta, ci.hi);
    }

    #[test]
    fn wider_confidence_gives_wider_interval() {
        let base = seq(25, |i| ((i * 7) % 13) as f64);
        let cand = seq(25, |i| 2.0 + ((i * 5) % 13) as f64);
        let narrow = bootstrap_mean_delta_ci(&base, &cand, 2000, 0.2, 5);
        let wide = bootstrap_mean_delta_ci(&base, &cand, 2000, 0.01, 5);
        assert!(wide.hi - wide.lo >= narrow.hi - narrow.lo);
    }
}
