//! Bootstrap bagging of GBT models.
//!
//! Section II-C / III-B of the paper: resample Γ sets of cardinality `|X|`
//! *with replacement* from the measured set, fit one evaluation function per
//! resample, and use the **sum** of the Γ functions as the acquisition
//! score. Bagging reduces the variance of the evaluation function, which is
//! what lets BAO pick configurations more reliably than a single model.

use crate::data::Matrix;
use crate::gbm::{Gbt, GbtParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Γ bootstrap-resampled GBT models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaggedGbt {
    models: Vec<Gbt>,
}

impl BaggedGbt {
    /// Fits `gamma` models, each on an independent bootstrap resample of
    /// `(x, y)` (cardinality preserved, drawn with replacement — Algorithm 3
    /// lines 1–5).
    ///
    /// # Panics
    ///
    /// Panics if `gamma == 0`, `x` is empty, or `y.len() != x.rows()`.
    #[must_use]
    pub fn fit(params: &GbtParams, x: &Matrix, y: &[f64], gamma: usize, seed: u64) -> Self {
        assert!(gamma > 0, "need at least one resample");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert_eq!(x.rows(), y.len(), "label count mismatch");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = x.rows();
        let models = (0..gamma)
            .map(|g| {
                let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let xg = x.select_rows(&indices);
                let yg: Vec<f64> = indices.iter().map(|&i| y[i]).collect();
                Gbt::fit(params, &xg, &yg, seed.wrapping_add(g as u64 + 1))
            })
            .collect();
        BaggedGbt { models }
    }

    /// The acquisition score of Algorithm 3 line 6: `Σ_γ f_γ(x)`.
    #[must_use]
    pub fn predict_sum_row(&self, row: &[f64]) -> f64 {
        self.models.iter().map(|m| m.predict_row(row)).sum()
    }

    /// Mean prediction across the bag (the bagged regression estimate).
    #[must_use]
    pub fn predict_mean_row(&self, row: &[f64]) -> f64 {
        self.predict_sum_row(row) / self.models.len() as f64
    }

    /// Disagreement (standard deviation) across the bag — an uncertainty
    /// signal usable for exploration-aware extensions.
    ///
    /// A single-model bag (or a bag fit on constant targets) has no
    /// disagreement: the result is exactly `0.0`, never `NaN`.
    #[must_use]
    pub fn predict_std_row(&self, row: &[f64]) -> f64 {
        let preds: Vec<f64> = self.models.iter().map(|m| m.predict_row(row)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / preds.len() as f64;
        // Guard against tiny negative variance from floating-point
        // cancellation; sqrt of that would be NaN.
        var.max(0.0).sqrt()
    }

    /// Batched acquisition score over every row of `x`: bit for bit
    /// [`Self::predict_sum_row`] of each row.
    #[must_use]
    pub fn predict_sum(&self, x: &Matrix) -> Vec<f64> {
        let mut sums = vec![crate::gbm::empty_sum(); x.rows()];
        for m in &self.models {
            for (s, p) in sums.iter_mut().zip(m.predict(x)) {
                *s += p;
            }
        }
        sums
    }

    /// Batched bagged mean over every row of `x`.
    ///
    /// One batch prediction per model — this is the prediction entry used
    /// by the introspection capture path, where a whole proposal batch is
    /// scored at once.
    #[must_use]
    pub fn predict_mean(&self, x: &Matrix) -> Vec<f64> {
        let mut sums = vec![0.0; x.rows()];
        for m in &self.models {
            for (s, p) in sums.iter_mut().zip(m.predict(x)) {
                *s += p;
            }
        }
        let inv = 1.0 / self.models.len() as f64;
        sums.iter().map(|s| s * inv).collect()
    }

    /// Batched bagged standard deviation over every row of `x`.
    ///
    /// Accumulates per-row sum and sum-of-squares across the bag, so the
    /// cost is one batch prediction per model — the same work
    /// [`Self::predict_mean`] does, not Γ× more.
    #[must_use]
    pub fn predict_std(&self, x: &Matrix) -> Vec<f64> {
        let n = self.models.len() as f64;
        let mut sums = vec![0.0; x.rows()];
        let mut sq_sums = vec![0.0; x.rows()];
        for m in &self.models {
            for ((s, s2), p) in sums.iter_mut().zip(&mut sq_sums).zip(m.predict(x)) {
                *s += p;
                *s2 += p * p;
            }
        }
        sums.iter()
            .zip(&sq_sums)
            .map(|(s, s2)| {
                let mean = s / n;
                (s2 / n - mean * mean).max(0.0).sqrt()
            })
            .collect()
    }

    /// Number of models (Γ).
    #[must_use]
    pub fn gamma(&self) -> usize {
        self.models.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> =
            (0..300).map(|i| vec![(i % 30) as f64, (i / 30) as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] - 0.5 * r[1]).collect();
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn bag_size_is_gamma() {
        let (x, y) = data();
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 4, 0);
        assert_eq!(b.gamma(), 4);
    }

    #[test]
    fn sum_is_gamma_times_mean() {
        let (x, y) = data();
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 3, 0);
        let row = [5.0, 2.0];
        assert!((b.predict_sum_row(&row) - 3.0 * b.predict_mean_row(&row)).abs() < 1e-9);
    }

    #[test]
    fn bagged_mean_is_accurate() {
        let (x, y) = data();
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 2, 0);
        let preds: Vec<f64> = (0..x.rows()).map(|i| b.predict_mean_row(x.row(i))).collect();
        assert!(r2(&y, &preds) > 0.95);
    }

    #[test]
    fn bag_members_disagree_somewhere() {
        let (x, y) = data();
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 4, 0);
        let any_disagreement = (0..x.rows()).any(|i| b.predict_std_row(x.row(i)) > 1e-6);
        assert!(any_disagreement, "resampled models should differ");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = data();
        let a = BaggedGbt::fit(&GbtParams::default(), &x, &y, 2, 7);
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 2, 7);
        assert_eq!(a.predict_sum_row(&[1.0, 1.0]), b.predict_sum_row(&[1.0, 1.0]));
    }

    #[test]
    fn single_bag_std_is_exactly_zero() {
        let (x, y) = data();
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 1, 0);
        assert_eq!(b.gamma(), 1);
        for i in 0..x.rows() {
            let s = b.predict_std_row(x.row(i));
            assert_eq!(s, 0.0, "single-model bag cannot disagree with itself");
        }
        assert!(b.predict_std(&x).iter().all(|&s| s == 0.0));
    }

    #[test]
    fn constant_targets_give_zero_std_not_nan() {
        let (x, _) = data();
        let y = vec![3.5; x.rows()];
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 4, 1);
        for i in 0..x.rows() {
            let s = b.predict_std_row(x.row(i));
            assert!(s.is_finite(), "std must never be NaN");
            assert!(s.abs() < 1e-9, "constant targets leave nothing to disagree on: {s}");
            assert!((b.predict_mean_row(x.row(i)) - 3.5).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_row_predicts_are_finite() {
        // Zero-feature training data: trees cannot split, so an empty row
        // is a legal input and must yield the base score, never a panic or
        // NaN.
        let rows: Vec<Vec<f64>> = vec![Vec::new(); 12];
        let y: Vec<f64> = (0..12).map(f64::from).collect();
        let x = Matrix::from_rows(&rows);
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 3, 3);
        let empty: [f64; 0] = [];
        assert!(b.predict_sum_row(&empty).is_finite());
        assert!(b.predict_mean_row(&empty).is_finite());
        let s = b.predict_std_row(&empty);
        assert!(s.is_finite() && s >= 0.0);
    }

    #[test]
    fn batched_predictions_match_row_by_row() {
        let (x, y) = data();
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 3, 5);
        let means = b.predict_mean(&x);
        let stds = b.predict_std(&x);
        for i in 0..x.rows() {
            assert!((means[i] - b.predict_mean_row(x.row(i))).abs() < 1e-9);
            assert!((stds[i] - b.predict_std_row(x.row(i))).abs() < 1e-9);
        }
    }

    #[test]
    fn batched_predict_on_empty_matrix_is_empty() {
        let (x, y) = data();
        let b = BaggedGbt::fit(&GbtParams::default(), &x, &y, 2, 0);
        let none: Vec<Vec<f64>> = Vec::new();
        let m = Matrix::from_rows(&none);
        assert!(b.predict_mean(&m).is_empty());
        assert!(b.predict_std(&m).is_empty());
    }
}
