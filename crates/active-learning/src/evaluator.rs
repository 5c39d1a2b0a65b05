//! The evaluation function abstraction.
//!
//! Section IV: "our framework is independent of the specific forms of
//! evaluation functions". Everything downstream (BS, BAO, the AutoTVM loop)
//! talks to this trait; the paper's XGBoost regression is
//! [`GbtEvaluator`], and [`RidgeEvaluator`] demonstrates swapping in a
//! completely different model family.

use gbt::{Gbt, GbtParams, Matrix};

/// A regression model mapping configuration features to performance.
pub trait Evaluator {
    /// Fits the model to `(x, y)`; `seed` controls any internal randomness.
    fn fit(&mut self, x: &Matrix, y: &[f64], seed: u64);

    /// Predicts the performance of one feature row.
    ///
    /// Must return a finite value once `fit` has been called.
    fn predict_row(&self, row: &[f64]) -> f64;

    /// Predicts a batch (default: row-by-row).
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|i| self.predict_row(x.row(i))).collect()
    }
}

/// Gradient-boosted trees (the paper's XGBoost evaluation function).
#[derive(Debug, Clone, Default)]
pub struct GbtEvaluator {
    params: GbtParams,
    model: Option<Gbt>,
}

impl GbtEvaluator {
    /// Creates an unfitted evaluator with the given boosting parameters.
    #[must_use]
    pub fn new(params: GbtParams) -> Self {
        GbtEvaluator { params, model: None }
    }
}

impl Evaluator for GbtEvaluator {
    fn fit(&mut self, x: &Matrix, y: &[f64], seed: u64) {
        let tel = telemetry::global();
        let _span = tel.span("gbt.fit");
        // aal-lint: allow(wall-clock, reason = "measures evaluation wall-time for reporting; never feeds tuning decisions")
        let t0 = std::time::Instant::now();
        self.model = Some(Gbt::fit(&self.params, x, y, seed));
        tel.observe("gbt.fit_ms", t0.elapsed().as_secs_f64() * 1e3);
        tel.observe("gbt.fit_rows", x.rows() as f64);
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.model.as_ref().map_or(0.0, |m| m.predict_row(row))
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let tel = telemetry::global();
        let _span = tel.span("gbt.predict");
        self.model.as_ref().map_or_else(|| vec![0.0; x.rows()], |m| m.predict(x))
    }
}

/// Closed-form ridge regression on the raw features plus a bias term.
///
/// A deliberately simple alternative evaluation function proving the
/// framework's model-agnosticism (and a useful speed baseline).
#[derive(Debug, Clone)]
pub struct RidgeEvaluator {
    /// L2 penalty.
    pub alpha: f64,
    weights: Vec<f64>,
}

impl RidgeEvaluator {
    /// Creates an unfitted ridge evaluator with penalty `alpha`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        RidgeEvaluator { alpha, weights: Vec::new() }
    }
}

impl Default for RidgeEvaluator {
    fn default() -> Self {
        RidgeEvaluator::new(1.0)
    }
}

impl Evaluator for RidgeEvaluator {
    fn fit(&mut self, x: &Matrix, y: &[f64], _seed: u64) {
        // Solve (AᵀA + αI) w = Aᵀy with A = [x | 1] by Gaussian elimination.
        let n = x.rows();
        let d = x.cols() + 1;
        let mut ata = vec![vec![0.0; d]; d];
        let mut aty = vec![0.0; d];
        let aug = |row: &[f64], j: usize| if j < row.len() { row[j] } else { 1.0 };
        for (i, &yi) in y.iter().enumerate().take(n) {
            let row = x.row(i);
            for a in 0..d {
                let va = aug(row, a);
                aty[a] += va * yi;
                for (b, entry) in ata[a].iter_mut().enumerate() {
                    *entry += va * aug(row, b);
                }
            }
        }
        for (a, row) in ata.iter_mut().enumerate() {
            row[a] += self.alpha;
        }
        // Gaussian elimination with partial pivoting.
        #[allow(clippy::needless_range_loop)] // row echelon needs index math
        for col in 0..d {
            let pivot = (col..d)
                .max_by(|&a, &b| ata[a][col].abs().total_cmp(&ata[b][col].abs()))
                // aal-lint: allow(unwrap, reason = "the evaluation grid is non-empty by construction")
                .expect("non-empty range");
            ata.swap(col, pivot);
            aty.swap(col, pivot);
            let p = ata[col][col];
            if p.abs() < 1e-12 {
                continue;
            }
            for r in 0..d {
                if r == col {
                    continue;
                }
                let f = ata[r][col] / p;
                for c in col..d {
                    ata[r][c] -= f * ata[col][c];
                }
                aty[r] -= f * aty[col];
            }
        }
        self.weights = (0..d)
            .map(|i| if ata[i][i].abs() < 1e-12 { 0.0 } else { aty[i] / ata[i][i] })
            .collect();
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if self.weights.is_empty() {
            return 0.0;
        }
        let bias = self.weights[self.weights.len() - 1];
        row.iter().zip(&self.weights).map(|(x, w)| x * w).sum::<f64>() + bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> =
            (0..100).map(|i| vec![(i % 10) as f64, (i / 10) as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[1] + 5.0).collect();
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn ridge_recovers_linear_function() {
        let (x, y) = linear_data();
        let mut e = RidgeEvaluator::new(1e-6);
        e.fit(&x, &y, 0);
        assert!((e.predict_row(&[3.0, 4.0]) - (6.0 - 4.0 + 5.0)).abs() < 0.05);
    }

    #[test]
    fn gbt_evaluator_learns() {
        let (x, y) = linear_data();
        let mut e = GbtEvaluator::default();
        e.fit(&x, &y, 0);
        let preds = e.predict(&x);
        assert!(gbt::metrics::r2(&y, &preds) > 0.95);
    }

    #[test]
    fn unfitted_evaluators_return_zero() {
        assert_eq!(GbtEvaluator::default().predict_row(&[1.0]), 0.0);
        assert_eq!(RidgeEvaluator::default().predict_row(&[1.0]), 0.0);
    }

    #[test]
    fn trait_objects_work() {
        let (x, y) = linear_data();
        let mut models: Vec<Box<dyn Evaluator>> =
            vec![Box::new(GbtEvaluator::default()), Box::new(RidgeEvaluator::default())];
        for m in &mut models {
            m.fit(&x, &y, 1);
            assert!(m.predict_row(x.row(0)).is_finite());
        }
    }
}
