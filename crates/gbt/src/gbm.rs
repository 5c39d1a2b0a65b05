//! Gradient boosting over regression trees.

use crate::data::Matrix;
use crate::tree::{FeatureOrder, RegressionTree, TreeParams, Workspace, BLOCK};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Boosting hyper-parameters. Defaults follow AutoTVM's XGBoost cost-model
/// settings (shallow trees, moderate shrinkage).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbtParams {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Learning rate (shrinkage).
    pub eta: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Minimum split gain.
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
    /// Row subsampling fraction per round, in `(0, 1]`.
    pub subsample: f64,
    /// Column subsampling fraction per round, in `(0, 1]`.
    pub colsample: f64,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_rounds: 60,
            eta: 0.25,
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample: 1.0,
        }
    }
}

impl GbtParams {
    fn tree_params(&self) -> TreeParams {
        TreeParams {
            max_depth: self.max_depth,
            lambda: self.lambda,
            gamma: self.gamma,
            min_child_weight: self.min_child_weight,
        }
    }
}

/// A fitted gradient-boosted model for squared-error regression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbt {
    pub(crate) base_score: f64,
    pub(crate) eta: f64,
    pub(crate) trees: Vec<RegressionTree>,
    num_features: usize,
}

impl Gbt {
    /// Fits a model to `(x, y)` with the given seed for subsampling.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `y.len() != x.rows()`.
    #[must_use]
    pub fn fit(params: &GbtParams, x: &Matrix, y: &[f64], seed: u64) -> Self {
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert_eq!(x.rows(), y.len(), "label count mismatch");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = x.rows();
        let d = x.cols();
        let base_score = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base_score; n];
        let mut trees = Vec::with_capacity(params.n_rounds);
        let tree_params = params.tree_params();
        let all_cols: Vec<usize> = (0..d).collect();
        // One pre-sort of every feature column serves all boosting rounds.
        let order = FeatureOrder::new(x);
        let mut ws = Workspace::default();

        for _ in 0..params.n_rounds {
            // Squared loss: grad = pred - y, hess = 1 (only on sampled rows;
            // off-sample rows get zero weight so the arena code stays simple).
            let mut grad = vec![0.0; n];
            let mut hess = vec![0.0; n];
            for i in 0..n {
                if params.subsample >= 1.0 || rng.gen::<f64>() < params.subsample {
                    grad[i] = pred[i] - y[i];
                    hess[i] = 1.0;
                }
            }
            let columns: Vec<usize> = if params.colsample >= 1.0 {
                all_cols.clone()
            } else {
                // `d.max(1)`: zero-feature data searches no columns.
                let k = ((d as f64 * params.colsample).ceil() as usize).clamp(1, d.max(1));
                let mut cols = all_cols.clone();
                cols.shuffle(&mut rng);
                cols.truncate(k);
                cols
            };
            let tree =
                RegressionTree::fit_rows(&tree_params, &grad, &hess, &columns, &order, &mut ws);
            // Each row's leaf is the one the fit routed it to, so its
            // weight equals `tree.predict_row(x.row(i))` bit for bit.
            for (p, w) in pred.iter_mut().zip(&ws.row_weight) {
                *p += params.eta * w;
            }
            trees.push(tree);
        }
        Gbt { base_score, eta: params.eta, trees, num_features: d }
    }

    /// Predicts one feature row.
    #[must_use]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.base_score + self.eta * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Predicts every row of `x`, bit for bit as [`Gbt::predict_row`]
    /// does: tree by tree over blocks of rows, each row adding the same
    /// leaf weights in the same tree order from the same starting value.
    #[must_use]
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.rows());
        let mut rows: [&[f64]; BLOCK] = [&[]; BLOCK];
        for first in (0..x.rows()).step_by(BLOCK) {
            let n = BLOCK.min(x.rows() - first);
            for (k, row) in rows[..n].iter_mut().enumerate() {
                *row = x.row(first + k);
            }
            let mut acc = [empty_sum(); BLOCK];
            for t in &self.trees {
                t.add_leaf_weights(&rows[..n], &mut acc[..n]);
            }
            out.extend(acc[..n].iter().map(|s| self.base_score + self.eta * s));
        }
        out
    }

    /// Number of trees in the ensemble.
    #[must_use]
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Split-count feature importance (length = feature count).
    #[must_use]
    pub fn feature_importance(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_features];
        for t in &self.trees {
            t.add_split_counts(&mut counts);
        }
        counts
    }
}

/// The value `Iterator::sum` over `f64` starts from (currently `-0.0`,
/// the additive identity for every sign of zero). A batch accumulator
/// starts from it to match a per-row sum bit for bit.
pub(crate) fn empty_sum() -> f64 {
    std::iter::empty::<f64>().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};

    fn grid_xy(f: impl Fn(f64, f64) -> f64) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> =
            (0..400).map(|i| vec![(i % 20) as f64, (i / 20) as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| f(r[0], r[1])).collect();
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn fits_additive_function() {
        let (x, y) = grid_xy(|a, b| 3.0 * a - b);
        let m = Gbt::fit(&GbtParams::default(), &x, &y, 0);
        let pred = m.predict(&x);
        assert!(r2(&y, &pred) > 0.98, "r2 = {}", r2(&y, &pred));
    }

    #[test]
    fn fits_interaction() {
        let (x, y) = grid_xy(|a, b| if a > 10.0 && b > 10.0 { 50.0 } else { 0.0 });
        let m = Gbt::fit(&GbtParams::default(), &x, &y, 0);
        assert!(m.predict_row(&[15.0, 15.0]) > 30.0);
        assert!(m.predict_row(&[2.0, 15.0]) < 15.0);
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let (x, y) = grid_xy(|a, b| (a * 0.7).sin() * 10.0 + b);
        let short = Gbt::fit(&GbtParams { n_rounds: 5, ..GbtParams::default() }, &x, &y, 0);
        let long = Gbt::fit(&GbtParams { n_rounds: 80, ..GbtParams::default() }, &x, &y, 0);
        assert!(rmse(&y, &long.predict(&x)) < rmse(&y, &short.predict(&x)));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = grid_xy(|a, b| a + b);
        let p = GbtParams { subsample: 0.7, colsample: 0.5, ..GbtParams::default() };
        let a = Gbt::fit(&p, &x, &y, 9);
        let b = Gbt::fit(&p, &x, &y, 9);
        assert_eq!(a.predict_row(&[3.0, 4.0]), b.predict_row(&[3.0, 4.0]));
    }

    #[test]
    fn subsampling_changes_the_model() {
        let (x, y) = grid_xy(|a, b| a * b);
        let p = GbtParams { subsample: 0.5, ..GbtParams::default() };
        let a = Gbt::fit(&p, &x, &y, 1);
        let b = Gbt::fit(&p, &x, &y, 2);
        assert_ne!(a.predict_row(&[7.0, 7.0]), b.predict_row(&[7.0, 7.0]));
    }

    #[test]
    fn importance_finds_informative_feature() {
        let rows: Vec<Vec<f64>> =
            (0..300).map(|i| vec![(i % 17) as f64, ((i * 7) % 5) as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let x = Matrix::from_rows(&rows);
        let m = Gbt::fit(&GbtParams::default(), &x, &ys, 0);
        let imp = m.feature_importance();
        assert!(imp[0] > imp[1]);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let (x, _) = grid_xy(|_, _| 0.0);
        let y = vec![7.5; x.rows()];
        let m = Gbt::fit(&GbtParams::default(), &x, &y, 0);
        assert!((m.predict_row(&[1.0, 1.0]) - 7.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod oracle {
    use super::*;
    use crate::bagging::BaggedGbt;
    use crate::tree::reference::{self, strategy};
    use proptest::prelude::*;

    /// The reference boosting loop: every tree fit by the reference split
    /// search, residuals updated by re-predicting each training row. It
    /// consumes the RNG exactly as `Gbt::fit` does.
    fn reference_fit(params: &GbtParams, x: &Matrix, y: &[f64], seed: u64) -> Gbt {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, d) = (x.rows(), x.cols());
        let base_score = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base_score; n];
        let mut trees = Vec::new();
        let all_cols: Vec<usize> = (0..d).collect();
        for _ in 0..params.n_rounds {
            let mut grad = vec![0.0; n];
            let mut hess = vec![0.0; n];
            for i in 0..n {
                if params.subsample >= 1.0 || rng.gen::<f64>() < params.subsample {
                    grad[i] = pred[i] - y[i];
                    hess[i] = 1.0;
                }
            }
            let columns: Vec<usize> = if params.colsample >= 1.0 {
                all_cols.clone()
            } else {
                let k = ((d as f64 * params.colsample).ceil() as usize).clamp(1, d.max(1));
                let mut cols = all_cols.clone();
                cols.shuffle(&mut rng);
                cols.truncate(k);
                cols
            };
            let tree = reference::fit(&params.tree_params(), x, &grad, &hess, &columns);
            for (i, p) in pred.iter_mut().enumerate() {
                *p += params.eta * tree.predict_row(x.row(i));
            }
            trees.push(tree);
        }
        Gbt { base_score, eta: params.eta, trees, num_features: d }
    }

    fn gbt_params() -> impl Strategy<Value = GbtParams> {
        (
            1usize..8,
            prop_oneof![Just(0.25), Just(0.3), Just(1.0)],
            strategy::tree_params(),
            prop_oneof![Just(1.0), Just(0.8), Just(0.5)],
            prop_oneof![Just(1.0), Just(0.6), Just(0.3)],
        )
            .prop_map(|(n_rounds, eta, t, subsample, colsample)| GbtParams {
                n_rounds,
                eta,
                max_depth: t.max_depth,
                lambda: t.lambda,
                gamma: t.gamma,
                min_child_weight: t.min_child_weight,
                subsample,
                colsample,
            })
    }

    fn dataset() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
        strategy::matrix(80).prop_flat_map(|x| {
            let n = x.rows();
            (Just(x), proptest::collection::vec(-50i32..50, n..=n))
                .prop_map(|(x, ys)| (x, ys.into_iter().map(f64::from).collect()))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn boosting_matches_the_reference_bit_for_bit(
            (x, y) in dataset(),
            params in gbt_params(),
            seed in 0u64..1000,
        ) {
            let want = reference_fit(&params, &x, &y, seed);
            let got = Gbt::fit(&params, &x, &y, seed);
            prop_assert_eq!(got.base_score.to_bits(), want.base_score.to_bits());
            prop_assert_eq!(got.eta.to_bits(), want.eta.to_bits());
            prop_assert_eq!(got.num_features, want.num_features);
            let trees = |m: &Gbt| m.trees.iter().map(reference::bits).collect::<Vec<_>>();
            prop_assert_eq!(trees(&got), trees(&want));
            for i in 0..x.rows() {
                prop_assert_eq!(
                    got.predict_row(x.row(i)).to_bits(),
                    want.predict_row(x.row(i)).to_bits()
                );
            }
        }

        #[test]
        fn batch_predictions_match_per_row_bit_for_bit(
            (x, y) in dataset(),
            params in gbt_params(),
            seed in 0u64..1000,
            gamma in 1usize..4,
        ) {
            let probes = strategy::probe_rows(&x);
            let flat: Vec<f64> = probes.iter().flatten().copied().collect();
            let px = Matrix::new(flat, probes.len(), x.cols());
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();

            let m = Gbt::fit(&params, &x, &y, seed);
            let want: Vec<f64> = probes.iter().map(|r| m.predict_row(r)).collect();
            prop_assert_eq!(bits(&m.predict(&px)), bits(&want));

            // The bagged batch calls against their per-row definitions.
            let bag = BaggedGbt::fit(&params, &x, &y, gamma, seed);
            let models: Vec<Gbt> =
                (0..gamma).map(|g| bag_member(&params, &x, &y, gamma, seed, g)).collect();
            let n = gamma as f64;
            let (mut sum, mut mean, mut std) = (Vec::new(), Vec::new(), Vec::new());
            for r in &probes {
                sum.push(bag.predict_sum_row(r));
                let (mut s, mut s2) = (0.0, 0.0);
                for m in &models {
                    let p = m.predict_row(r);
                    s += p;
                    s2 += p * p;
                }
                mean.push(s * (1.0 / n));
                std.push((s2 / n - (s / n) * (s / n)).max(0.0).sqrt());
            }
            prop_assert_eq!(bits(&bag.predict_sum(&px)), bits(&sum));
            prop_assert_eq!(bits(&bag.predict_mean(&px)), bits(&mean));
            prop_assert_eq!(bits(&bag.predict_std(&px)), bits(&std));
        }
    }

    /// Member `g` of `BaggedGbt::fit(params, x, y, gamma, seed)`, refit
    /// from the same resample.
    fn bag_member(
        params: &GbtParams,
        x: &Matrix,
        y: &[f64],
        gamma: usize,
        seed: u64,
        g: usize,
    ) -> Gbt {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = x.rows();
        let mut member = None;
        for k in 0..gamma {
            let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            if k == g {
                let yg: Vec<f64> = indices.iter().map(|&i| y[i]).collect();
                member = Some(Gbt::fit(
                    params,
                    &x.select_rows(&indices),
                    &yg,
                    seed.wrapping_add(k as u64 + 1),
                ));
            }
        }
        member.expect("g < gamma")
    }
}
