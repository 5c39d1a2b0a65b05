//! Gradient-boosted regression trees, from scratch.
//!
//! The paper's evaluation function is XGBoost regression (reference \[15\] in the
//! paper); AutoTVM fits it on `(configuration features → measured
//! throughput)` pairs after every measurement batch. This crate provides an
//! equivalent second-order gradient-boosting implementation:
//!
//! * [`tree::RegressionTree`] — exact greedy splits with XGBoost's
//!   regularized gain and leaf weights;
//! * [`Gbt`] — shrinkage, row subsampling, column subsampling, early
//!   stopping on a validation slice;
//! * [`BaggedGbt`] — Γ bootstrap-resampled models whose *sum* is the
//!   acquisition score, the exact object Algorithm 3 (BS) maximizes;
//! * [`LeafTables`] — a fitted [`Gbt`] compiled into per-knob leaf masks,
//!   scoring configurations from their knob choices bit for bit as
//!   [`Gbt::predict`] scores their features;
//! * [`metrics`] — RMSE, R², Spearman rank correlation.
//!
//! # Example
//!
//! ```
//! use gbt::{Gbt, GbtParams, Matrix};
//!
//! // y = x0 + 2*x1, learnable exactly by boosting on two features.
//! let xs: Vec<Vec<f64>> = (0..200)
//!     .map(|i| vec![(i % 10) as f64, (i / 10 % 10) as f64])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|r| r[0] + 2.0 * r[1]).collect();
//! let x = Matrix::from_rows(&xs);
//! let model = Gbt::fit(&GbtParams::default(), &x, &ys, 42);
//! let pred = model.predict_row(&[3.0, 4.0]);
//! assert!((pred - 11.0).abs() < 1.0);
//! ```

pub mod bagging;
pub mod data;
pub mod gbm;
pub mod metrics;
pub mod tables;
pub mod tree;

pub use bagging::BaggedGbt;
pub use data::Matrix;
pub use gbm::{Gbt, GbtParams};
pub use tables::{KnobLayout, LeafTables};
pub use tree::RegressionTree;
