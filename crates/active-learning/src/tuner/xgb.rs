//! The AutoTVM baseline tuner (reference \[18\] in the paper).
//!
//! XGBoost-style cost model + simulated-annealing candidate search +
//! ε-greedy batch selection. The initial measurement set is random in stock
//! AutoTVM; passing a BTED set instead yields the paper's **BTED** variant —
//! that is the entire difference between the two experiment arms.

use crate::evaluator::{Evaluator, GbtEvaluator};
use crate::model_quality::ProposalDiag;
use crate::sa::{simulated_annealing_scored, SaOptions};
use crate::tuner::Tuner;
use gbt::{GbtParams, KnobLayout, LeafTables, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schedule::feature::{feature_len, FeatureTable};
use schedule::{Config, ConfigSpace};
use std::collections::BTreeSet;

/// AutoTVM's model-based tuner.
pub struct XgbTuner<'s> {
    space: &'s ConfigSpace,
    gbt: GbtParams,
    sa: SaOptions,
    plan_size: usize,
    epsilon: f64,
    /// Initial configurations not yet proposed (random or BTED).
    pending_init: Vec<Config>,
    /// Model-proposed configurations not yet proposed for measurement,
    /// with the model score SA ranked them by (`None` on the
    /// not-enough-signal random plan).
    plan: Vec<(Config, Option<f64>)>,
    measured: Vec<(Config, f64)>,
    visited: BTreeSet<u64>,
    /// Measurements accumulated since the last model refit.
    dirty: usize,
    rng: StdRng,
    refits: u64,
    /// Normalization constant of the last fit — plan scores times this are
    /// GFLOPS predictions.
    y_max: f64,
    /// Every knob candidate's features: the training rows and the layout
    /// the cost model compiles against.
    features: FeatureTable,
    layout: KnobLayout,
    /// The last fitted cost model, compiled for SA to score proposals
    /// from their knob choices; its buffers are reused across refits.
    tables: LeafTables,
    capture: bool,
    diags: Vec<ProposalDiag>,
}

impl<'s> XgbTuner<'s> {
    /// Creates the tuner with a pre-built initial set (`init`) — pass
    /// random samples for stock AutoTVM or a BTED set for the paper's
    /// initialization.
    #[must_use]
    pub fn new(
        space: &'s ConfigSpace,
        init: Vec<Config>,
        gbt: GbtParams,
        sa: SaOptions,
        plan_size: usize,
        epsilon: f64,
        seed: u64,
    ) -> Self {
        let features = FeatureTable::new(space);
        let layout = KnobLayout::new(features.knobs());
        XgbTuner {
            space,
            gbt,
            sa,
            plan_size,
            epsilon,
            pending_init: init,
            plan: Vec::new(),
            measured: Vec::new(),
            visited: BTreeSet::new(),
            dirty: 0,
            rng: StdRng::seed_from_u64(seed),
            refits: 0,
            y_max: 1.0,
            features,
            layout,
            tables: LeafTables::default(),
            capture: false,
            diags: Vec::new(),
        }
    }

    /// Creates the stock-AutoTVM variant: `init_points` uniform random
    /// initial configurations.
    #[must_use]
    pub fn with_random_init(
        space: &'s ConfigSpace,
        init_points: usize,
        gbt: GbtParams,
        sa: SaOptions,
        plan_size: usize,
        epsilon: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1F3);
        let init = space.sample_distinct(&mut rng, init_points);
        XgbTuner::new(space, init, gbt, sa, plan_size, epsilon, seed)
    }

    /// Refits the cost model on the valid measurements and rebuilds the
    /// plan via simulated annealing on the model score.
    fn replan(&mut self) {
        let tel = telemetry::global();
        let _span = tel.span("xgb.replan");
        self.refits += 1;
        let valid: Vec<&(Config, f64)> = self.measured.iter().filter(|(_, y)| *y > 0.0).collect();
        if valid.len() < 4 {
            // Not enough signal to train: plan random configs.
            self.plan = (0..self.plan_size)
                .map(|_| self.space.sample(&mut self.rng))
                .filter(|c| !self.visited.contains(&c.index))
                .map(|c| (c, None))
                .collect();
            return;
        }
        // Fit on the valid measurements only: failed trials report 0.0
        // GFLOPS, and regressing on those zeros drags the surrogate down
        // around every fault — at a 10% fault rate the model starts
        // steering *away* from the optimum. Known-bad configurations are
        // kept out of future plans by `visited`/quarantine, not by
        // poisoned labels. Scores normalize by the best observed value so
        // SA temperatures stay comparable across tasks.
        let mut rows = Vec::new();
        for (c, _) in &valid {
            self.features.features_into(&c.choices, &mut rows);
        }
        let y_max = valid.iter().map(|&&(_, y)| y).fold(f64::NEG_INFINITY, f64::max).max(1e-9);
        let ys: Vec<f64> = valid.iter().map(|&&(_, y)| y / y_max).collect();
        let x = Matrix::new(rows, valid.len(), feature_len(self.space));
        let mut model = GbtEvaluator::new(self.gbt);
        {
            let _fit = tel.span("xgb.fit");
            model.fit(&x, &ys, self.refits);
        }
        self.y_max = y_max;
        tel.event(
            "xgb.refit",
            || telemetry::json!({ "refit": self.refits, "rows": valid.len() as u64 }),
        );
        if let Some(fitted) = model.model() {
            let _tables = tel.span("gbt.tables");
            self.tables.compile(fitted, &self.layout);
        }

        // SA scores each proposal from its knob choices through the
        // compiled tables, bit for bit the fitted model's prediction.
        let tables = &self.tables;
        let score = |cands: &[Config]| -> Vec<f64> {
            let _span = tel.span("gbt.predict");
            tables.predict(cands.iter().map(|c| c.choices.as_slice()))
        };
        self.plan = simulated_annealing_scored(
            self.space,
            score,
            &self.sa,
            self.plan_size,
            &self.visited,
            self.refits.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
        .into_iter()
        .map(|(c, s)| (c, Some(s)))
        .collect();
        self.dirty = 0;
    }
}

impl Tuner for XgbTuner<'_> {
    fn next_batch(&mut self, n: usize) -> Vec<Config> {
        let mut out = Vec::with_capacity(n);
        self.diags.clear();
        // Initialization stage.
        while out.len() < n {
            let Some(cfg) = self.pending_init.pop() else { break };
            if self.visited.insert(cfg.index) {
                if self.capture {
                    self.diags.push(ProposalDiag::blind(cfg.index));
                }
                out.push(cfg);
            }
        }
        // Model-guided stage with ε-greedy random injection.
        while out.len() < n {
            if self.plan.is_empty() || self.dirty > 0 {
                self.replan();
                if self.plan.is_empty() {
                    break;
                }
            }
            let explore = self.rng.gen::<f64>() < self.epsilon;
            let (cfg, score) = if explore {
                (self.space.sample(&mut self.rng), None)
            } else {
                self.plan.remove(0)
            };
            if self.visited.insert(cfg.index) {
                if self.capture {
                    // A plan entry's SA score IS the fitted model's
                    // normalized prediction for it, so de-normalizing gives
                    // the GFLOPS forecast without another model call.
                    self.diags.push(match score {
                        Some(s) => ProposalDiag {
                            config_index: cfg.index,
                            predicted_mean: Some(s * self.y_max),
                            predicted_std: None,
                            acquisition: Some(s),
                        },
                        None => ProposalDiag::blind(cfg.index),
                    });
                }
                out.push(cfg);
            } else if !explore {
                continue; // plan entry already visited, pull the next one
            }
        }
        out
    }

    fn update(&mut self, results: &[(Config, f64)]) {
        for (c, y) in results {
            self.visited.insert(c.index);
            self.measured.push((c.clone(), *y));
        }
        self.dirty += results.len();
    }

    fn exclude(&mut self, indices: &[u64]) {
        // `visited` doubles as the SA proposer's exclusion set, so
        // quarantined configurations are never planned again.
        self.visited.extend(indices.iter().copied());
    }

    fn set_capture(&mut self, enabled: bool) {
        self.capture = enabled;
    }

    fn take_diagnostics(&mut self) -> Vec<ProposalDiag> {
        std::mem::take(&mut self.diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbt::Gbt;
    use gpu_sim::{GpuDevice, Measurer, SimMeasurer};
    use schedule::feature::features;
    use schedule::{space_for_task, Knob};

    fn toy_space() -> ConfigSpace {
        ConfigSpace::new("toy", vec![Knob::split("a", 4096, 2), Knob::split("b", 4096, 2)])
    }

    fn truth(c: &Config) -> f64 {
        let a = c.choices[0] as f64;
        let b = c.choices[1] as f64;
        100.0 - ((a - 10.0) * (a - 10.0) + (b - 2.0) * (b - 2.0))
    }

    fn small_params() -> (GbtParams, SaOptions) {
        (
            GbtParams { n_rounds: 15, ..GbtParams::default() },
            SaOptions { parallel_size: 16, n_iter: 40, ..SaOptions::default() },
        )
    }

    #[test]
    fn proposes_init_set_first() {
        let space = toy_space();
        let init: Vec<Config> = (0..8).map(|i| space.config(i).unwrap()).collect();
        let (g, s) = small_params();
        let mut t = XgbTuner::new(&space, init, g, s, 8, 0.0, 0);
        let batch = t.next_batch(8);
        let mut got: Vec<u64> = batch.iter().map(|c| c.index).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn model_stage_beats_init_stage() {
        let space = toy_space();
        let (g, s) = small_params();
        let mut t = XgbTuner::with_random_init(&space, 16, g, s, 16, 0.05, 1);
        let mut best_init = f64::NEG_INFINITY;
        let mut best_model = f64::NEG_INFINITY;
        for round in 0..6 {
            let batch = t.next_batch(16);
            if batch.is_empty() {
                break;
            }
            let results: Vec<(Config, f64)> = batch
                .into_iter()
                .map(|c| {
                    let y = truth(&c);
                    (c, y)
                })
                .collect();
            for (_, y) in &results {
                if round == 0 {
                    best_init = best_init.max(*y);
                } else {
                    best_model = best_model.max(*y);
                }
            }
            t.update(&results);
        }
        assert!(
            best_model > best_init,
            "model-guided {best_model} should beat random init {best_init}"
        );
        assert!(best_model > 95.0, "should approach the peak, got {best_model}");
    }

    #[test]
    fn never_returns_duplicates() {
        let space = toy_space();
        let (g, s) = small_params();
        let mut t = XgbTuner::with_random_init(&space, 8, g, s, 8, 0.2, 2);
        let mut seen = BTreeSet::new();
        for _ in 0..5 {
            let batch = t.next_batch(8);
            let results: Vec<(Config, f64)> = batch
                .into_iter()
                .map(|c| {
                    let y = truth(&c);
                    (c, y)
                })
                .collect();
            for (c, _) in &results {
                assert!(seen.insert(c.index), "duplicate {}", c.index);
            }
            t.update(&results);
        }
    }

    #[test]
    fn survives_all_invalid_measurements() {
        let space = toy_space();
        let (g, s) = small_params();
        let mut t = XgbTuner::with_random_init(&space, 8, g, s, 8, 0.0, 3);
        let batch = t.next_batch(8);
        let results: Vec<(Config, f64)> = batch.into_iter().map(|c| (c, 0.0)).collect();
        t.update(&results);
        assert!(!t.next_batch(8).is_empty());
    }

    #[test]
    fn capture_never_changes_proposals_and_aligns_diagnostics() {
        let space = toy_space();
        let (g, s) = small_params();
        let mut plain = XgbTuner::with_random_init(&space, 8, g, s, 8, 0.1, 4);
        let mut captured = XgbTuner::with_random_init(&space, 8, g, s, 8, 0.1, 4);
        captured.set_capture(true);
        let mut saw_model_opinion = false;
        for _ in 0..5 {
            let a = plain.next_batch(8);
            let b = captured.next_batch(8);
            assert_eq!(
                a.iter().map(|c| c.index).collect::<Vec<_>>(),
                b.iter().map(|c| c.index).collect::<Vec<_>>(),
                "capture must not perturb the proposal stream"
            );
            assert!(plain.take_diagnostics().is_empty(), "disabled capture stays empty");
            let diags = captured.take_diagnostics();
            assert_eq!(diags.len(), b.len(), "one diagnostic per proposal");
            for (cfg, d) in b.iter().zip(&diags) {
                assert_eq!(cfg.index, d.config_index);
                if let Some(m) = d.predicted_mean {
                    assert!(m.is_finite());
                    saw_model_opinion = true;
                }
            }
            if a.is_empty() {
                break;
            }
            let results: Vec<(Config, f64)> = a
                .into_iter()
                .map(|c| {
                    let y = truth(&c);
                    (c, y)
                })
                .collect();
            plain.update(&results);
            captured.update(&results);
        }
        assert!(saw_model_opinion, "model-stage proposals must carry predictions");
    }

    #[test]
    fn ten_percent_faults_do_not_poison_the_model() {
        // Satellite regression: 0-GFLOPS failures must be excluded from the
        // surrogate's training labels. With them regressed as real zeros the
        // model learns craters around every fault and steers away from the
        // peak.
        let space = toy_space();
        let (g, s) = small_params();
        let mut t = XgbTuner::with_random_init(&space, 16, g, s, 16, 0.0, 5);
        let mut best_model = f64::NEG_INFINITY;
        let mut trial = 0usize;
        for round in 0..6 {
            let batch = t.next_batch(16);
            if batch.is_empty() {
                break;
            }
            let results: Vec<(Config, f64)> = batch
                .into_iter()
                .map(|c| {
                    // Every 10th measurement fails, independent of quality —
                    // the fault pattern also hits configs near the optimum.
                    trial += 1;
                    let y = if trial.is_multiple_of(10) { 0.0 } else { truth(&c) };
                    (c, y)
                })
                .collect();
            if round > 0 {
                for (_, y) in &results {
                    best_model = best_model.max(*y);
                }
            }
            t.update(&results);
        }
        assert!(
            best_model > 95.0,
            "model must still converge near the peak under 10% faults, got {best_model}"
        );
    }

    #[test]
    fn leaf_tables_score_every_mobilenet_space_bit_for_bit() {
        // The tuner's own cost model on each mobilenet_v1 space, fit on
        // simulated GFLOPS and compiled through the space's feature table:
        // the tables score fresh configurations as the model predicts
        // their features, and stay within 128 KiB.
        let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        let params = crate::TuneOptions::default().gbt;
        let tasks = dnn_graph::task::extract_tasks(&dnn_graph::models::mobilenet_v1(1));
        for task in &tasks {
            let space = space_for_task(task);
            let mut rng = StdRng::seed_from_u64(3);
            let train = space.sample_distinct(&mut rng, 256);
            let rows: Vec<Vec<f64>> = train.iter().map(|c| features(&space, c)).collect();
            let ys: Vec<f64> =
                train.iter().map(|c| measurer.measure(task, &space, c).gflops).collect();
            let model = Gbt::fit(&params, &Matrix::from_rows(&rows), &ys, 0);
            let mut tables = LeafTables::default();
            tables.compile(&model, &KnobLayout::new(FeatureTable::new(&space).knobs()));
            assert!(tables.size_bytes() <= 128 << 10, "{}: {} B", task.name, tables.size_bytes());

            let probes = space.sample_distinct(&mut rng, 512);
            let rows: Vec<Vec<f64>> = probes.iter().map(|c| features(&space, c)).collect();
            let want = model.predict(&Matrix::from_rows(&rows));
            let got = tables.predict(probes.iter().map(|c| c.choices.as_slice()));
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{}", task.name);
        }
    }
}
