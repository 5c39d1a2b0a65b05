//! Bootstrap-guided adaptive optimization (Algorithm 4).
//!
//! The iterative-optimization stage of the paper's framework. Each step:
//!
//! 1. Form the search scope `C_t` as the radius-`R` neighborhood of the
//!    previously selected configuration; if the relative improvement `r_t`
//!    (Equation 1) fell below `η`, widen to radius `τ·R`.
//! 2. Run [`crate::bs::bootstrap_select`] over `C_t` (Γ bagged evaluation
//!    functions; pick the candidate maximizing their sum).
//! 3. Measure the winner on hardware and append it to `(X, Y)`.
//!
//! Steps 1 and 2 overlap: `C_t` is sampled while the Γ bootstrap fits,
//! which do not depend on it, run (see [`crate::bs`]).
//!
//! Implemented as a [`crate::tuner::Tuner`] with batch size 1 so the shared
//! measurement loop (budget, early stopping, records) drives it like any
//! other strategy.

use crate::evaluator::{Evaluator, GbtEvaluator};
use crate::model_quality::ProposalDiag;
use crate::tuner::Tuner;
use gbt::{GbtParams, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use schedule::feature::{feature_len, features, features_into};
use schedule::neighborhood::NeighborhoodSampler;
use schedule::{Config, ConfigSpace};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Parameters of Algorithm 4, defaulting to the paper's settings
/// `(η = 0.05, Γ = 2, τ = 1.5, R = 3)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaoOptions {
    /// Number of bootstrap resamples Γ.
    pub gamma: usize,
    /// Relative-improvement threshold η.
    pub eta: f64,
    /// Neighborhood enlargement factor τ (> 1).
    pub tau: f64,
    /// Base neighborhood radius R — Euclidean distance in *feature space*
    /// (Definition 1 encodes a configuration as a feature vector, so the
    /// paper's `R = 3` is a distance between those vectors; one factor-of-2
    /// tiling change is √2 apart).
    pub radius: f64,
    /// Maximum candidates sampled from the scope `C_t` per step (the paper
    /// evaluates all of `C`; sampling caps the cost on huge neighborhoods).
    pub scope_size: usize,
    /// Ceiling on the widened radius. The paper widens once to `τ·R`; we
    /// let consecutive stalls compound the widening (`τ^k·R`, reset on
    /// improvement) so the scope escapes deep local optima, capped here.
    pub max_radius: f64,
    /// Bootstrap fits use at most this many of the most recent measurements
    /// (plus the all-time elite), bounding the per-step evaluation-function
    /// cost on long runs — the same scalability concern the paper's batching
    /// addresses at initialization time.
    pub fit_window: usize,
}

impl Default for BaoOptions {
    fn default() -> Self {
        BaoOptions {
            gamma: 2,
            eta: 0.05,
            tau: 1.5,
            radius: 3.0,
            scope_size: 512,
            max_radius: 48.0,
            fit_window: 384,
        }
    }
}

/// The BAO tuner: owns the measured set and the adaptive search scope.
pub struct BaoTuner<'s, E = GbtEvaluator, F = Box<dyn Fn() -> GbtEvaluator + Send + Sync>>
where
    E: Evaluator,
    F: Fn() -> E + Sync,
{
    space: &'s ConfigSpace,
    opts: BaoOptions,
    make_evaluator: F,
    /// Initial configurations still waiting to be measured (BTED's output).
    pending_init: Vec<Config>,
    /// The already-sampled set (X, Y).
    measured: Vec<(Config, f64)>,
    /// The features of `measured`, one row each: a configuration is
    /// featurized once, when its measurement arrives.
    measured_x: Matrix,
    visited: HashSet<u64>,
    /// x*_{t-1}: the incumbent — the best configuration found so far (the
    /// paper defines y*_t as "the optimal performance values found in step
    /// t", so the scope centers on the running optimum).
    center: Option<(Config, f64)>,
    /// y*_{t-1}, y*_{t-2}: best-so-far values after the previous two steps.
    last_two: (Option<f64>, Option<f64>),
    /// Consecutive steps whose relative improvement fell below η.
    stall_widenings: u32,
    /// Samples the scope: the space's move table and reusable buffers.
    sampler: NeighborhoodSampler<'s>,
    rng: StdRng,
    step: u64,
    capture: bool,
    diags: Vec<ProposalDiag>,
}

impl<'s> BaoTuner<'s> {
    /// Creates a BAO tuner with the paper's GBT evaluation function.
    #[must_use]
    pub fn new(
        space: &'s ConfigSpace,
        init: Vec<Config>,
        opts: BaoOptions,
        gbt: GbtParams,
        seed: u64,
    ) -> Self {
        BaoTuner::with_evaluator(space, init, opts, Box::new(move || GbtEvaluator::new(gbt)), seed)
    }
}

impl<'s, E, F> BaoTuner<'s, E, F>
where
    E: Evaluator,
    F: Fn() -> E + Sync,
{
    /// Creates a BAO tuner with a custom evaluation-function family.
    /// `make_evaluator` is `Sync` because each step calls it from several
    /// threads at once, one per bootstrap resample.
    pub fn with_evaluator(
        space: &'s ConfigSpace,
        init: Vec<Config>,
        opts: BaoOptions,
        make_evaluator: F,
        seed: u64,
    ) -> Self {
        assert!(opts.tau > 1.0, "tau must enlarge the neighborhood");
        assert!(opts.gamma > 0, "need at least one bootstrap resample");
        BaoTuner {
            space,
            opts,
            make_evaluator,
            pending_init: init,
            measured: Vec::new(),
            measured_x: Matrix::new(Vec::new(), 0, feature_len(space)),
            visited: HashSet::new(),
            center: None,
            last_two: (None, None),
            stall_widenings: 0,
            sampler: NeighborhoodSampler::new(space),
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            capture: false,
            diags: Vec::new(),
        }
    }

    /// Equation (1): relative improvement between the previous two sampled
    /// values; `None` before step 2.
    fn relative_improvement(&self) -> Option<f64> {
        match self.last_two {
            (Some(y1), Some(y2)) if y1 > 0.0 => Some((y1 - y2) / y1),
            (Some(_), Some(_)) => Some(0.0),
            _ => None,
        }
    }

    /// The measurements the bootstrap models are fit on: the most recent
    /// `fit_window` plus the 32 best-ever (so the models never forget where
    /// the good region is). Failed trials (0 GFLOPS) are excluded — fitting
    /// on them teaches the bagged models a crater around every fault and
    /// repels the scope from the true optimum; quarantine/`visited` already
    /// keep known-bad configurations out of future scopes. When *every*
    /// measurement failed the raw set is used so bootstrap selection still
    /// has something to resample.
    fn fit_window(&self) -> Vec<usize> {
        let all = 0..self.measured.len();
        let valid: Vec<usize> = all.clone().filter(|&i| self.measured[i].1 > 0.0).collect();
        let source: Vec<usize> = if valid.is_empty() { all.collect() } else { valid };
        if source.len() <= self.opts.fit_window {
            return source;
        }
        let recent_start = source.len() - self.opts.fit_window;
        let mut out = source[recent_start..].to_vec();
        let mut elite = source[..recent_start].to_vec();
        elite.sort_by(|&a, &b| self.measured[b].1.total_cmp(&self.measured[a].1));
        out.extend(elite.into_iter().take(32));
        out
    }

    /// The radius of the next search scope C_t (Algorithm 4 lines 3-9).
    /// Consecutive sub-η steps compound the widening: radius = min(τ^k · R,
    /// max).
    fn radius(&mut self) -> f64 {
        let r_t = self.relative_improvement();
        let widen = r_t.is_some_and(|r| r < self.opts.eta);
        if widen {
            self.stall_widenings = self.stall_widenings.saturating_add(1);
        } else {
            self.stall_widenings = 0;
        }
        let radius = (self.opts.radius * self.opts.tau.powi(self.stall_widenings as i32))
            .min(self.opts.max_radius);
        let tel = telemetry::global();
        tel.event(telemetry::events::RADIUS_EVENT, || {
            telemetry::json!({
                "step": self.step,
                "r_t": r_t,
                "eta": self.opts.eta,
                "radius": radius,
                "widened": widen,
                "stall_widenings": u64::from(self.stall_widenings),
            })
        });
        if widen {
            tel.count("bao.widenings", 1);
        }
        radius
    }
}

/// The search scope C_t around `center` at `radius`: its unvisited
/// members, each once and in index order, with the features of each as
/// one matrix row.
fn sample_scope(
    sampler: &mut NeighborhoodSampler<'_>,
    rng: &mut StdRng,
    center: &Config,
    radius: f64,
    scope_size: usize,
    visited: &HashSet<u64>,
) -> (Vec<Config>, Matrix) {
    let _span = telemetry::global().span("bao.scope");
    let space = sampler.space();
    // The sampler featurizes every member for its radius test; keep those
    // rows instead of featurizing the scope again.
    let mut rows = Vec::new();
    let mut c = sampler.sample(center, radius, scope_size, rng, &mut rows);
    // A thin stream of global candidates rides along with the local
    // scope: the τ^∞ limit of the widening rule. Without it, a center
    // whose neighborhood is dense in invalid configurations (common for
    // small-spatial layers) traps the search in a pocket the bagged
    // models can never see out of.
    let global = (scope_size / 8).max(8);
    for _ in 0..global {
        let cfg = space.sample(rng);
        features_into(space, &cfg, &mut rows);
        c.push(cfg);
    }
    // Unvisited members, each once, in index order: sorting (index,
    // position) pairs keeps the first of any duplicates.
    let mut keep: Vec<(u64, usize)> = c
        .iter()
        .enumerate()
        .filter(|(_, m)| !visited.contains(&m.index))
        .map(|(i, m)| (m.index, i))
        .collect();
    keep.sort_unstable();
    keep.dedup_by_key(|&mut (index, _)| index);
    let rows_kept: Vec<usize> = keep.iter().map(|&(_, i)| i).collect();
    let x = Matrix::new(rows, c.len(), feature_len(space)).select_rows(&rows_kept);
    let members = keep
        .iter()
        .map(|&(index, i)| Config { index, choices: std::mem::take(&mut c[i].choices) })
        .collect();
    (members, x)
}

impl<E, F> Tuner for BaoTuner<'_, E, F>
where
    E: Evaluator,
    F: Fn() -> E + Sync,
{
    fn next_batch(&mut self, n: usize) -> Vec<Config> {
        self.diags.clear();
        // Initialization stage: drain the BTED set first.
        if !self.pending_init.is_empty() {
            let take = n.min(self.pending_init.len());
            let batch: Vec<Config> = self.pending_init.drain(..take).collect();
            if self.capture {
                self.diags.extend(batch.iter().map(|c| ProposalDiag::blind(c.index)));
            }
            return batch;
        }
        if self.measured.is_empty() {
            // No valid initial set: fall back to random exploration.
            let batch: Vec<Config> = (0..n).map(|_| self.space.sample(&mut self.rng)).collect();
            if self.capture {
                self.diags.extend(batch.iter().map(|c| ProposalDiag::blind(c.index)));
            }
            return batch;
        }
        // Line 1 / line 3: center on the incumbent (the best configuration
        // of the initial set on the first iteration).
        let center = self
            .center
            .clone()
            .unwrap_or_else(|| {
                self.measured
                    .iter()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .cloned()
                    // aal-lint: allow(unwrap, reason = "BAO only reaches ranking after at least one measurement")
                    .expect("measured is non-empty")
            })
            .0;
        let window = self.fit_window();
        let fit_x = self.measured_x.select_rows(&window);
        let fit_y: Vec<f64> = window.iter().map(|&i| self.measured[i].1).collect();
        let mut out = Vec::with_capacity(n);
        let tel = telemetry::global();
        for _ in 0..n {
            let _step = tel.span("bao.step");
            let radius = self.radius();
            self.step += 1;
            // The scope is sampled (from `rng`, the only job that draws
            // from it) while the bootstrap fits run.
            let (sampler, rng, visited) = (&mut self.sampler, &mut self.rng, &self.visited);
            let scope_size = self.opts.scope_size;
            let center = &center;
            let sample = move || sample_scope(sampler, rng, center, radius, scope_size, visited);
            let ((mut candidates, _), pick) = crate::bs::select_while_sampling(
                &fit_x,
                &fit_y,
                self.opts.gamma,
                &self.make_evaluator,
                self.step.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                sample,
            );
            // Exhausted or degenerate neighborhood: random restart keeps the
            // search alive (the space is astronomically larger than the
            // visited set, so this terminates).
            let (cfg, diag) = match pick {
                Some((best, diag)) => (candidates.swap_remove(best), diag),
                None => {
                    let cfg = self.space.sample(&mut self.rng);
                    let diag = ProposalDiag::blind(cfg.index);
                    (cfg, diag)
                }
            };
            if self.capture {
                self.diags.push(diag);
            }
            self.visited.insert(cfg.index);
            out.push(cfg);
        }
        out
    }

    fn update(&mut self, results: &[(Config, f64)]) {
        for (cfg, y) in results {
            self.visited.insert(cfg.index);
            self.measured_x.push_row(&features(self.space, cfg));
            self.measured.push((cfg.clone(), *y));
            // Maintain the incumbent and the best-so-far history that
            // Equation (1) compares.
            if *y > 0.0 && self.center.as_ref().is_none_or(|(_, best)| *y > *best) {
                self.center = Some((cfg.clone(), *y));
            }
            let best_now = self.center.as_ref().map(|(_, b)| *b);
            self.last_two = (best_now, self.last_two.0);
        }
    }

    fn preferred_batch(&self) -> usize {
        if self.pending_init.is_empty() {
            1 // BAO selects one configuration per iteration.
        } else {
            self.pending_init.len()
        }
    }

    fn exclude(&mut self, indices: &[u64]) {
        // `visited` filters the BAO scope, so quarantined configurations
        // drop out of every future neighborhood.
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
    use schedule::Knob;

    fn toy_space() -> ConfigSpace {
        ConfigSpace::new("toy", vec![Knob::split("a", 4096, 2), Knob::split("b", 4096, 2)])
    }

    /// Smooth peaked truth, maximum at choices (9, 4).
    fn truth(c: &Config) -> f64 {
        let a = c.choices[0] as f64;
        let b = c.choices[1] as f64;
        100.0 - ((a - 9.0) * (a - 9.0) + (b - 4.0) * (b - 4.0))
    }

    fn drive(tuner: &mut dyn Tuner, steps: usize) -> Vec<(Config, f64)> {
        let mut all = Vec::new();
        for _ in 0..steps {
            let batch = tuner.next_batch(tuner.preferred_batch());
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
            tuner.update(&results);
            all.extend(results);
        }
        all
    }

    #[test]
    fn init_set_is_measured_first() {
        let space = toy_space();
        let init: Vec<Config> = (0..8).map(|i| space.config(i).unwrap()).collect();
        let mut t =
            BaoTuner::new(&space, init.clone(), BaoOptions::default(), GbtParams::default(), 0);
        let batch = t.next_batch(t.preferred_batch());
        assert_eq!(batch.len(), 8);
        assert_eq!(batch[0].index, init[0].index);
    }

    #[test]
    fn climbs_toward_the_peak() {
        let space = toy_space();
        let init: Vec<Config> =
            (0..12).map(|i| space.config((i * 7) % space.len()).unwrap()).collect();
        let opts = BaoOptions { scope_size: 64, ..BaoOptions::default() };
        let gbt = GbtParams { n_rounds: 15, ..GbtParams::default() };
        let mut t = BaoTuner::new(&space, init, opts, gbt, 1);
        let all = drive(&mut t, 40);
        let best = all.iter().map(|(_, y)| *y).fold(f64::NEG_INFINITY, f64::max);
        let best_init = all[..12].iter().map(|(_, y)| *y).fold(f64::NEG_INFINITY, f64::max);
        assert!(best > best_init, "BAO must improve on the initial set");
        assert!(best > 90.0, "best found {best}");
    }

    #[test]
    fn never_revisits_a_configuration() {
        let space = toy_space();
        let init: Vec<Config> = (0..6).map(|i| space.config(i).unwrap()).collect();
        let mut t = BaoTuner::new(
            &space,
            init,
            BaoOptions::default(),
            GbtParams { n_rounds: 10, ..GbtParams::default() },
            2,
        );
        let all = drive(&mut t, 30);
        let mut seen = HashSet::new();
        for (c, _) in &all {
            assert!(seen.insert(c.index), "revisited config {}", c.index);
        }
    }

    #[test]
    fn invalid_measurement_recenter_does_not_crash() {
        let space = toy_space();
        let init: Vec<Config> = (0..4).map(|i| space.config(i).unwrap()).collect();
        let mut t = BaoTuner::new(
            &space,
            init,
            BaoOptions::default(),
            GbtParams { n_rounds: 5, ..GbtParams::default() },
            3,
        );
        let batch = t.next_batch(t.preferred_batch());
        let results: Vec<(Config, f64)> = batch.into_iter().map(|c| (c, 0.0)).collect();
        t.update(&results); // all invalid
        let next = t.next_batch(1);
        assert_eq!(next.len(), 1);
    }

    #[test]
    fn failed_trials_are_excluded_from_the_fit_window() {
        let space = toy_space();
        let mut t = BaoTuner::new(&space, vec![], BaoOptions::default(), GbtParams::default(), 5);
        t.update(&[
            (space.config(0).unwrap(), 10.0),
            (space.config(1).unwrap(), 0.0), // fault
            (space.config(2).unwrap(), 12.0),
            (space.config(3).unwrap(), 0.0), // fault
        ]);
        let fit = t.fit_window();
        assert_eq!(fit.len(), 2, "zero-GFLOPS labels must not reach the surrogate");
        assert!(fit.iter().all(|&i| t.measured[i].1 > 0.0));
        // All-failed degenerate case: fall back to the raw set so BS can
        // still resample (it panics on an empty measured set).
        let mut t2 = BaoTuner::new(&space, vec![], BaoOptions::default(), GbtParams::default(), 6);
        t2.update(&[(space.config(0).unwrap(), 0.0)]);
        assert_eq!(t2.fit_window().len(), 1);
    }

    #[test]
    fn capture_aligns_one_diag_per_proposal() {
        let space = toy_space();
        let init: Vec<Config> = (0..6).map(|i| space.config(i).unwrap()).collect();
        let opts = BaoOptions { scope_size: 32, ..BaoOptions::default() };
        let gbt = GbtParams { n_rounds: 8, ..GbtParams::default() };
        let mut t = BaoTuner::new(&space, init, opts, gbt, 7);
        t.set_capture(true);
        // Init batch: blind diagnostics.
        let batch = t.next_batch(t.preferred_batch());
        let diags = t.take_diagnostics();
        assert_eq!(diags.len(), batch.len());
        assert!(diags.iter().all(|d| d.predicted_mean.is_none()));
        let results: Vec<(Config, f64)> = batch
            .into_iter()
            .map(|c| {
                let y = truth(&c);
                (c, y)
            })
            .collect();
        t.update(&results);
        // Model stage: bootstrap selection carries mean/std/acquisition.
        let batch = t.next_batch(1);
        let diags = t.take_diagnostics();
        assert_eq!(diags.len(), batch.len());
        let d = &diags[0];
        assert_eq!(d.config_index, batch[0].index);
        assert!(d.predicted_mean.is_some_and(f64::is_finite));
        assert!(d.predicted_std.is_some_and(|s| s >= 0.0));
        assert!(d.acquisition.is_some());
    }

    #[test]
    fn cached_rows_are_the_features_of_their_configurations() {
        let space = toy_space();
        let init: Vec<Config> = (0..10).map(|i| space.config(i * 13 + i).unwrap()).collect();
        let opts = BaoOptions { scope_size: 48, ..BaoOptions::default() };
        let mut t = BaoTuner::new(&space, init, opts, GbtParams::default(), 8);
        let _ = drive(&mut t, 5);
        let rows = |cfgs: Vec<&Config>| -> Vec<f64> {
            cfgs.into_iter().flat_map(|c| features(&space, c)).collect()
        };
        assert_eq!(
            t.measured_x.clone().into_data(),
            rows(t.measured.iter().map(|(c, _)| c).collect())
        );
        let center = t.measured[3].0.clone();
        let radius = t.radius();
        let (members, x) =
            sample_scope(&mut t.sampler, &mut t.rng, &center, radius, 48, &t.visited);
        assert!(!members.is_empty());
        assert_eq!(x.rows(), members.len());
        assert_eq!(x.into_data(), rows(members.iter().collect()));
    }

    /// The proposals of 24 steps on the toy space at CPU share `share`,
    /// each with the bits of its diagnostics (mean, std, acquisition).
    /// Every fifth value of knob `a` fails, so the fit window drops rows.
    fn proposals_at_share<E, F>(share: usize, make: F) -> Vec<(u64, [Option<u64>; 3])>
    where
        E: Evaluator,
        F: Fn() -> E + Sync,
    {
        executor::set_cpu_share(share);
        let space = toy_space();
        let init: Vec<Config> = (0..10).map(|i| space.config(i * 16 + 3).unwrap()).collect();
        let opts = BaoOptions { scope_size: 96, ..BaoOptions::default() };
        let mut t = BaoTuner::with_evaluator(&space, init, opts, make, 11);
        t.set_capture(true);
        let mut out = Vec::new();
        for _ in 0..24 {
            let batch = t.next_batch(t.preferred_batch());
            let diags = t.take_diagnostics();
            assert_eq!(diags.len(), batch.len());
            let bits = |d: &ProposalDiag| {
                [d.predicted_mean, d.predicted_std, d.acquisition].map(|v| v.map(f64::to_bits))
            };
            out.extend(batch.iter().zip(&diags).map(|(c, d)| (c.index, bits(d))));
            let results: Vec<(Config, f64)> = batch
                .into_iter()
                .map(|c| {
                    let y = if c.choices[0] % 5 == 0 { 0.0 } else { truth(&c) };
                    (c, y)
                })
                .collect();
            t.update(&results);
        }
        out
    }

    #[test]
    fn proposals_and_diagnostics_are_the_same_at_any_cpu_share() {
        let gbt = GbtParams { n_rounds: 12, ..GbtParams::default() };
        let want = proposals_at_share(1, move || GbtEvaluator::new(gbt));
        assert!(want.iter().any(|(_, d)| d[0].is_some()), "no model-guided step ran");
        for share in 2..=4 {
            assert_eq!(
                proposals_at_share(share, move || GbtEvaluator::new(gbt)),
                want,
                "GBT, share {share}"
            );
        }
        let ridge = || crate::evaluator::RidgeEvaluator::new(0.1);
        let want = proposals_at_share(1, ridge);
        for share in 2..=4 {
            assert_eq!(proposals_at_share(share, ridge), want, "ridge, share {share}");
        }
    }

    #[test]
    fn relative_improvement_tracks_last_two() {
        let space = toy_space();
        let mut t = BaoTuner::new(&space, vec![], BaoOptions::default(), GbtParams::default(), 4);
        assert!(t.relative_improvement().is_none());
        t.update(&[(space.config(0).unwrap(), 10.0)]);
        assert!(t.relative_improvement().is_none());
        t.update(&[(space.config(1).unwrap(), 12.0)]);
        // y*_{t-1} = 12, y*_{t-2} = 10 -> (12-10)/12.
        let r = t.relative_improvement().unwrap();
        assert!((r - 2.0 / 12.0).abs() < 1e-12);
    }
}
