//! Tuning options shared by all methods.

use crate::bao::BaoOptions;
use crate::bted::BtedOptions;
use crate::sa::SaOptions;
use gbt::GbtParams;
use serde::{Deserialize, Serialize};

/// Options of one node-wise tuning run.
///
/// Defaults mirror the paper's experimental settings (Section V-A):
/// 64 initial points, early stopping at 400, BTED `(µ=0.1, M=500, m=64,
/// B=10)`, BAO `(η=0.05, Γ=2, τ=1.5, R=3)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuneOptions {
    /// Measurement budget per task.
    pub n_trial: usize,
    /// Stop when the best result has not improved for this many
    /// measurements (the paper sets 400).
    pub early_stopping: usize,
    /// Configurations measured per round (AutoTVM's measure batch).
    pub batch_size: usize,
    /// Initial configurations (random for AutoTVM, BTED for ours).
    pub init_points: usize,
    /// Candidates the model-guided search proposes per refit.
    pub plan_size: usize,
    /// ε-greedy random fraction of each planned batch.
    pub epsilon: f64,
    /// Cost-model (evaluation function) hyper-parameters.
    pub gbt: GbtParams,
    /// Evaluation-function hyper-parameters for BAO's per-step bootstrap
    /// fits (lighter than the batch-refit model: BAO trains 2·T models per
    /// task instead of ~16).
    pub bao_gbt: GbtParams,
    /// Simulated-annealing proposer settings (AutoTVM baseline).
    pub sa: SaOptions,
    /// BTED initialization settings.
    pub bted: BtedOptions,
    /// BAO iterative-optimization settings.
    pub bao: BaoOptions,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Retries allowed per transient measurement fault (`None` = the
    /// robust layer's default of 2). Optional so pre-robustness
    /// manifests still deserialize.
    pub max_retries: Option<u32>,
    /// Per-trial device-time budget in milliseconds (`None`/0 = no
    /// timeout).
    pub trial_timeout_ms: Option<f64>,
    /// Abort a task with a diagnostic once more than this fraction of
    /// its measured trials have failed (checked after
    /// [`TuneOptions::FAIL_RATE_MIN_TRIALS`] trials). `None` or `1.0`
    /// disables the cap: hard tasks naturally reject many configs.
    pub fail_rate_cap: Option<f64>,
    /// Record per-proposal model diagnostics (predicted mean/std,
    /// acquisition score) for `model_quality.jsonl` and `aaltune explain`.
    /// `None`/`false` disables capture at zero cost. Capture is pure —
    /// proposals and trial logs are byte-identical either way. Optional so
    /// pre-introspection manifests still deserialize.
    pub capture_model: Option<bool>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            n_trial: 1024,
            early_stopping: 400,
            batch_size: 64,
            init_points: 64,
            plan_size: 64,
            epsilon: 0.05,
            gbt: GbtParams::default(),
            bao_gbt: GbtParams { n_rounds: 35, colsample: 0.6, ..GbtParams::default() },
            sa: SaOptions::default(),
            bted: BtedOptions::default(),
            bao: BaoOptions::default(),
            seed: 0,
            max_retries: None,
            trial_timeout_ms: None,
            fail_rate_cap: None,
            capture_model: None,
        }
    }
}

impl TuneOptions {
    /// Trials measured before the fail-rate cap is consulted, so a noisy
    /// first batch cannot abort a task.
    pub const FAIL_RATE_MIN_TRIALS: usize = 48;

    /// The retry budget with the default applied.
    #[must_use]
    pub fn max_retries_or_default(&self) -> u32 {
        self.max_retries.unwrap_or(2)
    }

    /// The effective fail-rate cap (1.0 when disabled).
    #[must_use]
    pub fn fail_rate_cap_or_default(&self) -> f64 {
        self.fail_rate_cap.unwrap_or(1.0)
    }

    /// Whether model-introspection capture is on (off by default).
    #[must_use]
    pub fn capture_model_or_default(&self) -> bool {
        self.capture_model.unwrap_or(false)
    }

    /// The paper's settings for a budget of `n_trial` trials per task:
    /// early stopping at 400, or at the budget when that is smaller.
    #[must_use]
    pub fn paper(n_trial: usize, seed: u64) -> Self {
        TuneOptions { n_trial, early_stopping: 400.min(n_trial), seed, ..TuneOptions::default() }
    }

    /// A reduced-budget preset for tests and the criterion smoke benches.
    /// Nothing the command line or the server runs tunes with it: both
    /// start from [`TuneOptions::paper`].
    #[must_use]
    pub fn smoke() -> Self {
        TuneOptions {
            n_trial: 96,
            early_stopping: 96,
            batch_size: 16,
            init_points: 16,
            plan_size: 16,
            gbt: GbtParams { n_rounds: 20, ..GbtParams::default() },
            bao_gbt: GbtParams { n_rounds: 15, colsample: 0.6, ..GbtParams::default() },
            sa: SaOptions { parallel_size: 16, n_iter: 30, ..SaOptions::default() },
            bted: BtedOptions {
                batch_candidates: 64,
                num_selected: 16,
                num_batches: 3,
                ..BtedOptions::default()
            },
            ..TuneOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let o = TuneOptions::default();
        assert_eq!(o.init_points, 64);
        assert_eq!(o.early_stopping, 400);
        assert!((o.bted.mu - 0.1).abs() < 1e-12);
        assert_eq!(o.bted.batch_candidates, 500);
        assert_eq!(o.bted.num_selected, 64);
        assert_eq!(o.bted.num_batches, 10);
        assert!((o.bao.eta - 0.05).abs() < 1e-12);
        assert_eq!(o.bao.gamma, 2);
        assert!((o.bao.tau - 1.5).abs() < 1e-12);
        assert!((o.bao.radius - 3.0).abs() < 1e-12);
    }

    #[test]
    fn model_defaults_match_the_gbt_golden_fixture() {
        // `crates/gbt/tests/golden.rs` pins prediction bits at exactly
        // these parameters.
        let o = TuneOptions::default();
        assert_eq!(o.gbt, GbtParams::default());
        assert_eq!(o.bao_gbt, GbtParams { n_rounds: 35, colsample: 0.6, ..GbtParams::default() });
    }

    #[test]
    fn smoke_preset_is_smaller() {
        let s = TuneOptions::smoke();
        assert!(s.n_trial < TuneOptions::default().n_trial);
        assert!(s.bted.batch_candidates < 500);
    }
}
