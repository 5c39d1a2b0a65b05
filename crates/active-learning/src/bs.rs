//! Bootstrap-guided sampling (Algorithm 3).
//!
//! `BS(X, Y, C, Γ)`: resample Γ sets of cardinality `|X|` from the measured
//! configurations, fit one evaluation function per resample, and return the
//! candidate in the search scope `C` maximizing the **sum** of the Γ
//! functions. Generic over the evaluation-function family via
//! [`crate::Evaluator`].
//!
//! The Γ fits are independent of each other and of the scope, so one step
//! is one ordered job list on up to the calling thread's
//! [`executor::cpu_share`] of the CPUs: job 0 samples the scope while jobs
//! 1..=Γ fit, and each fit then scores the scope on its own thread. The
//! evaluator factory is therefore `Sync`. The pick and its diagnostics are
//! the same bits at any CPU count: the resample indices are all drawn from
//! the step's RNG before any job starts, only job 0 draws from the
//! caller's, and the Γ predictions are summed in γ order after the join.

use crate::evaluator::Evaluator;
use crate::model_quality::ProposalDiag;
use gbt::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schedule::feature::{feature_len, features_into};
use schedule::{Config, ConfigSpace};
use std::sync::OnceLock;

/// A search scope: the candidates, and their feature vectors as matrix
/// rows (row `i` holds the features of candidate `i`).
pub(crate) type Scope = (Vec<Config>, Matrix);

/// Selects the next configuration from `candidates`.
///
/// `measured` is the already-sampled set `(X, Y)` (configurations with their
/// measured GFLOPS). Returns `None` when `candidates` is empty.
///
/// # Example
///
/// ```
/// use active_learning::bs::bootstrap_select;
/// use active_learning::evaluator::RidgeEvaluator;
/// use schedule::{ConfigSpace, Knob};
///
/// let space = ConfigSpace::new("demo", vec![Knob::split("t", 64, 2)]);
/// // Measured set: larger inner factors performed better.
/// let measured: Vec<_> = (0..space.len())
///     .map(|i| {
///         let c = space.config(i).unwrap();
///         let inner = space.values(&c)[0].as_split().unwrap()[1] as f64;
///         (c, inner.log2())
///     })
///     .collect();
/// let candidates: Vec<_> = (0..space.len()).map(|i| space.config(i).unwrap()).collect();
/// let pick = bootstrap_select(&space, &measured, &candidates, 2, RidgeEvaluator::default, 1)
///     .expect("candidates are non-empty");
/// let inner = space.values(&pick)[0].as_split().unwrap()[1];
/// assert!(inner >= 32, "should pick a large inner factor, got {inner}");
/// ```
///
/// # Panics
///
/// Panics if `measured` is empty or `gamma == 0` — callers must seed the
/// loop with an initial measurement set (that is BTED's job).
pub fn bootstrap_select<E, F>(
    space: &ConfigSpace,
    measured: &[(Config, f64)],
    candidates: &[Config],
    gamma: usize,
    make_evaluator: F,
    seed: u64,
) -> Option<Config>
where
    E: Evaluator,
    F: Fn() -> E + Sync,
{
    bootstrap_select_diag(space, measured, candidates, gamma, make_evaluator, seed)
        .map(|(cfg, _)| cfg)
}

/// [`bootstrap_select`] also returning the winner's model diagnostics.
///
/// The Γ per-candidate predictions are already computed for the argmax;
/// accumulating their sum-of-squares alongside the sum yields the winner's
/// bagged mean and disagreement (std) with zero extra model evaluations —
/// which is what keeps introspection capture from perturbing the search.
///
/// # Panics
///
/// Same contract as [`bootstrap_select`].
pub fn bootstrap_select_diag<E, F>(
    space: &ConfigSpace,
    measured: &[(Config, f64)],
    candidates: &[Config],
    gamma: usize,
    make_evaluator: F,
    seed: u64,
) -> Option<(Config, ProposalDiag)>
where
    E: Evaluator,
    F: Fn() -> E + Sync,
{
    assert!(!measured.is_empty(), "BS needs an initial measured set");
    assert!(gamma > 0, "need at least one bootstrap resample");
    if candidates.is_empty() {
        return None;
    }
    let x = feature_rows(space, measured.iter().map(|(c, _)| c));
    let ys: Vec<f64> = measured.iter().map(|&(_, y)| y).collect();
    let cand_x = feature_rows(space, candidates);
    let scope = || (candidates.to_vec(), cand_x);
    let ((mut members, _), pick) =
        select_while_sampling(&x, &ys, gamma, make_evaluator, seed, scope);
    pick.map(|(best, diag)| (members.swap_remove(best), diag))
}

/// The feature vectors of `configs`, one matrix row each.
fn feature_rows<'c>(space: &ConfigSpace, configs: impl IntoIterator<Item = &'c Config>) -> Matrix {
    let mut data = Vec::new();
    let mut rows = 0;
    for c in configs {
        features_into(space, c, &mut data);
        rows += 1;
    }
    Matrix::new(data, rows, feature_len(space))
}

/// One job of a BS step, in the order the jobs are claimed.
enum Job<S> {
    /// Sample the search scope: the only job that draws from the caller's
    /// RNG.
    Scope(S),
    /// Fit resample γ (row indices into the measured set), then score the
    /// scope.
    Fit(Vec<usize>),
}

/// Publishes "no scope" if the sampler unwinds, so that the fits waiting
/// on the cell wake up instead of hanging the join.
struct Release<'a>(&'a OnceLock<Option<Scope>>);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        let _ = self.0.set(None);
    }
}

/// [`bootstrap_select_diag`] on rows featurized by the caller, with the
/// scope sampled while the Γ fits run: `x`/`ys` is the measured set, and
/// `sample_scope` returns the candidates with their feature rows. BAO keeps
/// both matrices incrementally, so a proposal step featurizes nothing twice.
///
/// The step is one ordered job list on `min(Γ + 1, cpu_share())` threads.
/// Job 0 calls `sample_scope`. Job γ + 1 fits resample γ, waits for the
/// scope and predicts it on its own thread, so an evaluator never crosses
/// threads. Returns the scope, and the position of the winner in it with
/// its diagnostics (`None` when the scope is empty).
///
/// # Panics
///
/// Panics if `x` is empty, `gamma == 0`, or the shapes disagree;
/// propagates a panic of `sample_scope`.
pub(crate) fn select_while_sampling<E, F, S>(
    x: &Matrix,
    ys: &[f64],
    gamma: usize,
    make_evaluator: F,
    seed: u64,
    sample_scope: S,
) -> (Scope, Option<(usize, ProposalDiag)>)
where
    E: Evaluator,
    F: Fn() -> E + Sync,
    S: FnOnce() -> Scope + Send,
{
    assert!(x.rows() > 0, "BS needs an initial measured set");
    assert!(gamma > 0, "need at least one bootstrap resample");
    assert_eq!(x.rows(), ys.len(), "label count mismatch");
    let n = x.rows();
    let tel = telemetry::global();
    let _span = tel.span("bs.select");
    // Lines 2-3: Γ bootstrap resamples with |X_γ| = |X|. Every index is
    // drawn before any job runs, and fitting never touches `rng`, so the
    // draws are those of a one-resample-at-a-time loop.
    let mut rng = StdRng::seed_from_u64(seed);
    let fits = (0..gamma).map(|_| Job::Fit((0..n).map(|_| rng.gen_range(0..n)).collect()));
    let jobs: Vec<Job<S>> = std::iter::once(Job::Scope(sample_scope)).chain(fits).collect();
    // Line 4: the Γ evaluation functions f_γ are fitted concurrently with
    // the scope sample, and each scores the scope once it is published.
    // `bs.fits` names the caller's part; spans on worker threads are their
    // own roots.
    let scope: OnceLock<Option<Scope>> = OnceLock::new();
    let predictions = {
        let _fits = tel.span("bs.fits");
        let workers = (gamma + 1).min(executor::cpu_share());
        executor::run_ordered(jobs, workers, |j, job| match job {
            Job::Scope(sample) => {
                let _release = Release(&scope);
                let _ = scope.set(Some(sample()));
                None
            }
            Job::Fit(indices) => {
                let xg = x.select_rows(&indices);
                let yg: Vec<f64> = indices.iter().map(|&i| ys[i]).collect();
                let mut eval = make_evaluator();
                {
                    let _fit = tel.span("bs.fit");
                    eval.fit(&xg, &yg, seed.wrapping_add(j as u64 - 1));
                }
                // Job 0 was claimed before this one and never waits, so
                // the scope is published (or abandoned) in bounded time.
                let (members, cand_x) = scope.wait().as_ref()?;
                if members.is_empty() {
                    return None;
                }
                assert_eq!(cand_x.rows(), members.len(), "candidate row count mismatch");
                let _predict = tel.span("bs.predict");
                Some(eval.predict(cand_x))
            }
        })
    };
    // A sampler that panicked has already panicked the join above.
    let Some((candidates, cand_x)) = scope.into_inner().flatten() else {
        unreachable!("the scope job published its scope")
    };
    // Emitted once the scope's size is known (it no longer opens the step).
    tel.event("bs.start", || {
        telemetry::json!({
            "measured": n as u64,
            "candidates": candidates.len() as u64,
            "gamma": gamma as u64,
        })
    });
    if candidates.is_empty() {
        return ((candidates, cand_x), None);
    }
    // Line 6 accumulation, in γ order whatever the fits' finishing order:
    // Σ_γ f_γ(x), plus Σ_γ f_γ(x)² so the winner's bagged mean/std fall out
    // without a second prediction pass.
    let mut scores = vec![0.0f64; candidates.len()];
    let mut sq_scores = vec![0.0f64; candidates.len()];
    for prediction in predictions.into_iter().flatten() {
        for ((s, s2), p) in scores.iter_mut().zip(&mut sq_scores).zip(prediction) {
            *s += p;
            *s2 += p * p;
        }
    }

    let best = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        // aal-lint: allow(unwrap, reason = "the scope was checked non-empty above")
        .expect("candidates is non-empty");
    #[allow(clippy::cast_precision_loss)]
    let g = gamma as f64;
    let mean = scores[best] / g;
    let std = (sq_scores[best] / g - mean * mean).max(0.0).sqrt();
    let diag = ProposalDiag {
        config_index: candidates[best].index,
        predicted_mean: Some(mean),
        predicted_std: Some(std),
        acquisition: Some(scores[best]),
    };
    ((candidates, cand_x), Some((best, diag)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{GbtEvaluator, RidgeEvaluator};
    use proptest::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use schedule::Knob;

    /// A space whose "performance" is a simple function of the choices, so
    /// BS should find the candidate with the highest value.
    fn toy() -> (ConfigSpace, impl Fn(&Config) -> f64) {
        let space =
            ConfigSpace::new("toy", vec![Knob::split("a", 256, 2), Knob::split("b", 256, 2)]);
        let f = |c: &Config| (c.choices[0] as f64) - 0.5 * (c.choices[1] as f64);
        (space, f)
    }

    fn measured_set(
        space: &ConfigSpace,
        truth: impl Fn(&Config) -> f64,
        n: usize,
    ) -> Vec<(Config, f64)> {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        space
            .sample_distinct(&mut rng, n)
            .into_iter()
            .map(|c| {
                let y = truth(&c);
                (c, y)
            })
            .collect()
    }

    #[test]
    fn picks_a_high_value_candidate() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 60);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let candidates = space.sample_distinct(&mut rng, 40);
        let chosen = bootstrap_select(&space, &measured, &candidates, 2, GbtEvaluator::default, 7)
            .expect("candidates non-empty");
        let best_truth = candidates.iter().map(&truth).fold(f64::NEG_INFINITY, f64::max);
        // The chosen candidate should be near the top of the candidate set.
        assert!(truth(&chosen) > 0.6 * best_truth, "chose {}", truth(&chosen));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 10);
        let r = bootstrap_select(&space, &measured, &[], 2, GbtEvaluator::default, 0);
        assert!(r.is_none());
    }

    #[test]
    fn works_with_ridge_evaluator_too() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 60);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let candidates = space.sample_distinct(&mut rng, 30);
        let chosen =
            bootstrap_select(&space, &measured, &candidates, 3, || RidgeEvaluator::new(0.1), 7)
                .expect("candidates non-empty");
        // Linear truth, linear model: should pick (nearly) the argmax.
        let best_truth = candidates.iter().map(&truth).fold(f64::NEG_INFINITY, f64::max);
        assert!(truth(&chosen) > 0.8 * best_truth);
    }

    #[test]
    fn deterministic_given_seed() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 40);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let candidates = space.sample_distinct(&mut rng, 20);
        let a = bootstrap_select(&space, &measured, &candidates, 2, GbtEvaluator::default, 9);
        let b = bootstrap_select(&space, &measured, &candidates, 2, GbtEvaluator::default, 9);
        assert_eq!(a.map(|c| c.index), b.map(|c| c.index));
    }

    #[test]
    fn diag_variant_matches_plain_selection() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 40);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let candidates = space.sample_distinct(&mut rng, 20);
        let plain = bootstrap_select(&space, &measured, &candidates, 3, GbtEvaluator::default, 11)
            .expect("candidates non-empty");
        let (cfg, diag) =
            bootstrap_select_diag(&space, &measured, &candidates, 3, GbtEvaluator::default, 11)
                .expect("candidates non-empty");
        assert_eq!(cfg.index, plain.index, "diag variant must not change the pick");
        assert_eq!(diag.config_index, cfg.index);
        // acquisition is the Γ-sum, predicted_mean its average.
        let acq = diag.acquisition.unwrap();
        let mean = diag.predicted_mean.unwrap();
        assert!((acq - 3.0 * mean).abs() < 1e-9);
        assert!(diag.predicted_std.unwrap() >= 0.0);
    }

    #[test]
    fn single_resample_diag_has_zero_std() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 30);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let candidates = space.sample_distinct(&mut rng, 10);
        let (_, diag) =
            bootstrap_select_diag(&space, &measured, &candidates, 1, GbtEvaluator::default, 3)
                .expect("candidates non-empty");
        assert_eq!(diag.predicted_std.unwrap(), 0.0, "one model cannot disagree with itself");
    }

    /// The serial reference: one resample drawn, fitted and summed at a
    /// time, as BS ran before its fits went concurrent.
    fn select_serial<E: Evaluator>(
        x: &Matrix,
        ys: &[f64],
        candidates: &[Config],
        cand_x: &Matrix,
        gamma: usize,
        make_evaluator: impl Fn() -> E,
        seed: u64,
    ) -> (Config, ProposalDiag) {
        let n = x.rows();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores = vec![0.0f64; candidates.len()];
        let mut sq_scores = vec![0.0f64; candidates.len()];
        for g in 0..gamma {
            let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let xg = x.select_rows(&indices);
            let yg: Vec<f64> = indices.iter().map(|&i| ys[i]).collect();
            let mut eval = make_evaluator();
            eval.fit(&xg, &yg, seed.wrapping_add(g as u64));
            for ((s, s2), p) in scores.iter_mut().zip(&mut sq_scores).zip(eval.predict(cand_x)) {
                *s += p;
                *s2 += p * p;
            }
        }
        let best =
            scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
        let g = gamma as f64;
        let mean = scores[best] / g;
        let std = (sq_scores[best] / g - mean * mean).max(0.0).sqrt();
        let diag = ProposalDiag {
            config_index: candidates[best].index,
            predicted_mean: Some(mean),
            predicted_std: Some(std),
            acquisition: Some(scores[best]),
        };
        (candidates[best].clone(), diag)
    }

    /// The winning candidate of a [`select_while_sampling`] call.
    fn pick(
        ((members, _), winner): (Scope, Option<(usize, ProposalDiag)>),
    ) -> (Config, ProposalDiag) {
        let (best, diag) = winner.expect("the scope is non-empty");
        (members[best].clone(), diag)
    }

    /// The bits of a diagnostic's mean, std and acquisition.
    fn diag_bits(d: &ProposalDiag) -> [Option<u64>; 3] {
        [d.predicted_mean, d.predicted_std, d.acquisition].map(|v| v.map(f64::to_bits))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Fits run beside the scope sample pick the serial loop's
        /// candidate with the same mean, std and acquisition bits, for any
        /// Γ, either evaluator family, and small or duplicate-heavy
        /// measured sets.
        #[test]
        fn concurrent_fits_match_the_serial_loop_bit_for_bit(
            gamma in 1usize..=5,
            measured_n in 1usize..=24,
            distinct in 1usize..=10,
            ridge in prop_oneof![Just(false), Just(true)],
            seed in 0u64..1_000_000,
        ) {
            let (space, truth) = toy();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Drawing from a pool of `distinct` configurations repeats
            // rows whenever the pool is smaller than the measured set.
            let pool = space.sample_distinct(&mut rng, distinct);
            let measured: Vec<(Config, f64)> = (0..measured_n)
                .map(|_| {
                    let c = pool[rng.gen_range(0..pool.len())].clone();
                    let y = truth(&c);
                    (c, y)
                })
                .collect();
            let candidates = space.sample_distinct(&mut rng, 16);
            let x = feature_rows(&space, measured.iter().map(|(c, _)| c));
            let ys: Vec<f64> = measured.iter().map(|&(_, y)| y).collect();
            let cand_x = feature_rows(&space, &candidates);
            let scope = || (candidates.clone(), cand_x.clone());
            let ((got, got_diag), (want, want_diag)) = if ridge {
                let make = || RidgeEvaluator::new(0.1);
                (
                    pick(select_while_sampling(&x, &ys, gamma, make, seed, scope)),
                    select_serial(&x, &ys, &candidates, &cand_x, gamma, make, seed),
                )
            } else {
                let make = GbtEvaluator::default;
                (
                    pick(select_while_sampling(&x, &ys, gamma, make, seed, scope)),
                    select_serial(&x, &ys, &candidates, &cand_x, gamma, make, seed),
                )
            };
            prop_assert_eq!(got.index, want.index);
            prop_assert_eq!(got_diag.config_index, want_diag.config_index);
            prop_assert_eq!(diag_bits(&got_diag), diag_bits(&want_diag));
        }
    }

    #[test]
    fn an_empty_scope_picks_nothing() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 12);
        let x = feature_rows(&space, measured.iter().map(|(c, _)| c));
        let ys: Vec<f64> = measured.iter().map(|&(_, y)| y).collect();
        let empty = || (Vec::new(), Matrix::new(Vec::new(), 0, x.cols()));
        let ((members, _), pick) =
            select_while_sampling(&x, &ys, 2, GbtEvaluator::default, 3, empty);
        assert!(members.is_empty());
        assert!(pick.is_none());
    }

    #[test]
    fn a_panicking_scope_sampler_panics_the_step_instead_of_hanging_it() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 12);
        let x = feature_rows(&space, measured.iter().map(|(c, _)| c));
        let ys: Vec<f64> = measured.iter().map(|&(_, y)| y).collect();
        for share in 1..=3 {
            executor::set_cpu_share(share);
            let step = std::panic::catch_unwind(|| {
                select_while_sampling(&x, &ys, 2, GbtEvaluator::default, 3, || -> Scope {
                    panic!("sampler failed")
                })
            });
            assert!(step.is_err(), "share {share}");
        }
    }

    #[test]
    #[should_panic(expected = "initial measured set")]
    fn empty_measured_panics() {
        let (space, _) = toy();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let candidates = space.sample_distinct(&mut rng, 5);
        let _ = bootstrap_select(&space, &[], &candidates, 2, GbtEvaluator::default, 0);
    }
}
