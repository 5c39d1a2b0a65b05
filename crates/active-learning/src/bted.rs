//! Batch transductive experimental design (Algorithm 2).
//!
//! TED on the full space is infeasible (its kernel matrix is |D|²). BTED
//! restores scalability through randomness and batching: draw `B` random
//! subsets of `M` candidates, TED each down to `m`, union the results, and
//! TED the union down to the final `m`. The batches are independent, so they
//! run on parallel threads — the "system parallelism" the paper highlights —
//! up to the calling thread's [`executor::cpu_share`].

use crate::ted::{ted, TedKernel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use schedule::feature::features;
use schedule::{Config, ConfigSpace, IndexSet};
use serde::{Deserialize, Serialize};

/// Parameters of Algorithm 2, defaulting to the paper's experimental
/// settings: `(µ = 0.1, M = 500, m = 64, B = 10)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BtedOptions {
    /// Normalization coefficient µ.
    pub mu: f64,
    /// Candidates randomly drawn per batch (M).
    pub batch_candidates: usize,
    /// Points TED keeps per batch and finally (m).
    pub num_selected: usize,
    /// Number of batches (B).
    pub num_batches: usize,
    /// Kernel for the TED matrices.
    pub kernel: TedKernel,
}

impl Default for BtedOptions {
    fn default() -> Self {
        BtedOptions {
            mu: 0.1,
            batch_candidates: 500,
            num_selected: 64,
            num_batches: 10,
            kernel: TedKernel::Euclidean,
        }
    }
}

/// Runs one TED batch: sample `M` configs, keep the `m` most informative.
fn ted_batch(space: &ConfigSpace, opts: &BtedOptions, seed: u64) -> Vec<Config> {
    let tel = telemetry::global();
    let _span = tel.span("bted.batch");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let candidates = space.sample_distinct(&mut rng, opts.batch_candidates);
    tel.observe("bted.batch_size", candidates.len() as f64);
    let feats: Vec<Vec<f64>> = candidates.iter().map(|c| features(space, c)).collect();
    ted(&feats, opts.mu, opts.num_selected, opts.kernel)
        .into_iter()
        .map(|i| candidates[i].clone())
        .collect()
}

/// Algorithm 2: `BTED(V, µ, M, m, B)` over the task's configuration space.
///
/// Returns the initial configuration set `X` (at most `m` configurations;
/// fewer only if the space itself is smaller). Batches run on scoped
/// threads when more than one CPU is available.
///
/// # Example
///
/// ```
/// use active_learning::bted::{bted, BtedOptions};
/// use dnn_graph::{models, task::extract_tasks};
/// use schedule::template::space_for_task;
///
/// let task = extract_tasks(&models::mobilenet_v1(1)).remove(0);
/// let space = space_for_task(&task);
/// let opts = BtedOptions { batch_candidates: 100, num_batches: 2, ..BtedOptions::default() };
/// let init = bted(&space, &opts, 7);
/// assert_eq!(init.len(), 64); // the paper's m = 64
/// ```
#[must_use]
pub fn bted(space: &ConfigSpace, opts: &BtedOptions, seed: u64) -> Vec<Config> {
    let tel = telemetry::global();
    let _span = tel.span("bted");
    tel.event("bted.start", || {
        telemetry::json!({
            "num_batches": opts.num_batches as u64,
            "batch_candidates": opts.batch_candidates as u64,
            "num_selected": opts.num_selected as u64,
        })
    });
    // The batches run on up to the calling thread's CPU share, and their
    // union keeps batch order whatever order they finish in.
    let seeds: Vec<u64> =
        (0..opts.num_batches).map(|b| seed.wrapping_add(b as u64 * 0x9E37_79B9)).collect();
    let union: Vec<Config> = executor::run_ordered(seeds, executor::cpu_share(), |_, bseed| {
        ted_batch(space, opts, bseed)
    })
    .into_iter()
    .flatten()
    .collect();

    // Line 5: the union may contain duplicates across batches.
    let raw_union = union.len();
    let mut seen = IndexSet::default();
    let union: Vec<Config> = union.into_iter().filter(|c| seen.insert(c.index)).collect();
    tel.event(
        "bted.union",
        || telemetry::json!({ "raw": raw_union as u64, "distinct": union.len() as u64 }),
    );

    // Line 6: final TED over the union.
    let _final_span = tel.span("bted.final_ted");
    let feats: Vec<Vec<f64>> = union.iter().map(|c| features(space, c)).collect();
    ted(&feats, opts.mu, opts.num_selected, opts.kernel)
        .into_iter()
        .map(|i| union[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ted::dispersion;
    use schedule::template::space_for_task;

    fn space() -> ConfigSpace {
        let task = dnn_graph::task::extract_tasks(&dnn_graph::models::mobilenet_v1(1)).remove(0);
        space_for_task(&task)
    }

    #[test]
    fn returns_m_distinct_configs() {
        let s = space();
        let opts = BtedOptions { batch_candidates: 100, num_batches: 3, ..BtedOptions::default() };
        let init = bted(&s, &opts, 1);
        assert_eq!(init.len(), 64);
        let mut idx: Vec<u64> = init.iter().map(|c| c.index).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 64);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = space();
        let opts = BtedOptions { batch_candidates: 80, num_batches: 2, ..BtedOptions::default() };
        let a: Vec<u64> = bted(&s, &opts, 5).iter().map(|c| c.index).collect();
        let b: Vec<u64> = bted(&s, &opts, 5).iter().map(|c| c.index).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bted_initial_set_is_more_dispersed_than_random() {
        // The claim behind Section III-A: BTED scatters the initial set.
        let s = space();
        let opts = BtedOptions {
            batch_candidates: 200,
            num_batches: 4,
            num_selected: 32,
            ..BtedOptions::default()
        };
        let sel = bted(&s, &opts, 3);
        let sel_feats: Vec<Vec<f64>> = sel.iter().map(|c| features(&s, c)).collect();
        let sel_idx: Vec<usize> = (0..sel_feats.len()).collect();
        let bted_disp = dispersion(&sel_feats, &sel_idx);

        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut rand_disp = 0.0;
        let reps = 10;
        for _ in 0..reps {
            let cfgs = s.sample_distinct(&mut rng, 32);
            let feats: Vec<Vec<f64>> = cfgs.iter().map(|c| features(&s, c)).collect();
            let idx: Vec<usize> = (0..feats.len()).collect();
            rand_disp += dispersion(&feats, &idx);
        }
        rand_disp /= f64::from(reps);
        assert!(
            bted_disp > rand_disp,
            "BTED dispersion {bted_disp} should beat random {rand_disp}"
        );
    }

    #[test]
    fn small_space_is_exhausted_gracefully() {
        let s = ConfigSpace::new(
            "tiny",
            vec![
                schedule::Knob::choice("a", vec![0, 1, 2]),
                schedule::Knob::choice("b", vec![0, 1]),
            ],
        );
        let opts = BtedOptions {
            batch_candidates: 100,
            num_batches: 2,
            num_selected: 64,
            ..BtedOptions::default()
        };
        let init = bted(&s, &opts, 0);
        assert_eq!(init.len(), 6, "cannot select more configs than exist");
    }
}
