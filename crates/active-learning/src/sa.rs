//! Simulated annealing over a configuration space.
//!
//! AutoTVM's model-guided proposer (reference \[16\] in the paper): a population of
//! walkers mutates one knob at a time, accepting moves on the model score
//! with a linearly decaying temperature, while a running top-k of every
//! visited point becomes the next measurement plan.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schedule::{Config, ConfigSpace};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Annealing parameters (AutoTVM defaults, scaled to this harness).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaOptions {
    /// Number of parallel walkers.
    pub parallel_size: usize,
    /// Mutation iterations.
    pub n_iter: usize,
    /// Start temperature (relative score units).
    pub temp_start: f64,
    /// Final temperature.
    pub temp_end: f64,
}

impl Default for SaOptions {
    fn default() -> Self {
        SaOptions { parallel_size: 64, n_iter: 120, temp_start: 1.0, temp_end: 0.0 }
    }
}

/// Writes into `out` a copy of `cfg` with one random knob moved to a
/// different candidate. `out`'s choice buffer is reused.
fn mutate(space: &ConfigSpace, cfg: &Config, rng: &mut StdRng, out: &mut Config) {
    let choices = &mut out.choices;
    choices.clone_from(&cfg.choices);
    // Find a knob with more than one candidate (spaces of interest always
    // have one, but stay total).
    for _ in 0..16 {
        let k = rng.gen_range(0..choices.len());
        let card = space.knobs()[k].cardinality();
        if card <= 1 {
            continue;
        }
        let mut c = rng.gen_range(0..card - 1);
        if c >= choices[k] {
            c += 1;
        }
        choices[k] = c;
        break;
    }
    out.index = space.index_of(choices);
}

#[derive(PartialEq)]
struct HeapItem {
    score: f64,
    index: u64,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on score via reversal so the heap root is the worst of
        // the current top-k.
        other.score.total_cmp(&self.score).then(other.index.cmp(&self.index))
    }
}

/// Runs simulated annealing maximizing `score`, returning up to `plan_size`
/// distinct configurations ordered best-first.
///
/// `score` receives a batch of configurations and returns one value per
/// configuration (so the caller can use a batched model). `exclude` holds
/// already-measured indices that must not appear in the plan.
///
/// # Example
///
/// ```
/// use active_learning::sa::{simulated_annealing, SaOptions};
/// use schedule::{ConfigSpace, Knob};
/// use std::collections::BTreeSet;
///
/// let space = ConfigSpace::new("demo", vec![Knob::split("t", 256, 2)]);
/// // Prefer balanced splits: maximize min(outer, inner).
/// let plan = simulated_annealing(
///     &space,
///     |cands| cands.iter().map(|c| {
///         let f = space.values(c)[0].as_split().unwrap().to_vec();
///         f[0].min(f[1]) as f64
///     }).collect(),
///     &SaOptions::default(),
///     1,
///     &BTreeSet::new(),
///     42,
/// );
/// let best = space.values(&plan[0])[0].as_split().unwrap().to_vec();
/// assert_eq!(best, vec![16, 16]);
/// ```
pub fn simulated_annealing<S>(
    space: &ConfigSpace,
    score: S,
    opts: &SaOptions,
    plan_size: usize,
    exclude: &BTreeSet<u64>,
    seed: u64,
) -> Vec<Config>
where
    S: Fn(&[Config]) -> Vec<f64>,
{
    simulated_annealing_scored(space, score, opts, plan_size, exclude, seed)
        .into_iter()
        .map(|(cfg, _)| cfg)
        .collect()
}

/// [`simulated_annealing`] keeping each plan entry's model score.
///
/// The scores are already tracked by the top-k heap during the search, so
/// returning them costs nothing — this is what lets introspection capture
/// record acquisition scores without re-scoring the plan.
pub fn simulated_annealing_scored<S>(
    space: &ConfigSpace,
    score: S,
    opts: &SaOptions,
    plan_size: usize,
    exclude: &BTreeSet<u64>,
    seed: u64,
) -> Vec<(Config, f64)>
where
    S: Fn(&[Config]) -> Vec<f64>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points: Vec<Config> = (0..opts.parallel_size).map(|_| space.sample(&mut rng)).collect();
    let mut scores = score(&points);

    // Top-k tracker over every point SA visits.
    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
    let mut in_heap: BTreeSet<u64> = BTreeSet::new();
    let mut configs_by_index: BTreeMap<u64, Config> = BTreeMap::new();
    let offer = |heap: &mut BinaryHeap<HeapItem>,
                 in_heap: &mut BTreeSet<u64>,
                 configs_by_index: &mut BTreeMap<u64, Config>,
                 cfg: &Config,
                 s: f64| {
        if exclude.contains(&cfg.index) || in_heap.contains(&cfg.index) {
            return;
        }
        if heap.len() < plan_size {
            in_heap.insert(cfg.index);
            configs_by_index.insert(cfg.index, cfg.clone());
            heap.push(HeapItem { score: s, index: cfg.index });
        } else if let Some(worst) = heap.peek() {
            if s > worst.score {
                // aal-lint: allow(unwrap, reason = "guarded by the heap length check above")
                let removed = heap.pop().expect("heap non-empty");
                in_heap.remove(&removed.index);
                configs_by_index.remove(&removed.index);
                in_heap.insert(cfg.index);
                configs_by_index.insert(cfg.index, cfg.clone());
                heap.push(HeapItem { score: s, index: cfg.index });
            }
        }
    };

    for (p, &s) in points.iter().zip(&scores) {
        offer(&mut heap, &mut in_heap, &mut configs_by_index, p, s);
    }

    let tel = telemetry::global();
    let _span = tel.span("sa.search");
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    // One proposal per walker, rewritten in place every iteration; an
    // accepted proposal swaps places with its walker's point.
    let mut proposals = points.clone();
    for iter in 0..opts.n_iter {
        let t = opts.temp_start
            + (opts.temp_end - opts.temp_start) * (iter as f64 / opts.n_iter.max(1) as f64);
        for (p, out) in points.iter().zip(&mut proposals) {
            mutate(space, p, &mut rng, out);
        }
        let new_scores = score(&proposals);
        for i in 0..points.len() {
            offer(&mut heap, &mut in_heap, &mut configs_by_index, &proposals[i], new_scores[i]);
            let accept = new_scores[i] > scores[i]
                || (t > 0.0 && rng.gen::<f64>() < ((new_scores[i] - scores[i]) / t).exp());
            if accept {
                accepted += 1;
                std::mem::swap(&mut points[i], &mut proposals[i]);
                scores[i] = new_scores[i];
            } else {
                rejected += 1;
            }
        }
    }
    // One counter update per SA run, not per proposal: the inner loop stays
    // free of locks even when telemetry is enabled. The `sa.done` event
    // carries the same totals per invocation, so traces can reconstruct the
    // accept rate over time rather than only its end-of-run aggregate.
    tel.count("sa.proposals.accepted", accepted);
    tel.count("sa.proposals.rejected", rejected);
    tel.event(
        telemetry::events::SA_DONE_EVENT,
        || telemetry::json!({ "accepted": accepted, "rejected": rejected }),
    );

    let mut plan: Vec<HeapItem> = heap.into_vec();
    plan.sort_by(|a, b| b.score.total_cmp(&a.score));
    plan.into_iter()
        // aal-lint: allow(unwrap, reason = "offer() inserts into configs_by_index for every index it pushes on the heap")
        .map(|item| (configs_by_index.remove(&item.index).expect("config tracked"), item.score))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedule::Knob;

    fn toy_space() -> ConfigSpace {
        ConfigSpace::new("toy", vec![Knob::split("a", 1024, 2), Knob::split("b", 1024, 2)])
    }

    /// Score peaked at a specific knob combination.
    fn peaked_score(points: &[Config]) -> Vec<f64> {
        points
            .iter()
            .map(|c| {
                let a = c.choices[0] as f64;
                let b = c.choices[1] as f64;
                -((a - 7.0) * (a - 7.0) + (b - 3.0) * (b - 3.0))
            })
            .collect()
    }

    #[test]
    fn finds_the_peak_region() {
        let space = toy_space();
        let plan = simulated_annealing(
            &space,
            peaked_score,
            &SaOptions::default(),
            8,
            &BTreeSet::new(),
            1,
        );
        assert!(!plan.is_empty());
        // Best plan entry should be at/near the peak (7, 3).
        let best = &plan[0];
        assert!((best.choices[0] as f64 - 7.0).abs() <= 1.0);
        assert!((best.choices[1] as f64 - 3.0).abs() <= 1.0);
    }

    #[test]
    fn plan_is_distinct_and_sorted() {
        let space = toy_space();
        let plan = simulated_annealing(
            &space,
            peaked_score,
            &SaOptions::default(),
            16,
            &BTreeSet::new(),
            2,
        );
        let mut seen = BTreeSet::new();
        for c in &plan {
            assert!(seen.insert(c.index), "duplicate plan entry");
        }
        let scores = peaked_score(&plan);
        for w in scores.windows(2) {
            assert!(w[0] >= w[1], "plan not sorted best-first");
        }
    }

    #[test]
    fn excluded_indices_never_returned() {
        let space = toy_space();
        // Exclude the exact peak.
        let peak_choices = vec![7usize, 3usize];
        let peak_index = space.index_of(&peak_choices);
        let mut exclude = BTreeSet::new();
        exclude.insert(peak_index);
        let plan = simulated_annealing(&space, peaked_score, &SaOptions::default(), 8, &exclude, 3);
        assert!(plan.iter().all(|c| c.index != peak_index));
    }

    #[test]
    fn mutation_changes_exactly_one_knob() {
        let space = toy_space();
        let mut rng = StdRng::seed_from_u64(4);
        let base = space.config(100).unwrap();
        let mut m = space.config(7).unwrap();
        for _ in 0..50 {
            mutate(&space, &base, &mut rng, &mut m);
            assert_eq!(m.index, space.index_of(&m.choices));
            let diffs = base.choices.iter().zip(&m.choices).filter(|(a, b)| a != b).count();
            assert_eq!(diffs, 1);
        }
    }

    #[test]
    fn scored_variant_matches_plain_and_reports_true_scores() {
        let space = toy_space();
        let plain = simulated_annealing(
            &space,
            peaked_score,
            &SaOptions::default(),
            8,
            &BTreeSet::new(),
            6,
        );
        let scored = simulated_annealing_scored(
            &space,
            peaked_score,
            &SaOptions::default(),
            8,
            &BTreeSet::new(),
            6,
        );
        assert_eq!(
            plain.iter().map(|c| c.index).collect::<Vec<_>>(),
            scored.iter().map(|(c, _)| c.index).collect::<Vec<_>>(),
            "scored variant must not change the plan"
        );
        for (cfg, s) in &scored {
            let truth = peaked_score(std::slice::from_ref(cfg))[0];
            assert_eq!(*s, truth, "plan score must be the model score of its config");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let space = toy_space();
        let a: Vec<u64> = simulated_annealing(
            &space,
            peaked_score,
            &SaOptions::default(),
            8,
            &BTreeSet::new(),
            9,
        )
        .iter()
        .map(|c| c.index)
        .collect();
        let b: Vec<u64> = simulated_annealing(
            &space,
            peaked_score,
            &SaOptions::default(),
            8,
            &BTreeSet::new(),
            9,
        )
        .iter()
        .map(|c| c.index)
        .collect();
        assert_eq!(a, b);
    }
}
