//! Radius-based neighborhoods over configurations.
//!
//! BAO (Algorithm 4) restricts each optimization step to the neighborhood of
//! the incumbent with radius `R` (Euclidean, the paper sets `R = 3`), and
//! widens it when the relative improvement stalls. Two distance notions are
//! provided:
//!
//! * **Feature space** ([`feature_distance`], [`NeighborhoodSampler`])
//!   — Euclidean distance between the log-scaled feature embeddings of
//!   Definition 1 ("deployment settings … encoded as the attributes of a
//!   feature vector"). One factor-of-2 tiling change moves a configuration
//!   √2 away, so `R = 3` spans one-to-two elementary schedule edits. This is
//!   the neighborhood BAO searches.
//! * **Choice coordinates** ([`distance`], [`sample_neighborhood`],
//!   [`enumerate_neighborhood`]) — distance between per-knob candidate
//!   indices; cheap, enumerable, used for diagnostics and tests.

use crate::feature::{features, sq_distance, FeatureTable};
use crate::index::IndexSet;
use crate::knob::Knob;
use crate::space::{Config, ConfigSpace};
use rand::Rng;

#[cfg(test)]
mod reference;

/// Euclidean distance between two configurations in choice coordinates.
///
/// # Panics
///
/// Panics if the configurations come from spaces with different knob counts.
#[must_use]
pub fn distance(a: &Config, b: &Config) -> f64 {
    assert_eq!(a.choices.len(), b.choices.len(), "knob count mismatch");
    a.choices
        .iter()
        .zip(&b.choices)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Enumerates every configuration within `radius` of `center` (excluding
/// `center` itself). Exact but exponential in the knob count — intended for
/// small radii and for validating the sampler.
#[must_use]
pub fn enumerate_neighborhood(space: &ConfigSpace, center: &Config, radius: f64) -> Vec<Config> {
    let r2 = radius * radius;
    let dims: Vec<usize> = space.knobs().iter().map(|k| k.cardinality()).collect();
    let mut out = Vec::new();
    let mut cur = vec![0usize; dims.len()];
    fn rec(
        dim: usize,
        budget: f64,
        center: &[usize],
        dims: &[usize],
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if dim == dims.len() {
            out.push(cur.clone());
            return;
        }
        let c = center[dim] as i64;
        let max_off = budget.sqrt().floor() as i64;
        for off in -max_off..=max_off {
            let v = c + off;
            if v < 0 || v >= dims[dim] as i64 {
                continue;
            }
            let used = (off * off) as f64;
            cur[dim] = v as usize;
            rec(dim + 1, budget - used, center, dims, cur, out);
        }
        cur[dim] = center[dim];
    }
    let mut raw = Vec::new();
    rec(0, r2, &center.choices, &dims, &mut cur, &mut raw);
    for choices in raw {
        if choices == center.choices {
            continue;
        }
        let index = space.index_of(&choices);
        out.push(Config { index, choices });
    }
    out
}

/// Samples up to `n` distinct configurations within `radius` of `center`
/// (excluding `center`) by rejection sampling.
///
/// Attempts are capped, so for tiny neighborhoods fewer than `n`
/// configurations may be returned; callers treat the result as the search
/// scope `C` of Algorithm 3.
pub fn sample_neighborhood<R: Rng + ?Sized>(
    space: &ConfigSpace,
    center: &Config,
    radius: f64,
    n: usize,
    rng: &mut R,
) -> Vec<Config> {
    let r2 = radius * radius;
    let reach = radius.floor() as i64;
    let dims: Vec<i64> = space.knobs().iter().map(|k| k.cardinality() as i64).collect();
    let mut seen = IndexSet::with_capacity_and_hasher(n, Default::default());
    let mut out = Vec::with_capacity(n);
    // Rejection sampling from the bounding box; the acceptance rate of an
    // L2 ball in <=8 dims is >1%, so the attempt cap is generous.
    let max_attempts = n.saturating_mul(200).max(20_000);
    let mut choices = vec![0usize; dims.len()];
    for _ in 0..max_attempts {
        if out.len() >= n {
            break;
        }
        let mut norm2 = 0.0;
        let mut in_bounds = true;
        let mut all_zero = true;
        for (d, &card) in dims.iter().enumerate() {
            let off = rng.gen_range(-reach..=reach);
            let v = center.choices[d] as i64 + off;
            if v < 0 || v >= card {
                in_bounds = false;
                break;
            }
            if off != 0 {
                all_zero = false;
            }
            norm2 += (off * off) as f64;
            choices[d] = v as usize;
        }
        if !in_bounds || all_zero || norm2 > r2 {
            continue;
        }
        let index = space.index_of(&choices);
        if seen.insert(index) {
            out.push(Config { index, choices: choices.clone() });
        }
    }
    out
}

/// Euclidean distance between two configurations **in feature space** (the
/// log-scaled embedding of [`crate::feature::features`]) — the paper's
/// Definition 1 treats a configuration as its feature vector, so this is
/// the distance its radius `R = 3` refers to.
#[must_use]
pub fn feature_distance(space: &ConfigSpace, a: &Config, b: &Config) -> f64 {
    sq_distance(&features(space, a), &features(space, b)).sqrt()
}

/// How one knob moves, as laid out in a [`MoveTable`].
#[derive(Debug, Clone, Copy)]
enum KnobMoves {
    /// A split knob with `outputs` slots; the moves of candidate `c` from
    /// donor slot `from` to receiver slot `to` sit at
    /// `base + (c * outputs + from) * outputs + to`.
    Split { outputs: usize, base: usize },
    /// A categorical knob with `len` values.
    Choice { len: usize },
}

/// The outcome of every elementary schedule move in one space, computed
/// once so that composing moves allocates and searches nothing.
///
/// * Split knobs: move the smallest prime factor of one output slot (the
///   donor) to another (the receiver) — the smallest semantically
///   meaningful schedule change (`√2·log2(p)` apart in feature space for a
///   factor `p`). The table holds the resulting candidate for every
///   (candidate, donor, receiver). A donor holding 1 admits no move: its
///   entry is the candidate itself, and a real move always lands
///   elsewhere, so a move happened exactly when the candidate changed.
/// * Choice knobs: step to an adjacent candidate (no table needed).
#[derive(Debug, Clone)]
struct MoveTable {
    knobs: Vec<KnobMoves>,
    split_to: Vec<usize>,
}

/// The candidate reached from candidate `c` by moving the smallest prime
/// factor of slot `from` to slot `to`; `c` itself if slot `from` holds 1.
fn split_move(
    candidates: &[Vec<usize>],
    c: usize,
    from: usize,
    to: usize,
    factors: &mut Vec<usize>,
) -> usize {
    let f = candidates[c][from];
    if f == 1 || from == to {
        return c;
    }
    // aal-lint: allow(unwrap, reason = "every integer greater than 1 has a prime factor")
    let p = (2..).find(|&d| f.is_multiple_of(d)).expect("f > 1 has a prime factor");
    factors.clear();
    factors.extend_from_slice(&candidates[c]);
    factors[from] /= p;
    factors[to] *= p;
    // Candidates are enumerated in lexicographic order, so the moved tuple
    // is found by binary search.
    candidates.binary_search(factors).unwrap_or(c)
}

impl MoveTable {
    /// Tabulates the moves of every knob of `space`.
    fn new(space: &ConfigSpace) -> Self {
        let mut split_to = Vec::new();
        let mut factors = Vec::new();
        let knobs = space
            .knobs()
            .iter()
            .map(|knob| match knob {
                Knob::Split { candidates, num_outputs, .. } => {
                    let (outputs, base) = (*num_outputs, split_to.len());
                    for c in 0..candidates.len() {
                        for from in 0..outputs {
                            for to in 0..outputs {
                                split_to.push(split_move(candidates, c, from, to, &mut factors));
                            }
                        }
                    }
                    KnobMoves::Split { outputs, base }
                }
                Knob::Choice { values, .. } => KnobMoves::Choice { len: values.len() },
            })
            .collect();
        MoveTable { knobs, split_to }
    }

    /// One elementary schedule move applied in place to `choices`: a
    /// uniformly drawn knob, then (split) a donor and a distinct receiver
    /// slot or (choice) a direction. Returns `false` if the move changes
    /// nothing.
    fn apply<R: Rng + ?Sized>(&self, choices: &mut [usize], rng: &mut R) -> bool {
        let k = rng.gen_range(0..choices.len());
        match self.knobs[k] {
            KnobMoves::Split { outputs, base } => {
                let from = rng.gen_range(0..outputs);
                let to = (from + rng.gen_range(1..outputs)) % outputs;
                // Branch-free: whether a move happened is unpredictable.
                let c = choices[k];
                choices[k] = self.split_to[base + (c * outputs + from) * outputs + to];
                choices[k] != c
            }
            KnobMoves::Choice { len } => {
                if len < 2 {
                    return false;
                }
                let c = choices[k];
                choices[k] = if c == 0 {
                    1
                } else if c == len - 1 || rng.gen_bool(0.5) {
                    c - 1
                } else {
                    c + 1
                };
                true
            }
        }
    }
}

/// BAO's search-scope generator: samples configurations within a
/// feature-space radius of a center by composing elementary schedule moves
/// and rejecting compositions that leave the radius.
///
/// It yields *semantically* local schedules (nearby tilings, one-step
/// unroll changes) rather than nearby candidate indices. It owns tables of
/// the space's moves and of its knob candidates' features, and the buffers
/// one call needs, so an attempt allocates nothing unless its candidate
/// joins the scope.
#[derive(Debug, Clone)]
pub struct NeighborhoodSampler<'s> {
    space: &'s ConfigSpace,
    moves: MoveTable,
    features: FeatureTable,
    /// The knob choices being composed; cloned only when accepted.
    choices: Vec<usize>,
    center_feat: Vec<f64>,
    seen: IndexSet,
}

impl<'s> NeighborhoodSampler<'s> {
    /// A sampler over `space`, tabulating its moves.
    #[must_use]
    pub fn new(space: &'s ConfigSpace) -> Self {
        NeighborhoodSampler {
            space,
            moves: MoveTable::new(space),
            features: FeatureTable::new(space),
            choices: Vec::with_capacity(space.knobs().len()),
            center_feat: Vec::new(),
            seen: IndexSet::default(),
        }
    }

    /// The space this sampler draws from.
    #[must_use]
    pub fn space(&self) -> &'s ConfigSpace {
        self.space
    }

    /// Samples up to `n` distinct configurations within feature-space
    /// `radius` of `center` (excluding `center`).
    ///
    /// The feature vector of every returned configuration is appended to
    /// `rows` (row-major, in return order): the radius test computes them
    /// anyway, so a caller that scores the scope need not featurize it
    /// again.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        center: &Config,
        radius: f64,
        n: usize,
        rng: &mut R,
        rows: &mut Vec<f64>,
    ) -> Vec<Config> {
        let space = self.space;
        self.center_feat.clear();
        self.features.features_into(&center.choices, &mut self.center_feat);
        let r2 = radius * radius;
        // Each factor-of-2 move displaces about sqrt(2); allow some slack so
        // move chains can cancel.
        let max_moves = ((radius / std::f64::consts::SQRT_2).ceil() as usize + 1).max(2);
        self.seen.clear();
        let mut out = Vec::with_capacity(n);
        // Small radii induce small neighborhoods; a modest attempt cap keeps
        // the per-step cost bounded (BS works fine on a partial scope).
        let max_attempts = n.saturating_mul(8).max(1024);
        for _ in 0..max_attempts {
            if out.len() >= n {
                break;
            }
            let choices = &mut self.choices;
            choices.clone_from(&center.choices);
            let moves = rng.gen_range(1..=max_moves);
            let mut moved = false;
            for _ in 0..moves {
                moved |= self.moves.apply(choices, rng);
            }
            if !moved || *choices == center.choices {
                continue;
            }
            let index = space.index_of(choices);
            if self.seen.contains(&index) {
                continue;
            }
            // Featurize straight into `rows`; a rejected candidate's row is
            // dropped again.
            let start = rows.len();
            self.features.features_into(choices, rows);
            if sq_distance(&self.center_feat, &rows[start..]) > r2 {
                rows.truncate(start);
                continue;
            }
            self.seen.insert(index);
            out.push(Config { index, choices: choices.clone() });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::Knob;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;

    fn space() -> ConfigSpace {
        ConfigSpace::new(
            "t",
            vec![
                Knob::split("a", 64, 2), // 7 candidates
                Knob::split("b", 64, 2), // 7 candidates
                Knob::choice("c", vec![0, 1, 2, 3, 4]),
            ],
        )
    }

    #[test]
    fn distance_is_euclidean_in_choice_space() {
        let s = space();
        let a = s.config(0).unwrap();
        let b = s.config(1).unwrap(); // differs by 1 in knob 0
        assert!((distance(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(distance(&a, &a), 0.0);
    }

    #[test]
    fn enumeration_respects_radius_and_excludes_center() {
        let s = space();
        let center = s.config(s.len() / 2).unwrap();
        let hood = enumerate_neighborhood(&s, &center, 2.0);
        assert!(!hood.is_empty());
        for cfg in &hood {
            assert!(distance(&center, cfg) <= 2.0 + 1e-12);
            assert_ne!(cfg.index, center.index);
        }
    }

    #[test]
    fn sampler_is_subset_of_enumeration() {
        let s = space();
        let center = s.config(s.len() / 2).unwrap();
        let exact: HashSet<u64> =
            enumerate_neighborhood(&s, &center, 3.0).iter().map(|c| c.index).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sampled = sample_neighborhood(&s, &center, 3.0, 500, &mut rng);
        assert!(!sampled.is_empty());
        for cfg in &sampled {
            assert!(exact.contains(&cfg.index), "sampled {} not in ball", cfg.index);
        }
    }

    #[test]
    fn sampler_saturates_small_neighborhoods() {
        let s = space();
        let center = s.config(s.len() / 2).unwrap();
        let exact = enumerate_neighborhood(&s, &center, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let sampled = sample_neighborhood(&s, &center, 1.0, 500, &mut rng);
        // Radius-1 ball = one step along each axis; the sampler should find
        // every member.
        assert_eq!(sampled.len(), exact.len());
    }

    #[test]
    fn feature_neighborhood_respects_radius() {
        let s = space();
        let center = s.config(s.len() / 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let hood =
            NeighborhoodSampler::new(&s).sample(&center, 3.0, 200, &mut rng, &mut Vec::new());
        assert!(!hood.is_empty());
        for cfg in &hood {
            let d = feature_distance(&s, &center, cfg);
            assert!(d <= 3.0 + 1e-9, "distance {d} exceeds radius");
            assert_ne!(cfg.index, center.index);
        }
    }

    #[test]
    fn feature_neighborhood_rows_are_the_members_features() {
        let s = space();
        let center = s.config(s.len() / 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut rows = vec![-1.0]; // appended to, never cleared
        let hood = NeighborhoodSampler::new(&s).sample(&center, 3.0, 50, &mut rng, &mut rows);
        let want: Vec<f64> =
            std::iter::once(-1.0).chain(hood.iter().flat_map(|cfg| features(&s, cfg))).collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn feature_neighborhood_members_are_semantically_close() {
        // A single factor-of-2 shift is sqrt(2) away, so two split-knob
        // changes (2*sqrt(2) ≈ 2.83) cannot fit inside radius 1.5; cheap
        // choice-knob steps may ride along.
        let s = space();
        let center = s.config(s.len() / 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut sampler = NeighborhoodSampler::new(&s);
        for cfg in sampler.sample(&center, 1.5, 100, &mut rng, &mut Vec::new()) {
            let split_diffs = cfg
                .choices
                .iter()
                .zip(&center.choices)
                .zip(s.knobs())
                .filter(|((a, b), k)| a != b && matches!(k, Knob::Split { .. }))
                .count();
            assert!(split_diffs <= 1, "radius-1.5 member changed {split_diffs} split knobs");
        }
    }

    #[test]
    fn tabulated_moves_preserve_split_products() {
        let s = space();
        let table = MoveTable::new(&s);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let center = s.config(s.len() / 2).unwrap();
        for _ in 0..100 {
            let mut choices = center.choices.clone();
            if table.apply(&mut choices, &mut rng) {
                // Decoding must succeed: product invariant held.
                let idx = s.index_of(&choices);
                assert!(s.config(idx).is_ok());
            }
        }
    }

    /// A mobilenet task's space, or (`task == 19`) a small space with a
    /// three-way split and one- and many-valued choice knobs.
    fn sampler_space(task: usize) -> ConfigSpace {
        if task == 19 {
            return ConfigSpace::new(
                "mixed",
                vec![
                    Knob::split("a", 720, 3),
                    Knob::choice("one", vec![7]),
                    Knob::split("b", 64, 2),
                    Knob::choice("c", vec![0, 1, 2, 3, 4]),
                ],
            );
        }
        let model = dnn_graph::models::mobilenet_v1(1);
        crate::template::space_for_task(&dnn_graph::task::extract_tasks(&model)[task])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The table-driven sampler returns the original sampler's members
        /// and feature rows bit for bit and leaves the RNG at the same
        /// draw, over consecutive calls that reuse its buffers.
        #[test]
        fn sampler_matches_the_reference_bit_for_bit(
            task in 0usize..=19,
            radius in prop_oneof![Just(3.0), Just(48.0), 0.5f64..60.0],
            n in prop_oneof![Just(512usize), 1usize..64],
            seed in 0u64..u64::MAX,
            calls in 1usize..=3,
        ) {
            let s = sampler_space(task);
            let mut sampler = NeighborhoodSampler::new(&s);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ref_rng = StdRng::seed_from_u64(seed);
            for call in 0..calls {
                let center = s.sample(&mut rng);
                prop_assert_eq!(center.index, s.sample(&mut ref_rng).index);
                let (mut rows, mut ref_rows) = (vec![-1.0], vec![-1.0]);
                let got = sampler.sample(&center, radius, n, &mut rng, &mut rows);
                let want = reference::sample_feature_neighborhood(
                    &s, &center, radius, n, &mut ref_rng, &mut ref_rows,
                );
                prop_assert_eq!(&got, &want, "members differ at call {}", call);
                let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&rows), bits(&ref_rows), "rows differ at call {}", call);
                prop_assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>(), "RNG drifted at call {}", call);
            }
        }
    }

    #[test]
    fn corner_center_clips_to_bounds() {
        let s = space();
        let center = s.config(0).unwrap(); // all-zero choices
        let hood = enumerate_neighborhood(&s, &center, 3.0);
        for cfg in &hood {
            for (&c, k) in cfg.choices.iter().zip(s.knobs()) {
                assert!(c < k.cardinality());
            }
        }
    }
}
