//! A fitted [`Gbt`] compiled for scoring configurations from their knob
//! choices.
//!
//! Every split of a tree tests one feature, and every feature belongs to
//! one knob, so the leaf a configuration reaches depends only on which
//! candidate it picks for each knob. [`LeafTables::compile`] turns a model
//! into one bit mask per (knob, candidate, tree): the bottom slots of the
//! tree that the candidate's features are consistent with, on every split
//! that tests one of the knob's features. A configuration's leaf is the
//! lowest set bit of the AND of its knobs' masks, so scoring a
//! configuration is a few wide ANDs and one leaf load per tree — no
//! feature vector and no tree walk.
//!
//! The result is bit for bit [`Gbt::predict`]: each split is decided by
//! `value < threshold` on the same `f64` feature bits the walk reads (so
//! NaN goes right), and the leaf weights are summed in tree order from
//! the same starting value. The compile builds each knob's masks from
//! per-feature masks indexed by the rank of the feature's value (see
//! [`KnobLayout`]), so it decides each split once per distinct value.

use crate::gbm::{empty_sum, Gbt};
use crate::tree::BLOCK;

/// A mask word. Trees of depth ≤ 4 (the default) fit one word per tree;
/// deeper trees take `2^depth / 16` words.
type Word = u16;
const WORD_BITS: usize = Word::BITS as usize;

/// How a configuration's features are laid out: which knob owns each
/// feature, and the features of every knob candidate.
///
/// Knobs own consecutive runs of features, in knob order — knob 0 the
/// first `width_0` features, knob 1 the next `width_1`, and so on.
///
/// Each feature's values are kept as ranks: a candidate's rank is the
/// position of its value among the feature's distinct non-NaN values in
/// ascending order, and NaN ranks one past them all. Then `value <
/// threshold` iff `rank < cut`, where `cut` counts the distinct values
/// below the threshold, so a split needs deciding once per distinct value,
/// not once per candidate.
#[derive(Debug, Clone, Default)]
pub struct KnobLayout {
    /// Candidates per knob.
    cardinality: Vec<usize>,
    features: Vec<FeatureSpan>,
    /// Every feature's rank in each candidate of its knob, feature by
    /// feature.
    ranks: Vec<usize>,
    /// Every feature's distinct non-NaN values, ascending, feature by
    /// feature.
    distinct: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct FeatureSpan {
    knob: usize,
    /// Where the feature's candidate ranks start in `ranks`.
    ranks: usize,
    /// Where its distinct values lie in `distinct`.
    distinct: (usize, usize),
}

impl KnobLayout {
    /// Builds the layout from each knob's feature width and its
    /// candidates' features (`cardinality × width` values, candidate by
    /// candidate), knob by knob in feature order.
    ///
    /// # Panics
    ///
    /// Panics if a knob has width 0 or no candidates, or if its values do
    /// not fill whole candidates.
    #[must_use]
    pub fn new<'a>(knobs: impl IntoIterator<Item = (usize, &'a [f64])>) -> Self {
        let mut layout = KnobLayout::default();
        for (width, values) in knobs {
            assert!(width > 0 && !values.is_empty(), "a knob needs features and candidates");
            assert_eq!(values.len() % width, 0, "knob values must fill whole candidates");
            let knob = layout.cardinality.len();
            layout.cardinality.push(values.len() / width);
            for j in 0..width {
                let column = || values[j..].iter().step_by(width);
                // Sorted by `total_cmp` and deduplicated by bits: `-0.0`
                // and `0.0` stay apart but adjacent, and every threshold
                // compares them alike, so no cut falls between them.
                let mut distinct: Vec<f64> = column().copied().filter(|v| !v.is_nan()).collect();
                distinct.sort_unstable_by(f64::total_cmp);
                distinct.dedup_by(|a, b| a.to_bits() == b.to_bits());
                layout.features.push(FeatureSpan {
                    knob,
                    ranks: layout.ranks.len(),
                    distinct: (layout.distinct.len(), layout.distinct.len() + distinct.len()),
                });
                // NaN's rank, `distinct.len()`, is at or above every cut.
                layout.ranks.extend(column().map(|v| {
                    if v.is_nan() {
                        distinct.len()
                    } else {
                        distinct.partition_point(|d| d.total_cmp(v).is_lt())
                    }
                }));
                layout.distinct.extend(distinct);
            }
        }
        layout
    }

    /// The number of ranks of `feature` (its distinct values and NaN).
    fn num_ranks(&self, feature: usize) -> usize {
        let (lo, hi) = self.features[feature].distinct;
        hi - lo + 1
    }

    /// The cut below which a rank of `feature` has a value `< threshold`.
    fn cut(&self, feature: usize, threshold: f64) -> usize {
        let (lo, hi) = self.features[feature].distinct;
        self.distinct[lo..hi].partition_point(|&d| d < threshold)
    }

    /// The rank of `feature` in each candidate of its knob.
    fn ranks(&self, feature: usize) -> &[usize] {
        let f = &self.features[feature];
        &self.ranks[f.ranks..f.ranks + self.cardinality[f.knob]]
    }
}

/// A [`Gbt`] compiled against a [`KnobLayout`]: per-knob leaf masks and
/// the trees' leaf weights.
///
/// The buffers are kept across [`LeafTables::compile`] calls, so a tuner
/// that refits its model often recompiles without allocating.
#[derive(Debug, Clone, Default)]
pub struct LeafTables {
    base_score: f64,
    eta: f64,
    n_trees: usize,
    /// Mask words per tree.
    words: usize,
    /// Leaf slots per tree in `leaves` (`2^depth` of the deepest tree).
    slots: usize,
    /// Tree by tree, its bottom-level leaf weights.
    leaves: Vec<f64>,
    /// The knobs some split constrains, each with its first mask row.
    used: Vec<(usize, usize)>,
    /// One row per candidate of every used knob: per tree, its `words`
    /// mask words.
    masks: Vec<Word>,
    /// Scratch of the compile: the constraining splits as (feature, tree,
    /// slot).
    splits: Vec<(usize, usize, usize)>,
    /// Scratch of the compile: per constrained feature and rank, the
    /// mask a value of that rank leaves in every tree.
    rank_masks: Vec<Word>,
    /// Scratch of the compile: the constrained features, each with its
    /// first mask in `rank_masks`.
    features: Vec<(usize, usize)>,
}

impl LeafTables {
    /// Compiles `model` for configurations laid out as `layout`,
    /// replacing what the tables held.
    ///
    /// A split constrains the masks of its feature's knob only if the
    /// leaves below it differ: below a leaf of a shallow branch, the
    /// padded slots all carry that leaf's weight, so any slot the masks
    /// leave there scores the same.
    ///
    /// # Panics
    ///
    /// Panics if a split tests a feature outside `layout`.
    pub fn compile(&mut self, model: &Gbt, layout: &KnobLayout) {
        let depth = model.trees.iter().map(|t| t.depth as usize).max().unwrap_or(0);
        self.base_score = model.base_score;
        self.eta = model.eta;
        self.n_trees = model.trees.len();
        self.slots = 1 << depth;
        self.words = self.slots.div_ceil(WORD_BITS);
        let lanes = self.n_trees * self.words;

        self.leaves.clear();
        self.leaves.resize(self.n_trees * self.slots, 0.0);
        self.splits.clear();
        for (t, tree) in model.trees.iter().enumerate() {
            self.leaves[t * self.slots..][..tree.leaves.len()].copy_from_slice(&tree.leaves);
            for slot in 0..tree.features.len() {
                let (lo, hi) = tree.bottom_range(slot);
                let below = &tree.leaves[lo..hi];
                if below.iter().any(|w| w.to_bits() != below[0].to_bits()) {
                    self.splits.push((tree.features[slot] as usize, t, slot));
                }
            }
        }
        self.splits.sort_unstable();

        // Feature by feature: the mask of each of its ranks, every split
        // on the feature ANDing in the turn that rank takes.
        self.rank_masks.clear();
        self.features.clear();
        for group in self.splits.chunk_by(|a, b| a.0 == b.0) {
            let feature = group[0].0;
            let first = self.rank_masks.len();
            self.features.push((feature, first));
            self.rank_masks.resize(first + layout.num_ranks(feature) * lanes, Word::MAX);
            for &(_, t, slot) in group {
                let tree = &model.trees[t];
                let cut = layout.cut(feature, tree.thresholds[slot]);
                // A left turn keeps every bottom slot but the right half of
                // the split's range; a right turn every slot but the left
                // half. Only the words holding the range change.
                let (lo, hi) = tree.bottom_range(slot);
                let mid = (lo + hi) / 2;
                for w in lo / WORD_BITS..hi.div_ceil(WORD_BITS) {
                    let keep_left = !bit_range(w, mid, hi);
                    let keep_right = !bit_range(w, lo, mid);
                    let lane = first + t * self.words + w;
                    for (r, m) in self.rank_masks[lane..].iter_mut().step_by(lanes).enumerate() {
                        *m &= if r < cut { keep_left } else { keep_right };
                    }
                }
            }
        }

        // Knob by knob: a candidate's row is the AND of its features'
        // rank masks.
        self.used.clear();
        self.masks.clear();
        for group in
            self.features.chunk_by(|a, b| layout.features[a.0].knob == layout.features[b.0].knob)
        {
            let knob = layout.features[group[0].0].knob;
            self.used.push((knob, self.masks.len() / lanes.max(1)));
            for c in 0..layout.cardinality[knob] {
                let row = self.masks.len();
                for (i, &(feature, first)) in group.iter().enumerate() {
                    let at = first + layout.ranks(feature)[c] * lanes;
                    let mask = &self.rank_masks[at..at + lanes];
                    if i == 0 {
                        self.masks.extend_from_slice(mask);
                    } else {
                        for (m, &r) in self.masks[row..].iter_mut().zip(mask) {
                            *m &= r;
                        }
                    }
                }
            }
        }
    }

    /// Scores each configuration, given by its knob choices, bit for bit
    /// as [`Gbt::predict`] scores its feature row.
    ///
    /// # Panics
    ///
    /// Panics if a configuration has fewer choices than the layout has
    /// knobs, or picks a candidate a knob does not have.
    #[must_use]
    pub fn predict<'c>(&self, configs: impl IntoIterator<Item = &'c [usize]>) -> Vec<f64> {
        let stride = (self.n_trees * self.words).max(1);
        let mut acc = vec![0; BLOCK * stride];
        let mut configs = configs.into_iter();
        let mut out = Vec::with_capacity(configs.size_hint().0);
        loop {
            let mut n = 0;
            for (a, choices) in acc.chunks_exact_mut(stride).zip(configs.by_ref().take(BLOCK)) {
                self.and_masks(choices, a);
                n += 1;
            }
            // Tree by tree over the block, each configuration adding its
            // leaf weights in tree order, as `Gbt::predict` does.
            let mut sums = [empty_sum(); BLOCK];
            for t in 0..self.n_trees {
                let leaves = &self.leaves[t * self.slots..(t + 1) * self.slots];
                let masks = acc.chunks_exact(stride).map(|a| &a[t * self.words..][..self.words]);
                for (s, m) in sums[..n].iter_mut().zip(masks) {
                    *s += leaves[lowest_set_bit(m)];
                }
            }
            out.extend(sums[..n].iter().map(|s| self.base_score + self.eta * s));
            if n < BLOCK {
                return out;
            }
        }
    }

    /// Writes the AND of the masks of `choices` into `acc`.
    fn and_masks(&self, choices: &[usize], acc: &mut [Word]) {
        let stride = acc.len();
        let row = |k: usize, first: usize| {
            let at = (first + choices[k]) * stride;
            &self.masks[at..at + stride]
        };
        let Some((&(k0, first0), rest)) = self.used.split_first() else {
            acc.fill(Word::MAX);
            return;
        };
        acc.copy_from_slice(row(k0, first0));
        for &(k, first) in rest {
            for (a, &m) in acc.iter_mut().zip(row(k, first)) {
                *a &= m;
            }
        }
    }

    /// Bytes the tables hold (masks and leaf weights).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.masks.len() * std::mem::size_of::<Word>()
            + self.leaves.len() * std::mem::size_of::<f64>()
    }
}

/// The bits of mask word `w` that lie in bit range `lo..hi`.
fn bit_range(w: usize, lo: usize, hi: usize) -> Word {
    let from = lo.clamp(w * WORD_BITS, (w + 1) * WORD_BITS) - w * WORD_BITS;
    let to = hi.clamp(w * WORD_BITS, (w + 1) * WORD_BITS) - w * WORD_BITS;
    // Bits `from..to` of one word; `to - from` may be the full width.
    let ones = |n: usize| if n >= WORD_BITS { Word::MAX } else { (1 << n) - 1 };
    ones(to) & !ones(from)
}

/// Index of the lowest set bit of a multi-word mask. Some bit is always
/// set: the slot the tree walk reaches survives every AND.
fn lowest_set_bit(mask: &[Word]) -> usize {
    let mut base = 0;
    for &w in mask {
        if w != 0 {
            return base + w.trailing_zeros() as usize;
        }
        base += WORD_BITS;
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GbtParams, Matrix};
    use proptest::prelude::*;

    /// A candidate feature value. Values repeat (ties at split
    /// thresholds) and include NaN, signed zeros and infinities, whose
    /// routing differs between `<` and its negation.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            (-6i32..6).prop_map(f64::from),
            (-6i32..6).prop_map(f64::from),
            -100.0f64..100.0,
            prop_oneof![
                Just(f64::NAN),
                Just(-0.0),
                Just(0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY)
            ],
        ]
    }

    /// A knob: its width and its candidates' features.
    fn knob() -> impl Strategy<Value = (usize, Vec<f64>)> {
        (1usize..=4, prop_oneof![Just(1usize), 1usize..=40]).prop_flat_map(|(w, c)| {
            proptest::collection::vec(value(), w * c..=w * c).prop_map(move |v| (w, v))
        })
    }

    /// Depth 0 (single-leaf trees) to 8 (sixteen mask words per tree),
    /// with row and column subsampling.
    fn params() -> impl Strategy<Value = GbtParams> {
        (
            1usize..12,
            0usize..=8,
            prop_oneof![Just(1.0), Just(1e-9)],
            prop_oneof![Just(0.0), Just(0.5)],
            prop_oneof![Just(0.0), Just(1.0)],
            prop_oneof![Just(1.0), Just(0.8), Just(0.5)],
            prop_oneof![Just(1.0), Just(0.6), Just(0.3)],
        )
            .prop_map(
                |(n_rounds, max_depth, lambda, gamma, min_child_weight, subsample, colsample)| {
                    GbtParams {
                        n_rounds,
                        eta: 0.3,
                        max_depth,
                        lambda,
                        gamma,
                        min_child_weight,
                        subsample,
                        colsample,
                    }
                },
            )
    }

    /// Choice vectors: each entry is reduced modulo its knob's
    /// cardinality.
    fn picks(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<usize>>> {
        proptest::collection::vec(proptest::collection::vec(0usize..1000, 6..=6), n)
    }

    /// The feature rows of `choices` under `knobs`.
    fn features(knobs: &[(usize, Vec<f64>)], choices: &[Vec<usize>]) -> Matrix {
        let d = knobs.iter().map(|(w, _)| w).sum();
        let mut flat = Vec::new();
        for pick in choices {
            for (&c, (w, values)) in pick.iter().zip(knobs) {
                flat.extend_from_slice(&values[c * w..(c + 1) * w]);
            }
        }
        Matrix::new(flat, choices.len(), d)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|p| p.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tables_match_predict_bit_for_bit(
            knobs in proptest::collection::vec(knob(), 1..=6),
            params in params(),
            train in picks(2..120),
            probes in picks(1..40),
            ys in proptest::collection::vec(-50i32..50, 120..=120),
            seed in 0u64..1000,
        ) {
            let reduce = |picks: Vec<Vec<usize>>| -> Vec<Vec<usize>> {
                picks
                    .into_iter()
                    .map(|p| p.iter().zip(&knobs).map(|(&c, (w, v))| c % (v.len() / w)).collect())
                    .collect()
            };
            let (train, probes) = (reduce(train), reduce(probes));
            let x = features(&knobs, &train);
            let y: Vec<f64> = ys[..train.len()].iter().map(|&v| f64::from(v)).collect();
            let model = Gbt::fit(&params, &x, &y, seed);
            let layout = KnobLayout::new(knobs.iter().map(|(w, v)| (*w, v.as_slice())));
            prop_assert_eq!(layout.features.len(), x.cols());

            // Compile another model first, so the tables reuse buffers
            // sized for a different depth and knob set.
            let mut tables = LeafTables::default();
            let other = GbtParams { max_depth: 8 - params.max_depth, ..params };
            tables.compile(&Gbt::fit(&other, &x, &y, seed + 1), &layout);
            tables.compile(&model, &layout);

            let want = model.predict(&features(&knobs, &probes));
            let got = tables.predict(probes.iter().map(Vec::as_slice));
            prop_assert_eq!(bits(&got), bits(&want));
            let got = tables.predict(train.iter().map(Vec::as_slice));
            prop_assert_eq!(bits(&got), bits(&model.predict(&x)));
        }
    }

    #[test]
    fn a_single_leaf_model_scores_its_base() {
        let knobs = vec![(1, vec![1.0, 2.0, 3.0])];
        let x = features(&knobs, &[vec![0], vec![1], vec![2]]);
        let model =
            Gbt::fit(&GbtParams { max_depth: 0, ..GbtParams::default() }, &x, &[1.0, 2.0, 3.0], 0);
        let mut tables = LeafTables::default();
        tables.compile(&model, &KnobLayout::new(knobs.iter().map(|(w, v)| (*w, v.as_slice()))));
        assert_eq!(tables.size_bytes(), model.num_trees() * std::mem::size_of::<f64>());
        let got = tables.predict([[1usize].as_slice()]);
        assert_eq!(bits(&got), bits(&model.predict(&x)[1..2]));
    }

    #[test]
    fn an_empty_batch_scores_nothing() {
        let tables = LeafTables::default();
        assert!(tables.predict(std::iter::empty()).is_empty());
    }
}
