//! A single regression tree with XGBoost-style regularized splits.

use crate::data::Matrix;
use serde::{Deserialize, Serialize};

#[cfg(test)]
pub(crate) mod reference;

/// Tree-growing hyper-parameters (a subset of [`crate::GbtParams`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// L2 regularization on leaf weights (XGBoost `lambda`).
    pub lambda: f64,
    /// Minimum gain to split (XGBoost `gamma`).
    pub gamma: f64,
    /// Minimum hessian mass per child (XGBoost `min_child_weight`).
    pub min_child_weight: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 4, lambda: 1.0, gamma: 0.0, min_child_weight: 1.0 }
    }
}

/// Node arena entry: the preorder scratch a fit grows, compiled into a
/// [`RegressionTree`]'s flat layout once the tree is complete.
#[derive(Debug)]
enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child (values `< threshold`).
        left: usize,
        /// Index of the right child.
        right: usize,
    },
}

/// Rows walked together by [`RegressionTree::add_leaf_weights`]: enough
/// independent walks to hide each level's load latency, few enough to
/// keep their slots in registers.
pub(crate) const BLOCK: usize = 8;

/// A fitted regression tree, compiled into a perfect binary tree padded
/// to the tree's own depth.
///
/// Internal slots are stored level by level (slot `i` has children
/// `2i + 1` and `2i + 2`); the bottom level holds the leaf weights, left
/// to right. A leaf above the bottom fills every bottom slot below it, so
/// every walk takes exactly `depth` steps and no step branches on the
/// node kind. A walk goes right iff `!(value < threshold)`, the routing
/// of the fit itself, so NaN goes right.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    /// Levels of internal slots; `0` for a single-leaf tree.
    pub(crate) depth: u32,
    /// Split feature per internal slot (`0` below a leaf, where both
    /// sides carry the same weight).
    pub(crate) features: Vec<u32>,
    /// Split threshold per internal slot.
    pub(crate) thresholds: Vec<f64>,
    /// The `2^depth` bottom-level leaf weights.
    pub(crate) leaves: Vec<f64>,
    /// Feature of every real split in preorder (padding excluded).
    split_features: Vec<u32>,
}

/// One presorted entry: a feature value and the row it came from.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    row: u32,
}

/// Per-feature row orderings, computed once per dataset and shared by every
/// tree of a boosting run (the classic pre-sorted GBT layout — split search
/// then costs one linear scan per feature instead of a sort per node).
///
/// Each column holds its `(value, row)` pairs in ascending
/// [`f64::total_cmp`] order, ties broken by ascending row index, so the scan
/// reads values without touching the row-major matrix.
#[derive(Debug, Clone)]
pub struct FeatureOrder {
    rows: usize,
    per_feature: Vec<Vec<Entry>>,
}

impl FeatureOrder {
    /// Sorts every feature column of `x`.
    #[must_use]
    pub fn new(x: &Matrix) -> Self {
        let per_feature = (0..x.cols())
            .map(|f| {
                let mut col: Vec<Entry> =
                    (0..x.rows()).map(|i| Entry { value: x.get(i, f), row: i as u32 }).collect();
                col.sort_unstable_by(|a, b| a.value.total_cmp(&b.value).then(a.row.cmp(&b.row)));
                col
            })
            .collect();
        FeatureOrder { rows: x.rows(), per_feature }
    }
}

/// Buffers of the split search, reused by every tree of a boosting run.
///
/// Between calls the buffers hold nothing of value; during a fit the rows of
/// every node occupy one contiguous range `lo..hi` in `rows` and in every
/// column of `columns`.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Per searched column, its presorted entries, stably partitioned node
    /// by node so each node's rows stay in `(value, row)` order.
    columns: Vec<Vec<Entry>>,
    /// The rows of each node in ascending row order.
    rows: Vec<u32>,
    /// `go_left[row]` for the rows of the node being partitioned.
    go_left: Vec<bool>,
    scratch: Vec<Entry>,
    scratch_rows: Vec<u32>,
    /// After a fit: the weight of the leaf each training row fell into.
    pub(crate) row_weight: Vec<f64>,
}

/// The best split found for a node so far.
struct Split {
    /// Position of the feature in the searched `columns`.
    column: usize,
    threshold: f64,
}

/// One tree fit in progress.
struct Grower<'a> {
    params: &'a TreeParams,
    grad: &'a [f64],
    hess: &'a [f64],
    features: &'a [usize],
    /// Every hessian is exactly 1.0: a node's hessian sum is its row
    /// count, so the scans never read `hess`.
    unit_hess: bool,
    ws: &'a mut Workspace,
    nodes: Vec<Node>,
}

/// Whether a node's presorted column range holds a single value. Its
/// entries are in [`f64::total_cmp`] order, under which only equal bits
/// compare equal, so the ends agree only when every entry does. Such a
/// column opens no split boundary in the node or in any descendant, whose
/// rows are a subset: neither the scan nor the partition touches it.
fn is_constant(entries: &[Entry]) -> bool {
    entries.first().map(|e| e.value.to_bits()) == entries.last().map(|e| e.value.to_bits())
}

impl Grower<'_> {
    /// Grows the subtree over the rows in `lo..hi`; returns its node index.
    ///
    /// Node ids come out in preorder (a split reserves its slot before its
    /// children), and every sum runs in a fixed order — node totals over
    /// ascending rows, split statistics over `(value, row)` order — so the
    /// tree matches `reference::fit` bit for bit.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let mut g = 0.0;
        let mut h = 0.0;
        if self.unit_hess {
            // Adding n ones from zero is exactly n (below 2^53).
            for &r in &self.ws.rows[lo..hi] {
                g += self.grad[r as usize];
            }
            h = (hi - lo) as f64;
        } else {
            for &r in &self.ws.rows[lo..hi] {
                g += self.grad[r as usize];
                h += self.hess[r as usize];
            }
        }

        let split = if depth >= self.params.max_depth || hi - lo < 2 {
            None
        } else {
            self.best_split(lo, hi, g, h)
        };
        let Some(split) = split else {
            let weight = -g / (h + self.params.lambda);
            for &r in &self.ws.rows[lo..hi] {
                self.ws.row_weight[r as usize] = weight;
            }
            self.nodes.push(Node::Leaf { weight });
            return self.nodes.len() - 1;
        };

        let mid = self.partition(lo, hi, &split, depth + 1 < self.params.max_depth);
        // Reserve this node's slot before the children claim indices.
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: 0.0 });
        let left = self.grow(lo, mid, depth + 1);
        let right = self.grow(mid, hi, depth + 1);
        let feature = self.features[split.column];
        self.nodes[id] = Node::Split { feature, threshold: split.threshold, left, right };
        id
    }

    /// Exact greedy split search over the node's presorted range: one
    /// linear scan per candidate feature, features tried in `columns`
    /// order, a later candidate winning only on a strictly larger gain.
    /// A column constant over the node opens no boundary and is skipped.
    fn best_split(&self, lo: usize, hi: usize, g_total: f64, h_total: f64) -> Option<Split> {
        let mut best: Option<Split> = None;
        // A split must gain more than zero, and more than the best so far.
        let mut best_gain = 0.0;
        for (column, entries) in self.ws.columns.iter().enumerate() {
            let entries = &entries[lo..hi];
            if is_constant(entries) {
                continue;
            }
            let found = if self.unit_hess {
                self.scan::<true>(entries, g_total, h_total, &mut best_gain)
            } else {
                self.scan::<false>(entries, g_total, h_total, &mut best_gain)
            };
            if let Some(threshold) = found {
                best = Some(Split { column, threshold });
            }
        }
        best
    }

    /// Scans one column's node range for a boundary whose gain beats
    /// `best_gain`, raising it; returns the last such boundary's
    /// threshold. With `UNIT` every hessian is 1.0, so the left hessian
    /// sum is the count of rows already passed, bit for bit the sum.
    #[inline]
    fn scan<const UNIT: bool>(
        &self,
        entries: &[Entry],
        g_total: f64,
        h_total: f64,
        best_gain: &mut f64,
    ) -> Option<f64> {
        let params = self.params;
        let score = |g: f64, h: f64| g * g / (h + params.lambda);
        let parent = score(g_total, h_total);
        let mut found = None;
        let mut gl = 0.0;
        let mut hl = 0.0;
        // The previous value; NaN compares false, so the first row
        // opens no boundary.
        let mut prev = f64::NAN;
        for (k, e) in entries.iter().enumerate() {
            let v = e.value;
            if v > prev {
                if UNIT {
                    hl = k as f64;
                }
                let hr = h_total - hl;
                if hl >= params.min_child_weight && hr >= params.min_child_weight {
                    let gain =
                        0.5 * (score(gl, hl) + score(g_total - gl, hr) - parent) - params.gamma;
                    if gain > *best_gain {
                        *best_gain = gain;
                        found = Some(0.5 * (prev + v));
                    }
                }
            }
            gl += self.grad[e.row as usize];
            if !UNIT {
                hl += self.hess[e.row as usize];
            }
            prev = v;
        }
        found
    }

    /// Stably partitions the node's range into its left then right child
    /// and returns the boundary. The per-column ranges are only needed when
    /// the children may split again (`columns_too`).
    fn partition(&mut self, lo: usize, hi: usize, split: &Split, columns_too: bool) -> usize {
        let ws = &mut *self.ws;
        for e in &ws.columns[split.column][lo..hi] {
            ws.go_left[e.row as usize] = e.value < split.threshold;
        }
        let go_left = &ws.go_left;
        let mid = lo
            + stable_partition(&mut ws.rows[lo..hi], &mut ws.scratch_rows, |&r| {
                go_left[r as usize]
            });
        if columns_too {
            for col in &mut ws.columns {
                // A constant column is never read again below this node
                // but for its ends, which any sub-range keeps equal.
                if !is_constant(&col[lo..hi]) {
                    stable_partition(&mut col[lo..hi], &mut ws.scratch, |e| {
                        go_left[e.row as usize]
                    });
                }
            }
        }
        mid
    }
}

/// Moves the items satisfying `left` to the front of `items`, keeping the
/// relative order on both sides; returns how many went left. `scratch`
/// must be at least as long as `items`.
///
/// Branch-free: every item is written to both sides and only the matching
/// cursor advances, since the split direction of consecutive rows is
/// unpredictable.
fn stable_partition<T: Copy>(
    items: &mut [T],
    scratch: &mut [T],
    left: impl Fn(&T) -> bool,
) -> usize {
    let (mut n_left, mut n_right) = (0, 0);
    for j in 0..items.len() {
        let item = items[j];
        let goes_left = left(&item);
        items[n_left] = item;
        scratch[n_right] = item;
        n_left += usize::from(goes_left);
        n_right += usize::from(!goes_left);
    }
    items[n_left..].copy_from_slice(&scratch[..n_right]);
    n_left
}

impl RegressionTree {
    /// Fits a tree to gradient/hessian statistics (second-order boosting).
    ///
    /// `columns` restricts split search to a feature subset (column
    /// subsampling); pass all indices for no subsampling.
    ///
    /// # Panics
    ///
    /// Panics if `grad`, `hess` and the matrix disagree on sample count.
    #[must_use]
    pub fn fit(
        params: &TreeParams,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
    ) -> Self {
        let order = FeatureOrder::new(x);
        Self::fit_presorted(params, x, grad, hess, columns, &order)
    }

    /// Like [`RegressionTree::fit`] but reusing pre-sorted feature orders
    /// (one [`FeatureOrder`] serves every tree in a boosting run).
    ///
    /// # Panics
    ///
    /// Panics if `grad`, `hess`, the matrix and `order` disagree on sample
    /// count.
    #[must_use]
    pub fn fit_presorted(
        params: &TreeParams,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
        order: &FeatureOrder,
    ) -> Self {
        assert_eq!(x.rows(), order.rows, "feature order comes from another matrix");
        Self::fit_rows(params, grad, hess, columns, order, &mut Workspace::default())
    }

    /// The split search behind every fit. Leaves `ws.row_weight[i]` set to
    /// the weight of the leaf training row `i` falls into, so boosting can
    /// update its residuals without re-predicting.
    ///
    /// # Panics
    ///
    /// Panics if `grad`, `hess` and `order` disagree on sample count.
    pub(crate) fn fit_rows(
        params: &TreeParams,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
        order: &FeatureOrder,
        ws: &mut Workspace,
    ) -> Self {
        let n = order.rows;
        assert_eq!(n, grad.len(), "gradient length mismatch");
        assert_eq!(n, hess.len(), "hessian length mismatch");
        ws.columns.resize_with(columns.len(), Vec::new);
        for (col, &f) in ws.columns.iter_mut().zip(columns) {
            col.clear();
            col.extend_from_slice(&order.per_feature[f]);
        }
        ws.rows.clear();
        ws.rows.extend(0..n as u32);
        ws.go_left.resize(n, false);
        ws.scratch.resize(n, Entry { value: 0.0, row: 0 });
        ws.scratch_rows.resize(n, 0);
        ws.row_weight.resize(n, 0.0);
        let unit_hess = hess.iter().all(|&h| h == 1.0);
        let mut grower =
            Grower { params, grad, hess, features: columns, unit_hess, ws, nodes: Vec::new() };
        grower.grow(0, n, 0);
        RegressionTree::compile(&grower.nodes)
    }

    /// Compiles a preorder node arena (root at index 0) into the flat
    /// layout.
    fn compile(nodes: &[Node]) -> Self {
        fn depth(nodes: &[Node], id: usize) -> u32 {
            match nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth(nodes, left).max(depth(nodes, right)),
            }
        }
        let depth = depth(nodes, 0);
        let internal = (1usize << depth) - 1;
        let mut tree = RegressionTree {
            depth,
            features: vec![0; internal],
            thresholds: vec![0.0; internal],
            leaves: vec![0.0; internal + 1],
            split_features: Vec::new(),
        };
        tree.place(nodes, 0, 0, 0);
        tree
    }

    /// Writes node `id` of the arena into `slot`, which sits on `level`.
    fn place(&mut self, nodes: &[Node], id: usize, slot: usize, level: u32) {
        match nodes[id] {
            Node::Leaf { weight } => {
                // The slot's subtree covers `span` bottom slots, starting
                // at its position within its level times `span`.
                let span = 1usize << (self.depth - level);
                let first = (slot + 1 - (1usize << level)) * span;
                self.leaves[first..first + span].fill(weight);
            }
            Node::Split { feature, threshold, left, right } => {
                self.features[slot] = feature as u32;
                self.thresholds[slot] = threshold;
                self.split_features.push(feature as u32);
                self.place(nodes, left, 2 * slot + 1, level + 1);
                self.place(nodes, right, 2 * slot + 2, level + 1);
            }
        }
    }

    /// Predicts the leaf weight for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than a split feature index (i.e. the row
    /// does not come from the training feature layout).
    #[must_use]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut slot = 0;
        for _ in 0..self.depth {
            slot = self.step(slot, row);
        }
        self.leaves[slot - self.features.len()]
    }

    /// Adds the leaf weight of `rows[k]` to `acc[k]` for every `k` (at
    /// most [`BLOCK`] rows), walking the rows level by level together.
    ///
    /// # Panics
    ///
    /// As [`RegressionTree::predict_row`], or if `acc` is shorter than
    /// `rows` or `rows` longer than [`BLOCK`].
    pub(crate) fn add_leaf_weights(&self, rows: &[&[f64]], acc: &mut [f64]) {
        let mut slots = [0usize; BLOCK];
        let slots = &mut slots[..rows.len()];
        for _ in 0..self.depth {
            for (slot, row) in slots.iter_mut().zip(rows) {
                *slot = self.step(*slot, row);
            }
        }
        for (a, &slot) in acc.iter_mut().zip(slots.iter()) {
            *a += self.leaves[slot - self.features.len()];
        }
    }

    /// The bottom slots below internal `slot`, as a range `lo..hi`: its
    /// left child's subtree covers the first half, its right child's the
    /// second.
    pub(crate) fn bottom_range(&self, slot: usize) -> (usize, usize) {
        let level = (slot + 1).ilog2();
        let span = 1usize << (self.depth - level);
        let first = (slot + 1 - (1usize << level)) * span;
        (first, first + span)
    }

    /// The child of internal `slot` that `row` goes to: left iff
    /// `value < threshold`, so NaN goes right.
    #[inline]
    fn step(&self, slot: usize, row: &[f64]) -> usize {
        let left = row[self.features[slot] as usize] < self.thresholds[slot];
        2 * slot + 2 - usize::from(left)
    }

    /// Number of nodes in the tree (padding excluded).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        2 * self.split_features.len() + 1
    }

    /// Accumulates split counts per feature into `counts` (a crude feature
    /// importance).
    pub fn add_split_counts(&self, counts: &mut [usize]) {
        for &f in &self.split_features {
            counts[f as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared-loss stats for boosting from zero: grad = -y, hess = 1.
    fn stats(ys: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (ys.iter().map(|y| -y).collect(), vec![1.0; ys.len()])
    }

    #[test]
    fn single_leaf_when_no_split_improves() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let (g, h) = stats(&[5.0, 5.0, 5.0]);
        let t = RegressionTree::fit(&TreeParams::default(), &x, &g, &h, &[0]);
        assert_eq!(t.num_nodes(), 1);
        // weight = sum(y)/(n + lambda) = 15/4.
        assert!((t.predict_row(&[1.0]) - 3.75).abs() < 1e-12);
    }

    #[test]
    fn splits_a_step_function() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 10.0 }).collect();
        let x = Matrix::from_rows(&rows);
        let (g, h) = stats(&ys);
        let t = RegressionTree::fit(&TreeParams::default(), &x, &g, &h, &[0]);
        assert!(t.predict_row(&[2.0]) < 1.0);
        assert!(t.predict_row(&[15.0]) > 8.0);
    }

    #[test]
    fn respects_max_depth() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let (g, h) = stats(&ys);
        let p = TreeParams { max_depth: 1, ..TreeParams::default() };
        let t = RegressionTree::fit(&p, &x, &g, &h, &[0]);
        // Depth-1 tree: one split, two leaves.
        assert_eq!(t.num_nodes(), 3);
    }

    #[test]
    fn column_subset_ignores_other_features() {
        // Feature 0 is informative, feature 1 is allowed: tree must not use 0.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, 0.0]).collect();
        let ys: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let (g, h) = stats(&ys);
        let t = RegressionTree::fit(&TreeParams::default(), &x, &g, &h, &[1]);
        assert_eq!(t.num_nodes(), 1, "constant allowed feature cannot split");
    }

    #[test]
    fn split_counts_track_used_features() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 2) as f64]).collect();
        let ys: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let (g, h) = stats(&ys);
        let t = RegressionTree::fit(&TreeParams::default(), &x, &g, &h, &[0, 1]);
        let mut counts = vec![0, 0];
        t.add_split_counts(&mut counts);
        assert!(counts[0] > 0);
    }
}
