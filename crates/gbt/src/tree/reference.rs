//! The original recursive split search, kept as a test oracle.
//!
//! Every node carries a full-length row mask and scans all `n` presorted
//! rows of every column, skipping rows outside the node. It is slow but
//! obviously correct, and the production fitter must reproduce its trees
//! bit for bit.

use super::{Node, RegressionTree, TreeParams};
use crate::data::Matrix;

struct SplitCandidate {
    gain: f64,
    feature: usize,
    threshold: f64,
}

/// Fits a tree the original way: per-feature stable sorts, then recursive
/// growth over row masks.
pub(crate) fn fit(
    params: &TreeParams,
    x: &Matrix,
    grad: &[f64],
    hess: &[f64],
    columns: &[usize],
) -> RegressionTree {
    let order: Vec<Vec<u32>> = (0..x.cols())
        .map(|f| {
            let mut idx: Vec<u32> = (0..x.rows() as u32).collect();
            idx.sort_by(|&a, &b| x.get(a as usize, f).total_cmp(&x.get(b as usize, f)));
            idx
        })
        .collect();
    let mut tree = RegressionTree { nodes: Vec::new() };
    let in_node = vec![true; x.rows()];
    grow(&mut tree, params, x, grad, hess, columns, &order, in_node, x.rows(), 0);
    tree
}

/// Recursively grows a subtree over the rows flagged in `in_node`; returns
/// its node index.
#[allow(clippy::too_many_arguments)]
fn grow(
    tree: &mut RegressionTree,
    params: &TreeParams,
    x: &Matrix,
    grad: &[f64],
    hess: &[f64],
    columns: &[usize],
    order: &[Vec<u32>],
    in_node: Vec<bool>,
    n_rows: usize,
    depth: usize,
) -> usize {
    let mut g = 0.0;
    let mut h = 0.0;
    for (i, &inside) in in_node.iter().enumerate() {
        if inside {
            g += grad[i];
            h += hess[i];
        }
    }

    let make_leaf = |nodes: &mut Vec<Node>| {
        let weight = -g / (h + params.lambda);
        nodes.push(Node::Leaf { weight });
        nodes.len() - 1
    };

    if depth >= params.max_depth || n_rows < 2 {
        return make_leaf(&mut tree.nodes);
    }

    let best = best_split(params, x, grad, hess, columns, order, &in_node, g, h);
    let Some(split) = best else {
        return make_leaf(&mut tree.nodes);
    };

    let mut left_mask = vec![false; in_node.len()];
    let mut right_mask = vec![false; in_node.len()];
    let mut n_left = 0;
    let mut n_right = 0;
    for (i, &inside) in in_node.iter().enumerate() {
        if !inside {
            continue;
        }
        if x.get(i, split.feature) < split.threshold {
            left_mask[i] = true;
            n_left += 1;
        } else {
            right_mask[i] = true;
            n_right += 1;
        }
    }

    // Reserve this node's slot before the children claim indices.
    let id = tree.nodes.len();
    tree.nodes.push(Node::Leaf { weight: 0.0 });
    let left = grow(tree, params, x, grad, hess, columns, order, left_mask, n_left, depth + 1);
    let right = grow(tree, params, x, grad, hess, columns, order, right_mask, n_right, depth + 1);
    tree.nodes[id] =
        Node::Split { feature: split.feature, threshold: split.threshold, left, right };
    id
}

/// Exact greedy split search: one linear scan of all `n` presorted rows per
/// candidate feature, skipping rows outside the node.
#[allow(clippy::too_many_arguments)]
fn best_split(
    params: &TreeParams,
    x: &Matrix,
    grad: &[f64],
    hess: &[f64],
    columns: &[usize],
    order: &[Vec<u32>],
    in_node: &[bool],
    g_total: f64,
    h_total: f64,
) -> Option<SplitCandidate> {
    let score = |g: f64, h: f64| g * g / (h + params.lambda);
    let parent = score(g_total, h_total);
    let mut best: Option<SplitCandidate> = None;
    for &feature in columns {
        let sorted = &order[feature];
        let mut gl = 0.0;
        let mut hl = 0.0;
        // Pending boundary: value of the last in-node row scanned.
        let mut prev: Option<f64> = None;
        for &ri in sorted {
            let i = ri as usize;
            if !in_node[i] {
                continue;
            }
            let v = x.get(i, feature);
            if let Some(pv) = prev {
                if v > pv {
                    let hr = h_total - hl;
                    if hl >= params.min_child_weight && hr >= params.min_child_weight {
                        let gain =
                            0.5 * (score(gl, hl) + score(g_total - gl, hr) - parent) - params.gamma;
                        if gain > 0.0 && best.as_ref().is_none_or(|b| gain > b.gain) {
                            best =
                                Some(SplitCandidate { gain, feature, threshold: 0.5 * (pv + v) });
                        }
                    }
                }
            }
            gl += grad[i];
            hl += hess[i];
            prev = Some(v);
        }
    }
    best
}

/// Strategies for the oracle property tests.
pub(crate) mod strategy {
    use crate::data::Matrix;
    use proptest::prelude::*;

    /// Values drawn from a small pool, so columns carry ties, signed zeros
    /// and (by chance) constant columns. `1.0` and the next float up have
    /// a midpoint that rounds onto `1.0`, so a split there sends every row
    /// right and leaves an empty left child.
    const POOL: [f64; 9] = [-2.0, -0.0, 0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 3.0, 7.25, 1e6];

    /// A bootstrap-style matrix: `base` distinct-ish rows of `d` features
    /// (`d` may be 0), then `n` rows drawn from them with replacement. One
    /// column is forced constant when `d > 1`.
    pub(crate) fn matrix(max_rows: usize) -> impl Strategy<Value = Matrix> {
        (0usize..5, 1usize..24, 1usize..=max_rows).prop_flat_map(|(d, base, n)| {
            let rows = proptest::collection::vec(
                proptest::collection::vec(0usize..POOL.len(), d..=d),
                base..=base,
            );
            let picks = proptest::collection::vec(0..base, n..=n);
            (rows, picks).prop_map(move |(rows, picks)| {
                let data: Vec<Vec<f64>> = picks
                    .iter()
                    .map(|&p| {
                        rows[p]
                            .iter()
                            .enumerate()
                            .map(|(j, &v)| if d > 1 && j == d - 1 { 4.0 } else { POOL[v] })
                            .collect()
                    })
                    .collect();
                if data.iter().all(Vec::is_empty) {
                    Matrix::new(Vec::new(), data.len(), 0)
                } else {
                    Matrix::from_rows(&data)
                }
            })
        })
    }

    /// Squared-loss-like gradients for `n` rows and hessians that are 1,
    /// 0 (a row left out by `subsample`) or an arbitrary positive weight.
    pub(crate) fn stats(n: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        (
            proptest::collection::vec(-100.0f64..100.0, n..=n),
            proptest::collection::vec(prop_oneof![Just(1.0), Just(0.0), 0.01f64..3.0], n..=n),
        )
    }

    /// `lambda`, `gamma`, `min_child_weight` and `max_depth` (0 to 6).
    pub(crate) fn tree_params() -> impl Strategy<Value = super::TreeParams> {
        (
            0usize..=6,
            prop_oneof![Just(1.0), Just(0.5), Just(1e-9)],
            prop_oneof![Just(0.0), Just(0.5), Just(5.0)],
            prop_oneof![Just(0.0), Just(1.0), Just(2.5)],
        )
            .prop_map(|(max_depth, lambda, gamma, min_child_weight)| super::TreeParams {
                max_depth,
                lambda,
                gamma,
                min_child_weight,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{FeatureOrder, RegressionTree, Workspace};
    use super::strategy;
    use crate::data::Matrix;
    use proptest::prelude::*;

    /// A matrix with its gradient statistics and a searched column subset
    /// (possibly empty, in shuffled order).
    fn case() -> impl Strategy<Value = (Matrix, Vec<f64>, Vec<f64>, Vec<usize>)> {
        strategy::matrix(60).prop_flat_map(|x| {
            let (n, d) = (x.rows(), x.cols());
            // Random sort keys give a shuffled column order.
            let keys = proptest::collection::vec(0u32..1000, d..=d);
            (Just(x), strategy::stats(n), keys, 0..=d).prop_map(|(x, (g, h), keys, k)| {
                let mut cols: Vec<usize> = (0..keys.len()).collect();
                cols.sort_by_key(|&c| keys[c]);
                cols.truncate(k);
                (x, g, h, cols)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn fitter_matches_the_reference_bit_for_bit(
            (x, grad, hess, columns) in case(),
            params in strategy::tree_params(),
        ) {
            let want = super::fit(&params, &x, &grad, &hess, &columns);
            let order = FeatureOrder::new(&x);
            let mut ws = Workspace::default();
            let got = RegressionTree::fit_rows(&params, &grad, &hess, &columns, &order, &mut ws);
            prop_assert_eq!(&got, &want);
            for i in 0..x.rows() {
                prop_assert_eq!(
                    ws.row_weight[i].to_bits(),
                    want.predict_row(x.row(i)).to_bits(),
                    "row {}", i
                );
            }
            let presorted =
                RegressionTree::fit_presorted(&params, &x, &grad, &hess, &columns, &order);
            prop_assert_eq!(&presorted, &want);
            prop_assert_eq!(&RegressionTree::fit(&params, &x, &grad, &hess, &columns), &want);
        }
    }
}
