//! Transductive experimental design (Algorithm 1).
//!
//! Greedy selection of the `m` most *representative* candidates: pick the
//! point whose kernel column has the largest deflated norm, then project its
//! contribution out of the kernel matrix. The paper computes the kernel
//! entries as Euclidean distances between configuration feature vectors
//! (Section III-A); the classic RBF kernel of Yu et al. (ICML 2006) is also
//! provided.

use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

/// Kernel used to build `K_VV`.
///
/// The paper states the kernel entries are "computed as Euclidean distance".
/// A raw distance matrix is not positive semi-definite and makes the
/// deflation of Algorithm 1 degenerate (after the first rank-1 subtraction
/// the largest column norms belong to points *near* the previous selection,
/// inverting the diversity objective). [`TedKernel::Euclidean`] therefore
/// uses the standard distance-induced Laplacian kernel
/// `k(u, v) = exp(-||u - v|| / ℓ)` with a self-tuning length scale ℓ (the
/// mean pairwise distance), which preserves the paper's intent — similarity
/// derived purely from Euclidean distance — while keeping the algorithm
/// well-posed. [`TedKernel::Rbf`] is the classic Gaussian variant of
/// Yu et al.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum TedKernel {
    /// Laplacian kernel of the Euclidean distance with a self-tuning
    /// length scale — the paper-faithful default.
    #[default]
    Euclidean,
    /// `k(u, v) = exp(-||u - v||² / (2σ²))` — classic TED.
    Rbf {
        /// Bandwidth σ.
        sigma: f64,
    },
}

fn kernel_matrix(features: &[Vec<f64>], kernel: TedKernel) -> Vec<f64> {
    let n = features.len();
    // Squared distances in the upper triangle first: the Laplacian's
    // length scale is their mean root.
    let mut k = vec![0.0; n * n];
    let mut sum = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            let d2: f64 =
                features[i].iter().zip(&features[j]).map(|(a, b)| (a - b) * (a - b)).sum();
            k[i * n + j] = d2;
            sum += d2.sqrt();
        }
    }
    let pairs = (n * (n - 1) / 2).max(1);
    let scale = (sum / pairs as f64).max(1e-9); // self-tuning length scale
    let entry = |d2: f64| match kernel {
        TedKernel::Euclidean => (-d2.sqrt() / scale).exp(),
        TedKernel::Rbf { sigma } => (-d2 / (2.0 * sigma * sigma)).exp(),
    };
    // An entry depends on its pair's `d2` alone, so each unordered pair is
    // evaluated once and mirrored.
    let diag = entry(0.0);
    for i in 0..n {
        k[i * n + i] = diag;
        for j in i + 1..n {
            let v = entry(k[i * n + j]);
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    k
}

/// Sets `norms[i]` to `‖K_i‖²` for each row `i` listed in `rows`, summed
/// left to right as `iter().map(|x| x * x).sum()` does. Four rows go at
/// once: their sums are independent, so they overlap in the pipeline
/// without changing any one sum's order.
fn row_norms(k: &[f64], n: usize, rows: &[usize], norms: &mut [f64]) {
    let row = |i: usize| &k[i * n..(i + 1) * n];
    let mut quads = rows.chunks_exact(4);
    for quad in &mut quads {
        let (a, b, c, d) = (row(quad[0]), row(quad[1]), row(quad[2]), row(quad[3]));
        let mut s = [-0.0f64; 4];
        for j in 0..n {
            s[0] += a[j] * a[j];
            s[1] += b[j] * b[j];
            s[2] += c[j] * c[j];
            s[3] += d[j] * d[j];
        }
        for (&i, s) in quad.iter().zip(s) {
            norms[i] = s;
        }
    }
    for &i in quads.remainder() {
        norms[i] = row(i).iter().map(|x| x * x).sum();
    }
}

/// Runs TED over `features`, returning the indices of the `m` selected
/// candidates in selection order (Algorithm 1: `TED(V, µ, m)`).
///
/// If `m >= features.len()` every index is returned.
///
/// # Example
///
/// ```
/// use active_learning::ted::{ted, TedKernel};
///
/// // Three clusters; TED's first picks spread across them.
/// let feats = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0],
///     vec![10.0, 0.0], vec![10.1, 0.0],
///     vec![0.0, 10.0], vec![0.1, 10.0],
/// ];
/// let picks = ted(&feats, 0.1, 3, TedKernel::Euclidean);
/// let cluster = |i: usize| i / 2;
/// let mut clusters: Vec<_> = picks.iter().map(|&i| cluster(i)).collect();
/// clusters.sort_unstable();
/// clusters.dedup();
/// assert_eq!(clusters.len(), 3, "one pick per cluster");
/// ```
///
/// # Panics
///
/// Panics if `features` is empty, rows are ragged, or `mu <= 0`.
#[must_use]
pub fn ted(features: &[Vec<f64>], mu: f64, m: usize, kernel: TedKernel) -> Vec<usize> {
    assert!(!features.is_empty(), "TED needs at least one candidate");
    assert!(mu > 0.0, "normalization coefficient must be positive");
    let n = features.len();
    let dim = features[0].len();
    assert!(features.iter().all(|f| f.len() == dim), "ragged feature rows");
    if m >= n {
        return (0..n).collect();
    }

    let tel = telemetry::global();
    let mut k = {
        let _span = tel.span("ted.kernel_matrix");
        kernel_matrix(features, kernel)
    };
    tel.observe("ted.candidates", n as f64);
    let _span = tel.span("ted.greedy_select");
    let mut selected = Vec::with_capacity(m);
    let mut taken = vec![false; n];
    // ‖K_v‖² per row, kept current: a row's norm is summed again right
    // after the deflation writes the row, while it is still in cache.
    let mut norms = vec![0.0; n];
    row_norms(&k, n, &(0..n).collect::<Vec<_>>(), &mut norms);
    let mut col_x = vec![0.0; n];
    let mut written = Vec::with_capacity(ROW_BLOCK);

    while selected.len() < m {
        // Line 3: x = argmax_v ||K_v||² / (k(v,v) + µ).
        let mut best: Option<(usize, f64)> = None;
        for v in 0..n {
            if taken[v] {
                continue;
            }
            let score = norms[v] / (k[v * n + v] + mu);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((v, score));
            }
        }
        // aal-lint: allow(unwrap, reason = "the loop runs only while unselected candidates remain")
        let (x, _) = best.expect("at least one unselected candidate");
        taken[x] = true;
        selected.push(x);
        if selected.len() == m {
            break; // the deflation after the last pick would never be read
        }

        // Line 5: K -= K_x K_xᵀ / (k(x,x) + µ), a block of rows at a time,
        // each block's unselected rows re-normed while still in cache.
        let denom = k[x * n + x] + mu;
        for (i, c) in col_x.iter_mut().enumerate() {
            *c = k[i * n + x];
        }
        for block in (0..n).step_by(ROW_BLOCK) {
            written.clear();
            for i in block..(block + ROW_BLOCK).min(n) {
                let ci = col_x[i] / denom;
                if ci == 0.0 {
                    continue; // the row, and so its norm, is unchanged
                }
                for (kij, &cj) in k[i * n..(i + 1) * n].iter_mut().zip(&col_x) {
                    *kij -= ci * cj;
                }
                if !taken[i] {
                    written.push(i);
                }
            }
            row_norms(&k, n, &written, &mut norms);
        }
    }
    selected
}

/// Rows deflated before their norms are summed: a block stays in L1.
const ROW_BLOCK: usize = 8;

/// Mean pairwise Euclidean distance of the rows `indices` of `features` —
/// the dispersion statistic used to compare initialization strategies.
///
/// # Panics
///
/// Panics if fewer than two indices are given.
#[must_use]
pub fn dispersion(features: &[Vec<f64>], indices: &[usize]) -> f64 {
    assert!(indices.len() >= 2, "dispersion needs at least two points");
    let mut total = 0.0;
    let mut count = 0usize;
    for (a, &i) in indices.iter().enumerate() {
        for &j in &indices[a + 1..] {
            let d2: f64 =
                features[i].iter().zip(&features[j]).map(|(x, y)| (x - y) * (x - y)).sum();
            total += d2.sqrt();
            count += 1;
        }
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cloud(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..10.0)).collect()).collect()
    }

    #[test]
    fn selects_m_distinct_indices() {
        let f = cloud(80, 5, 1);
        let sel = ted(&f, 0.1, 16, TedKernel::Euclidean);
        assert_eq!(sel.len(), 16);
        let mut s = sel.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 16, "indices must be distinct");
        assert!(s.iter().all(|&i| i < 80));
    }

    #[test]
    fn m_at_least_n_returns_all() {
        let f = cloud(10, 3, 2);
        assert_eq!(ted(&f, 0.1, 10, TedKernel::Euclidean), (0..10).collect::<Vec<_>>());
        assert_eq!(ted(&f, 0.1, 99, TedKernel::Euclidean).len(), 10);
    }

    /// Tight clusters with well-separated centers: dispersion differences
    /// are structural (between-cluster coverage), not sampling luck.
    fn clustered_cloud(
        per_cluster: usize,
        clusters: usize,
        dim: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(per_cluster * clusters);
        for c in 0..clusters {
            for _ in 0..per_cluster {
                out.push(
                    (0..dim)
                        .map(|d| {
                            let center = if d == c % dim { 20.0 * (1.0 + c as f64) } else { 0.0 };
                            center + rng.gen_range(-0.5..0.5)
                        })
                        .collect(),
                );
            }
        }
        out
    }

    #[test]
    fn ted_beats_random_dispersion() {
        // The whole point of TED: selected points scatter across the space.
        // On clustered data a random subset over-samples some clusters and
        // misses others, while TED's deflation spreads its picks, so TED's
        // mean pairwise distance must come out ahead of the random average.
        let clusters = 6;
        let f = clustered_cloud(50, clusters, 6, 3);
        let n = f.len();
        let m = 12;
        let sel = ted(&f, 0.1, m, TedKernel::Euclidean);
        let covered: std::collections::HashSet<usize> = sel.iter().map(|&i| i / 50).collect();
        assert_eq!(covered.len(), clusters, "TED must cover every cluster: {sel:?}");

        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut random_disp = 0.0;
        let reps = 30;
        for _ in 0..reps {
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..m {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            random_disp += dispersion(&f, &idx[..m]);
        }
        random_disp /= f64::from(reps);
        let ted_disp = dispersion(&f, &sel);
        assert!(
            ted_disp > random_disp,
            "TED dispersion {ted_disp} should beat random {random_disp}"
        );
    }

    #[test]
    fn rbf_kernel_also_selects_diverse_points() {
        let f = cloud(150, 4, 5);
        let sel = ted(&f, 0.1, 12, TedKernel::Rbf { sigma: 3.0 });
        assert_eq!(sel.len(), 12);
        let disp = dispersion(&f, &sel);
        assert!(disp > 0.0);
    }

    #[test]
    fn clustered_data_picks_from_far_clusters_first() {
        // Two tight clusters far apart plus one outlier mid-way: the first
        // two TED picks must not come from the same cluster.
        let mut f = Vec::new();
        for i in 0..20 {
            f.push(vec![0.0 + 0.01 * i as f64, 0.0]);
        }
        for i in 0..20 {
            f.push(vec![100.0 + 0.01 * i as f64, 0.0]);
        }
        let sel = ted(&f, 0.1, 2, TedKernel::Euclidean);
        let cluster = |i: usize| usize::from(i >= 20);
        assert_ne!(cluster(sel[0]), cluster(sel[1]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The mirrored kernel and the one-pass deflation pick the original
        /// TED's indices in the same order, for both kernels — duplicate
        /// points and underflowing RBF entries (whose rows the deflation
        /// skips) included.
        #[test]
        fn picks_match_the_reference_in_order(
            n in 1usize..=90,
            dim in 1usize..=9,
            m in 0usize..=40,
            duplicates in 0usize..=20,
            rbf in prop_oneof![Just(None), Just(Some(0.05)), Just(Some(3.0)), (0.5f64..20.0).prop_map(Some)],
            mu in prop_oneof![Just(0.1), 0.01f64..2.0],
            seed in 0u64..1_000_000,
        ) {
            let mut f = cloud(n, dim, seed);
            // Copies of earlier points put zero distances into the matrix.
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD0);
            for _ in 0..duplicates {
                let i = rng.gen_range(0..f.len());
                f.push(f[i].clone());
            }
            let kernel = rbf.map_or(TedKernel::Euclidean, |sigma| TedKernel::Rbf { sigma });
            prop_assert_eq!(ted(&f, mu, m, kernel), reference::ted(&f, mu, m, kernel));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mu_panics() {
        let f = cloud(5, 2, 6);
        let _ = ted(&f, 0.0, 2, TedKernel::Euclidean);
    }
}
