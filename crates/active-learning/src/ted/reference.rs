//! The original TED, kept as a test oracle.
//!
//! The kernel is evaluated for both halves of every pair, and each greedy
//! pick reads the whole matrix once to score the candidates and once more
//! to deflate it. The production [`super::ted`] must pick the same indices
//! in the same order.

use super::TedKernel;

fn kernel_matrix(features: &[Vec<f64>], kernel: TedKernel) -> Vec<f64> {
    let n = features.len();
    let mut d = vec![0.0; n * n];
    let mut sum = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            let d2: f64 =
                features[i].iter().zip(&features[j]).map(|(a, b)| (a - b) * (a - b)).sum();
            d[i * n + j] = d2;
            d[j * n + i] = d2;
            sum += d2.sqrt();
        }
    }
    let pairs = (n * (n - 1) / 2).max(1);
    let scale = (sum / pairs as f64).max(1e-9);
    for v in &mut d {
        *v = match kernel {
            TedKernel::Euclidean => (-v.sqrt() / scale).exp(),
            TedKernel::Rbf { sigma } => (-*v / (2.0 * sigma * sigma)).exp(),
        };
    }
    d
}

/// [`super::ted`] as it was before the one-pass deflation.
pub(crate) fn ted(features: &[Vec<f64>], mu: f64, m: usize, kernel: TedKernel) -> Vec<usize> {
    let n = features.len();
    if m >= n {
        return (0..n).collect();
    }
    let mut k = kernel_matrix(features, kernel);
    let mut selected = Vec::with_capacity(m);
    let mut taken = vec![false; n];
    for _ in 0..m {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..n {
            if taken[v] {
                continue;
            }
            let col = &k[v * n..(v + 1) * n];
            let norm2: f64 = col.iter().map(|x| x * x).sum();
            let score = norm2 / (k[v * n + v] + mu);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((v, score));
            }
        }
        // aal-lint: allow(unwrap, reason = "the loop runs only while unselected candidates remain")
        let (x, _) = best.expect("at least one unselected candidate");
        taken[x] = true;
        selected.push(x);
        let denom = k[x * n + x] + mu;
        let col_x: Vec<f64> = (0..n).map(|i| k[i * n + x]).collect();
        for i in 0..n {
            let ci = col_x[i] / denom;
            if ci == 0.0 {
                continue;
            }
            for j in 0..n {
                k[i * n + j] -= ci * col_x[j];
            }
        }
    }
    selected
}
