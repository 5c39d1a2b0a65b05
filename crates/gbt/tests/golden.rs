//! Cross-version pin of the fitted models' output bits.
//!
//! `golden_predictions.txt` holds `f64::to_bits` of predictions made by
//! models fit on a fixed integer-valued dataset, with the parameters the
//! tuner uses (`TuneOptions::default()`: `gbt` for AutoTVM, `bao_gbt` for
//! BAO). It was generated before the split search was rewritten for
//! speed. Fitting uses only IEEE `+ − × ÷` and comparisons, so the bits
//! are portable, and any change to them means a change to the output.

use gbt::{BaggedGbt, Gbt, GbtParams, Matrix};

/// 160 rows × 9 integer features with many ties; the last column is
/// constant.
fn dataset() -> (Matrix, Vec<f64>) {
    let (n, d) = (160usize, 9usize);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| {
                    if j == d - 1 {
                        4.0
                    } else {
                        ((i * (2 * j + 3) + j * j + i / 7) % (4 + 3 * j)) as f64
                    }
                })
                .collect()
        })
        .collect();
    let ys: Vec<f64> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| 3.0 * r[0] - 2.0 * r[1] + r[2] * r[3] - r[5] + ((i * 37) % 11) as f64)
        .collect();
    (Matrix::from_rows(&rows), ys)
}

/// Every training row, then every seventh row shifted by 0.5 (between
/// split thresholds).
fn probes(x: &Matrix) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = (0..x.rows()).map(|i| x.row(i).to_vec()).collect();
    out.extend((0..x.rows()).step_by(7).map(|i| x.row(i).iter().map(|v| v + 0.5).collect()));
    out
}

#[test]
fn predictions_match_the_committed_bits() {
    let (x, y) = dataset();
    let gbt = GbtParams::default();
    let bao = GbtParams { n_rounds: 35, colsample: 0.6, ..GbtParams::default() };
    let p = probes(&x);
    let mut got = Vec::new();
    let mut record = |name: &str, predict: &dyn Fn(&[f64]) -> f64| {
        for (i, r) in p.iter().enumerate() {
            got.push(format!("{name} {i} {:016x}", predict(r).to_bits()));
        }
    };
    let m = Gbt::fit(&gbt, &x, &y, 7);
    record("gbt", &|r| m.predict_row(r));
    let m = Gbt::fit(&bao, &x, &y, 7);
    record("bao_gbt", &|r| m.predict_row(r));
    let m = BaggedGbt::fit(&gbt, &x, &y, 2, 11);
    record("bagged_gbt", &|r| m.predict_sum_row(r));
    let m = BaggedGbt::fit(&bao, &x, &y, 2, 11);
    record("bagged_bao_gbt", &|r| m.predict_sum_row(r));
    let want: Vec<&str> = include_str!("golden_predictions.txt").lines().collect();
    assert_eq!(got.len(), want.len(), "fixture covers every probe of every case");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "prediction bits changed");
    }
}
