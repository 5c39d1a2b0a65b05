//! Feature vectors for configurations.
//!
//! Both the evaluation function (GBT regression) and TED's kernel matrix
//! consume a numeric embedding of each configuration. We use AutoTVM's
//! *knob features*: every split factor contributes its log2, every
//! categorical knob contributes a scaled value. Log-scaling makes Euclidean
//! distance meaningful — doubling a tile size is one unit apart regardless
//! of magnitude — which is what the paper's distance-based TED (Algorithm 1)
//! and radius-based neighborhoods rely on.

use crate::knob::Knob;
use crate::space::{Config, ConfigSpace};
use std::sync::OnceLock;

/// Dimensionality of the feature vector produced for `space`.
#[must_use]
pub fn feature_len(space: &ConfigSpace) -> usize {
    space
        .knobs()
        .iter()
        .map(|k| match k {
            Knob::Split { num_outputs, .. } => *num_outputs,
            Knob::Choice { .. } => 1,
        })
        .sum()
}

/// Embeds one configuration as a feature vector of [`feature_len`] entries.
#[must_use]
pub fn features(space: &ConfigSpace, config: &Config) -> Vec<f64> {
    let mut out = Vec::with_capacity(feature_len(space));
    features_into(space, config, &mut out);
    out
}

/// Appends the feature vector of `config` to `out` — lets hot scoring loops
/// reuse one flat buffer across rows instead of allocating a `Vec` per
/// configuration.
///
/// Reads each knob's candidate table in place (no [`ConfigSpace::values`]
/// copies) and split factors' log2 from a table, so featurizing is cheap
/// enough to run on every candidate of every proposal step.
pub fn features_into(space: &ConfigSpace, config: &Config, out: &mut Vec<f64>) {
    for (&c, knob) in config.choices.iter().zip(space.knobs()) {
        knob_features_into(knob, c, out);
    }
}

/// Appends the features of candidate `c` of `knob`: one knob's part of
/// [`features_into`].
fn knob_features_into(knob: &Knob, c: usize, out: &mut Vec<f64>) {
    match knob {
        Knob::Split { candidates, .. } => {
            out.extend(candidates[c].iter().map(|&f| log2_factor(f)));
        }
        Knob::Choice { values, .. } => {
            // Signed log1p keeps large step values (1500) commensurate
            // with log2 tile factors and stays finite for any integer.
            let x = values[c] as f64;
            out.push(x.signum() * x.abs().ln_1p());
        }
    }
}

/// The features of every candidate of every knob of one space, computed
/// once: featurizing a configuration then copies one slice per knob, the
/// same bits as [`features_into`].
///
/// It is also the source of each knob's candidate features for code that
/// reasons per knob, such as compiling a cost model into per-knob tables.
#[derive(Debug, Clone)]
pub struct FeatureTable {
    /// Per knob: where its candidates' features start, and how many
    /// features each candidate has.
    knobs: Vec<(usize, usize)>,
    values: Vec<f64>,
}

impl FeatureTable {
    /// Tabulates the features of every knob candidate of `space`.
    #[must_use]
    pub fn new(space: &ConfigSpace) -> Self {
        let mut values = Vec::new();
        let knobs = space
            .knobs()
            .iter()
            .map(|knob| {
                let start = values.len();
                for c in 0..knob.cardinality() {
                    knob_features_into(knob, c, &mut values);
                }
                (start, (values.len() - start) / knob.cardinality())
            })
            .collect();
        FeatureTable { knobs, values }
    }

    /// [`features_into`] for the configuration with these knob `choices`.
    pub fn features_into(&self, choices: &[usize], out: &mut Vec<f64>) {
        for (&c, &(start, width)) in choices.iter().zip(&self.knobs) {
            let at = start + c * width;
            out.extend_from_slice(&self.values[at..at + width]);
        }
    }

    /// Knob by knob, in feature order: its feature count per candidate,
    /// and its candidates' features, candidate by candidate.
    pub fn knobs(&self) -> impl Iterator<Item = (usize, &[f64])> {
        let ends = self.knobs.iter().skip(1).map(|&(start, _)| start).chain([self.values.len()]);
        self.knobs.iter().zip(ends).map(|(&(start, width), end)| (width, &self.values[start..end]))
    }
}

/// Split factors below this bound read their log2 from a table.
const LOG2_TABLE_LEN: usize = 4096;

/// `(f as f64).log2()`, from a table for the small factors every tiling
/// knob uses. The table holds that very expression's results, so the bits
/// are the same either way.
fn log2_factor(f: usize) -> f64 {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..LOG2_TABLE_LEN).map(|f| (f as f64).log2()).collect());
    table.get(f).copied().unwrap_or_else(|| (f as f64).log2())
}

/// Embeds many configurations at once (row-major).
#[must_use]
pub fn feature_matrix(space: &ConfigSpace, configs: &[Config]) -> Vec<Vec<f64>> {
    configs.iter().map(|c| features(space, c)).collect()
}

/// Squared Euclidean distance between two feature vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn sq_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "feature length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::KnobValue;

    fn space() -> ConfigSpace {
        ConfigSpace::new("t", vec![Knob::split("a", 8, 2), Knob::choice("u", vec![0, 512])])
    }

    #[test]
    fn feature_len_counts_split_outputs() {
        assert_eq!(feature_len(&space()), 3);
    }

    #[test]
    fn split_features_are_log2() {
        let s = space();
        // index 1 -> a = (2, 4), u = 0.
        let cfg = s.config(1).unwrap();
        let f = features(&s, &cfg);
        assert_eq!(f, vec![1.0, 2.0, 0.0]);
    }

    #[test]
    fn choice_feature_is_log1p() {
        let s = space();
        let n = s.len();
        let cfg = s.config(n - 1).unwrap(); // u = 512
        let f = features(&s, &cfg);
        assert!((f[2] - (513.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn distances_are_symmetric_and_zero_on_self() {
        let s = space();
        let a = features(&s, &s.config(0).unwrap());
        let b = features(&s, &s.config(3).unwrap());
        assert_eq!(sq_distance(&a, &a), 0.0);
        assert_eq!(sq_distance(&a, &b), sq_distance(&b, &a));
    }

    #[test]
    fn features_into_appends_and_matches_features() {
        let s = space();
        let a = s.config(1).unwrap();
        let b = s.config(3).unwrap();
        let mut buf = Vec::new();
        features_into(&s, &a, &mut buf);
        features_into(&s, &b, &mut buf);
        assert_eq!(buf.len(), 2 * feature_len(&s));
        assert_eq!(&buf[..3], features(&s, &a).as_slice());
        assert_eq!(&buf[3..], features(&s, &b).as_slice());
    }

    #[test]
    fn features_match_the_knob_values() {
        // Every split feature is the log2 of the factor `values` reports,
        // bit for bit, on both sides of the table bound.
        let s = ConfigSpace::new(
            "t",
            vec![Knob::split("a", 3 * LOG2_TABLE_LEN, 2), Knob::choice("u", vec![-7, 0, 1500])],
        );
        for i in 0..s.len() {
            let cfg = s.config(i).unwrap();
            let mut want = Vec::new();
            for v in s.values(&cfg) {
                match v {
                    KnobValue::Split(fs) => want.extend(fs.iter().map(|&f| (f as f64).log2())),
                    KnobValue::Choice(v) => {
                        let x = v as f64;
                        want.push(x.signum() * x.abs().ln_1p());
                    }
                }
            }
            let got = features(&s, &cfg);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "config {i}");
            }
        }
    }

    #[test]
    fn the_table_reproduces_the_features_bit_for_bit() {
        let s = ConfigSpace::new(
            "t",
            vec![
                Knob::split("a", 3 * LOG2_TABLE_LEN, 2),
                Knob::split("b", 36, 3),
                Knob::choice("u", vec![-7, 0, 1500]),
            ],
        );
        let table = FeatureTable::new(&s);
        let mut got = Vec::new();
        for i in 0..s.len() {
            let cfg = s.config(i).unwrap();
            got.clear();
            table.features_into(&cfg.choices, &mut got);
            let want = features(&s, &cfg);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "config {i}");
            }
        }
        let knobs: Vec<(usize, usize)> =
            table.knobs().map(|(width, values)| (width, values.len() / width)).collect();
        assert_eq!(knobs.len(), s.num_knobs());
        for ((width, card), knob) in knobs.iter().zip(s.knobs()) {
            assert_eq!(*card, knob.cardinality());
            assert_eq!(
                *width,
                if let Knob::Split { num_outputs, .. } = knob { *num_outputs } else { 1 }
            );
        }
    }

    #[test]
    fn matrix_shape() {
        let s = space();
        let cfgs: Vec<_> = (0..4).map(|i| s.config(i).unwrap()).collect();
        let m = feature_matrix(&s, &cfgs);
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|r| r.len() == 3));
    }
}
