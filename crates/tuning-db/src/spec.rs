//! Canonical task specs and the records stored against them.

use dnn_graph::task::{TaskKind, TuningTask, Workload};
use schedule::{Config, ConfigSpace};
use serde::{Deserialize, Serialize};

/// The canonical identity of one tuning task: everything that determines
/// whether a stored configuration is *exactly* reusable. Two tasks with
/// the same spec have identical configuration spaces on identical
/// simulated hardware, so their measurements are interchangeable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Template family label (`"conv2d"`, `"depthwise_conv2d"`, `"dense"`).
    pub kind: String,
    /// Canonical workload string (the full shape tuple, not the display
    /// form — strides and paddings in both axes).
    pub workload: String,
    /// Knob-space fingerprint: `name/cardinality` per knob in digit order.
    /// Guards against template changes: a space whose knobs moved is a
    /// different spec even for the same workload.
    pub knob_fingerprint: String,
    /// Device identity the measurements were taken on.
    pub device: String,
}

impl TaskSpec {
    /// Builds the spec of `task` tuned over `space` on `device`.
    #[must_use]
    pub fn of(task: &TuningTask, space: &ConfigSpace, device: &str) -> TaskSpec {
        TaskSpec {
            kind: task.kind.to_string(),
            workload: canonical_workload(&task.workload),
            knob_fingerprint: fingerprint(space),
            device: device.to_string(),
        }
    }

    /// The flat store key. Stable across processes: every component is a
    /// deterministic function of the task, template, and device.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.kind, self.workload, self.knob_fingerprint, self.device)
    }

    /// Log-scaled shape embedding for nearest-neighbor transfer. Only
    /// comparable between specs of the same `kind`; the distance is
    /// Euclidean over log dimensions, so "twice the channels" is one unit
    /// apart at any absolute size.
    #[must_use]
    pub fn features(task: &TuningTask) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        fn ln(x: usize) -> f64 {
            (x as f64).ln_1p()
        }
        match task.workload {
            Workload::Conv2d {
                batch,
                in_channels,
                out_channels,
                height,
                width,
                kernel,
                stride,
                padding,
                groups,
            } => vec![
                ln(batch),
                ln(in_channels),
                ln(out_channels),
                ln(height),
                ln(width),
                ln(kernel.0),
                ln(kernel.1),
                ln(stride.0),
                ln(stride.1),
                ln(padding.0),
                ln(padding.1),
                ln(groups),
            ],
            Workload::Dense { batch, in_features, out_features } => {
                vec![ln(batch), ln(in_features), ln(out_features)]
            }
        }
    }

    /// True when `other` is a candidate source for warm-start transfer
    /// into this spec: same template family and same device. (Choice
    /// clipping handles differing knob cardinalities.)
    #[must_use]
    pub fn transferable_from(&self, other: &TaskSpec) -> bool {
        self.kind == other.kind
            && self.device == other.device
            && knob_count(&self.knob_fingerprint) == knob_count(&other.knob_fingerprint)
    }
}

/// The canonical (non-lossy) workload string.
fn canonical_workload(w: &Workload) -> String {
    match *w {
        Workload::Conv2d {
            batch,
            in_channels,
            out_channels,
            height,
            width,
            kernel,
            stride,
            padding,
            groups,
        } => format!(
            "conv2d:n{batch}:c{in_channels}:f{out_channels}:h{height}:w{width}:k{}x{}:s{}x{}:p{}x{}:g{groups}",
            kernel.0, kernel.1, stride.0, stride.1, padding.0, padding.1
        ),
        Workload::Dense { batch, in_features, out_features } => {
            format!("dense:n{batch}:i{in_features}:o{out_features}")
        }
    }
}

/// `name/cardinality` per knob, in digit order.
fn fingerprint(space: &ConfigSpace) -> String {
    space
        .knobs()
        .iter()
        .map(|k| format!("{}/{}", k.name(), k.cardinality()))
        .collect::<Vec<_>>()
        .join(",")
}

fn knob_count(fingerprint: &str) -> usize {
    if fingerprint.is_empty() {
        0
    } else {
        fingerprint.split(',').count()
    }
}

/// One stored configuration with its measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopConfig {
    /// Flat index in the task's own space (valid only for exact hits).
    pub config_index: u64,
    /// Per-knob choice indices — the transferable representation: other
    /// spaces map these by clipping, so they survive template resizes.
    pub choices: Vec<usize>,
    /// Measured GFLOPS.
    pub gflops: f64,
    /// Measured latency, seconds.
    pub latency_s: f64,
}

/// Everything the database remembers about one task spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbRecord {
    /// Record format version ([`crate::DB_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// The canonical spec this record belongs to.
    pub spec: TaskSpec,
    /// Shape embedding of the task (see [`TaskSpec::features`]).
    pub feature: Vec<f64>,
    /// Method label that produced the best result.
    pub method: String,
    /// Seed of the producing run.
    pub seed: u64,
    /// Trials the producing run measured.
    pub n_trials: u64,
    /// Best measured GFLOPS.
    pub best_gflops: f64,
    /// Best configurations, best first, at most [`crate::TOP_K`].
    pub top_k: Vec<TopConfig>,
    /// Decimated best-so-far curve of the producing run (≤ 64 points),
    /// for trials-to-best analysis without replaying logs.
    pub curve: Vec<f64>,
}

impl DbRecord {
    /// Merges `incoming` into `self`. Idempotent (re-applying the same
    /// record is a no-op) and commutative enough for segment replay after
    /// an interrupted compaction: configurations union by choices, rank by
    /// GFLOPS, truncate to top-k; run-level fields follow whichever side
    /// holds the better best.
    pub fn merge(&mut self, incoming: &DbRecord, top_k: usize) {
        if incoming.best_gflops > self.best_gflops {
            self.method = incoming.method.clone();
            self.seed = incoming.seed;
            self.n_trials = incoming.n_trials;
            self.best_gflops = incoming.best_gflops;
            self.curve = incoming.curve.clone();
        }
        for c in &incoming.top_k {
            if let Some(existing) = self.top_k.iter_mut().find(|e| e.choices == c.choices) {
                if c.gflops > existing.gflops {
                    *existing = c.clone();
                }
            } else {
                self.top_k.push(c.clone());
            }
        }
        self.top_k.sort_by(|a, b| {
            b.gflops.total_cmp(&a.gflops).then_with(|| a.config_index.cmp(&b.config_index))
        });
        self.top_k.truncate(top_k);
    }

    /// The stored best configurations mapped into `space`, best first,
    /// deduplicated after clipping. Empty when the knob counts mismatch.
    #[must_use]
    pub fn configs_for(&self, space: &ConfigSpace, k: usize) -> Vec<Config> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for c in &self.top_k {
            if out.len() >= k {
                break;
            }
            let Some(cfg) = space.map_choices(&c.choices) else { continue };
            if seen.insert(cfg.index) {
                out.push(cfg);
            }
        }
        out
    }
}

/// Decimates a convergence curve to at most `max_points` samples,
/// always keeping the final value.
#[must_use]
pub fn decimate_curve(curve: &[f64], max_points: usize) -> Vec<f64> {
    if curve.len() <= max_points || max_points == 0 {
        return curve.to_vec();
    }
    let mut out = Vec::with_capacity(max_points);
    for i in 0..max_points - 1 {
        out.push(curve[i * curve.len() / max_points]);
    }
    // aal-lint: allow(unwrap, reason = "the curve is longer than max_points on this branch")
    out.push(*curve.last().expect("non-empty: longer than max_points"));
    out
}

/// Convenience: is `TaskKind` display stable with spec kinds? (Used by
/// tests; the public API goes through [`TaskSpec::of`].)
#[must_use]
pub fn kind_label(kind: TaskKind) -> String {
    kind.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedule::Knob;

    fn task() -> TuningTask {
        TuningTask {
            kind: TaskKind::Conv2d,
            name: "m.T1".into(),
            workload: Workload::Conv2d {
                batch: 1,
                in_channels: 16,
                out_channels: 32,
                height: 28,
                width: 28,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
                groups: 1,
            },
            occurrences: 2,
        }
    }

    fn space(extent: usize) -> ConfigSpace {
        ConfigSpace::new("s", vec![Knob::split("a", extent, 2), Knob::choice("u", vec![0, 512])])
    }

    #[test]
    fn spec_key_is_canonical_and_distinguishes_devices() {
        let t = task();
        let s = space(64);
        let a = TaskSpec::of(&t, &s, "gtx1080ti");
        let b = TaskSpec::of(&t, &s, "gtx1080ti");
        assert_eq!(a.key(), b.key());
        let v100 = TaskSpec::of(&t, &s, "v100");
        assert_ne!(a.key(), v100.key());
        // The full shape tuple reaches the key (both padding axes).
        assert!(a.key().contains("p1x1"), "{}", a.key());
        assert!(a.key().contains("a/7,u/2"), "{}", a.key());
    }

    #[test]
    fn knob_fingerprint_changes_with_the_template() {
        let t = task();
        let a = TaskSpec::of(&t, &space(64), "d");
        let b = TaskSpec::of(&t, &space(16), "d");
        assert_ne!(a.key(), b.key(), "different cardinalities are different specs");
        assert!(a.transferable_from(&b), "but still transfer candidates");
    }

    #[test]
    fn features_are_log_scaled_and_kind_gated() {
        let t = task();
        let f = TaskSpec::features(&t);
        assert_eq!(f.len(), 12);
        assert!(f.iter().all(|x| x.is_finite()));
        let dense = TuningTask {
            kind: TaskKind::Dense,
            name: "d".into(),
            workload: Workload::Dense { batch: 1, in_features: 64, out_features: 10 },
            occurrences: 1,
        };
        assert_eq!(TaskSpec::features(&dense).len(), 3);
        let s = space(64);
        let conv_spec = TaskSpec::of(&t, &s, "d");
        let dense_spec = TaskSpec::of(&dense, &s, "d");
        assert!(!conv_spec.transferable_from(&dense_spec));
    }

    #[test]
    fn merge_is_idempotent_and_keeps_top_k_ranked() {
        let s = space(64);
        let t = task();
        let spec = TaskSpec::of(&t, &s, "d");
        let mk = |idx: u64, g: f64| TopConfig {
            config_index: idx,
            choices: s.config(idx).unwrap().choices,
            gflops: g,
            latency_s: 1e-3,
        };
        let mut a = DbRecord {
            schema_version: 1,
            spec: spec.clone(),
            feature: TaskSpec::features(&t),
            method: "bted+bao".into(),
            seed: 0,
            n_trials: 50,
            best_gflops: 80.0,
            top_k: vec![mk(1, 80.0), mk(2, 40.0)],
            curve: vec![40.0, 80.0],
        };
        let b = DbRecord {
            best_gflops: 99.0,
            top_k: vec![mk(3, 99.0), mk(2, 55.0)],
            curve: vec![99.0],
            seed: 7,
            ..a.clone()
        };
        a.merge(&b, 3);
        assert_eq!(a.best_gflops, 99.0);
        assert_eq!(a.seed, 7);
        assert_eq!(a.top_k.len(), 3);
        assert_eq!(a.top_k[0].config_index, 3);
        assert_eq!(a.top_k[1].config_index, 1);
        assert_eq!(a.top_k[2].gflops, 55.0, "same choices keep the better measurement");
        let before = a.clone();
        a.merge(&b, 3);
        assert_eq!(a, before, "merge must be idempotent");
    }

    #[test]
    fn configs_for_maps_best_first_and_dedupes() {
        let big = space(1024);
        let small = space(16);
        let t = task();
        let rec = DbRecord {
            schema_version: 1,
            spec: TaskSpec::of(&t, &big, "d"),
            feature: TaskSpec::features(&t),
            method: "bted+bao".into(),
            seed: 0,
            n_trials: 10,
            best_gflops: 9.0,
            top_k: (0..4)
                .map(|i| TopConfig {
                    config_index: big.len() - 1 - i,
                    choices: big.config(big.len() - 1 - i).unwrap().choices,
                    gflops: 9.0 - i as f64,
                    latency_s: 1e-3,
                })
                .collect(),
            curve: vec![9.0],
        };
        let got = rec.configs_for(&small, 4);
        assert!(!got.is_empty());
        assert!(got.len() < 4, "the four stored configs collide after clipping");
        let mut seen = std::collections::HashSet::new();
        for cfg in &got {
            assert!(seen.insert(cfg.index), "deduplicated after clipping");
            assert!(cfg.index < small.len());
            for (&c, k) in cfg.choices.iter().zip(small.knobs()) {
                assert!(c < k.cardinality(), "each choice is clipped into the knob");
            }
        }
        // Identity mapping into the original space returns the stored set,
        // best first.
        let same = rec.configs_for(&big, 4);
        let order: Vec<u64> = same.iter().map(|c| c.index).collect();
        assert_eq!(order, rec.top_k.iter().map(|c| c.config_index).collect::<Vec<_>>());
        assert_eq!(rec.configs_for(&big, 2).len(), 2, "at most k configs");
        // A space with another knob count is another template: nothing maps.
        let other = ConfigSpace::new("o", vec![Knob::choice("x", vec![0, 1])]);
        assert!(rec.configs_for(&other, 4).is_empty());
    }

    #[test]
    fn decimate_keeps_endpoints_and_caps_length() {
        let curve: Vec<f64> = (0..1000).map(f64::from).collect();
        let d = decimate_curve(&curve, 64);
        assert_eq!(d.len(), 64);
        assert_eq!(*d.last().unwrap(), 999.0);
        assert_eq!(d[0], 0.0);
        let short = decimate_curve(&[1.0, 2.0], 64);
        assert_eq!(short, vec![1.0, 2.0]);
        assert_eq!(kind_label(TaskKind::Conv2d), "conv2d");
    }
}
