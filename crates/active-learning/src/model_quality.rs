//! Surrogate-model introspection records.
//!
//! The tuning loop records *what* it measures (trial logs) and *how fast*
//! (telemetry); this module records *why*: for every proposed
//! configuration, what the surrogate predicted before the measurement came
//! back. The per-run `model_quality.jsonl` file built from these records is
//! what `aaltune explain`, the HTML report's "Model quality" panel and the
//! `compare` rank-correlation gate consume.
//!
//! Capture is opt-in ([`crate::TuneOptions::capture_model`]) and pure: the
//! diagnostics are read off models the tuners already fitted, so enabling
//! it never touches an RNG stream or changes a proposal — trial logs stay
//! byte-identical with capture on or off.

use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write as _};
use std::path::Path;

/// Schema version of `model_quality.jsonl` (header line).
pub const MODEL_QUALITY_SCHEMA_VERSION: u32 = 1;

/// File name of the per-run prediction capture inside a run directory.
pub const MODEL_QUALITY_FILE: &str = "model_quality.jsonl";

/// What the surrogate believed about one proposed configuration at the
/// moment it was proposed.
///
/// Every field except the index is optional: random/grid proposals (and
/// the ε-greedy exploration fraction) carry no model opinion, and a
/// single-model surrogate (the AutoTVM XGB arm) has a mean but no
/// uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProposalDiag {
    /// Index of the proposed configuration.
    pub config_index: u64,
    /// Predicted performance in GFLOPS (already de-normalized).
    pub predicted_mean: Option<f64>,
    /// Prediction uncertainty in GFLOPS (bagged-ensemble disagreement).
    pub predicted_std: Option<f64>,
    /// Raw acquisition score the proposer ranked this configuration by
    /// (model units — only comparable within one round).
    pub acquisition: Option<f64>,
}

impl ProposalDiag {
    /// A diagnostic for a proposal the model had no opinion on.
    #[must_use]
    pub fn blind(config_index: u64) -> Self {
        ProposalDiag { config_index, ..ProposalDiag::default() }
    }
}

/// One line of `model_quality.jsonl`: a [`ProposalDiag`] joined with the
/// measurement that followed it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelPredRecord {
    /// Task the configuration belongs to.
    pub task: String,
    /// Proposal round (one `next_batch` call) within the task, 0-based.
    pub round: usize,
    /// Trial number within the task (matches the trial log).
    pub trial: usize,
    /// Configuration index.
    pub config_index: u64,
    /// Predicted performance in GFLOPS, if the model scored this proposal.
    pub predicted_mean: Option<f64>,
    /// Prediction uncertainty in GFLOPS, if the surrogate is an ensemble.
    pub predicted_std: Option<f64>,
    /// Acquisition score the proposer used.
    pub acquisition: Option<f64>,
    /// The measured outcome (0.0 for failed trials).
    pub measured_gflops: f64,
}

/// Header line of `model_quality.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ModelQualityHeader {
    kind: String,
    schema_version: u32,
}

/// Writes `records` as a `model_quality.jsonl` file (header line followed
/// by one record per line) through [`telemetry::durable::replace`], so a
/// crash mid-write never leaves a half-file next to valid trial logs.
///
/// # Errors
///
/// Returns an error when the file cannot be created or written.
pub fn write_model_quality(path: &Path, records: &[ModelPredRecord]) -> std::io::Result<()> {
    write_record_lines(path, records.iter().map(record_line))
}

/// One record's line of `model_quality.jsonl`, newline included.
pub(crate) fn record_line(r: &ModelPredRecord) -> String {
    // aal-lint: allow(unwrap, reason = "prediction records are plain data; serialization cannot fail")
    let mut line = serde_json::to_string(r).expect("record serializes");
    line.push('\n');
    line
}

/// [`write_model_quality`] for records already rendered by
/// [`record_line`], in blocks of any number of lines — lets a run that
/// rewrites the file as tasks finish render each record once.
pub(crate) fn write_record_lines(
    path: &Path,
    blocks: impl IntoIterator<Item = impl AsRef<str>>,
) -> std::io::Result<()> {
    let header = ModelQualityHeader {
        kind: "model_quality".to_string(),
        schema_version: MODEL_QUALITY_SCHEMA_VERSION,
    };
    telemetry::durable::replace(path, |f| {
        // aal-lint: allow(unwrap, reason = "header is a plain data struct; serialization cannot fail")
        writeln!(f, "{}", serde_json::to_string(&header).expect("header serializes"))?;
        blocks.into_iter().try_for_each(|block| f.write_all(block.as_ref().as_bytes()))
    })
}

/// Reads a `model_quality.jsonl` file back.
///
/// # Errors
///
/// Returns a message when the file is missing, the header is not a
/// `model_quality` header, or any record line fails to parse.
pub fn read_model_quality(path: &Path) -> Result<Vec<ModelPredRecord>, String> {
    let f =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut lines = std::io::BufReader::new(f).lines();
    let header_line = lines
        .next()
        .ok_or_else(|| format!("{}: empty file", path.display()))?
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let header: ModelQualityHeader = serde_json::from_str(&header_line)
        .map_err(|e| format!("{}: bad header: {e}", path.display()))?;
    if header.kind != "model_quality" {
        return Err(format!("{}: not a model_quality file", path.display()));
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: ModelPredRecord = serde_json::from_str(&line)
            .map_err(|e| format!("{}: line {}: {e}", path.display(), i + 2))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(task: &str, round: usize, trial: usize, pred: Option<f64>) -> ModelPredRecord {
        ModelPredRecord {
            task: task.to_string(),
            round,
            trial,
            config_index: trial as u64 * 7,
            predicted_mean: pred,
            predicted_std: pred.map(|p| p * 0.1),
            acquisition: pred,
            measured_gflops: 100.0 + trial as f64,
        }
    }

    #[test]
    fn round_trips_through_jsonl() {
        let dir = std::env::temp_dir().join("aaltune-mq-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MODEL_QUALITY_FILE);
        let records =
            vec![rec("m.T1", 0, 0, None), rec("m.T1", 1, 1, Some(90.0)), rec("m.T2", 0, 0, None)];
        write_model_quality(&path, &records).unwrap();
        let back = read_model_quality(&path).unwrap();
        assert_eq!(back, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_malformed_files_error() {
        let dir = std::env::temp_dir().join("aaltune-mq-malformed");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_model_quality(&dir.join("nope.jsonl")).is_err());
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"kind\":\"trial_log\",\"schema_version\":1}\n").unwrap();
        let err = read_model_quality(&bad).unwrap_err();
        assert!(err.contains("not a model_quality file"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blind_diag_has_no_opinion() {
        let d = ProposalDiag::blind(42);
        assert_eq!(d.config_index, 42);
        assert!(d.predicted_mean.is_none() && d.predicted_std.is_none());
        assert!(d.acquisition.is_none());
    }
}
