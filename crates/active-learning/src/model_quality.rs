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

use crate::records::RunDir;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};

/// Schema version of `model_quality.jsonl` (header line).
pub const MODEL_QUALITY_SCHEMA_VERSION: u32 = 1;

/// File name of the per-run prediction capture inside a run directory.
pub const MODEL_QUALITY_FILE: &str = "model_quality.jsonl";

/// Directory of a run's capture parts: one `<task>.jsonl` of record lines
/// (no header) per completed task, written once when the task completes.
/// The run's end folds them, in task order, into [`MODEL_QUALITY_FILE`]
/// and removes the directory, so only a killed run leaves it behind.
pub const MODEL_QUALITY_PARTS_DIR: &str = "model_quality.d";

/// What the surrogate believed about one proposed configuration at the
/// moment it was proposed.
///
/// Every field except the index is optional: random proposals (and
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
    write_capture_file(path, |f| {
        records.iter().try_for_each(|r| f.write_all(record_line(r).as_bytes()))
    })
}

/// One record's line of `model_quality.jsonl`, newline included.
pub(crate) fn record_line(r: &ModelPredRecord) -> String {
    // aal-lint: allow(unwrap, reason = "prediction records are plain data; serialization cannot fail")
    let mut line = serde_json::to_string(r).expect("record serializes");
    line.push('\n');
    line
}

/// Writes a `model_quality.jsonl` file through
/// [`telemetry::durable::replace`]: the header line, then the record
/// lines `body` writes (as rendered by [`record_line`]).
pub(crate) fn write_capture_file(
    path: &Path,
    body: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let header = ModelQualityHeader {
        kind: "model_quality".to_string(),
        schema_version: MODEL_QUALITY_SCHEMA_VERSION,
    };
    telemetry::durable::replace(path, |f| {
        // aal-lint: allow(unwrap, reason = "header is a plain data struct; serialization cannot fail")
        writeln!(f, "{}", serde_json::to_string(&header).expect("header serializes"))?;
        body(f)
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
    read_records(path, lines, 2, &mut out)?;
    Ok(out)
}

/// Parses record lines (blank lines skipped) onto `out`; `first_line` is
/// the 1-based file line of the first one, for error messages.
fn read_records(
    path: &Path,
    lines: impl Iterator<Item = std::io::Result<String>>,
    first_line: usize,
    out: &mut Vec<ModelPredRecord>,
) -> Result<(), String> {
    for (i, line) in lines.enumerate() {
        let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: ModelPredRecord = serde_json::from_str(&line)
            .map_err(|e| format!("{}: line {}: {e}", path.display(), i + first_line))?;
        out.push(rec);
    }
    Ok(())
}

/// Reads a run directory's model capture: [`MODEL_QUALITY_FILE`] once
/// the run has ended, else the parts a killed run left in
/// [`MODEL_QUALITY_PARTS_DIR`], in the manifest's task order (file-name
/// order when the manifest is unreadable). `None` when the run captured
/// nothing.
///
/// # Errors
///
/// Returns a message when a file exists but cannot be read or parsed.
pub fn read_capture(dir: &RunDir) -> Result<Option<Vec<ModelPredRecord>>, String> {
    let path = dir.model_quality_path();
    if path.is_file() {
        return read_model_quality(&path).map(Some);
    }
    let parts_dir = dir.model_quality_parts_dir();
    if !parts_dir.is_dir() {
        return Ok(None);
    }
    let parts: Vec<PathBuf> = match dir.read_manifest() {
        Ok(m) => m.tasks.iter().map(|t| dir.model_quality_part_path(t)).collect(),
        Err(_) => {
            let entries = std::fs::read_dir(&parts_dir)
                .map_err(|e| format!("cannot list {}: {e}", parts_dir.display()))?;
            let mut paths = entries
                .map(|e| e.map(|e| e.path()))
                .collect::<std::io::Result<Vec<_>>>()
                .map_err(|e| format!("cannot list {}: {e}", parts_dir.display()))?;
            // A `.tmp` beside a part is crash residue of its replace.
            paths.retain(|p| p.extension().is_some_and(|x| x == "jsonl"));
            paths.sort();
            paths
        }
    };
    let mut out = Vec::new();
    for part in parts.iter().filter(|p| p.is_file()) {
        let f = std::fs::File::open(part)
            .map_err(|e| format!("cannot open {}: {e}", part.display()))?;
        read_records(part, std::io::BufReader::new(f).lines(), 1, &mut out)?;
    }
    Ok(Some(out))
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
    fn capture_is_the_final_file_else_the_parts_in_manifest_order() {
        let root = std::env::temp_dir().join(format!("aaltune-mq-parts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = RunDir::create(&root).unwrap();
        assert_eq!(read_capture(&dir).unwrap(), None, "no capture at all");
        // Task names whose part files sort against the run order.
        let t2 = vec![rec("m.T2", 0, 0, Some(90.0)), rec("m.T2", 1, 1, None)];
        let t10 = vec![rec("m.T10", 0, 0, None)];
        std::fs::create_dir_all(dir.model_quality_parts_dir()).unwrap();
        for part in [&t2, &t10] {
            let lines: String = part.iter().map(record_line).collect();
            std::fs::write(dir.model_quality_part_path(&part[0].task), lines).unwrap();
        }
        std::fs::write(dir.model_quality_parts_dir().join("m.T3.jsonl.tmp"), "{torn").unwrap();
        let by_name = [t10.clone(), t2.clone()].concat();
        assert_eq!(read_capture(&dir).unwrap(), Some(by_name), "no manifest: file-name order");

        dir.write_manifest(&crate::RunManifest {
            model: "m".into(),
            method: "bted+bao".into(),
            tasks: vec!["m.T2".into(), "m.T10".into()],
            seed: 0,
            options: crate::TuneOptions::smoke(),
            schema_version: None,
            git_describe: None,
            wall_time_s: None,
            device: None,
            fault: None,
            resumed: None,
            workers: None,
            devices: None,
            db: None,
        })
        .unwrap();
        let by_run = [t2, t10.clone()].concat();
        assert_eq!(read_capture(&dir).unwrap(), Some(by_run), "the manifest's task order");

        write_model_quality(&dir.model_quality_path(), &t10).unwrap();
        assert_eq!(read_capture(&dir).unwrap(), Some(t10), "the final file wins");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn blind_diag_has_no_opinion() {
        let d = ProposalDiag::blind(42);
        assert_eq!(d.config_index, 42);
        assert!(d.predicted_mean.is_none() && d.predicted_std.is_none());
        assert!(d.acquisition.is_none());
    }
}
