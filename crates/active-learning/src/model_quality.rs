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
//!
//! # Format
//!
//! The file holds only what the model said; the trial logs hold the rest.
//! After the header (`{"kind":"model_quality","schema_version":2}`) come
//! two kinds of line, each task's together:
//!
//! * a round marker, `{"task":T,"round":R,"trial":N}`: round `R` of task
//!   `T` starts at trial `N` and runs to the next marker;
//! * a prediction, `{"trial":N,"mean":M,"std":S,"acq":A}`, for a trial of
//!   the task the last marker named, with each absent value left out. A
//!   trial the model had no opinion on has no line.
//!
//! Readers rebuild one [`ModelPredRecord`] per trial of each captured
//! task by joining these lines with the task's trial log (config index,
//! measured GFLOPS, and the blind trials). Schema 1 wrote every record
//! whole, one per line; such lines, in a file or in the parts of a run
//! killed by an older binary, still read as they are.

use crate::records::RunDir;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};

/// Schema version of `model_quality.jsonl` (header line).
pub const MODEL_QUALITY_SCHEMA_VERSION: u32 = 2;

/// File name of the per-run prediction capture inside a run directory.
pub const MODEL_QUALITY_FILE: &str = "model_quality.jsonl";

/// Directory of a run's capture parts: one `<task>.jsonl` of capture
/// lines (no header) per completed task, written once when the task
/// completes. The run's end folds them, in task order, into
/// [`MODEL_QUALITY_FILE`] and removes the directory, so only a killed
/// run leaves it behind.
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

/// A round marker line: round `round` of `task` starts at `trial`.
#[derive(Debug, Serialize, Deserialize)]
struct RoundMark {
    task: String,
    round: usize,
    trial: usize,
}

/// A prediction line: what the model said about one trial.
#[derive(Debug, Deserialize)]
struct Prediction {
    trial: usize,
    mean: Option<f64>,
    std: Option<f64>,
    acq: Option<f64>,
}

/// Renders capture records, in trial order, as capture lines: a round
/// marker where a task's round starts, and a prediction line per trial
/// the model scored.
#[derive(Debug, Default)]
pub(crate) struct CaptureLines {
    /// Task and round of the last marker written.
    at: Option<(String, usize)>,
    text: String,
}

impl CaptureLines {
    pub(crate) fn push(&mut self, r: &ModelPredRecord) {
        if self.at.as_ref().is_none_or(|(task, round)| *task != r.task || *round != r.round) {
            let mark = RoundMark { task: r.task.clone(), round: r.round, trial: r.trial };
            self.line(&mark.serialize());
            self.at = Some((r.task.clone(), r.round));
        }
        let said: Vec<(&str, f64)> =
            [("mean", r.predicted_mean), ("std", r.predicted_std), ("acq", r.acquisition)]
                .into_iter()
                .filter_map(|(key, v)| v.map(|x| (key, x)))
                .collect();
        if !said.is_empty() {
            let mut m = serde_json::Map::new();
            m.insert("trial".to_string(), r.trial.serialize());
            for (key, x) in said {
                m.insert(key.to_string(), x.serialize());
            }
            self.line(&Value::Object(m));
        }
    }

    fn line(&mut self, v: &Value) {
        // aal-lint: allow(unwrap, reason = "capture lines are plain data; serialization cannot fail")
        self.text.push_str(&serde_json::to_string(v).expect("capture line serializes"));
        self.text.push('\n');
    }

    /// The lines rendered so far.
    pub(crate) fn as_str(&self) -> &str {
        &self.text
    }
}

/// Writes `records` as a `model_quality.jsonl` file (header line, then
/// the records' capture lines) through [`telemetry::durable::replace`],
/// so a crash mid-write never leaves a half-file next to valid trial
/// logs. Reading it back joins it with the trial logs of the run
/// directory it is written into.
///
/// # Errors
///
/// Returns an error when the file cannot be created or written.
pub fn write_model_quality(path: &Path, records: &[ModelPredRecord]) -> std::io::Result<()> {
    let mut lines = CaptureLines::default();
    for r in records {
        lines.push(r);
    }
    write_capture_file(path, |f| f.write_all(lines.as_str().as_bytes()))
}

/// Writes a `model_quality.jsonl` file through
/// [`telemetry::durable::replace`]: the header line, then the capture
/// lines `body` writes (as rendered by [`CaptureLines`]).
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

/// Reads a `model_quality.jsonl` file back, joining it with the trial
/// logs of the run directory it sits in.
///
/// # Errors
///
/// Returns a message when the file is missing, the header is not a
/// `model_quality` header, any line fails to parse, or a captured task's
/// trial log cannot be read or does not match its capture.
pub fn read_model_quality(path: &Path) -> Result<Vec<ModelPredRecord>, String> {
    read_model_quality_of(path, &|_| true)
}

fn read_model_quality_of(
    path: &Path,
    keep: &dyn Fn(&str) -> bool,
) -> Result<Vec<ModelPredRecord>, String> {
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
    let dir = RunDir::at(path.parent().unwrap_or(Path::new("")));
    let mut out = Vec::new();
    let mut join = Join { dir: &dir, keep, task: None, out: &mut out };
    join.lines(path, lines, 2)?;
    join.finish()?;
    Ok(out)
}

/// One captured task's schema-2 lines, waiting for its trial log.
struct TaskLines {
    task: String,
    /// `(round, first trial)` in trial order.
    rounds: Vec<(usize, usize)>,
    predictions: BTreeMap<usize, Prediction>,
}

/// Turns capture lines of either schema into records, joining each
/// task's schema-2 lines with its trial log once the task's lines end.
struct Join<'a> {
    dir: &'a RunDir,
    /// Which tasks' records to keep; the others' logs are never read.
    keep: &'a dyn Fn(&str) -> bool,
    task: Option<TaskLines>,
    out: &'a mut Vec<ModelPredRecord>,
}

impl Join<'_> {
    /// Parses capture lines (blank lines skipped); `first_line` is the
    /// 1-based file line of the first one, for error messages.
    fn lines(
        &mut self,
        path: &Path,
        lines: impl Iterator<Item = std::io::Result<String>>,
        first_line: usize,
    ) -> Result<(), String> {
        for (i, line) in lines.enumerate() {
            let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
            if line.trim().is_empty() {
                continue;
            }
            self.line(&line)
                .map_err(|e| format!("{}: line {}: {e}", path.display(), i + first_line))?;
        }
        Ok(())
    }

    fn line(&mut self, line: &str) -> Result<(), String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let obj = v.as_object().ok_or("not an object")?;
        if obj.contains_key("config_index") {
            // A schema-1 record: whole already.
            self.finish()?;
            let rec = ModelPredRecord::deserialize(&v).map_err(|e| e.to_string())?;
            if (self.keep)(&rec.task) {
                self.out.push(rec);
            }
        } else if obj.contains_key("round") {
            let mark = RoundMark::deserialize(&v).map_err(|e| e.to_string())?;
            if self.task.as_ref().is_none_or(|t| t.task != mark.task) {
                self.finish()?;
                self.task = Some(TaskLines {
                    task: mark.task,
                    rounds: Vec::new(),
                    predictions: BTreeMap::new(),
                });
            }
            if let Some(t) = self.task.as_mut() {
                t.rounds.push((mark.round, mark.trial));
            }
        } else {
            let p = Prediction::deserialize(&v).map_err(|e| e.to_string())?;
            let t = self.task.as_mut().ok_or("a prediction before any round marker")?;
            t.predictions.insert(p.trial, p);
        }
        Ok(())
    }

    /// Joins the pending task's lines with its trial log.
    fn finish(&mut self) -> Result<(), String> {
        let Some(TaskLines { task, rounds, mut predictions }) = self.task.take() else {
            return Ok(());
        };
        if !(self.keep)(&task) {
            return Ok(());
        }
        let log = self
            .dir
            .read_log(&task)
            .map_err(|e| format!("cannot read the trial log of captured task {task}: {e}"))?;
        let mut next = 0;
        for rec in &log.records {
            while next < rounds.len() && rounds[next].1 <= rec.trial {
                next += 1;
            }
            let Some(&(round, _)) = next.checked_sub(1).map(|i| &rounds[i]) else {
                return Err(format!("trial {} of {task} precedes its first round", rec.trial));
            };
            let said = predictions.remove(&rec.trial);
            self.out.push(ModelPredRecord {
                task: task.clone(),
                round,
                trial: rec.trial,
                config_index: rec.config_index,
                predicted_mean: said.as_ref().and_then(|p| p.mean),
                predicted_std: said.as_ref().and_then(|p| p.std),
                acquisition: said.as_ref().and_then(|p| p.acq),
                measured_gflops: rec.gflops,
            });
        }
        match predictions.keys().next() {
            Some(trial) => {
                Err(format!("the capture of {task} predicts trial {trial}, not in its log"))
            }
            None => Ok(()),
        }
    }
}

/// Reads a run directory's model capture: [`MODEL_QUALITY_FILE`] once
/// the run has ended, else the parts a killed run left in
/// [`MODEL_QUALITY_PARTS_DIR`], in the manifest's task order (file-name
/// order when the manifest is unreadable). `None` when the run captured
/// nothing.
///
/// # Errors
///
/// Returns a message when a file exists but cannot be read or parsed, or
/// does not match the trial logs.
pub fn read_capture(dir: &RunDir) -> Result<Option<Vec<ModelPredRecord>>, String> {
    read_capture_of(dir, &|_| true)
}

/// [`read_capture`] keeping only the tasks `keep` names: a resume reads
/// back the capture of the tasks it will not tune again, whose logs are
/// whole, and nothing of a task whose log a kill cut short.
pub(crate) fn read_capture_of(
    dir: &RunDir,
    keep: &dyn Fn(&str) -> bool,
) -> Result<Option<Vec<ModelPredRecord>>, String> {
    let path = dir.model_quality_path();
    if path.is_file() {
        return read_model_quality_of(&path, keep).map(Some);
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
    let mut join = Join { dir, keep, task: None, out: &mut out };
    for part in parts.iter().filter(|p| p.is_file()) {
        let f = std::fs::File::open(part)
            .map_err(|e| format!("cannot open {}: {e}", part.display()))?;
        join.lines(part, std::io::BufReader::new(f).lines(), 1)?;
    }
    join.finish()?;
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{TrialRecord, TuningLog};

    fn rec(task: &str, round: usize, trial: usize, pred: Option<f64>) -> ModelPredRecord {
        ModelPredRecord {
            task: task.to_string(),
            round,
            trial,
            config_index: trial as u64 * 7 + 1,
            predicted_mean: pred,
            predicted_std: pred.map(|p| p * 0.1),
            acquisition: pred.map(|p| p / 3.0),
            measured_gflops: if trial == 2 { 0.0 } else { 100.0 + trial as f64 / 3.0 },
        }
    }

    /// A run directory holding the trial log each task of `records`
    /// implies.
    fn run_with_logs(name: &str, records: &[ModelPredRecord]) -> RunDir {
        let root = std::env::temp_dir().join(format!("aaltune-mq-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = RunDir::create(&root).unwrap();
        let mut logs: BTreeMap<&str, TuningLog> = BTreeMap::new();
        for r in records {
            let log = logs.entry(&r.task).or_insert_with(|| TuningLog::new(&r.task, "bted+bao"));
            log.records.push(TrialRecord {
                trial: r.trial,
                config_index: r.config_index,
                gflops: r.measured_gflops,
                latency_s: 1e-3,
                best_gflops: r.measured_gflops,
            });
        }
        for log in logs.values() {
            dir.write_log(log).unwrap();
        }
        dir
    }

    fn two_tasks() -> Vec<ModelPredRecord> {
        vec![
            rec("m.T1", 0, 0, None),
            rec("m.T1", 0, 1, None),
            rec("m.T1", 1, 2, Some(90.0)),
            rec("m.T1", 1, 3, None),
            rec("m.T1", 2, 4, Some(1.0 / 7.0)),
            rec("m.T2", 0, 0, None),
            rec("m.T2", 1, 1, Some(12.5)),
        ]
    }

    /// Schema-1 lines: every record whole.
    fn v1_lines(records: &[ModelPredRecord]) -> String {
        records.iter().map(|r| serde_json::to_string(r).unwrap() + "\n").collect()
    }

    #[test]
    fn round_trips_through_the_trial_logs() {
        let records = two_tasks();
        let dir = run_with_logs("roundtrip", &records);
        let path = dir.model_quality_path();
        write_model_quality(&path, &records).unwrap();
        let back = read_model_quality(&path).unwrap();
        assert_eq!(back, records);
        let bits = |rs: &[ModelPredRecord]| -> Vec<u64> {
            rs.iter()
                .map(|r| r.measured_gflops.to_bits() ^ r.acquisition.unwrap_or(0.0).to_bits())
                .collect()
        };
        assert_eq!(bits(&back), bits(&records), "float bits survive the join");
        // Only what the model said: round markers and predictions.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], r#"{"kind":"model_quality","schema_version":2}"#);
        assert_eq!(lines[1], r#"{"task":"m.T1","round":0,"trial":0}"#);
        assert_eq!(lines[3], r#"{"trial":2,"mean":90.0,"std":9.0,"acq":30.0}"#);
        assert_eq!(lines.len(), 1 + 5 + 3, "header, five markers, three predictions");
        assert!(!text.contains("null") && !text.contains("config_index"));
        std::fs::remove_dir_all(dir.path()).ok();
    }

    #[test]
    fn a_schema_one_file_still_reads() {
        let records = two_tasks();
        let dir = run_with_logs("v1", &records);
        let body = r#"{"kind":"model_quality","schema_version":1}"#.to_string() + "\n";
        std::fs::write(dir.model_quality_path(), body + &v1_lines(&records)).unwrap();
        assert_eq!(read_model_quality(&dir.model_quality_path()).unwrap(), records);
        std::fs::remove_dir_all(dir.path()).ok();
    }

    #[test]
    fn a_capture_that_disagrees_with_its_log_errors() {
        let records = two_tasks();
        let dir = run_with_logs("mismatch", &records[..4]);
        write_model_quality(&dir.model_quality_path(), &records[..5]).unwrap();
        let err = read_model_quality(&dir.model_quality_path()).unwrap_err();
        assert!(err.contains("predicts trial 4"), "{err}");
        std::fs::remove_dir_all(dir.path()).ok();
        let dir = run_with_logs("no-log", &records[..5]);
        write_model_quality(&dir.model_quality_path(), &records).unwrap();
        let err = read_model_quality(&dir.model_quality_path()).unwrap_err();
        assert!(err.contains("trial log of captured task m.T2"), "{err}");
        std::fs::remove_dir_all(dir.path()).ok();
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
        // Task names whose part files sort against the run order; one
        // part in the current schema, one as an older binary wrote it.
        let t2 = vec![rec("m.T2", 0, 0, Some(90.0)), rec("m.T2", 1, 1, None)];
        let t10 = vec![rec("m.T10", 0, 0, None)];
        let dir = run_with_logs("parts", &[t2.clone(), t10.clone()].concat());
        std::fs::remove_file(dir.model_quality_path()).ok();
        assert_eq!(read_capture(&dir).unwrap(), None, "no capture at all");
        std::fs::create_dir_all(dir.model_quality_parts_dir()).unwrap();
        let mut lines = CaptureLines::default();
        t2.iter().for_each(|r| lines.push(r));
        std::fs::write(dir.model_quality_part_path("m.T2"), lines.as_str()).unwrap();
        std::fs::write(dir.model_quality_part_path("m.T10"), v1_lines(&t10)).unwrap();
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
        std::fs::remove_dir_all(dir.path()).ok();
    }

    #[test]
    fn blind_diag_has_no_opinion() {
        let d = ProposalDiag::blind(42);
        assert_eq!(d.config_index, 42);
        assert!(d.predicted_mean.is_none() && d.predicted_std.is_none());
        assert!(d.acquisition.is_none());
    }
}
