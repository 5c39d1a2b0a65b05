//! Tuning records — the JSONL log format (AutoTVM keeps an equivalent log
//! for transfer learning and post-hoc analysis) and the self-describing
//! per-run results directory.

use crate::options::TuneOptions;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use telemetry::durable;

/// One measured configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// 0-based measurement counter within the task.
    pub trial: usize,
    /// Flat configuration index in the task's space.
    pub config_index: u64,
    /// Measured GFLOPS (0.0 for a failed launch).
    pub gflops: f64,
    /// Measured kernel latency in seconds.
    pub latency_s: f64,
    /// Best GFLOPS seen up to and including this trial.
    pub best_gflops: f64,
}

/// The full log of one task-tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TuningLog {
    /// Task name.
    pub task_name: String,
    /// Method label (e.g. `"autotvm"`, `"bted+bao"`).
    pub method: String,
    /// All trials in measurement order.
    pub records: Vec<TrialRecord>,
}

impl TuningLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new(task_name: impl Into<String>, method: impl Into<String>) -> Self {
        TuningLog { task_name: task_name.into(), method: method.into(), records: Vec::new() }
    }

    /// The best-so-far GFLOPS curve (the y-axis of the paper's Fig. 4).
    #[must_use]
    pub fn convergence_curve(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.best_gflops).collect()
    }

    /// Number of measurements (the y-axis of Fig. 5(a)).
    #[must_use]
    pub fn num_measured(&self) -> usize {
        self.records.len()
    }

    /// Final best GFLOPS (0.0 for an empty log).
    #[must_use]
    pub fn best_gflops(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.best_gflops)
    }

    /// Writes the log as JSON lines: one header line, then one line per
    /// record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let header = serde_json::json!({
            "task_name": self.task_name,
            "method": self.method,
        });
        writeln!(w, "{header}")?;
        for r in &self.records {
            // aal-lint: allow(unwrap, reason = "TrialRecord is a plain data struct; serialization cannot fail")
            writeln!(w, "{}", serde_json::to_string(r).expect("record serializes"))?;
        }
        Ok(())
    }

    /// Recovers a log from raw bytes that may end mid-line (the writing
    /// process was killed mid-append). Every complete, parsable,
    /// newline-terminated line is kept; the first incomplete or
    /// malformed line and everything after it is dropped.
    /// `valid_bytes` is the byte offset of the recovered prefix, so the
    /// caller can truncate the file there and append seamlessly.
    ///
    /// # Errors
    ///
    /// Returns [`ReadLogError::Empty`] when no complete header line
    /// exists, and a parse error when the header is malformed — with no
    /// header nothing can be recovered.
    pub fn recover_jsonl(data: &[u8]) -> Result<RecoveredLog, ReadLogError> {
        let mut offset = 0usize;
        let mut log: Option<TuningLog> = None;
        let mut dropped_tail = false;
        while offset < data.len() {
            let Some(nl) = data[offset..].iter().position(|&b| b == b'\n') else {
                dropped_tail = true; // incomplete final line
                break;
            };
            let line_end = offset + nl + 1;
            let line = &data[offset..line_end];
            let Ok(text) = std::str::from_utf8(line) else {
                dropped_tail = true;
                break;
            };
            if text.trim().is_empty() {
                offset = line_end;
                continue;
            }
            match &mut log {
                None => {
                    let header: serde_json::Value = serde_json::from_str(text)?;
                    log = Some(TuningLog::new(
                        header["task_name"].as_str().unwrap_or_default(),
                        header["method"].as_str().unwrap_or_default(),
                    ));
                }
                Some(log) => match serde_json::from_str::<TrialRecord>(text) {
                    Ok(rec) => log.records.push(rec),
                    Err(_) => {
                        dropped_tail = true;
                        break;
                    }
                },
            }
            offset = line_end;
        }
        let log = log.ok_or(ReadLogError::Empty)?;
        Ok(RecoveredLog { log, valid_bytes: offset as u64, dropped_tail })
    }

    /// Reads a log written by [`TuningLog::write_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or malformed lines.
    pub fn read_jsonl<R: BufRead>(r: R) -> Result<Self, ReadLogError> {
        let mut lines = r.lines();
        let header_line = lines.next().ok_or(ReadLogError::Empty)??;
        let header: serde_json::Value = serde_json::from_str(&header_line)?;
        let mut log = TuningLog::new(
            header["task_name"].as_str().unwrap_or_default(),
            header["method"].as_str().unwrap_or_default(),
        );
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            log.records.push(serde_json::from_str(&line)?);
        }
        Ok(log)
    }
}

/// A log recovered from a possibly crash-truncated file.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredLog {
    /// The parsed prefix of the log.
    pub log: TuningLog,
    /// Length in bytes of the recovered prefix (truncate the file here
    /// before appending).
    pub valid_bytes: u64,
    /// True when an incomplete or malformed tail was dropped.
    pub dropped_tail: bool,
}

/// An open, crash-safe trial-log writer over a [`durable::Appender`]:
/// every [`append`](LogWriter::append) hands one complete line to the OS
/// in one write, so a killed process loses at most the line it was
/// mid-writing — which [`TuningLog::recover_jsonl`] drops cleanly.
#[derive(Debug)]
pub struct LogWriter(durable::Appender);

impl LogWriter {
    /// Appends one trial record as a JSON line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append(&mut self, rec: &TrialRecord) -> std::io::Result<()> {
        // aal-lint: allow(unwrap, reason = "TrialRecord is a plain data struct; serialization cannot fail")
        let line = serde_json::to_string(rec).expect("record serializes");
        self.0.append_line(line.as_bytes())
    }

    /// Forces every appended line to stable storage (`fdatasync`), so
    /// the log survives a power cut, not only a killed process.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.0.sync_data()
    }
}

/// Version of the `checkpoint.json` format.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// The whole-file crash-recovery state older binaries rewrote beside the
/// trial logs, before the progress journal ([`ProgressEntry`]) replaced
/// it. Runs no longer write it: [`RunDir::recover_progress`] reads it
/// only to migrate a checkpoint-era run directory once, and
/// [`RunDir::write_checkpoint`] is kept only for perfbench's traced pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_SCHEMA_VERSION`] at write time).
    pub schema_version: Option<u32>,
    /// Tasks whose logs are complete (their loops exited normally).
    pub completed_tasks: Vec<String>,
    /// The task that was mid-tuning when this checkpoint was written.
    pub in_flight: Option<String>,
    /// Trials logged so far for the in-flight task.
    pub trials_logged: Option<u64>,
}

/// One line of a run's progress journal, `progress.jsonl`. It is
/// advisory: resume rests on the trial logs, whose replay rebuilds the
/// loop state; the journal adds which tasks finished.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProgressEntry {
    /// `{"Quarantine":[task,config_index]}`: written by earlier binaries,
    /// ignored.
    Quarantine(String, u64),
    /// `{"Complete":task}`: the task's log, capture part and database
    /// upsert are durable; appended and synced after all three.
    Complete(String),
}

impl ProgressEntry {
    /// The entry as one JSON line, without its `\n`.
    fn line(&self) -> std::io::Result<String> {
        serde_json::to_string(self).map_err(std::io::Error::other)
    }
}

/// The progress journal of a run, open for appends over a
/// [`durable::Appender`] (one `write` per line).
#[derive(Debug)]
pub struct ProgressJournal(durable::Appender);

impl ProgressJournal {
    /// Appends `task`'s `Complete` line and syncs it (`fdatasync`).
    ///
    /// # Errors
    ///
    /// Propagates write and sync failures.
    pub fn complete(&mut self, task: &str) -> std::io::Result<()> {
        self.0.append_line(ProgressEntry::Complete(task.to_string()).line()?.as_bytes())?;
        self.0.sync_data()
    }
}

/// Version of the run-directory layout and manifest format.
///
/// Consumers (`aaltune runs` / `compare` / `report`) warn when a manifest
/// declares a newer version instead of silently misreading it. Manifests
/// with no `schema_version` field predate versioning and read as version 1.
///
/// Version 2 adds the crash-safety fields (`device`, `fault`, `resumed`)
/// and the convention that the manifest is written at run *start* (and
/// rewritten with `wall_time_s` at the end), so a killed run leaves
/// enough behind for `tune --resume`.
///
/// Version 3 adds `db` — the tuning-database provenance (path and policy)
/// when the run consulted one, so resume reattaches the same database and
/// analysis can tell warm runs from cold ones.
pub const MANIFEST_SCHEMA_VERSION: u32 = 3;

/// How a run used the persistent tuning database, recorded in the
/// manifest so the run is reproducible and `tune --resume` reattaches
/// the same store with the same policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbProvenance {
    /// Database root directory, as given on the command line.
    pub path: String,
    /// Consultation policy label (`"serve"` or `"warm"`).
    pub policy: String,
}

/// A persisted per-task warm-start seed, pinned at task start so a
/// resumed run replays the identical initial behaviour even after the
/// tuning database has moved on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmSeed {
    /// `"serve"` — an exact database hit whose best config is re-verified
    /// with a single measurement — or `"warm"` — configurations prepended
    /// to the tuner's initial set.
    pub mode: String,
    /// The seed configurations, best first.
    pub configs: Vec<schedule::Config>,
}

/// What produced a run — serialized as `manifest.json` so every results
/// directory is self-describing and reproducible.
///
/// The provenance fields (`schema_version`, `git_describe`, `wall_time_s`)
/// are optional so manifests written before they existed still parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Model name (or a task label when tuning a single task).
    pub model: String,
    /// Method label (e.g. `"bted+bao"`).
    pub method: String,
    /// Names of the tasks tuned in this run.
    pub tasks: Vec<String>,
    /// Master seed of the run.
    pub seed: u64,
    /// The full option set, so the run can be replayed exactly.
    pub options: TuneOptions,
    /// Manifest format version ([`MANIFEST_SCHEMA_VERSION`] at write time).
    pub schema_version: Option<u32>,
    /// `git describe --always --dirty` of the tree that produced the run.
    pub git_describe: Option<String>,
    /// Wall-clock duration of the whole run in seconds.
    pub wall_time_s: Option<f64>,
    /// Simulated device name, needed to rebuild the measurer on resume.
    pub device: Option<String>,
    /// Fault-injection settings of the run (`None` = no injection); a
    /// resumed run replays the identical fault stream from these.
    pub fault: Option<gpu_sim::FaultConfig>,
    /// Set when this run directory was continued by `tune --resume`.
    pub resumed: Option<bool>,
    /// Measurement worker threads used (`None` = serial / pre-executor).
    /// Advisory: worker count never changes results, only wall time.
    pub workers: Option<usize>,
    /// Simulated device slots in the executor's pool.
    pub devices: Option<usize>,
    /// Tuning-database provenance (`None` = the run used no database).
    pub db: Option<DbProvenance>,
}

impl RunManifest {
    /// The declared format version, defaulting pre-versioning manifests
    /// to 1.
    #[must_use]
    pub fn schema_version(&self) -> u32 {
        self.schema_version.unwrap_or(1)
    }

    /// A warning when this manifest was written by a newer format than this
    /// crate understands, `None` otherwise.
    #[must_use]
    pub fn schema_warning(&self) -> Option<String> {
        let v = self.schema_version();
        (v > MANIFEST_SCHEMA_VERSION).then(|| {
            format!(
                "manifest declares schema version {v}, newer than the supported \
                 {MANIFEST_SCHEMA_VERSION} — fields may be misread"
            )
        })
    }
}

/// The `<stem>.jsonl` file name of a task's per-task files: task names
/// may contain path-hostile characters, so those are flattened to `_`.
fn task_file(task_name: &str) -> String {
    let stem: String = task_name
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
        .collect();
    format!("{stem}.jsonl")
}

/// A per-run results directory:
///
/// ```text
/// <root>/
///   manifest.json      what produced the run (RunManifest)
///   logs/<task>.jsonl  one TuningLog per tuned task
///   trace.jsonl        telemetry trace (written by the caller)
///   progress.jsonl     one Complete line per finished task
///   model_quality.d/   capture parts of completed tasks, until the run ends
///   model_quality.jsonl  the run's model capture, once the run ends
/// ```
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Creates `root` (and its `logs/` subdirectory), reusing it if present.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("logs"))?;
        Ok(RunDir { root })
    }

    /// The run directory at `root`, unchecked: for readers that only
    /// follow paths inside it.
    pub(crate) fn at(root: impl Into<PathBuf>) -> Self {
        RunDir { root: root.into() }
    }

    /// Opens an existing run directory for reading. Creates nothing, so a
    /// mistyped path is reported, never materialized.
    ///
    /// # Errors
    ///
    /// "not a run directory" when `root` is not a directory or holds no
    /// `manifest.json`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = RunDir { root: root.into() };
        if dir.root.is_dir() && dir.manifest_path().is_file() {
            Ok(dir)
        } else {
            Err(format!("{} is not a run directory", dir.root.display()))
        }
    }

    /// The directory itself.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// The run's id: the directory's own name.
    #[must_use]
    pub fn run_id(&self) -> String {
        self.root
            .file_name()
            .map_or_else(|| self.root.display().to_string(), |n| n.to_string_lossy().into_owned())
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// Default location for the run's telemetry trace.
    #[must_use]
    pub fn trace_path(&self) -> PathBuf {
        self.root.join("trace.jsonl")
    }

    /// Location of the live JSON metrics snapshot (`metrics.snapshot.json`),
    /// rewritten atomically by the snapshot writer while the run executes.
    #[must_use]
    pub fn snapshot_path(&self) -> PathBuf {
        self.root.join(telemetry::SNAPSHOT_FILE)
    }

    /// Location of the live Prometheus text snapshot (`metrics.prom`).
    #[must_use]
    pub fn prom_path(&self) -> PathBuf {
        self.root.join(telemetry::PROM_FILE)
    }

    /// Location of the model-introspection capture (`model_quality.jsonl`),
    /// written once after the run when capture is on.
    #[must_use]
    pub fn model_quality_path(&self) -> PathBuf {
        self.root.join(crate::model_quality::MODEL_QUALITY_FILE)
    }

    /// Directory of the per-task capture parts (`model_quality.d/`),
    /// which exists while a capturing run is unfinished.
    #[must_use]
    pub fn model_quality_parts_dir(&self) -> PathBuf {
        self.root.join(crate::model_quality::MODEL_QUALITY_PARTS_DIR)
    }

    /// Where the capture part of `task_name` lives (flattened like
    /// [`RunDir::log_path`]).
    #[must_use]
    pub fn model_quality_part_path(&self, task_name: &str) -> PathBuf {
        self.model_quality_parts_dir().join(task_file(task_name))
    }

    /// Writes `manifest.json`.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write_manifest(&self, manifest: &RunManifest) -> std::io::Result<()> {
        // aal-lint: allow(unwrap, reason = "RunManifest is a plain data struct; serialization cannot fail")
        let body = serde_json::to_string_pretty(manifest).expect("manifest serializes");
        // `aaltune runs` and `aaltune top` read the manifest of live runs,
        // so a torn write must never be visible.
        durable::replace(&self.manifest_path(), |w| w.write_all(body.as_bytes()))
    }

    /// Where the log of `task_name` lives (task names may contain
    /// path-hostile characters; the file name is a flattened form).
    #[must_use]
    pub fn log_path(&self, task_name: &str) -> PathBuf {
        self.root.join("logs").join(task_file(task_name))
    }

    /// Reads the log of `task_name` back.
    ///
    /// # Errors
    ///
    /// Returns I/O failures, a missing file included, or a malformed log.
    pub fn read_log(&self, task_name: &str) -> Result<TuningLog, ReadLogError> {
        let f = std::fs::File::open(self.log_path(task_name))?;
        TuningLog::read_jsonl(std::io::BufReader::new(f))
    }

    /// Writes one task's log as `logs/<task>.jsonl` through
    /// [`durable::replace`], returning the path.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn write_log(&self, log: &TuningLog) -> std::io::Result<PathBuf> {
        let path = self.log_path(&log.task_name);
        durable::replace(&path, |w| log.write_jsonl(w))?;
        Ok(path)
    }

    /// Opens a fresh crash-safe log for `task_name`: truncates any
    /// existing file, writes the header line, and returns a
    /// [`LogWriter`] for per-trial appends.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn create_log(&self, task_name: &str, method: &str) -> std::io::Result<LogWriter> {
        let path = self.log_path(task_name);
        let header = serde_json::json!({ "task_name": task_name, "method": method });
        let mut file = durable::open_append(&path)?;
        file.truncate(0)?;
        file.append_line(header.to_string().as_bytes())?;
        Ok(LogWriter(file))
    }

    /// Recovers the crash-truncated log of `task_name` for resumption:
    /// parses the valid prefix, reopens the file for appending, and
    /// truncates it to exactly those bytes (dropping a half-written final
    /// line). Returns `None` when no log file exists yet.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a file so damaged that not even the
    /// header survives is a [`ReadLogError::Empty`]/parse error.
    pub fn recover_log(
        &self,
        task_name: &str,
    ) -> Result<Option<(RecoveredLog, LogWriter)>, ReadLogError> {
        let path = self.log_path(task_name);
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let recovered = TuningLog::recover_jsonl(&data)?;
        let mut file = durable::open_append(&path)?;
        file.truncate(recovered.valid_bytes)?;
        Ok(Some((recovered, LogWriter(file))))
    }

    /// Where the progress journal lives.
    #[must_use]
    pub fn progress_path(&self) -> PathBuf {
        self.root.join("progress.jsonl")
    }

    /// Opens the progress journal for appends, cutting a torn tail;
    /// `fresh` empties it first (a new run over an old directory).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn open_progress(&self, fresh: bool) -> std::io::Result<ProgressJournal> {
        let mut file = durable::open_append(&self.progress_path())?;
        if fresh {
            file.truncate(0)?;
        }
        Ok(ProgressJournal(file))
    }

    /// Reads the committed lines of the progress journal, skipping a torn
    /// final line (no `\n` yet); `None` when there is no journal.
    ///
    /// # Errors
    ///
    /// I/O failures, or a parse error for a malformed committed line.
    pub fn read_progress(&self) -> Result<Option<Vec<ProgressEntry>>, ReadLogError> {
        let body = match std::fs::read(self.progress_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let committed = body.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
        let committed = String::from_utf8_lossy(&body[..committed]);
        Ok(Some(committed.lines().map(serde_json::from_str).collect::<Result<_, _>>()?))
    }

    /// The tasks a resumed run reads back: the journal's `Complete`
    /// lines, in order, each once. A checkpoint-era directory
    /// (`checkpoint.json`, no journal) is migrated once first: its
    /// completed tasks become a synced journal, and the checkpoint is
    /// removed. `None` when the run left neither.
    ///
    /// # Errors
    ///
    /// I/O failures, or a parse error for a malformed journal or checkpoint.
    pub fn recover_progress(&self) -> Result<Option<Vec<String>>, ReadLogError> {
        if !self.progress_path().exists() {
            let Some(ckpt) = self.read_checkpoint()? else { return Ok(None) };
            let body: String = ckpt
                .completed_tasks
                .into_iter()
                .map(|task| ProgressEntry::Complete(task).line().map(|line| line + "\n"))
                .collect::<std::io::Result<_>>()?;
            durable::replace(&self.progress_path(), |w| w.write_all(body.as_bytes()))?;
            std::fs::remove_file(self.checkpoint_path())?;
        }
        Ok(self.read_progress()?.map(|entries| {
            let mut completed: Vec<String> = Vec::new();
            for entry in entries {
                if let ProgressEntry::Complete(task) = entry {
                    if !completed.contains(&task) {
                        completed.push(task);
                    }
                }
            }
            completed
        }))
    }

    /// Where a checkpoint-era run kept its `checkpoint.json`.
    #[must_use]
    pub fn checkpoint_path(&self) -> PathBuf {
        self.root.join("checkpoint.json")
    }

    /// Writes `checkpoint.json` through [`durable::replace`].
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write_checkpoint(&self, checkpoint: &Checkpoint) -> std::io::Result<()> {
        // aal-lint: allow(unwrap, reason = "checkpoint struct is plain data; serialization cannot fail")
        let body = serde_json::to_string_pretty(checkpoint).expect("checkpoint serializes");
        durable::replace(&self.checkpoint_path(), |w| w.write_all(body.as_bytes()))
    }

    /// Reads back `checkpoint.json`; `None` when there is none.
    ///
    /// # Errors
    ///
    /// Returns I/O failures or a parse error for a malformed checkpoint.
    pub fn read_checkpoint(&self) -> Result<Option<Checkpoint>, ReadLogError> {
        let body = match std::fs::read_to_string(self.checkpoint_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(serde_json::from_str(&body)?))
    }

    /// Where the persisted warm-start seed of `task_name` lives.
    ///
    /// Warm-start configurations are derived from the tuning database at
    /// task *start* and persisted here before the first trial, so a
    /// resumed run replays the identical initial set even after the
    /// database has moved on. Re-deriving on resume would diverge.
    #[must_use]
    pub fn warm_start_path(&self, task_name: &str) -> PathBuf {
        let log = self.log_path(task_name);
        // aal-lint: allow(unwrap, reason = "the glob matched *.jsonl, so a file stem always exists")
        let stem = log.file_stem().expect("log paths have stems").to_string_lossy();
        self.root.join("warm").join(format!("{stem}.json"))
    }

    /// Persists the warm-start seed for `task_name` through
    /// [`durable::replace`] (the old file or the new, never a torn mix).
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write_warm_start(&self, task_name: &str, seed: &WarmSeed) -> std::io::Result<()> {
        let path = self.warm_start_path(task_name);
        // aal-lint: allow(unwrap, reason = "warm paths are <run>/warm/<file>, so a parent always exists")
        std::fs::create_dir_all(path.parent().expect("warm path has a parent"))?;
        // aal-lint: allow(unwrap, reason = "seed record is plain data; serialization cannot fail")
        let body = serde_json::to_string(seed).expect("seed serializes");
        durable::replace(&path, |w| w.write_all(body.as_bytes()))
    }

    /// Reads back the persisted warm-start seed; `None` when the task
    /// started cold.
    ///
    /// # Errors
    ///
    /// Returns I/O failures or a parse error for a damaged file.
    pub fn read_warm_start(&self, task_name: &str) -> Result<Option<WarmSeed>, ReadLogError> {
        let body = match std::fs::read_to_string(self.warm_start_path(task_name)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(serde_json::from_str(&body)?))
    }

    /// Reads back `manifest.json`.
    ///
    /// # Errors
    ///
    /// Returns I/O failures or a parse error for a malformed manifest.
    pub fn read_manifest(&self) -> Result<RunManifest, ReadLogError> {
        let body = std::fs::read_to_string(self.manifest_path())?;
        Ok(serde_json::from_str(&body)?)
    }

    /// Reads every task log under `logs/`, sorted by file name so the order
    /// is stable across platforms.
    ///
    /// # Errors
    ///
    /// Returns I/O failures or the first malformed log encountered.
    pub fn read_logs(&self) -> Result<Vec<TuningLog>, ReadLogError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(self.root.join("logs"))?
            .map(|e| e.map(|e| e.path()))
            .collect::<std::io::Result<_>>()?;
        paths.sort();
        paths
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .map(|p| {
                let f = std::fs::File::open(&p)?;
                TuningLog::read_jsonl(std::io::BufReader::new(f))
            })
            .collect()
    }
}

/// Errors from [`TuningLog::read_jsonl`].
#[derive(Debug)]
pub enum ReadLogError {
    /// The stream contained no header line.
    Empty,
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A line was not valid JSON for its position.
    Parse(serde_json::Error),
}

impl fmt::Display for ReadLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadLogError::Empty => write!(f, "log stream is empty"),
            ReadLogError::Io(e) => write!(f, "i/o error reading log: {e}"),
            ReadLogError::Parse(e) => write!(f, "malformed log line: {e}"),
        }
    }
}

impl std::error::Error for ReadLogError {}

impl From<std::io::Error> for ReadLogError {
    fn from(e: std::io::Error) -> Self {
        ReadLogError::Io(e)
    }
}

impl From<serde_json::Error> for ReadLogError {
    fn from(e: serde_json::Error) -> Self {
        ReadLogError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TuningLog {
        let mut log = TuningLog::new("m.T1", "bted+bao");
        for i in 0..5 {
            let g = (i * 100) as f64;
            log.records.push(TrialRecord {
                trial: i,
                config_index: i as u64 * 17,
                gflops: g,
                latency_s: 1e-3 / (g + 1.0),
                best_gflops: g,
            });
        }
        log
    }

    #[test]
    fn jsonl_round_trip() {
        let log = sample_log();
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let back = TuningLog::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn convergence_curve_matches_best() {
        let log = sample_log();
        assert_eq!(log.convergence_curve(), vec![0.0, 100.0, 200.0, 300.0, 400.0]);
        assert_eq!(log.best_gflops(), 400.0);
        assert_eq!(log.num_measured(), 5);
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert!(matches!(TuningLog::read_jsonl(&b""[..]), Err(ReadLogError::Empty)));
    }

    #[test]
    fn run_dir_round_trips_manifest_and_logs() {
        let root = std::env::temp_dir().join(format!("aaltune-rundir-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        let manifest = RunManifest {
            model: "mobilenet_v1".into(),
            method: "bted+bao".into(),
            tasks: vec!["m.T1".into()],
            seed: 7,
            options: TuneOptions::smoke(),
            schema_version: Some(MANIFEST_SCHEMA_VERSION),
            git_describe: Some("v0-test".into()),
            wall_time_s: Some(1.25),
            device: Some("gtx1080ti".into()),
            fault: Some(gpu_sim::FaultConfig { rate: 0.1, seed: 3 }),
            resumed: None,
            workers: Some(4),
            devices: Some(2),
            db: Some(DbProvenance { path: "db".into(), policy: "warm".into() }),
        };
        dir.write_manifest(&manifest).unwrap();
        assert_eq!(dir.read_manifest().unwrap(), manifest);
        assert!(manifest.schema_warning().is_none());

        let log = sample_log();
        let path = dir.write_log(&log).unwrap();
        assert!(path.starts_with(dir.path().join("logs")));
        let back =
            TuningLog::read_jsonl(std::io::BufReader::new(std::fs::File::open(&path).unwrap()))
                .unwrap();
        assert_eq!(back, log);
        assert_eq!(dir.trace_path(), root.join("trace.jsonl"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pre_versioned_manifest_parses_and_future_versions_warn() {
        // A manifest written before the provenance fields existed.
        let legacy = serde_json::json!({
            "model": "alexnet",
            "method": "autotvm",
            "tasks": ["a.T1"],
            "seed": 3u64,
            "options": TuneOptions::smoke(),
        });
        let m: RunManifest = serde_json::from_str(&legacy.to_string()).unwrap();
        assert_eq!(m.schema_version(), 1);
        assert!(m.schema_warning().is_none());
        assert_eq!(m.git_describe, None);

        let future = RunManifest {
            schema_version: Some(MANIFEST_SCHEMA_VERSION + 1),
            git_describe: None,
            wall_time_s: None,
            ..m
        };
        assert!(future.schema_warning().unwrap().contains("newer"));
    }

    #[test]
    fn recover_drops_incomplete_and_malformed_tails() {
        let log = sample_log();
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();

        // Intact bytes recover fully.
        let whole = TuningLog::recover_jsonl(&buf).unwrap();
        assert_eq!(whole.log, log);
        assert_eq!(whole.valid_bytes, buf.len() as u64);
        assert!(!whole.dropped_tail);

        // Kill mid-line: the partial final line is dropped, the rest kept.
        let cut = buf.len() - 7;
        let r = TuningLog::recover_jsonl(&buf[..cut]).unwrap();
        assert_eq!(r.log.records.len(), log.records.len() - 1);
        assert!(r.dropped_tail);
        assert!(r.valid_bytes < cut as u64);
        assert_eq!(
            &buf[..r.valid_bytes as usize],
            {
                let mut prefix = Vec::new();
                let mut shorter = log.clone();
                shorter.records.pop();
                shorter.write_jsonl(&mut prefix).unwrap();
                prefix
            }
            .as_slice()
        );

        // A malformed middle line also truncates from there.
        let mut garbled = buf.clone();
        let second_line = buf.iter().position(|&b| b == b'\n').unwrap() + 1;
        garbled[second_line] = b'@';
        let g = TuningLog::recover_jsonl(&garbled).unwrap();
        assert_eq!(g.log.records.len(), 0);
        assert!(g.dropped_tail);

        // No complete header at all: nothing recoverable.
        assert!(matches!(TuningLog::recover_jsonl(b"{\"task_na"), Err(ReadLogError::Empty)));
    }

    #[test]
    fn crash_safe_writer_recovers_and_resumes_byte_identically() {
        let root = std::env::temp_dir().join(format!("aaltune-logwriter-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        let log = sample_log();

        // Reference: the log written in one piece.
        let mut reference = Vec::new();
        log.write_jsonl(&mut reference).unwrap();

        // Crash-safe path: append 3 records, simulate a kill by writing
        // a partial line, then recover and append the rest.
        let mut w = dir.create_log(&log.task_name, &log.method).unwrap();
        for rec in &log.records[..3] {
            w.append(rec).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.log_path(&log.task_name))
                .unwrap();
            write!(f, "{{\"trial\":3,\"conf").unwrap();
        }
        drop(w);
        let (recovered, mut w) = dir.recover_log(&log.task_name).unwrap().unwrap();
        assert_eq!(recovered.log.records, log.records[..3]);
        assert!(recovered.dropped_tail);
        for rec in &log.records[3..] {
            w.append(rec).unwrap();
        }
        drop(w);
        let final_bytes = std::fs::read(dir.log_path(&log.task_name)).unwrap();
        assert_eq!(final_bytes, reference, "resumed log must be byte-identical");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// `checkpoint.json` as binaries that kept a crash quarantine wrote it.
    const OLD_CHECKPOINT: &str = r#"{
  "schema_version": 1,
  "completed_tasks": [
    "m.T0"
  ],
  "in_flight": "m.T1",
  "trials_logged": 17,
  "quarantine": {
    "sets": {
      "m.T0": [
        3
      ],
      "m.T1": [
        42
      ]
    }
  }
}"#;

    #[test]
    fn checkpoint_round_trips_and_is_optional() {
        let root = std::env::temp_dir().join(format!("aaltune-ckpt-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        assert!(dir.read_checkpoint().unwrap().is_none());
        let ckpt = Checkpoint {
            schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
            completed_tasks: vec!["m.T0".into()],
            in_flight: Some("m.T1".into()),
            trials_logged: Some(17),
        };
        dir.write_checkpoint(&ckpt).unwrap();
        assert_eq!(dir.read_checkpoint().unwrap().unwrap(), ckpt);
        // A checkpoint as older binaries wrote it, with a `quarantine`
        // object, reads the same: the key is ignored.
        std::fs::write(dir.checkpoint_path(), OLD_CHECKPOINT).unwrap();
        assert_eq!(dir.read_checkpoint().unwrap().unwrap(), ckpt);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_checkpoint_is_detected_not_silently_ignored() {
        let root = std::env::temp_dir().join(format!("aaltune-ckpt-trunc-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        let ckpt = Checkpoint {
            schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
            completed_tasks: vec!["m.T0".into(), "m.T1".into()],
            in_flight: Some("m.T2".into()),
            trials_logged: Some(9),
        };
        dir.write_checkpoint(&ckpt).unwrap();

        // Simulate torn bytes reaching disk (the failure the atomic
        // write-fsync-rename path exists to prevent): the reader must
        // report a parse error, never mistake the damage for "no
        // checkpoint" and silently restart from scratch.
        let path = dir.checkpoint_path();
        let body = std::fs::read(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        assert!(
            matches!(dir.read_checkpoint(), Err(ReadLogError::Parse(_))),
            "truncation must surface as a parse error"
        );

        // An interrupted atomic write (temp file present, rename never
        // happened) leaves the previous checkpoint fully intact.
        std::fs::write(&path, &body).unwrap();
        std::fs::write(root.join("checkpoint.json.tmp"), b"{\"partial").unwrap();
        assert_eq!(dir.read_checkpoint().unwrap().unwrap(), ckpt);
        std::fs::remove_dir_all(&root).unwrap();
    }

    fn progress_dir(tag: &str) -> (PathBuf, RunDir) {
        let root =
            std::env::temp_dir().join(format!("aaltune-progress-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = RunDir::create(&root).unwrap();
        (root, dir)
    }

    #[test]
    fn progress_journal_drops_a_torn_tail() {
        let (root, dir) = progress_dir("torn");
        assert!(dir.recover_progress().unwrap().is_none(), "no journal, no checkpoint");
        dir.open_progress(true).unwrap().complete("m.T0").unwrap();
        let committed = std::fs::read(dir.progress_path()).unwrap();
        let torn = br#"{"Complete":"m.T1"}"#;
        for cut in 1..=torn.len() {
            std::fs::write(dir.progress_path(), [&committed[..], &torn[..cut]].concat()).unwrap();
            assert_eq!(dir.recover_progress().unwrap().unwrap(), ["m.T0"], "cut at {cut}");
            // Reopening cuts the torn line, so the next append is whole.
            dir.open_progress(false).unwrap().complete("m.T1").unwrap();
            let completed = dir.recover_progress().unwrap().unwrap();
            assert_eq!(completed, ["m.T0", "m.T1"], "cut at {cut}");
        }
        std::fs::write(dir.progress_path(), [&committed[..], b"not json\n"].concat()).unwrap();
        assert!(matches!(dir.recover_progress(), Err(ReadLogError::Parse(_))));
        dir.open_progress(true).unwrap();
        assert_eq!(dir.recover_progress().unwrap(), Some(Vec::new()), "fresh empties");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn progress_fold_ignores_quarantine_and_repeated_complete_lines() {
        let (root, dir) = progress_dir("fold");
        // A journal as earlier binaries wrote it, with `Quarantine` lines.
        std::fs::write(
            dir.progress_path(),
            "{\"Quarantine\":[\"a\",3]}\n{\"Quarantine\":[\"b\",5]}\n{\"Complete\":\"a\"}\n\
             {\"Quarantine\":[\"b\",6]}\n{\"Complete\":\"c\"}\n{\"Complete\":\"a\"}\n",
        )
        .unwrap();
        assert_eq!(dir.recover_progress().unwrap().unwrap(), ["a", "c"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoint_era_run_dir_is_migrated_once() {
        let (root, dir) = progress_dir("migrate");
        std::fs::write(dir.checkpoint_path(), OLD_CHECKPOINT).unwrap();
        assert_eq!(dir.recover_progress().unwrap().unwrap(), ["m.T0"]);
        assert!(!dir.checkpoint_path().exists(), "the checkpoint is migrated away");
        let journal = std::fs::read_to_string(dir.progress_path()).unwrap();
        assert_eq!(journal, "{\"Complete\":\"m.T0\"}\n", "only Complete lines are migrated");
        // A checkpoint beside a journal is never read again.
        dir.write_checkpoint(&Checkpoint::default()).unwrap();
        assert_eq!(dir.recover_progress().unwrap().unwrap(), ["m.T0"]);
        assert_eq!(std::fs::read_to_string(dir.progress_path()).unwrap(), journal);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn warm_start_seed_round_trips_and_cold_tasks_read_none() {
        let root = std::env::temp_dir().join(format!("aaltune-warm-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        assert!(dir.read_warm_start("m.T1").unwrap().is_none(), "cold task has no seed");
        let seed = WarmSeed {
            mode: "warm".into(),
            configs: vec![
                schedule::Config { index: 7, choices: vec![1, 2] },
                schedule::Config { index: 3, choices: vec![0, 1] },
            ],
        };
        dir.write_warm_start("m.T1", &seed).unwrap();
        assert_eq!(dir.read_warm_start("m.T1").unwrap().unwrap(), seed);
        assert!(dir.warm_start_path("m.T1").starts_with(root.join("warm")));
        // Damage must be loud, not an implicit cold start.
        std::fs::write(dir.warm_start_path("m.T1"), b"[{\"index\":").unwrap();
        assert!(matches!(dir.read_warm_start("m.T1"), Err(ReadLogError::Parse(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn read_logs_returns_all_tasks_sorted() {
        let root = std::env::temp_dir().join(format!("aaltune-readlogs-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        let mut a = sample_log();
        a.task_name = "m.T1".into();
        let mut b = sample_log();
        b.task_name = "m.T2".into();
        dir.write_log(&b).unwrap();
        dir.write_log(&a).unwrap();
        let logs = dir.read_logs().unwrap();
        assert_eq!(logs.len(), 2);
        assert_eq!(logs[0].task_name, "m.T1");
        assert_eq!(logs[1].task_name, "m.T2");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn malformed_line_is_an_error() {
        let data = b"{\"task_name\":\"t\",\"method\":\"m\"}\nnot json\n";
        assert!(matches!(TuningLog::read_jsonl(&data[..]), Err(ReadLogError::Parse(_))));
    }
}
