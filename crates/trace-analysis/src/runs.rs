//! Listing run directories: `aaltune runs DIR` reads each run under DIR.
//!
//! A run's record is its directory: manifest, trial logs, trace and
//! metrics snapshot. [`RunListing::scan`] builds one [`RunEntry`] per
//! direct subdirectory that is a run, so ad-hoc `tune --out` runs and
//! served jobs (`ROOT/jobs/ID`) list alike, and a moved or deleted run
//! simply stops listing. Reading changes nothing: a live or killed run's
//! torn log tail is skipped, never truncated.

use crate::stats::mean;
use active_learning::records::ReadLogError;
use active_learning::{RunDir, TuningLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A run whose last heartbeat is older than this, and which never recorded
/// a wall time, renders as `stale` — its process is presumed crashed or
/// wedged. Heartbeats default to 1 Hz, so 30 s is ~30 missed beats.
pub const STALE_AFTER_MS: u64 = 30_000;

/// One run, as read from its directory.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEntry {
    /// The run directory's name.
    pub run_id: String,
    /// The run directory.
    pub path: PathBuf,
    /// Model name.
    pub model: String,
    /// Method label.
    pub method: String,
    /// Master seed.
    pub seed: u64,
    /// Trial budget per task.
    pub n_trial: u64,
    /// `git describe --always --dirty` at run time, when available.
    pub git_describe: Option<String>,
    /// Wall-clock duration of the run in seconds; `None` until it finishes.
    pub wall_time_s: Option<f64>,
    /// Best GFLOPS per task, over each log's committed trials.
    pub task_best_gflops: BTreeMap<String, f64>,
    /// Measurement faults observed (injected or real), from the trace.
    pub faults: Option<u64>,
    /// Transient-fault retries performed, from the trace.
    pub retries: Option<u64>,
    /// Persistent measurement failures (`measure.quarantine`), from the trace.
    pub persistent_failures: Option<u64>,
    /// Whether the run directory was continued by `tune --resume`.
    pub resumed: Option<bool>,
    /// Wall-clock ms (Unix epoch) of the run's last observed heartbeat —
    /// from `metrics.snapshot.json` or the trace's `run.heartbeat` events.
    pub last_heartbeat_unix_ms: Option<u64>,
    /// Live trials measured as of the last heartbeat.
    pub trials_done: Option<u64>,
    /// Tuning database the run consulted, from the manifest provenance.
    pub db_path: Option<String>,
    /// Database consultation policy (`"serve"` or `"warm"`).
    pub db_policy: Option<String>,
    /// Exact-hit lookups during the run, from the trace's `db.hit` counter.
    pub db_hits: Option<u64>,
    /// Tasks whose initial set was database-seeded (`db.warm_start`).
    pub db_warm_starts: Option<u64>,
}

/// Liveness of a run, derived from its recorded wall time and last
/// heartbeat. See [`RunEntry::status_at`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The run recorded a final wall time: it finished.
    Done,
    /// Heartbeats are recent — the run is executing right now.
    Live,
    /// The run never finished and heartbeats stopped this many ms ago:
    /// presumed crashed or wedged.
    Stale(u64),
    /// No wall time and no heartbeat data (snapshotting disabled and no
    /// trace): liveness is unknown.
    Unknown,
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunStatus::Done => write!(f, "done"),
            RunStatus::Live => write!(f, "live"),
            RunStatus::Stale(age_ms) => write!(f, "stale {}s", age_ms / 1000),
            RunStatus::Unknown => write!(f, "-"),
        }
    }
}

impl RunEntry {
    /// Mean of the per-task best GFLOPS (0.0 with no tasks).
    #[must_use]
    pub fn mean_best_gflops(&self) -> f64 {
        let xs: Vec<f64> = self.task_best_gflops.values().copied().collect();
        mean(&xs)
    }

    /// Classifies the run's liveness as of wall-clock `now_ms` (Unix epoch
    /// milliseconds): a recorded wall time means done; otherwise recent
    /// heartbeats mean live, old ones mean stale, none means unknown.
    #[must_use]
    pub fn status_at(&self, now_ms: u64) -> RunStatus {
        if self.wall_time_s.is_some() {
            return RunStatus::Done;
        }
        match self.last_heartbeat_unix_ms {
            None => RunStatus::Unknown,
            Some(hb) => {
                let age = now_ms.saturating_sub(hb);
                if age <= STALE_AFTER_MS {
                    RunStatus::Live
                } else {
                    RunStatus::Stale(age)
                }
            }
        }
    }

    /// Reads the entry of the run directory at `path`: manifest facts, the
    /// per-task best GFLOPS of each log's committed trials, and health and
    /// liveness from the trace and metrics snapshot. `run_id` is the
    /// directory name. Writes nothing: a log's torn tail is skipped, and a
    /// log without a header yet holds no trial.
    ///
    /// # Errors
    ///
    /// Returns a message when the manifest or a log cannot be read.
    pub fn from_run_dir(path: &Path) -> Result<RunEntry, String> {
        let dir = RunDir::open(path)?;
        let manifest =
            dir.read_manifest().map_err(|e| format!("bad manifest in {}: {e}", path.display()))?;
        let bad_logs = |e: &dyn std::fmt::Display| format!("bad logs in {}: {e}", path.display());
        let mut task_best_gflops = BTreeMap::new();
        for file in std::fs::read_dir(path.join("logs")).map_err(|e| bad_logs(&e))? {
            let file = file.map_err(|e| bad_logs(&e))?.path();
            if file.extension().is_none_or(|e| e != "jsonl") {
                continue;
            }
            let bytes = std::fs::read(&file).map_err(|e| bad_logs(&e))?;
            match TuningLog::recover_jsonl(&bytes) {
                Ok(r) => {
                    task_best_gflops.insert(r.log.task_name.clone(), r.log.best_gflops());
                }
                Err(ReadLogError::Empty) => {}
                Err(e) => return Err(bad_logs(&e)),
            }
        }
        // Health counters and the last heartbeat come from the trace when
        // the run wrote one; trace-less (or unreadable-trace) runs leave
        // them unset.
        let health = telemetry::TraceSummary::load(&dir.trace_path()).ok().flatten();
        let counter =
            |name: &str| health.as_ref().map(|s| s.counters.get(name).copied().unwrap_or(0));
        // Liveness: prefer the (atomically rewritten, hence freshest)
        // metrics snapshot; fall back to the trace's heartbeat events.
        let snapshot: Option<telemetry::MetricsSnapshot> =
            std::fs::read_to_string(dir.snapshot_path())
                .ok()
                .and_then(|s| serde_json::from_str(&s).ok());
        let trace_heartbeat = health.as_ref().and_then(|s| s.last_heartbeat.as_ref());
        let (last_heartbeat_unix_ms, trials_done) = match (&snapshot, &trace_heartbeat) {
            (Some(s), hb) => (
                Some(s.unix_ms.max(hb.as_ref().map_or(0, |h| h.unix_ms))),
                Some(s.counter(telemetry::stream::TRIALS_COUNTER)),
            ),
            (None, Some(h)) => (Some(h.unix_ms), Some(h.trials)),
            (None, None) => (None, None),
        };
        Ok(RunEntry {
            run_id: dir.run_id(),
            path: path.to_path_buf(),
            model: manifest.model,
            method: manifest.method,
            seed: manifest.seed,
            n_trial: manifest.options.n_trial as u64,
            git_describe: manifest.git_describe,
            wall_time_s: manifest.wall_time_s,
            task_best_gflops,
            faults: counter("measure.fault"),
            retries: counter("measure.retry"),
            persistent_failures: counter("measure.quarantine"),
            resumed: manifest.resumed,
            last_heartbeat_unix_ms,
            trials_done,
            db_path: manifest.db.as_ref().map(|d| d.path.clone()),
            db_policy: manifest.db.map(|d| d.policy),
            db_hits: counter("db.hit"),
            db_warm_starts: counter("db.warm_start"),
        })
    }
}

/// The runs directly under one directory.
#[derive(Debug, Default)]
pub struct RunListing {
    /// One entry per run subdirectory, in name order.
    pub entries: Vec<RunEntry>,
    /// Why each run subdirectory that could not be read was skipped.
    pub skipped: Vec<String>,
}

impl RunListing {
    /// Reads every direct subdirectory of `root` that holds a manifest, in
    /// name order. A subdirectory without one is not a run and is ignored;
    /// a run that cannot be read is skipped, with its reason kept in
    /// [`RunListing::skipped`].
    ///
    /// # Errors
    ///
    /// Propagates failures to list `root` itself.
    pub fn scan(root: &Path) -> std::io::Result<RunListing> {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)?
            .map(|e| e.map(|e| e.path()))
            .collect::<std::io::Result<_>>()?;
        dirs.sort();
        let mut out = RunListing::default();
        for dir in dirs.iter().filter(|d| RunDir::open(d).is_ok()) {
            match RunEntry::from_run_dir(dir) {
                Ok(entry) => out.entries.push(entry),
                Err(e) => out.skipped.push(e),
            }
        }
        Ok(out)
    }

    /// Entries whose model/method match the given filters (substring
    /// match on model so `--model mobilenet` finds `mobilenet_v1`).
    #[must_use]
    pub fn filtered(&self, model: Option<&str>, method: Option<&str>) -> Vec<&RunEntry> {
        self.entries
            .iter()
            .filter(|e| model.is_none_or(|m| e.model.contains(m)))
            .filter(|e| method.is_none_or(|m| e.method == m))
            .collect()
    }

    /// Renders entries as an aligned text table, classifying liveness
    /// against the current wall clock.
    #[must_use]
    pub fn render(&self, entries: &[&RunEntry]) -> String {
        self.render_at(entries, telemetry::registry::unix_ms_now())
    }

    /// [`RunListing::render`] with an explicit "now" (Unix epoch ms), so
    /// liveness classification is testable.
    #[must_use]
    pub fn render_at(&self, entries: &[&RunEntry], now_ms: u64) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<40} {:<16} {:<9} {:>5} {:>7} {:>6} {:>10} {:>10} {:>14} {:>12} {:>10}",
            "run",
            "model",
            "method",
            "seed",
            "n-trial",
            "tasks",
            "GFLOPS",
            "wall(s)",
            "health",
            "status",
            "db"
        );
        for e in entries {
            // "f3 r1 q2 R" = 3 faults, 1 retry, 2 persistent failures, resumed;
            // "-" for a run with no trace.
            let health = match (e.faults, e.retries, e.persistent_failures) {
                (None, None, None) => "-".to_string(),
                (f, r, q) => format!(
                    "f{} r{} q{}{}",
                    f.unwrap_or(0),
                    r.unwrap_or(0),
                    q.unwrap_or(0),
                    if e.resumed == Some(true) { " R" } else { "" }
                ),
            };
            // "serve h3 w2" = serve policy, 3 exact hits, 2 warm-started
            // tasks; "-" for runs that attached no tuning database.
            let db = match &e.db_policy {
                None => "-".to_string(),
                Some(policy) => format!(
                    "{policy} h{} w{}",
                    e.db_hits.unwrap_or(0),
                    e.db_warm_starts.unwrap_or(0)
                ),
            };
            let _ = writeln!(
                s,
                "{:<40} {:<16} {:<9} {:>5} {:>7} {:>6} {:>10.1} {:>10} {:>14} {:>12} {:>10}",
                e.run_id,
                e.model,
                e.method,
                e.seed,
                e.n_trial,
                e.task_best_gflops.len(),
                e.mean_best_gflops(),
                e.wall_time_s.map_or_else(|| "-".to_string(), |w| format!("{w:.1}")),
                health,
                e.status_at(now_ms).to_string(),
                db,
            );
        }
        for skipped in &self.skipped {
            let _ = writeln!(s, "(skipped: {skipped})");
        }
        s
    }
}

/// `git describe --always --dirty` of the working tree at `dir`, when git
/// and a repository are available. Best-effort: failures yield `None`.
#[must_use]
pub fn git_describe(dir: &Path) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use active_learning::{TrialRecord, TuneOptions};

    fn entry(id: &str, seed: u64) -> RunEntry {
        RunEntry {
            run_id: id.to_string(),
            path: PathBuf::from(id),
            model: "mobilenet_v1".to_string(),
            method: "bted+bao".to_string(),
            seed,
            n_trial: 64,
            git_describe: Some("abc123".to_string()),
            wall_time_s: Some(2.0),
            task_best_gflops: [("m.T1".to_string(), 100.0), ("m.T2".to_string(), 200.0)]
                .into_iter()
                .collect(),
            faults: None,
            retries: None,
            persistent_failures: None,
            resumed: None,
            last_heartbeat_unix_ms: None,
            trials_done: None,
            db_path: None,
            db_policy: None,
            db_hits: None,
            db_warm_starts: None,
        }
    }

    /// The manifest of an unfinished one-task run.
    fn manifest() -> active_learning::RunManifest {
        active_learning::RunManifest {
            model: "squeezenet_v1.1".into(),
            method: "autotvm".into(),
            tasks: vec!["sq.T1".into()],
            seed: 4,
            options: TuneOptions::smoke(),
            schema_version: Some(active_learning::MANIFEST_SCHEMA_VERSION),
            git_describe: None,
            wall_time_s: None,
            device: None,
            fault: None,
            resumed: None,
            workers: None,
            devices: None,
            db: None,
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aaltune-runs-{tag}-{}", std::process::id()))
    }

    #[test]
    fn filters_match_model_and_method() {
        let mut other = entry("b", 0);
        other.model = "resnet18".to_string();
        other.method = "autotvm".to_string();
        let listing = RunListing { entries: vec![entry("a", 0), other], skipped: Vec::new() };
        assert_eq!(listing.filtered(Some("mobilenet"), None).len(), 1);
        assert_eq!(listing.filtered(None, Some("autotvm")).len(), 1);
        assert_eq!(listing.filtered(Some("vgg"), None).len(), 0);
        let table = listing.render(&listing.filtered(None, None));
        assert!(table.contains("resnet18"), "{table}");
    }

    #[test]
    fn status_classifies_done_live_stale_unknown() {
        let now: u64 = 1_700_000_000_000;
        let done = entry("done", 0);
        assert_eq!(done.status_at(now), RunStatus::Done);

        let mut live = entry("live", 0);
        live.wall_time_s = None;
        live.last_heartbeat_unix_ms = Some(now - 2_000);
        assert_eq!(live.status_at(now), RunStatus::Live);

        let mut stale = entry("stale", 0);
        stale.wall_time_s = None;
        stale.last_heartbeat_unix_ms = Some(now - STALE_AFTER_MS - 90_000);
        assert_eq!(stale.status_at(now), RunStatus::Stale(STALE_AFTER_MS + 90_000));
        assert_eq!(stale.status_at(now).to_string(), "stale 120s");

        let mut unknown = entry("unknown", 0);
        unknown.wall_time_s = None;
        assert_eq!(unknown.status_at(now), RunStatus::Unknown);

        // A finished run stays "done" even with an ancient heartbeat.
        let mut finished = entry("finished", 0);
        finished.last_heartbeat_unix_ms = Some(0);
        assert_eq!(finished.status_at(now), RunStatus::Done);

        let listing = RunListing { entries: vec![done, live, stale, unknown], skipped: Vec::new() };
        let table = listing.render_at(&listing.entries.iter().collect::<Vec<_>>(), now);
        assert!(table.contains("status"), "{table}");
        assert!(table.contains("live"), "{table}");
        assert!(table.contains("stale 120s"), "{table}");
    }

    #[test]
    fn entry_from_run_dir_reads_heartbeat_from_trace_and_snapshot() {
        let root = temp_root("hb").join("hb-run");
        let _ = std::fs::remove_dir_all(root.parent().unwrap());
        let dir = RunDir::create(&root).unwrap();
        // Still running (or crashed), with no heartbeat data at all:
        // liveness unknown.
        dir.write_manifest(&manifest()).unwrap();
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.last_heartbeat_unix_ms, None);
        assert_eq!(e.status_at(1_700_000_000_000), RunStatus::Unknown);

        // Heartbeat events in the trace surface as liveness.
        let hb = telemetry::Record::Event {
            name: "run.heartbeat".into(),
            span: None,
            t_us: 10,
            fields: serde_json::json!({
                "unix_ms": 1_700_000_000_000u64, "trials": 12u64,
                "tasks_done": 1u64, "task": "sq.T1",
            }),
        };
        let trace = [
            serde_json::to_string(&telemetry::Record::Schema { version: 2 }).unwrap(),
            serde_json::to_string(&hb).unwrap(),
        ]
        .join("\n");
        std::fs::write(dir.trace_path(), trace).unwrap();
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.last_heartbeat_unix_ms, Some(1_700_000_000_000));
        assert_eq!(e.trials_done, Some(12));
        assert_eq!(e.status_at(1_700_000_005_000), RunStatus::Live);

        // A fresher metrics snapshot wins over the trace heartbeat.
        let reg = telemetry::MetricsRegistry::new();
        reg.inc(telemetry::stream::TRIALS_COUNTER, 40);
        let mut snap = reg.snapshot();
        snap.unix_ms = 1_700_000_060_000;
        std::fs::write(dir.snapshot_path(), serde_json::to_string(&snap).unwrap()).unwrap();
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.last_heartbeat_unix_ms, Some(1_700_000_060_000));
        assert_eq!(e.trials_done, Some(40));
        std::fs::remove_dir_all(root.parent().unwrap()).unwrap();
    }

    #[test]
    fn entry_from_run_dir_extracts_headline_metrics() {
        use active_learning::RunManifest;
        let root = temp_root("fromdir").join("sq-autotvm-seed0");
        let _ = std::fs::remove_dir_all(root.parent().unwrap());
        let dir = RunDir::create(&root).unwrap();
        dir.write_manifest(&RunManifest {
            wall_time_s: Some(0.5),
            resumed: Some(true),
            ..manifest()
        })
        .unwrap();
        let mut log = TuningLog::new("sq.T1", "autotvm");
        log.records.push(trial(0, 80.0, 80.0));
        dir.write_log(&log).unwrap();
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.run_id, "sq-autotvm-seed0");
        assert_eq!(e.model, "squeezenet_v1.1");
        assert_eq!(e.task_best_gflops["sq.T1"], 80.0);
        assert_eq!(e.n_trial, TuneOptions::smoke().n_trial as u64);
        assert_eq!(e.faults, None, "trace-less run leaves health unset");
        assert_eq!(e.resumed, Some(true));

        // With a trace present, the health counters come from it.
        let trace = [
            serde_json::to_string(&telemetry::Record::Schema { version: 2 }).unwrap(),
            serde_json::to_string(&telemetry::Record::Counter {
                name: "measure.fault".into(),
                value: 3,
            })
            .unwrap(),
            serde_json::to_string(&telemetry::Record::Counter {
                name: "measure.retry".into(),
                value: 2,
            })
            .unwrap(),
        ]
        .join("\n");
        std::fs::write(dir.trace_path(), trace).unwrap();
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.faults, Some(3));
        assert_eq!(e.retries, Some(2));
        assert_eq!(e.persistent_failures, Some(0));
        let listing = RunListing { entries: vec![e], skipped: Vec::new() };
        let table = listing.render(&listing.entries.iter().collect::<Vec<_>>());
        assert!(table.contains("f3 r2 q0 R"), "{table}");
        std::fs::remove_dir_all(root.parent().unwrap()).unwrap();
    }

    /// Every file under `root` with its bytes, and every directory.
    fn tree(root: &Path) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
        let mut out = BTreeMap::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(p) = stack.pop() {
            if p.is_dir() {
                stack.extend(std::fs::read_dir(&p).unwrap().map(|e| e.unwrap().path()));
                out.insert(p, None);
            } else {
                out.insert(p.clone(), Some(std::fs::read(&p).unwrap()));
            }
        }
        out
    }

    fn trial(trial: usize, gflops: f64, best_gflops: f64) -> TrialRecord {
        TrialRecord { trial, config_index: trial as u64, gflops, latency_s: 1e-4, best_gflops }
    }

    #[test]
    fn a_torn_log_lists_its_committed_trials_and_stays_untouched() {
        let root = temp_root("torn");
        let _ = std::fs::remove_dir_all(&root);
        let dir = RunDir::create(root.join("killed")).unwrap();
        dir.write_manifest(&manifest()).unwrap();
        let mut log = TuningLog::new("sq.T1", "autotvm");
        log.records.extend([trial(0, 80.0, 80.0), trial(1, 95.0, 95.0)]);
        let path = dir.write_log(&log).unwrap();
        // The killed writer left half of its third line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"trial\":2,\"config_index\":2,\"gfl");
        std::fs::write(&path, bytes).unwrap();
        // A log whose header was never written holds no trial.
        std::fs::write(dir.log_path("sq.T2"), b"").unwrap();

        let before = tree(&root);
        let listing = RunListing::scan(&root).unwrap();
        assert_eq!(tree(&root), before, "listing a run must not modify it");
        assert!(listing.skipped.is_empty(), "{:?}", listing.skipped);
        let [e] = &listing.entries[..] else { panic!("{:?}", listing.entries) };
        assert_eq!(e.run_id, "killed");
        assert_eq!(e.task_best_gflops, BTreeMap::from([("sq.T1".to_string(), 95.0)]));
        assert_eq!(e.status_at(0), RunStatus::Unknown);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scan_lists_runs_in_name_order_and_notes_unreadable_ones() {
        let root = temp_root("scan");
        let _ = std::fs::remove_dir_all(&root);
        for name in ["b-run", "a-run"] {
            RunDir::create(root.join(name)).unwrap().write_manifest(&manifest()).unwrap();
        }
        // Not runs: a directory without a manifest, and a plain file.
        std::fs::create_dir_all(root.join("c-notes")).unwrap();
        std::fs::write(root.join("README"), "notes").unwrap();
        // A run whose manifest is corrupt.
        std::fs::create_dir_all(root.join("d-bad")).unwrap();
        std::fs::write(root.join("d-bad/manifest.json"), "{").unwrap();

        let listing = RunListing::scan(&root).unwrap();
        let ids: Vec<&str> = listing.entries.iter().map(|e| e.run_id.as_str()).collect();
        assert_eq!(ids, ["a-run", "b-run"]);
        assert_eq!(listing.skipped.len(), 1, "{:?}", listing.skipped);
        let table = listing.render(&listing.filtered(None, None));
        assert!(table.contains("(skipped: bad manifest in ") && table.contains("d-bad"), "{table}");
        assert!(RunListing::scan(&root.join("missing")).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
