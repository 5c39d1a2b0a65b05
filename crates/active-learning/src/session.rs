//! The run engine: one crash-safe task loop shared by `aaltune tune` and
//! serve jobs.
//!
//! A [`Session`] tunes a list of tasks, optionally into a [`RunDir`], and
//! owns each durability guarantee in one place:
//!
//! * **resume** — a task the progress journal lists as complete is read
//!   back; an in-flight task's log is recovered (torn tail dropped) and
//!   replayed, so the finished log is byte-identical to an uninterrupted
//!   run's;
//! * **progress journal** — `progress.jsonl` holds one synced `Complete`
//!   line per finished task, never a line per trial. Resume reads back
//!   the tasks it lists. A resumed task's replay marks every logged
//!   config visited, so no config is measured twice across a resume;
//! * **database** — the warm seed pinned before the first trial and
//!   replayed on resume, the [`DbPolicy::Serve`] verifying measurement,
//!   and the top-k upsert, which lands before the `Complete` line;
//! * **model capture** — each completed task's records written once, as
//!   a part under `model_quality.d/`, before its `Complete` line; the
//!   run's end folds the parts into `model_quality.jsonl`.
//!
//! Callers pass what differs as values and hooks; run-level
//! I/O (manifest, registries, snapshots, result files) stays with them.

use crate::model_quality::{
    read_capture_of, write_capture_file, CaptureLines, ModelPredRecord, MODEL_QUALITY_FILE,
};
use crate::options::TuneOptions;
use crate::records::{LogWriter, ProgressJournal, RunDir, TrialRecord, TuningLog, WarmSeed};
use crate::task_tuning::{tune_task_with, Method, TuneHooks};
use dnn_graph::task::TuningTask;
use gpu_sim::Measurer;
use schedule::template::space_for_task;
use schedule::Config;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use telemetry::sync::lock_or_recover;
use telemetry::{durable, Telemetry};
use tuning_db::{
    decimate_curve, DbRecord, TaskSpec, TopConfig, TuningDb, DB_SCHEMA_VERSION,
    DB_WARM_START_COUNTER, TOP_K,
};

/// How a session consumes an exact tuning-database hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbPolicy {
    /// Serve the cached best: one verifying measurement, no tuning loop.
    Serve,
    /// Warm-start the initial measurement set from the cached top-k and
    /// tune normally.
    Warm,
}

impl DbPolicy {
    /// The label recorded in a run manifest's database provenance.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DbPolicy::Serve => "serve",
            DbPolicy::Warm => "warm",
        }
    }

    /// Parses a policy label.
    ///
    /// # Errors
    ///
    /// Returns an error naming the valid labels.
    pub fn parse(s: &str) -> Result<DbPolicy, String> {
        match s {
            "serve" => Ok(DbPolicy::Serve),
            "warm" => Ok(DbPolicy::Warm),
            other => Err(format!("unknown --db-policy `{other}` (serve, warm)")),
        }
    }
}

/// The tuning database a session reads seeds from and folds results into.
pub struct SessionDb<'a> {
    /// The store, shared under the caller's writer lock.
    pub store: &'a Mutex<TuningDb>,
    /// How a task consults the store before tuning; `None` tunes cold and
    /// only upserts.
    pub consult: Option<DbPolicy>,
}

/// One tuning run over a list of tasks.
pub struct Session<'a, M> {
    /// The full measurement stack; concurrently tuning tasks share it.
    pub measurer: &'a M,
    /// Tuning method.
    pub method: Method,
    /// Tuning options (the run's seed and budget).
    pub opts: TuneOptions,
    /// Device name that keys database records.
    pub device: &'a str,
    /// Durable run directory; `None` tunes in memory (no logs, no
    /// progress journal, no capture file).
    pub dir: Option<&'a RunDir>,
    /// Continue the interrupted run in `dir` instead of starting fresh.
    pub resume: bool,
    /// Tasks the run's progress journal lists as complete.
    pub completed: Vec<String>,
    /// Tasks tuned concurrently.
    pub task_workers: usize,
    /// Tuning database, if the run is attached to one.
    pub db: Option<SessionDb<'a>>,
    /// Receives the engine's progress lines and counters.
    pub tel: &'a Telemetry,
    /// Called once a live trial is appended.
    pub on_trial: &'a (dyn Fn(&TuningTask, &TrialRecord) + Sync),
    /// Called when a task's loop stops early. `Ok` keeps the truncated
    /// log, which is upserted and completed like any other; `Err` fails
    /// the task before the database sees it.
    pub on_abort: &'a (dyn Fn(&TuningTask, &str) -> Result<(), String> + Sync),
}

/// State of one [`Session::run`].
struct RunState {
    /// The progress journal, shared by concurrently tuning tasks (`None`
    /// without a run directory).
    journal: Option<Mutex<ProgressJournal>>,
    /// Task names in run order (the capture file's record order).
    order: Vec<String>,
    /// On resume, the capture lines of each task completed before it,
    /// read from the capture the interrupted run left and re-rendered in
    /// the current schema: that capture may be one file (written by a
    /// run that ended, or by an older binary) or parts in an older
    /// schema. The tasks tuned after the resume are taken from their
    /// parts.
    resumed_capture: BTreeMap<String, CaptureLines>,
}

impl RunState {
    /// Folds the capture parts, in run order, into the capture file,
    /// then removes them.
    fn write_capture(&self, dir: &RunDir, tel: &Telemetry) -> Result<(), String> {
        let _span = tel.span("session.capture");
        write_capture_file(&dir.model_quality_path(), |f| {
            for name in &self.order {
                if let Some(lines) = self.resumed_capture.get(name) {
                    f.write_all(lines.as_str().as_bytes())?;
                    continue;
                }
                match std::fs::read(dir.model_quality_part_path(name)) {
                    Ok(part) => f.write_all(&part)?,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })
        .map_err(|e| format!("cannot write {MODEL_QUALITY_FILE}: {e}"))?;
        remove_dir(&dir.model_quality_parts_dir())
    }
}

/// Removes `path` and everything in it; absent is fine.
fn remove_dir(path: &std::path::Path) -> Result<(), String> {
    match std::fs::remove_dir_all(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

impl<M: Measurer + Sync> Session<'_, M> {
    /// Tunes `tasks`, resuming whatever the run directory already holds,
    /// and returns their logs in task order.
    ///
    /// Up to `task_workers` tasks run at once. Once a task fails, tasks
    /// not yet started are skipped.
    ///
    /// # Errors
    ///
    /// The first failure in task order.
    pub fn run(&self, tasks: &[TuningTask]) -> Result<Vec<TuningLog>, String> {
        let mut resumed_capture: BTreeMap<String, CaptureLines> = BTreeMap::new();
        if let Some(dir) = self.capture_dir() {
            if self.resume {
                let done = |task: &str| self.completed.iter().any(|t| t == task);
                for rec in read_capture_of(dir, &done)?.unwrap_or_default() {
                    resumed_capture.entry(rec.task.clone()).or_default().push(&rec);
                }
            } else {
                // A fresh run over an old run directory: the old capture
                // must not stand in for this run's.
                remove_dir(&dir.model_quality_parts_dir())?;
                if let Err(e) = std::fs::remove_file(dir.model_quality_path()) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        return Err(format!("cannot remove the old {MODEL_QUALITY_FILE}: {e}"));
                    }
                }
            }
        }
        let journal = self
            .dir
            .map(|dir| dir.open_progress(!self.resume).map(Mutex::new))
            .transpose()
            .map_err(|e| format!("cannot open the progress journal: {e}"))?;
        let st = RunState {
            journal,
            order: tasks.iter().map(|t| t.name.clone()).collect(),
            resumed_capture,
        };
        let failed = AtomicBool::new(false);
        let outcomes =
            executor::run_ordered(tasks.iter().collect(), self.task_workers, |_, task| {
                if failed.load(Ordering::Acquire) {
                    return None;
                }
                let r = self.run_task(task, &st);
                if r.is_err() {
                    failed.store(true, Ordering::Release);
                }
                Some(r)
            });
        let logs = outcomes.into_iter().flatten().collect::<Result<Vec<_>, _>>()?;
        if let Some(dir) = self.capture_dir() {
            st.write_capture(dir, self.tel)?;
        }
        Ok(logs)
    }

    /// The run directory, when model capture is on.
    fn capture_dir(&self) -> Option<&RunDir> {
        self.dir.filter(|_| self.opts.capture_model_or_default())
    }

    fn run_task(&self, task: &TuningTask, st: &RunState) -> Result<TuningLog, String> {
        if let Some(dir) = self.dir {
            if self.completed.contains(&task.name) {
                return self.read_back(dir, task);
            }
        }
        let seed = self.db_seed(task)?;
        if let Some(seed) = seed.as_ref().filter(|s| s.mode == "serve") {
            return match self.serve_cached(task, seed, st)? {
                Some(log) => Ok(log),
                // The serve seed is the cached best alone, and its
                // verification has just measured it, so the retune is cold.
                None => self.tune(task, None, st),
            };
        }
        self.tune(task, seed.map(|s| s.configs), st)
    }

    /// A task that finished before the kill: its durable log is read back.
    /// Its database upsert was durable before its `Complete` line, so the
    /// store is not consulted again.
    fn read_back(&self, dir: &RunDir, task: &TuningTask) -> Result<TuningLog, String> {
        let log = dir
            .read_log(&task.name)
            .map_err(|e| format!("cannot read the log of completed task {}: {e}", task.name))?;
        self.tel.report(|| {
            format!(
                "{:<18} already complete ({} trials) — skipped",
                log.task_name,
                log.records.len()
            )
        });
        Ok(log)
    }

    /// The task's database seed, consulted before any measurement. A
    /// resumed task replays the seed pinned in the run directory; a fresh
    /// task derives one (exact hit or nearest neighbors) and pins it
    /// before the first trial.
    fn db_seed(&self, task: &TuningTask) -> Result<Option<WarmSeed>, String> {
        let Some(SessionDb { store, consult: Some(policy) }) = &self.db else {
            return Ok(None);
        };
        let pinned = match self.dir {
            Some(dir) if self.resume => dir
                .read_warm_start(&task.name)
                .map_err(|e| format!("bad warm-start seed for {}: {e}", task.name))?,
            _ => None,
        };
        let seed = match pinned {
            Some(s) => Some(s),
            None => {
                let derived = self.derive_seed(&lock_or_recover(store), task, *policy);
                if let (Some(dir), Some(s)) = (self.dir, &derived) {
                    dir.write_warm_start(&task.name, s).map_err(|e| {
                        format!("cannot pin warm-start seed for {}: {e}", task.name)
                    })?;
                }
                derived
            }
        };
        let seed = seed.filter(|s| !s.configs.is_empty());
        if let Some(s) = &seed {
            self.tel.count(DB_WARM_START_COUNTER, 1);
            self.tel.report(|| {
                format!("{:<18} {} seed from db ({} configs)", task.name, s.mode, s.configs.len())
            });
        }
        Ok(seed)
    }

    /// Serve policy on an exact hit: one verifying measurement of the
    /// cached best replaces the whole tuning loop. `None` when the
    /// verification fails (the config no longer launches); the task then
    /// tunes cold, so the loop does not start by measuring it again.
    fn serve_cached(
        &self,
        task: &TuningTask,
        seed: &WarmSeed,
        st: &RunState,
    ) -> Result<Option<TuningLog>, String> {
        let cfg = &seed.configs[0];
        let space = space_for_task(task);
        let res = &self.measurer.measure_batch(task, &space, std::slice::from_ref(cfg))[0];
        if res.gflops <= 0.0 {
            self.tel.report(|| {
                format!("{}: cached best failed verification — retuning cold", task.name)
            });
            return Ok(None);
        }
        let rec = TrialRecord {
            trial: 0,
            config_index: cfg.index,
            gflops: res.gflops,
            latency_s: res.latency_s,
            best_gflops: res.gflops,
        };
        let mut log = TuningLog::new(task.name.clone(), self.method.label());
        log.records.push(rec.clone());
        if let Some(dir) = self.dir {
            let mut writer = self.create_log(dir, task)?;
            writer
                .append(&rec)
                .and_then(|()| writer.sync())
                .map_err(|e| format!("trial log of {} failed to write: {e}", task.name))?;
        }
        self.complete(task, &log, st)?;
        self.tel.report(|| {
            format!(
                "{:<18} {:>9.1} GFLOPS served from db (1 verifying measurement)",
                task.name, res.gflops
            )
        });
        Ok(Some(log))
    }

    /// The tuning loop proper: every live trial is appended to the
    /// durable log before the tuner consumes it.
    fn tune(
        &self,
        task: &TuningTask,
        warm: Option<Vec<Config>>,
        st: &RunState,
    ) -> Result<TuningLog, String> {
        let (replay, mut log_writer) = match self.dir {
            Some(dir) => {
                let (replay, writer) = self.open_log(dir, task)?;
                (replay, Some(writer))
            }
            None => (Vec::new(), None),
        };
        let mut write_err: Option<String> = None;
        let mut on_trial = |rec: &TrialRecord| {
            if let Some(writer) = log_writer.as_mut() {
                if let Err(e) = writer.append(rec) {
                    write_err.get_or_insert(e.to_string());
                }
            }
            (self.on_trial)(task, rec);
        };
        // The loop recomputes diagnostics for replayed trials too, so a
        // resumed task rebuilds its full capture record set.
        let mut lines = CaptureLines::default();
        let mut on_model = |rec: &ModelPredRecord| lines.push(rec);
        let r = tune_task_with(
            task,
            self.measurer,
            self.method,
            &self.opts,
            TuneHooks {
                on_trial: Some(&mut on_trial),
                on_model: if self.capture_dir().is_some() { Some(&mut on_model) } else { None },
                replay: Some(&replay),
                warm_start: warm.as_deref(),
            },
        );
        // The log must be on disk before the `Complete` line declares the
        // task done, or a power cut could leave a complete task whose
        // trials are lost.
        let synced = log_writer.as_mut().map_or(Ok(()), LogWriter::sync);
        if let Some(e) = write_err.or_else(|| synced.err().map(|e| e.to_string())) {
            return Err(format!("trial log of {} failed to write: {e}", task.name));
        }
        if let Some(diag) = &r.aborted {
            (self.on_abort)(task, diag)?;
        }
        // The part is durable before the `Complete` line: a task the
        // journal lists as complete is never re-tuned, so its records
        // could not be recomputed.
        if let Some(dir) = self.capture_dir() {
            self.write_part(dir, task, lines.as_str())?;
        }
        self.complete(task, &r.log, st)?;
        self.tel.report(|| {
            format!(
                "{:<18} {:>9.1} GFLOPS in {:>4} measurements ({})",
                r.task_name, r.best_gflops, r.num_measured, self.method
            )
        });
        Ok(r.log)
    }

    /// Writes a completed task's capture lines as its part.
    fn write_part(&self, dir: &RunDir, task: &TuningTask, lines: &str) -> Result<(), String> {
        let _span = self.tel.span("session.capture");
        let parts = dir.model_quality_parts_dir();
        if !parts.is_dir() {
            durable::create_dir(&parts)
                .map_err(|e| format!("cannot create {}: {e}", parts.display()))?;
        }
        durable::replace(&dir.model_quality_part_path(&task.name), |f| {
            f.write_all(lines.as_bytes())
        })
        .map_err(|e| format!("cannot write the capture part of {}: {e}", task.name))
    }

    /// Recovers the task's partial log on resume, or creates a fresh one.
    /// Returns the records to replay and the appending writer.
    fn open_log(
        &self,
        dir: &RunDir,
        task: &TuningTask,
    ) -> Result<(Vec<TrialRecord>, LogWriter), String> {
        let recovered = if self.resume {
            dir.recover_log(&task.name)
                .map_err(|e| format!("cannot recover log of {}: {e}", task.name))?
        } else {
            None
        };
        match recovered {
            Some((rec, writer)) => {
                if rec.dropped_tail {
                    self.tel.report(|| format!("{}: dropped a half-written trial line", task.name));
                }
                Ok((rec.log.records, writer))
            }
            None => Ok((Vec::new(), self.create_log(dir, task)?)),
        }
    }

    fn create_log(&self, dir: &RunDir, task: &TuningTask) -> Result<LogWriter, String> {
        dir.create_log(&task.name, self.method.label())
            .map_err(|e| format!("cannot create log of {}: {e}", task.name))
    }

    /// Upserts a finished task, then appends and syncs its `Complete`
    /// line. The order matters: a kill between the two re-runs the task on
    /// resume (an idempotent merge) instead of silently losing the upsert.
    fn complete(&self, task: &TuningTask, log: &TuningLog, st: &RunState) -> Result<(), String> {
        self.upsert(task, log)?;
        if let Some(journal) = &st.journal {
            let _span = self.tel.span("session.progress");
            lock_or_recover(journal)
                .complete(&task.name)
                .map_err(|e| format!("cannot journal the completion of {}: {e}", task.name))?;
        }
        Ok(())
    }

    /// Folds a finished task's log into the database: the top-k measured
    /// configurations plus the decimated convergence curve, merged under
    /// the caller's writer lock (append-then-apply, so a kill between the
    /// segment write and the in-memory update loses nothing).
    fn upsert(&self, task: &TuningTask, log: &TuningLog) -> Result<(), String> {
        let Some(db) = &self.db else { return Ok(()) };
        let space = space_for_task(task);
        let mut ranked: Vec<&TrialRecord> = log.records.iter().filter(|r| r.gflops > 0.0).collect();
        ranked.sort_by(|a, b| {
            b.gflops.total_cmp(&a.gflops).then(a.config_index.cmp(&b.config_index))
        });
        let mut seen = BTreeSet::new();
        let top_k = ranked
            .into_iter()
            .filter(|r| seen.insert(r.config_index))
            .take(TOP_K)
            .map(|r| {
                let cfg = space.config(r.config_index).map_err(|e| {
                    format!("bad config index {} in log of {}: {e}", r.config_index, task.name)
                })?;
                Ok(TopConfig {
                    config_index: r.config_index,
                    choices: cfg.choices,
                    gflops: r.gflops,
                    latency_s: r.latency_s,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if top_k.is_empty() {
            // Every measurement failed; nothing worth remembering.
            return Ok(());
        }
        let rec = DbRecord {
            schema_version: DB_SCHEMA_VERSION,
            spec: TaskSpec::of(task, &space, self.device),
            feature: TaskSpec::features(task),
            method: self.method.label().to_string(),
            seed: self.opts.seed,
            n_trials: log.records.len() as u64,
            best_gflops: top_k[0].gflops,
            top_k,
            curve: decimate_curve(&log.convergence_curve(), 64),
        };
        lock_or_recover(db.store)
            .upsert(rec)
            .map_err(|e| format!("cannot upsert {} into tuning database: {e}", task.name))
    }

    /// Derives a task's seed from the store: the cached best (serve) or
    /// top-k (warm) of an exact hit, else the pooled top-k of the three
    /// nearest tasks. `None` when nothing applies.
    fn derive_seed(
        &self,
        store: &TuningDb,
        task: &TuningTask,
        policy: DbPolicy,
    ) -> Option<WarmSeed> {
        let space = &space_for_task(task);
        let init_points = self.opts.init_points.max(1);
        let spec = TaskSpec::of(task, space, self.device);
        match store.lookup(&spec) {
            Some(rec) if policy == DbPolicy::Serve => {
                Some(WarmSeed { mode: "serve".into(), configs: rec.configs_for(space, 1) })
            }
            Some(rec) => {
                Some(WarmSeed { mode: "warm".into(), configs: rec.configs_for(space, init_points) })
            }
            None => {
                let feature = TaskSpec::features(task);
                let mut seen = BTreeSet::new();
                let mut configs = Vec::new();
                'neighbors: for n in store.nearest(&spec, &feature, 3) {
                    for cfg in n.configs_for(space, TOP_K) {
                        if configs.len() >= init_points {
                            break 'neighbors;
                        }
                        if seen.insert(cfg.index) {
                            configs.push(cfg);
                        }
                    }
                }
                (!configs.is_empty()).then(|| WarmSeed { mode: "warm".into(), configs })
            }
        }
    }
}
