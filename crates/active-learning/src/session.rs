//! The run engine: one crash-safe task loop shared by `aaltune tune` and
//! serve jobs.
//!
//! A [`Session`] tunes a list of tasks, optionally into a [`RunDir`], and
//! owns each durability guarantee in one place:
//!
//! * **resume** — a task the checkpoint lists as complete is read back;
//!   an in-flight task's log is recovered (torn tail dropped) and
//!   replayed, so the finished log is byte-identical to an uninterrupted
//!   run's;
//! * **checkpoints** — at task start, every 16 durable trials
//!   (each in-flight task's quarantine restricted to its durably logged
//!   configs), and at task completion, written in that order by one
//!   writer thread; a task waits for its start and completion
//!   checkpoints to be durable, never for the ones in between;
//! * **database** — the warm seed pinned before the first trial and
//!   replayed on resume, the [`DbPolicy::Serve`] verifying measurement,
//!   and the top-k upsert, which lands before the completion checkpoint;
//! * **model capture** — `model_quality.jsonl` rewritten per completed
//!   task.
//!
//! Callers pass what differs as values and hooks; run-level
//! I/O (manifest, registries, snapshots, result files) stays with them.

use crate::model_quality::{
    read_model_quality, record_line, write_record_lines, ModelPredRecord, MODEL_QUALITY_FILE,
};
use crate::options::TuneOptions;
use crate::records::{
    Checkpoint, LogWriter, RunDir, TrialRecord, TuningLog, WarmSeed, CHECKPOINT_SCHEMA_VERSION,
};
use crate::task_tuning::{tune_task_with, Method, TuneHooks};
use dnn_graph::task::TuningTask;
use gpu_sim::{Measurer, Quarantine};
use schedule::template::space_for_task;
use schedule::Config;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Mutex, MutexGuard};
use telemetry::sync::lock_or_recover;
use telemetry::Telemetry;
use tuning_db::{
    decimate_curve, DbRecord, TaskSpec, TopConfig, TuningDb, DB_SCHEMA_VERSION,
    DB_WARM_START_COUNTER, TOP_K,
};

/// Durable trials between two in-flight checkpoints of a task.
const CHECKPOINT_EVERY: u64 = 16;

/// Checkpoints the writer may fall behind by before a task waits for it.
const CHECKPOINT_BACKLOG: usize = 4;

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
    /// checkpoints, no capture file).
    pub dir: Option<&'a RunDir>,
    /// Continue the interrupted run in `dir` instead of starting fresh.
    pub resume: bool,
    /// Tasks the run's checkpoint lists as complete.
    pub completed: Vec<String>,
    /// Tasks tuned concurrently.
    pub task_workers: usize,
    /// Tuning database, if the run is attached to one.
    pub db: Option<SessionDb<'a>>,
    /// Snapshot of the measurer's quarantine, recorded in checkpoints;
    /// `None` writes checkpoints without one.
    pub quarantine: Option<&'a (dyn Fn() -> Quarantine + Sync)>,
    /// Receives the engine's progress lines and counters.
    pub tel: &'a Telemetry,
    /// Called once a live trial is durable (and any checkpoint due).
    pub on_trial: &'a (dyn Fn(&TuningTask, &TrialRecord) + Sync),
    /// Called when a task's loop stops early. `Ok` keeps the truncated
    /// log, which is upserted and checkpointed like any other; `Err` fails
    /// the task before the database sees it.
    pub on_abort: &'a (dyn Fn(&TuningTask, &str) -> Result<(), String> + Sync),
}

/// Crash-safety bookkeeping shared by concurrently tuning tasks.
struct Progress {
    /// Tasks whose logs are complete and durable.
    completed: Vec<String>,
    /// Per in-flight task: config indices already appended to its log.
    appended: BTreeMap<String, BTreeSet<u64>>,
}

/// A checkpoint handed to the writer thread; `written` hears the outcome
/// when the caller waits for it.
struct CheckpointWrite {
    checkpoint: Checkpoint,
    written: Option<SyncSender<std::io::Result<()>>>,
}

/// State of one [`Session::run`].
struct RunState {
    progress: Mutex<Progress>,
    /// The checkpoint writer's queue (`None` without a run directory).
    /// Locked before the progress lock is released, so checkpoints reach
    /// the writer in the order their contents were taken.
    checkpoints: Mutex<Option<SyncSender<CheckpointWrite>>>,
    /// Task names in run order (the capture file's record order).
    order: Vec<String>,
    /// Capture lines per task, each record rendered once; on resume,
    /// seeded from the capture file, which holds the records of every
    /// task completed before the kill.
    capture: Mutex<BTreeMap<String, String>>,
}

impl RunState {
    /// Rewrites the capture file (atomically) from every task so far.
    fn write_capture(&self, dir: &RunDir) -> Result<(), String> {
        let by_task = lock_or_recover(&self.capture);
        let blocks = self.order.iter().filter_map(|name| by_task.get(name));
        write_record_lines(&dir.model_quality_path(), blocks)
            .map_err(|e| format!("cannot write {MODEL_QUALITY_FILE}: {e}"))
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
        let mut capture: BTreeMap<String, String> = BTreeMap::new();
        if let Some(dir) = self.capture_dir().filter(|_| self.resume) {
            if dir.model_quality_path().is_file() {
                for rec in read_model_quality(&dir.model_quality_path())? {
                    capture.entry(rec.task.clone()).or_default().push_str(&record_line(&rec));
                }
            }
        }
        std::thread::scope(|scope| {
            // One writer thread owns `checkpoint.json`: it writes every
            // checkpoint in order, and the run joins it before returning.
            let checkpoints = self.dir.map(|dir| {
                let (queue, pending) = sync_channel::<CheckpointWrite>(CHECKPOINT_BACKLOG);
                scope.spawn(move || {
                    for w in pending {
                        let r = dir.write_checkpoint(&w.checkpoint);
                        if let Some(written) = w.written {
                            let _ = written.send(r);
                        }
                    }
                });
                queue
            });
            let st = RunState {
                progress: Mutex::new(Progress {
                    completed: self.completed.clone(),
                    appended: BTreeMap::new(),
                }),
                checkpoints: Mutex::new(checkpoints),
                order: tasks.iter().map(|t| t.name.clone()).collect(),
                capture: Mutex::new(capture),
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
            // Closing the queue lets the writer drain it and exit.
            drop(lock_or_recover(&st.checkpoints).take());
            let logs = outcomes.into_iter().flatten().collect::<Result<Vec<_>, _>>()?;
            if let Some(dir) = self.capture_dir() {
                st.write_capture(dir)?;
            }
            Ok(logs)
        })
    }

    /// The run directory, when model capture is on.
    fn capture_dir(&self) -> Option<&RunDir> {
        self.dir.filter(|_| self.opts.capture_model_or_default())
    }

    fn run_task(&self, task: &TuningTask, st: &RunState) -> Result<TuningLog, String> {
        if let Some(dir) = self.dir {
            if lock_or_recover(&st.progress).completed.contains(&task.name) {
                return self.read_back(dir, task);
            }
        }
        let seed = self.db_seed(task)?;
        if let Some(seed) = seed.as_ref().filter(|s| s.mode == "serve") {
            if let Some(log) = self.serve_cached(task, seed, st)? {
                return Ok(log);
            }
        }
        self.tune(task, seed.map(|s| s.configs), st)
    }

    /// A task that finished before the kill: its durable log is read back.
    /// Its database upsert was durable before the completion checkpoint,
    /// so the store is not consulted again.
    fn read_back(&self, dir: &RunDir, task: &TuningTask) -> Result<TuningLog, String> {
        let f = std::fs::File::open(dir.log_path(&task.name))
            .map_err(|e| format!("cannot reopen log of {}: {e}", task.name))?;
        let log = TuningLog::read_jsonl(std::io::BufReader::new(f))
            .map_err(|e| format!("bad log for completed task {}: {e}", task.name))?;
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
    /// tunes normally, warm-started from the same seed.
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
            self.tel
                .report(|| format!("{}: cached best failed verification — retuning", task.name));
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
                let mut p = lock_or_recover(&st.progress);
                p.appended
                    .insert(task.name.clone(), replay.iter().map(|r| r.config_index).collect());
                self.checkpoint(st, p, Some(&task.name), Some(replay.len() as u64), true)?;
                (replay, Some(writer))
            }
            None => (Vec::new(), None),
        };
        let mut trials_logged = replay.len() as u64;
        let mut write_err: Option<String> = None;
        let mut on_trial = |rec: &TrialRecord| {
            if let Some(writer) = log_writer.as_mut() {
                if let Err(e) = writer.append(rec) {
                    write_err.get_or_insert(e.to_string());
                }
                trials_logged += 1;
                let mut p = lock_or_recover(&st.progress);
                p.appended.entry(task.name.clone()).or_default().insert(rec.config_index);
                if trials_logged.is_multiple_of(CHECKPOINT_EVERY) {
                    let _ = self.checkpoint(st, p, Some(&task.name), Some(trials_logged), false);
                }
            }
            (self.on_trial)(task, rec);
        };
        // The loop recomputes diagnostics for replayed trials too, so a
        // resumed task rebuilds its full capture record set.
        let mut lines = String::new();
        let mut on_model = |rec: &ModelPredRecord| lines.push_str(&record_line(rec));
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
        // The log must be on disk before the completion checkpoint
        // declares the task done, or a power cut could leave a complete
        // task whose trials are lost.
        let synced = log_writer.as_mut().map_or(Ok(()), LogWriter::sync);
        if let Some(e) = write_err.or_else(|| synced.err().map(|e| e.to_string())) {
            return Err(format!("trial log of {} failed to write: {e}", task.name));
        }
        if let Some(diag) = &r.aborted {
            (self.on_abort)(task, diag)?;
        }
        self.complete(task, &r.log, st)?;
        if let Some(dir) = self.capture_dir() {
            lock_or_recover(&st.capture).insert(task.name.clone(), lines);
            st.write_capture(dir)?;
        }
        self.tel.report(|| {
            format!(
                "{:<18} {:>9.1} GFLOPS in {:>4} measurements ({})",
                r.task_name, r.best_gflops, r.num_measured, self.method
            )
        });
        Ok(r.log)
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

    /// Upserts a finished task, then writes its completion checkpoint. The
    /// order matters: a kill between the two re-runs the task on resume
    /// (an idempotent merge) instead of silently losing the upsert.
    fn complete(&self, task: &TuningTask, log: &TuningLog, st: &RunState) -> Result<(), String> {
        self.upsert(task, log)?;
        if self.dir.is_some() {
            let mut p = lock_or_recover(&st.progress);
            p.appended.remove(&task.name);
            p.completed.push(task.name.clone());
            self.checkpoint(st, p, None, None, true)?;
        }
        Ok(())
    }

    /// Checkpoints the progress the caller has locked. Each in-flight
    /// task's quarantine is restricted to its durably logged configs: a
    /// batch can quarantine a config before that trial's record is
    /// durable, and a resume that excluded such a config would diverge
    /// from the uninterrupted run.
    ///
    /// The contents are taken under the progress lock; the writer thread
    /// serializes, fsyncs and renames. With `wait` the call returns once
    /// this checkpoint is durable. Without it the call returns at once,
    /// so tuning never waits on the disk, and a crash can find the file
    /// a few checkpoints behind the logs. That is safe: the checkpoint is
    /// advisory, and an older one is still a consistent one.
    fn checkpoint(
        &self,
        st: &RunState,
        p: MutexGuard<'_, Progress>,
        in_flight: Option<&str>,
        trials: Option<u64>,
        wait: bool,
    ) -> Result<(), String> {
        let quarantine = self.quarantine.map(|snapshot| {
            let mut q = snapshot();
            for (task, allowed) in &p.appended {
                q.restrict(task, allowed);
            }
            q
        });
        let checkpoint = Checkpoint {
            schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
            completed_tasks: p.completed.clone(),
            in_flight: in_flight.map(str::to_string),
            trials_logged: trials,
            quarantine,
        };
        let guard = lock_or_recover(&st.checkpoints);
        drop(p);
        let Some(queue) = guard.as_ref() else { return Ok(()) };
        let (written, outcome) = if wait {
            let (tx, rx) = sync_channel(1);
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let stopped = || "cannot write checkpoint: the writer stopped".to_string();
        queue.send(CheckpointWrite { checkpoint, written }).map_err(|_| stopped())?;
        drop(guard);
        match outcome {
            Some(rx) => rx
                .recv()
                .map_err(|_| stopped())?
                .map_err(|e| format!("cannot write checkpoint: {e}")),
            None => Ok(()),
        }
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
