//! In-process runs with every layer probed, and the tuning-database
//! helpers the workloads share.

use crate::layers::{Probes, TimedEvaluator, TimedTuner};
use crate::reads::Query;
use crate::stats::Summary;
use active_learning::bao::BaoTuner;
use active_learning::bted::{bted, BtedOptions};
use active_learning::task_tuning::drive_loop;
use active_learning::tuner::{RandomTuner, Tuner, XgbTuner};
use active_learning::{
    write_model_quality, Checkpoint, GbtEvaluator, Method, ModelPredRecord, RunDir, TrialRecord,
    TuneHooks, TuneOptions, CHECKPOINT_SCHEMA_VERSION,
};
use dnn_graph::task::TuningTask;
use gpu_sim::Measurer;
use rand::SeedableRng;
use schedule::template::space_for_task;
use schedule::ConfigSpace;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tuning_db::{decimate_curve, DbRecord, LockOptions, TaskSpec, TopConfig, TuningDb};

/// Parses a method label as the CLI and the job API spell it.
pub fn method_of(label: &str) -> Result<Method, String> {
    [Method::Random, Method::AutoTvm, Method::Bted, Method::BtedBao]
        .into_iter()
        .find(|m| m.label() == label)
        .ok_or_else(|| format!("unknown method {label}"))
}

/// The run-directory writes `tune --out` and serve jobs make beside the
/// trial log: a checkpoint every 16 trials of a task, and, with model
/// capture on, the model-quality file rewritten as each task completes.
#[derive(Default)]
pub struct RunIo {
    checkpoint: Mutex<()>,
    model: Mutex<Vec<ModelPredRecord>>,
}

/// Tunes `task` in-process the way `tune_task_with` does — same initial
/// set, same tuner, same loop — with the tuner, its evaluation function
/// and the run-directory writes probed. The log goes to `out`. Returns
/// the task's busy seconds.
pub fn traced_task<M: Measurer>(
    task: &TuningTask,
    method: Method,
    opts: &TuneOptions,
    measurer: &M,
    out: &RunDir,
    io: &RunIo,
    probes: &Arc<Probes>,
) -> Result<f64, String> {
    let start = Instant::now();
    let space = Probes::time(&probes.space, 1, || space_for_task(task));
    let init = match method {
        Method::Bted | Method::BtedBao => Probes::time(&probes.bted, 1, || {
            let bopts = BtedOptions { num_selected: opts.init_points, ..opts.bted };
            bted(&space, &bopts, opts.seed ^ 0xB7ED)
        }),
        Method::AutoTvm => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(opts.seed ^ 0xA070);
            space.sample_distinct(&mut rng, opts.init_points)
        }
        Method::Random => Vec::new(),
    };
    let inner = tuner_for(&space, method, init, opts, probes);
    let mut tuner = TimedTuner { inner, probes: Arc::clone(probes) };
    let mut writer = out
        .create_log(&task.name, method.label())
        .map_err(|e| format!("cannot create traced log of {}: {e}", task.name))?;
    let mut write_err = None;
    let mut logged = 0u64;
    let mut sink = |rec: &TrialRecord| {
        let mut result = Probes::time(&probes.append, 1, || writer.append(rec));
        logged += 1;
        if result.is_ok() && logged.is_multiple_of(16) {
            let _serial = io.checkpoint.lock().expect("checkpoint lock poisoned");
            result = Probes::time(&probes.checkpoint, 1, || {
                out.write_checkpoint(&Checkpoint {
                    schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
                    in_flight: Some(task.name.clone()),
                    trials_logged: Some(logged),
                    ..Checkpoint::default()
                })
            });
        }
        if let Err(e) = result {
            write_err.get_or_insert(e.to_string());
        }
    };
    let mut task_model = Vec::new();
    let mut model_sink = |rec: &ModelPredRecord| task_model.push(rec.clone());
    let hooks = TuneHooks {
        on_trial: Some(&mut sink),
        on_model: Some(&mut model_sink),
        replay: None,
        warm_start: None,
    };
    let r = drive_loop(task, &space, &mut tuner, measurer, method, opts, hooks);
    if let Some(e) = write_err {
        return Err(format!("traced log of {} failed to write: {e}", task.name));
    }
    if let Some(diag) = r.aborted {
        return Err(format!("traced {} aborted: {diag}", task.name));
    }
    if opts.capture_model_or_default() {
        let mut all = io.model.lock().expect("model-quality lock poisoned");
        all.extend(task_model);
        Probes::time(&probes.model_quality, 1, || {
            write_model_quality(&out.model_quality_path(), &all)
        })
        .map_err(|e| format!("cannot write the traced model quality: {e}"))?;
    }
    Ok(start.elapsed().as_secs_f64())
}

fn tuner_for<'s>(
    space: &'s ConfigSpace,
    method: Method,
    init: Vec<schedule::Config>,
    opts: &TuneOptions,
    probes: &Arc<Probes>,
) -> Box<dyn Tuner + 's> {
    match method {
        Method::Random => Box::new(RandomTuner::new(space, opts.seed)),
        Method::AutoTvm | Method::Bted => Box::new(XgbTuner::new(
            space,
            init,
            opts.gbt,
            opts.sa,
            opts.plan_size,
            opts.epsilon,
            opts.seed,
        )),
        Method::BtedBao => {
            let (gbt, probes) = (opts.bao_gbt, Arc::clone(probes));
            let make = move || TimedEvaluator {
                inner: GbtEvaluator::new(gbt),
                probes: Arc::clone(&probes),
            };
            Box::new(BaoTuner::with_evaluator(space, init, opts.bao, make, opts.seed))
        }
    }
}

/// A database record for `task` on `device` holding `top` (best first).
pub fn db_record(
    task: &TuningTask,
    space: &ConfigSpace,
    device: &str,
    method: &str,
    top: Vec<TopConfig>,
    curve: &[f64],
) -> DbRecord {
    DbRecord {
        schema_version: tuning_db::DB_SCHEMA_VERSION,
        spec: TaskSpec::of(task, space, device),
        feature: TaskSpec::features(task),
        method: method.to_string(),
        seed: 0,
        n_trials: curve.len() as u64,
        best_gflops: top.first().map_or(0.0, |t| t.gflops),
        top_k: top,
        curve: decimate_curve(curve, 64),
    }
}

/// Creates a database at `dir` holding `records`; returns the seconds it
/// took. The writer lock is released before returning.
pub fn write_db(dir: &Path, records: Vec<DbRecord>) -> Result<f64, String> {
    let start = Instant::now();
    let mut db =
        TuningDb::open(dir, &LockOptions::default()).map_err(|e| format!("db open: {e}"))?;
    for rec in records {
        db.upsert(rec).map_err(|e| format!("db upsert: {e}"))?;
    }
    drop(db);
    Ok(start.elapsed().as_secs_f64())
}

/// Copies a database directory (without its writer lock) and replays
/// `order` through a `ReadHandle` on the copy the way `/best` resolves a
/// key: exact lookup, then nearest. Returns per-call seconds of both, and
/// the number of records.
pub fn replay_db(
    src: &Path,
    dst: &Path,
    queries: &[Query],
    order: &[usize],
) -> Result<(Summary, Summary, usize), String> {
    copy_dir(src, dst).map_err(|e| format!("cannot copy the database: {e}"))?;
    let db =
        TuningDb::open(dst, &LockOptions::default()).map_err(|e| format!("db copy open: {e}"))?;
    let read = db.read_handle();
    let (mut lookups, mut nearests) = (Vec::new(), Vec::new());
    for &q in order {
        let (spec, feature) = (&queries[q].spec, &queries[q].feature);
        let t = Instant::now();
        let hit = std::hint::black_box(read.lookup(spec));
        lookups.push(t.elapsed().as_secs_f64());
        if hit.is_none() {
            let t = Instant::now();
            std::hint::black_box(read.nearest(spec, feature, 1));
            nearests.push(t.elapsed().as_secs_f64());
        }
    }
    Ok((Summary::new(lookups), Summary::new(nearests), read.len()))
}

fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let (from, to) = (entry.path(), dst.join(entry.file_name()));
        if entry.file_type()?.is_dir() {
            copy_dir(&from, &to)?;
        } else if entry.file_name() != "lock" {
            std::fs::copy(&from, &to)?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                Ok(_) => e.metadata().map_or(0, |m| m.len()),
                Err(_) => 0,
            })
            .sum()
    })
}
