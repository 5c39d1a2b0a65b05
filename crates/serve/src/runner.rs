//! Executes one tuning job inside its per-job run directory.
//!
//! A job is a thin adapter over [`active_learning::Session`], the same
//! crash-safe engine behind `aaltune tune`: durable per-task logs, the
//! progress journal, replay resume, and the upsert into the tuning
//! database before each task's `Complete` line. A server killed mid-job
//! therefore continues exactly where each log ends, and the finished
//! logs are byte-identical to an uninterrupted run's.
//!
//! What the adapter keeps is what differs from the CLI:
//!
//! * the measurer is a plain [`SimMeasurer`] leasing from the server's
//!   shared [`DevicePool`] under the tenant tag, with no retry or
//!   quarantine policy;
//! * a job tunes one task at a time and **cold**: it upserts but never
//!   consults the database, so its trial stream is a pure function of
//!   the spec, independent of what other tenants upserted meanwhile —
//!   which is what makes the kill -9 twin comparison in CI byte-exact;
//! * every live trial is published as a `job.trial` event, the engine's
//!   human progress lines are dropped (the server's stream is job
//!   events), and an aborted task fails the job before its upsert;
//! * the manifest and `result.json` are written here.

use crate::job::JobSpec;
use active_learning::{
    device_by_name, method_by_name, model_by_name, RunDir, RunManifest, Session, SessionDb,
    TuneOptions, MANIFEST_SCHEMA_VERSION,
};
use dnn_graph::task::extract_tasks;
use executor::{DevicePool, Executor, ExecutorConfig};
use gpu_sim::SimMeasurer;
use serde_json::{json, Value};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use telemetry::durable;
use tuning_db::TuningDb;

/// Tuning options for a job: the smoke profile (small models, fast
/// surrogates) with the job's budget and seed applied.
#[must_use]
pub fn job_options(spec: &JobSpec) -> TuneOptions {
    TuneOptions {
        n_trial: spec.n_trial,
        early_stopping: spec.n_trial,
        seed: spec.seed,
        capture_model: Some(false),
        ..TuneOptions::smoke()
    }
}

/// Runs (or resumes) job `id` to completion. `emit` receives progress
/// events (`job.trial`, one per live trial) already scoped to this job.
///
/// # Errors
///
/// Returns a diagnostic; the caller marks the job failed and journals it.
pub fn run_job(
    jobs_root: &Path,
    id: &str,
    spec: &JobSpec,
    pool: &Arc<DevicePool>,
    workers: usize,
    db: Option<&Mutex<TuningDb>>,
    emit: &(dyn Fn(&str, Value) + Sync),
) -> Result<Value, String> {
    spec.validate()?;
    let model = model_by_name(&spec.model)?;
    let method = method_by_name(&spec.method)?;
    let device = device_by_name(&spec.device)?;
    let opts = job_options(spec);

    let dir = RunDir::create(jobs_root.join(id))
        .map_err(|e| format!("cannot create run dir for {id}: {e}"))?;
    let mut tasks = extract_tasks(&model);
    if let Some(i) = spec.task {
        if i >= tasks.len() {
            return Err(format!("task index {i} out of range (model has {})", tasks.len()));
        }
        tasks = vec![tasks.swap_remove(i)];
    }

    // Resume iff the progress journal exists (a checkpoint-era job is
    // migrated to one first); its completed tasks are the same advisory
    // state `tune --resume` uses (correctness rests on the logs
    // themselves).
    let completed =
        dir.recover_progress().map_err(|e| format!("bad progress journal for {id}: {e}"))?;
    let resume = completed.is_some();
    if !resume {
        dir.write_manifest(&RunManifest {
            model: spec.model.clone(),
            method: method.label().to_string(),
            tasks: tasks.iter().map(|t| t.name.clone()).collect(),
            seed: spec.seed,
            options: opts,
            schema_version: Some(MANIFEST_SCHEMA_VERSION),
            git_describe: None,
            wall_time_s: None,
            device: Some(spec.device.clone()),
            fault: None,
            resumed: None,
            workers: Some(workers),
            devices: None,
            db: None,
        })
        .map_err(|e| format!("cannot write manifest for {id}: {e}"))?;
    }

    // The executor leases from the server-wide pool under the *tenant*
    // tag, so fair share and hard quotas apply across every concurrent
    // job, not per task name.
    let exec = Executor::with_pool(
        SimMeasurer::new(device),
        ExecutorConfig::for_workers(workers.max(1)),
        Arc::clone(pool),
        Some(spec.tenant.clone()),
    );
    let logs = Session {
        measurer: &exec,
        method,
        opts,
        device: &spec.device,
        dir: Some(&dir),
        resume,
        completed: completed.unwrap_or_default(),
        task_workers: 1,
        db: db.map(|store| SessionDb { store, consult: None }),
        tel: &telemetry::Telemetry::disabled(),
        on_trial: &|task, rec| {
            let fields = json!({
                "task": task.name.clone(),
                "trial": rec.trial,
                "gflops": rec.gflops,
                "best_gflops": rec.best_gflops,
            });
            emit("job.trial", fields);
        },
        on_abort: &|task, diag| Err(format!("{} aborted: {diag}", task.name)),
    }
    .run(&tasks)?;

    let summaries: Vec<Value> = tasks
        .iter()
        .zip(&logs)
        .map(|(task, log)| {
            json!({
                "task": task.name.clone(),
                "trials": log.records.len() as u64,
                "best_gflops": log.best_gflops(),
            })
        })
        .collect();
    let result = json!({
        "schema_version": 1u64,
        "job": id,
        "model": spec.model.clone(),
        "method": method.label(),
        "seed": spec.seed,
        "tasks": summaries,
    });
    // Atomic, wall-clock-free: the twin comparison may diff result files
    // too, and a torn result must never be served.
    // aal-lint: allow(unwrap, reason = "result is plain JSON built above; serialization cannot fail")
    let body = serde_json::to_string_pretty(&result).expect("result serializes");
    durable::replace(&dir.path().join("result.json"), |w| w.write_all(body.as_bytes()))
        .map_err(|e| format!("cannot write result for {id}: {e}"))?;
    Ok(result)
}
