//! Executes one tuning job inside its per-job run directory.
//!
//! A job is a thin adapter over [`active_learning::Session`], the same
//! crash-safe engine behind `aaltune tune`: durable per-task logs, the
//! progress journal, replay resume, and the upsert into the tuning
//! database before each task's `Complete` line. A server killed mid-job
//! therefore continues exactly where each log ends, and the finished
//! logs are byte-identical to an uninterrupted run's.
//!
//! A job is assembled from its manifest exactly as `tune --out` is
//! ([`active_learning::Run`]): the paper's options for the spec's budget,
//! the one measurement stack, and, on resume, the options its own
//! manifest recorded rather than ones derived anew from the spec. What
//! the adapter keeps is what differs from the CLI:
//!
//! * the measurement stack runs under an executor that leases from the
//!   server's shared [`DevicePool`] under the tenant tag;
//! * a job tunes one task at a time and **cold**: it upserts but never
//!   consults the database, so its trial stream is a pure function of
//!   the spec, independent of what other tenants upserted meanwhile —
//!   which is what makes the kill -9 twin comparison in CI byte-exact;
//! * every live trial is published as a `job.trial` event, the engine's
//!   human progress lines are dropped (the server's stream is job
//!   events), and an aborted task fails the job before its upsert;
//! * `result.json` is written here.

use crate::job::JobSpec;
use active_learning::{Run, RunDir, Session, SessionDb};
use executor::{DevicePool, Executor, ExecutorConfig};
use serde_json::{json, Value};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use telemetry::durable;
use tuning_db::TuningDb;

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
    let dir = RunDir::create(jobs_root.join(id))
        .map_err(|e| format!("cannot create run dir for {id}: {e}"))?;
    // Resume iff the progress journal exists (a checkpoint-era job is
    // migrated to one first), from the manifest the job started with; its
    // completed tasks are the same advisory state `tune --resume` uses
    // (correctness rests on the logs themselves).
    let completed =
        dir.recover_progress().map_err(|e| format!("bad progress journal for {id}: {e}"))?;
    let resume = completed.is_some();
    let run = if resume {
        Run::open(&dir).map_err(|e| format!("cannot resume {id}: {e}"))?
    } else {
        let mut run = Run::fresh(&spec.model, &spec.method, spec.task, spec.n_trial, spec.seed)?;
        run.manifest.device = Some(spec.device.clone());
        run.manifest.workers = Some(workers);
        dir.write_manifest(&run.manifest)
            .map_err(|e| format!("cannot write manifest for {id}: {e}"))?;
        run
    };

    // The executor leases from the server-wide pool under the *tenant*
    // tag, so fair share and hard quotas apply across every concurrent
    // job, not per task name.
    let exec = Executor::with_pool(
        run.measurer()?,
        ExecutorConfig::for_workers(workers.max(1)),
        Arc::clone(pool),
        Some(spec.tenant.clone()),
    );
    let logs = Session {
        measurer: &exec,
        method: run.method,
        opts: run.manifest.options,
        device: run.device(),
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
    .run(&run.tasks)?;

    let summaries: Vec<Value> = run
        .tasks
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
        "method": run.method.label(),
        "seed": run.manifest.seed,
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
