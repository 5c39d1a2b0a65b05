//! One run, assembled from its manifest.
//!
//! `aaltune tune` and serve jobs start a run the same way: a fresh
//! [`RunManifest`] from [`Run::fresh`] (the paper's options for the
//! budget), or, to resume, the manifest the run directory already holds
//! ([`Run::open`]). Either way the model's tasks, the method and the
//! measurement stack ([`Run::measurer`]) are derived from the manifest
//! alone, so a resumed run continues the experiment it started with, and
//! a served job tunes exactly as `tune --out` does.

use crate::names::{device_by_name, method_by_name, model_by_name};
use crate::options::TuneOptions;
use crate::records::{RunDir, RunManifest, MANIFEST_SCHEMA_VERSION};
use crate::task_tuning::Method;
use dnn_graph::task::{extract_tasks, TuningTask};
use gpu_sim::{FaultConfig, FaultInjectingMeasurer, RetryPolicy, RobustMeasurer, SimMeasurer};

/// The device a manifest without one was tuned on.
const DEFAULT_DEVICE: &str = "gtx1080ti";

/// The one measurement stack: deterministic fault injection (transparent
/// at rate 0) under the retry and timeout policy.
pub type RunMeasurer = RobustMeasurer<FaultInjectingMeasurer<SimMeasurer>>;

/// A run: its manifest and what the manifest names, resolved.
#[derive(Debug)]
pub struct Run {
    /// What the run directory records; callers set the fields their own
    /// flags name before writing it.
    pub manifest: RunManifest,
    /// The manifest's method.
    pub method: Method,
    /// The manifest's tasks, in the model's order.
    pub tasks: Vec<TuningTask>,
}

impl Run {
    /// A fresh run of `model` (every task, or only task `task`) with
    /// `method`, on the paper's options for `n_trial` trials per task and
    /// `seed`, measured on the default device without faults. Model
    /// capture is on: it never changes trial logs, and `explain` and the
    /// report feed on it.
    ///
    /// # Errors
    ///
    /// An unknown model or method, or a task index out of range.
    pub fn fresh(
        model: &str,
        method: &str,
        task: Option<usize>,
        n_trial: usize,
        seed: u64,
    ) -> Result<Run, String> {
        let graph = model_by_name(model)?;
        let method = method_by_name(method)?;
        let mut tasks = extract_tasks(&graph);
        if let Some(i) = task {
            if i >= tasks.len() {
                return Err(format!("task index {i} out of range (model has {})", tasks.len()));
            }
            tasks = vec![tasks.swap_remove(i)];
        }
        let manifest = RunManifest {
            model: graph.name,
            method: method.label().to_string(),
            tasks: tasks.iter().map(|t| t.name.clone()).collect(),
            seed,
            options: TuneOptions { capture_model: Some(true), ..TuneOptions::paper(n_trial, seed) },
            schema_version: Some(MANIFEST_SCHEMA_VERSION),
            git_describe: None,
            wall_time_s: None,
            device: Some(DEFAULT_DEVICE.to_string()),
            fault: None,
            resumed: None,
            workers: None,
            devices: None,
            db: None,
        };
        Ok(Run { manifest, method, tasks })
    }

    /// The run `dir`'s manifest describes, to be resumed.
    ///
    /// # Errors
    ///
    /// An unreadable manifest, one written by a newer format, or one that
    /// names an unknown model or method.
    pub fn open(dir: &RunDir) -> Result<Run, String> {
        let manifest = dir.read_manifest().map_err(|e| e.to_string())?;
        if let Some(w) = manifest.schema_warning() {
            return Err(w);
        }
        let method = method_by_name(&manifest.method)?;
        let mut tasks = extract_tasks(&model_by_name(&manifest.model)?);
        tasks.retain(|t| manifest.tasks.contains(&t.name));
        Ok(Run { manifest, method, tasks })
    }

    /// The simulated device's name, as the manifest spells it.
    #[must_use]
    pub fn device(&self) -> &str {
        self.manifest.device.as_deref().unwrap_or(DEFAULT_DEVICE)
    }

    /// The measurement stack the manifest's device, fault stream and
    /// retry options describe.
    ///
    /// # Errors
    ///
    /// An unknown device.
    pub fn measurer(&self) -> Result<RunMeasurer, String> {
        let opts = &self.manifest.options;
        let policy = RetryPolicy {
            max_retries: opts.max_retries_or_default(),
            trial_timeout_ms: opts.trial_timeout_ms.unwrap_or(0.0),
        };
        let fault = self.manifest.fault.unwrap_or_else(FaultConfig::off);
        let sim = SimMeasurer::new(device_by_name(self.device())?);
        Ok(RobustMeasurer::new(FaultInjectingMeasurer::new(sim, fault), policy))
    }
}
