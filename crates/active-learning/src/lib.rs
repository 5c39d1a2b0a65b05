//! The paper's contribution: an advanced active-learning framework for DNN
//! hardware deployment optimization.
//!
//! Two methods, embedded into an AutoTVM-style tuning loop:
//!
//! * **BTED** ([`bted`]) — batch transductive experimental design
//!   (Algorithms 1–2): build the initial measurement set by greedy TED over
//!   random batches, so the evaluation function starts from diverse,
//!   representative configurations instead of blind random samples.
//! * **BAO** ([`bao`]) — Bootstrap-guided adaptive optimization
//!   (Algorithms 3–4): in each step, fit Γ evaluation functions on bootstrap
//!   resamples of the measured set, pick the candidate maximizing their sum
//!   within an adaptive neighborhood of the previous selection, and widen
//!   the neighborhood when relative improvement stalls.
//!
//! The surrounding harness reproduces AutoTVM ([`tuner::XgbTuner`]):
//! XGBoost-style cost model ([`evaluator::GbtEvaluator`]), simulated
//! annealing candidate search ([`sa`]), ε-greedy batch selection and early
//! stopping. [`task_tuning::tune_task`] runs one node; [`model_tuning`]
//! tunes whole models and reports the end-to-end latency statistics of
//! Table I. [`session::Session`] is the crash-safe run engine behind both
//! `aaltune tune` and serve jobs: durable logs, a progress journal,
//! replay resume, and the tuning-database seed and upsert. Both assemble
//! what a session runs from one [`run::Run`]: the manifest, its tasks and
//! the measurement stack.
//!
//! # Example
//!
//! ```
//! use dnn_graph::{models, task::extract_tasks};
//! use gpu_sim::{GpuDevice, SimMeasurer};
//! use active_learning::{tune_task, Method, TuneOptions};
//!
//! let task = extract_tasks(&models::mobilenet_v1(1)).remove(0);
//! let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
//! let opts = TuneOptions { n_trial: 96, seed: 1, ..TuneOptions::default() };
//! let autotvm = tune_task(&task, &measurer, Method::AutoTvm, &opts);
//! let ours = tune_task(&task, &measurer, Method::BtedBao, &opts);
//! assert!(autotvm.best_gflops > 0.0 && ours.best_gflops > 0.0);
//! ```

pub mod bao;
pub mod bs;
pub mod bted;
pub mod evaluator;
pub mod model_quality;
pub mod model_tuning;
pub mod names;
pub mod options;
pub mod records;
pub mod run;
pub mod sa;
pub mod session;
pub mod task_tuning;
pub mod ted;
pub mod tuner;

pub use bao::BaoOptions;
pub use bted::BtedOptions;
pub use evaluator::{Evaluator, GbtEvaluator, RidgeEvaluator};
pub use model_quality::{
    read_capture, read_model_quality, write_model_quality, ModelPredRecord, ProposalDiag,
    MODEL_QUALITY_FILE, MODEL_QUALITY_PARTS_DIR, MODEL_QUALITY_SCHEMA_VERSION,
};
pub use model_tuning::{tune_model, tune_model_parallel, ModelTuneResult};
pub use names::{device_by_name, method_by_name, model_by_name};
pub use options::TuneOptions;
pub use records::{
    Checkpoint, DbProvenance, LogWriter, ProgressEntry, ProgressJournal, RecoveredLog, RunDir,
    RunManifest, TrialRecord, TuningLog, WarmSeed, CHECKPOINT_SCHEMA_VERSION,
    MANIFEST_SCHEMA_VERSION,
};
pub use run::{Run, RunMeasurer};
pub use session::{DbPolicy, Session, SessionDb};
pub use task_tuning::{tune_task, tune_task_with, Method, TaskTuneResult, TuneHooks};
