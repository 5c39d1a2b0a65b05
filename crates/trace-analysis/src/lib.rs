//! Cross-run analysis for aaltune: run listings, statistical regression
//! detection, and self-contained HTML tuning reports.
//!
//! The telemetry crate records what *one* run did; this crate answers
//! questions that span runs:
//!
//! - **Runs** ([`runs`]): `aaltune runs DIR` reads a [`runs::RunEntry`]
//!   from each run directory under DIR, so it lists and filters `tune
//!   --out` runs and served jobs from the directories themselves.
//! - **Comparison** ([`compare`]): `aaltune compare A B` aligns two run
//!   directories task-by-task and bootstraps confidence intervals over the
//!   recorded trial outcomes ([`stats`]), classifying each task as
//!   improved, regressed, or noise — the basis for CI gating via
//!   `--fail-on-regress`.
//! - **Reports** ([`report`]): `aaltune report RUN [BASELINE]` renders one
//!   self-contained HTML file with convergence curves drawn from the trial
//!   logs, and a per-phase flamegraph and the BAO/SA adaptation panels
//!   from the run's [`telemetry::TraceSummary`] — the same one-pass fold
//!   that `aaltune trace` prints and the `runs` health column reads.
//! - **Model insight** ([`model_insight`]): `aaltune explain RUN` scores
//!   the surrogate round by round — rank correlation, top-k recall,
//!   calibration error, cumulative regret — from the run's
//!   `model_quality.jsonl` capture stream.

#![warn(missing_docs)]

pub mod compare;
pub mod model_insight;
pub mod report;
pub mod runs;
pub mod stats;

pub use compare::{
    compare_logs, compare_model_quality, compare_run_dirs, CompareOptions, ModelQualityComparison,
    RunComparison, TaskComparison, Verdict, RANK_CORR_REGRESS_DROP,
};
pub use model_insight::{
    analyze, render_explain, RoundQuality, TaskModelQuality, TOP_K, TRUST_RANK_CORR,
};
pub use report::{render_report, LoadedRun};
pub use runs::{git_describe, RunEntry, RunListing, RunStatus, STALE_AFTER_MS};
pub use stats::{bootstrap_mean_delta_ci, mean, variance, BootstrapCi};
