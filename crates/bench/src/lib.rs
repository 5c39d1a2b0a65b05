//! Experiment drivers regenerating the paper's figures and tables.
//!
//! Every artifact of the evaluation section has a driver here and a binary
//! under `src/bin/` that prints the same rows/series the paper reports:
//!
//! | artifact | driver | binary |
//! |----------|--------|--------|
//! | Fig. 4 (convergence, MobileNet-v1 layers 1–2) | [`experiments::run_fig4`] | `fig4` |
//! | Fig. 5 (per-task configs & GFLOPS, 19 tasks) | [`experiments::run_fig5`] | `fig5` |
//! | Table I (end-to-end latency & variance, 5 models) | [`experiments::run_table1`] | `table1` |
//! | Ablations (Γ, η/τ/R, init strategy) | [`experiments::run_ablation_gamma`] et al. | `ablation` |
//!
//! Criterion benches under `benches/` time reduced-budget versions of the
//! same drivers so `cargo bench` exercises each experiment end-to-end.

pub mod args;
pub mod experiments;
pub mod plot;
pub mod report;

/// Installs the global telemetry pipeline for an experiment binary from its
/// `--trace FILE`, `--quiet`, and `--json` flags. Returns the handle so the
/// binary can flush counters and histograms into the trace before exiting.
///
/// # Panics
///
/// Panics if the trace file cannot be created.
#[must_use]
pub fn init_telemetry(args: &args::Args) -> telemetry::Telemetry {
    telemetry::install_pipeline(
        args.get_opt("trace").map(std::path::Path::new),
        args.present("quiet"),
        args.present("json"),
        false,
    )
    .expect("create trace file")
}
