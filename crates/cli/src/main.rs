//! `aaltune` — command-line auto-tuner.
//!
//! ```text
//! aaltune tasks   <model>
//! aaltune devices
//! aaltune tune    <model> [--task N] [--method autotvm|bted|bted+bao|random]
//!                         [--n-trial N] [--seed S] [--device NAME] [--log FILE]
//!                         [--out DIR] [--trace FILE] [--quiet] [--json]
//! aaltune deploy  <model> [--method M] [--n-trial N] [--runs R] [--seed S]
//!                         [--device NAME] [--trace FILE] [--quiet] [--json]
//! aaltune explain RUN_DIR
//! aaltune trace   <trace.jsonl>
//! aaltune runs    [DIR] [--model M] [--method M]
//! aaltune compare <BASE_RUN> <CAND_RUN> [--fail-on-regress] [--alpha A]
//!                         [--resamples N] [--min-effect PCT] [--boot-seed S]
//! aaltune report  <RUN> [BASELINE] [--html FILE]
//! ```
//!
//! Models: `alexnet`, `resnet18`, `vgg16`, `mobilenet_v1`, `squeezenet_v1.1`.
//!
//! `--trace` records a JSONL telemetry trace of the whole tuning loop;
//! `aaltune trace` prints its per-phase time breakdown, counters, and
//! histogram quantiles. `--out` collects manifest + logs + trace in a
//! per-run directory under `DIR`; `runs DIR` lists the run directories
//! there, read without modifying them, `compare` bootstraps per-task GFLOPS deltas between two
//! run directories (exit code 2 on a gated regression), and `report`
//! renders a self-contained HTML tuning report. `tune` also captures the
//! surrogate's per-proposal predictions into `model_quality.jsonl`
//! (`--no-capture-model` to opt out); `explain` scores them round by round.

#[macro_use]
mod out;
mod commands;
mod opts;
mod top;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(code) => ExitCode::from(code),
        // The reader of stdout stopped early (`| head`): not a failure.
        Err(_) if out::closed() => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
