//! Ablation studies on the design choices DESIGN.md calls out:
//!
//! * **Γ sweep** — how many bootstrap resamples BAO needs (paper: Γ = 2).
//! * **scope sweep** — the adaptive-neighborhood parameters (η, τ, R).
//! * **init sweep** — random vs single-batch TED vs full BTED.
//!
//! ```text
//! cargo run --release -p bench --bin ablation -- [--n-trial 512] \
//!     [--trials 2] [--seed 0] [--workers N] [--tasks 0,3,6] [--out results] \
//!     [--trace FILE] [--quiet] [--json]
//! ```

use active_learning::TuneOptions;
use bench::args::Args;
use bench::experiments::{run_ablation_gamma, run_ablation_init, run_ablation_scope};
use bench::init_telemetry;
use bench::report::write_json;
use std::path::PathBuf;

fn main() {
    let args = Args::from_env();
    let tel = init_telemetry(&args);
    let n_trial: usize = args.get("n-trial", 512);
    let trials: usize = args.get("trials", 2);
    let seed: u64 = args.get("seed", 0);
    let out: PathBuf = PathBuf::from(args.get_str("out", "results"));
    let tasks: Vec<usize> = args
        .get_str("tasks", "0,3,6")
        .split(',')
        .map(|s| s.trim().parse().expect("task index"))
        .collect();

    let workers: usize = args.get("workers", 1);
    bench::experiments::set_workers(workers);
    tel.report(|| {
        format!(
            "ablation: n_trial={n_trial} trials={trials} tasks={tasks:?} seed={seed} \
             workers={workers}"
        )
    });
    let opts = TuneOptions::paper(n_trial, seed);

    let gamma = run_ablation_gamma(&[1, 2, 4, 8], &opts, &tasks, trials);
    println!("-- BAO bootstrap resamples (paper: gamma=2) --");
    for p in &gamma {
        println!("{:<24} gflops={:>9.1}  configs={:>6.0}", p.setting, p.gflops, p.num_configs);
    }

    let scope = run_ablation_scope(
        &[
            (0.05, 1.5, 3.0), // paper setting
            (0.05, 1.5, 1.0), // tight scope
            (0.05, 1.5, 6.0), // loose scope
            (0.05, 3.0, 3.0), // aggressive widening
            (0.50, 1.5, 3.0), // widen almost every step
        ],
        &opts,
        &tasks,
        trials,
    );
    println!("-- adaptive scope (eta, tau, R); paper: (0.05, 1.5, 3) --");
    for p in &scope {
        println!("{:<24} gflops={:>9.1}  configs={:>6.0}", p.setting, p.gflops, p.num_configs);
    }

    let init = run_ablation_init(&opts, &tasks, trials);
    println!("-- initialization strategy --");
    for p in &init {
        println!("{:<24} gflops={:>9.1}  configs={:>6.0}", p.setting, p.gflops, p.num_configs);
    }

    write_json(&out, "ablation.json", &(gamma, scope, init)).expect("write results");
    tel.report(|| format!("wrote {}", out.join("ablation.json").display()));
    tel.flush();
}
