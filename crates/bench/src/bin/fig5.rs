//! Regenerates Fig. 5: per-task sampled-configuration counts and GFLOPS
//! (relative to AutoTVM) on the 19 MobileNet-v1 tuning tasks.
//!
//! ```text
//! cargo run --release -p bench --bin fig5 -- [--n-trial 1024] [--trials 3] \
//!     [--seed 0] [--workers N] [--batch-size K] [--out results] \
//!     [--trace FILE] [--quiet] [--json]
//! ```

use active_learning::TuneOptions;
use bench::args::Args;
use bench::experiments::run_fig5;
use bench::init_telemetry;
use bench::report::{render_fig5, write_json};
use std::path::PathBuf;

fn main() {
    let args = Args::from_env();
    let tel = init_telemetry(&args);
    let n_trial: usize = args.get("n-trial", 1024);
    let trials: usize = args.get("trials", 3);
    let seed: u64 = args.get("seed", 0);
    let out: PathBuf = PathBuf::from(args.get_str("out", "results"));

    let workers: usize = args.get("workers", 1);
    bench::experiments::set_workers(workers);
    tel.report(|| format!("fig5: n_trial={n_trial} trials={trials} seed={seed} workers={workers}"));
    let mut opts = TuneOptions::paper(n_trial, seed);
    opts.batch_size = args.get("batch-size", opts.batch_size);
    let data = run_fig5(&opts, trials);
    print!("{}", render_fig5(&data));
    write_json(&out, "fig5.json", &data).expect("write results");
    tel.report(|| format!("wrote {}", out.join("fig5.json").display()));
    tel.flush();
}
