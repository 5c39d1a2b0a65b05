//! Regenerates Table I: end-to-end inference latency and variance of the
//! five paper models under AutoTVM / BTED / BTED+BAO.
//!
//! ```text
//! cargo run --release -p bench --bin table1 -- [--n-trial 768] [--trials 3] \
//!     [--runs 600] [--seed 0] [--workers N] [--batch-size K] [--out results] \
//!     [--models all|fast] [--trace FILE] [--quiet] [--json]
//! ```
//!
//! `--models fast` restricts to the two cheapest models for a quick pass.

use active_learning::TuneOptions;
use bench::args::Args;
use bench::experiments::run_table1_models;
use bench::init_telemetry;
use bench::report::{render_table1, write_json};
use dnn_graph::models;
use std::path::PathBuf;

fn main() {
    let args = Args::from_env();
    let tel = init_telemetry(&args);
    let n_trial: usize = args.get("n-trial", 768);
    let trials: usize = args.get("trials", 3);
    let runs: usize = args.get("runs", 600);
    let seed: u64 = args.get("seed", 0);
    let out: PathBuf = PathBuf::from(args.get_str("out", "results"));
    let which = args.get_str("models", "all");

    let graphs = match which.as_str() {
        "all" => models::paper_models(1),
        "fast" => vec![models::mobilenet_v1(1), models::squeezenet_v1_1(1)],
        other => panic!("unknown --models `{other}` (use all|fast)"),
    };

    let workers: usize = args.get("workers", 1);
    bench::experiments::set_workers(workers);
    tel.report(|| {
        format!(
            "table1: n_trial={n_trial} trials={trials} runs={runs} seed={seed} \
             models={which} workers={workers}"
        )
    });
    let mut opts = TuneOptions::paper(n_trial, seed);
    opts.batch_size = args.get("batch-size", opts.batch_size);
    let data = run_table1_models(&graphs, &opts, trials, runs);
    print!("{}", render_table1(&data));
    write_json(&out, "table1.json", &data).expect("write results");
    tel.report(|| format!("wrote {}", out.join("table1.json").display()));
    tel.flush();
}
