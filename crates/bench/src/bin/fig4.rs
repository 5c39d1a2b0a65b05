//! Regenerates Fig. 4: GFLOPS convergence on MobileNet-v1 layers 1–2.
//!
//! ```text
//! cargo run --release -p bench --bin fig4 -- [--n-trial 1024] [--trials 3] \
//!     [--seed 0] [--workers N] [--out results] [--trace FILE] [--quiet] [--json]
//! ```

use bench::args::Args;
use bench::experiments::run_fig4;
use bench::init_telemetry;
use bench::plot::ascii_chart;
use bench::report::{render_fig4, write_json};
use std::path::PathBuf;

fn main() {
    let args = Args::from_env();
    let tel = init_telemetry(&args);
    let n_trial: usize = args.get("n-trial", 1024);
    let trials: usize = args.get("trials", 3);
    let seed: u64 = args.get("seed", 0);
    let workers: usize = args.get("workers", 1);
    bench::experiments::set_workers(workers);
    let out: PathBuf = PathBuf::from(args.get_str("out", "results"));

    tel.report(|| format!("fig4: n_trial={n_trial} trials={trials} seed={seed} workers={workers}"));
    let data = run_fig4(n_trial, trials, seed);
    print!("{}", render_fig4(&data));
    for layer in 0..2 {
        println!("\nMobileNet-v1 layer {} convergence:", layer + 1);
        let series: Vec<(String, Vec<f64>)> = data
            .curves
            .iter()
            .filter(|c| c.layer == layer)
            .map(|c| (c.method.to_string(), c.curve.clone()))
            .collect();
        print!("{}", ascii_chart(&series, 72, 14));
    }
    write_json(&out, "fig4.json", &data).expect("write results");
    tel.report(|| format!("wrote {}", out.join("fig4.json").display()));
    tel.flush();
}
