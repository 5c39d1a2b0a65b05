//! End-to-end and per-layer benchmark for `aaltune`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tune-bao-serial|tune-autotvm-model|serve-mixed> \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout: it builds the release `aaltune`
//! binary, drives it as a user does, checks its outputs, and prints one
//! JSON object as the last line of stdout. See `perfbench/README.md`.

mod checks;
mod layers;
mod openloop;
mod proc;
mod reads;
mod report;
mod serve_load;
mod stats;
mod traced;
mod tune;

use serde_json::{json, Map, Value};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let bad = |flag: &str| format!("bad value for {flag}");
    let args = Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| bad("--seed"))?,
        seconds: get("--seconds")?.parse().map_err(|_| bad("--seconds"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err(bad("--trace")),
        },
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err(bad("--seconds"));
    }
    Ok(args)
}

/// What one run found: operation counts, failed checks, and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a failed check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(e);
        }
    }

    fn to_json(&self) -> Value {
        let metrics: Map = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), json!({ "value": value, "unit": unit })))
            .collect();
        json!({
            "correct": self.problems.is_empty() && self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload.as_str();
    // Validate before building anything.
    let tune = match workload {
        "tune-bao-serial" => Some(tune::BAO_SERIAL),
        "tune-autotvm-model" => Some(tune::AUTOTVM_MODEL),
        "serve-mixed" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    let env = proc::Env::prepare(workload)?;
    match tune {
        Some(w) => tune::run(&env, &w, args),
        None => serve_load::run(&env, args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tune-bao-serial|tune-autotvm-model|serve-mixed> \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("perfbench: CHECK FAILED: {p}");
            }
            for (name, value, unit) in &outcome.metrics {
                let moves = report::moves(name).unwrap_or_default();
                eprintln!("  {name:<28} {value:>16.6} {unit:<6} {moves}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
