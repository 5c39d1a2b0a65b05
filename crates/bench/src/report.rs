//! Text rendering of experiment results (the "same rows/series the paper
//! reports") and JSON persistence.

use crate::experiments::{Fig4Data, Fig5Data, Table1Data};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Serializes `value` as pretty JSON into `dir/name`.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn write_json<T: serde::Serialize>(dir: &Path, name: &str, value: &T) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let body = serde_json::to_string_pretty(value).expect("experiment data serializes");
    telemetry::durable::replace(&dir.join(name), |w| w.write_all(body.as_bytes()))
}

/// Renders Fig. 4 as a text table: one row per checkpoint, one column per
/// (layer, method) curve.
#[must_use]
pub fn render_fig4(d: &Fig4Data) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 4 — GFLOPS convergence on MobileNet-v1 layers 1-2 \
         ({} trials averaged, {} measurements)",
        d.trials, d.n_trial
    );
    let mut header = format!("{:>8}", "#conf");
    for c in &d.curves {
        let _ = write!(header, " | {:>14}", format!("L{} {}", c.layer + 1, c.method));
    }
    let _ = writeln!(out, "{header}");
    let checkpoints: Vec<usize> = (0..d.n_trial)
        .filter(|i| (i + 1) % (d.n_trial / 16).max(1) == 0 || *i + 1 == d.n_trial)
        .collect();
    for i in checkpoints {
        let mut row = format!("{:>8}", i + 1);
        for c in &d.curves {
            let _ = write!(row, " | {:>14.1}", c.curve[i]);
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Renders Fig. 5 as the paper's two panels: configuration counts and
/// GFLOPS percentages per task.
#[must_use]
pub fn render_fig5(d: &Fig5Data) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 5 — MobileNet-v1 per-task results ({} trials averaged)", d.trials);
    let methods: Vec<String> = d.rows[0].cells.iter().map(|c| c.method.to_string()).collect();
    let _ = writeln!(out, "(a) number of sampled configurations");
    let mut header = format!("{:>5}", "task");
    for m in &methods {
        let _ = write!(header, " | {m:>10}");
    }
    let _ = writeln!(out, "{header}");
    for row in &d.rows {
        let mut line = format!("{:>5}", row.task);
        for c in &row.cells {
            let _ = write!(line, " | {:>10.0}", c.num_configs);
        }
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "(b) GFLOPS relative to AutoTVM (%)");
    let _ = writeln!(out, "{header}");
    for row in &d.rows {
        let mut line = format!("{:>5}", row.task);
        for c in &row.cells {
            let _ = write!(line, " | {:>10.2}", c.gflops_pct);
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Renders Table I with the paper's columns: latency, variance, and Δ%
/// versus AutoTVM for each method.
#[must_use]
pub fn render_table1(d: &Table1Data) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I — end-to-end inference latency and variance \
         ({} trials x {} runs)",
        d.trials, d.runs
    );
    let _ = writeln!(
        out,
        "{:<16} | {:>12} {:>10} | {:>12} {:>7} {:>10} {:>8} | {:>12} {:>7} {:>10} {:>8}",
        "Model",
        "AutoTVM(ms)",
        "Var",
        "BTED(ms)",
        "d%",
        "Var",
        "d%",
        "B+BAO(ms)",
        "d%",
        "Var",
        "d%"
    );
    for row in &d.rows {
        let a = &row.cells[0];
        let b = &row.cells[1];
        let c = &row.cells[2];
        let _ = writeln!(
            out,
            "{:<16} | {:>12.4} {:>10.4} | {:>12.4} {:>7.2} {:>10.4} {:>8.2} | {:>12.4} {:>7.2} {:>10.4} {:>8.2}",
            row.model,
            a.latency_ms,
            a.variance,
            b.latency_ms,
            b.latency_delta_pct,
            b.variance,
            b.variance_delta_pct,
            c.latency_ms,
            c.latency_delta_pct,
            c.variance,
            c.variance_delta_pct,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_fig4;

    #[test]
    fn fig4_renders_all_columns() {
        let d = run_fig4(16, 1, 1);
        let s = render_fig4(&d);
        assert!(s.contains("L1 autotvm"));
        assert!(s.contains("L2 bted+bao"));
    }

    #[test]
    fn fig5_renders_both_panels() {
        use crate::experiments::run_fig5_tasks;
        use active_learning::TuneOptions;
        use dnn_graph::{models, task::extract_tasks};
        let tasks = extract_tasks(&models::mobilenet_v1(1));
        let d = run_fig5_tasks(&tasks[..1], &TuneOptions::smoke(), 1);
        let s = render_fig5(&d);
        assert!(s.contains("(a) number of sampled configurations"));
        assert!(s.contains("(b) GFLOPS relative to AutoTVM"));
        assert!(s.contains("AVG"));
    }

    #[test]
    fn table1_renders_delta_columns() {
        use crate::experiments::run_table1_models;
        use active_learning::TuneOptions;
        use dnn_graph::models;
        let opts = TuneOptions { n_trial: 24, early_stopping: 24, ..TuneOptions::smoke() };
        let d = run_table1_models(&[models::alexnet(1)], &opts, 1, 30);
        let s = render_table1(&d);
        assert!(s.contains("alexnet"));
        assert!(s.contains("Average"));
        assert!(s.contains("AutoTVM(ms)"));
    }

    #[test]
    fn write_json_round_trips() {
        let d = run_fig4(8, 1, 2);
        let dir = std::env::temp_dir().join("aaltune-report-test");
        write_json(&dir, "fig4.json", &d).unwrap();
        let body = std::fs::read_to_string(dir.join("fig4.json")).unwrap();
        let back: crate::experiments::Fig4Data = serde_json::from_str(&body).unwrap();
        assert_eq!(back.curves.len(), d.curves.len());
    }
}
