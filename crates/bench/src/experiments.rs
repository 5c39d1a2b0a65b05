//! Drivers for every figure and table in the paper's evaluation.

use active_learning::{tune_model, tune_task, Method, ModelTuneResult, TuneOptions};
use dnn_graph::models;
use dnn_graph::task::{extract_tasks, TuningTask};
use executor::run_ordered;
use gpu_sim::{GpuDevice, SimMeasurer};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use trace_analysis::stats::mean;

/// Worker threads shared by every experiment driver, set once by the bench
/// binaries from `--workers` (default 1 = serial). Worker count never
/// changes results: each `(task, method, trial)` unit is independently
/// seeded and results fold in unit order via [`executor::run_ordered`].
static WORKERS: AtomicUsize = AtomicUsize::new(1);

/// Relative change in percent: `100 * (new - base) / base`; 0.0 when
/// `base` is 0.
fn delta_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (new - base) / base
    }
}

/// Sets the worker-thread count for all experiment drivers.
pub fn set_workers(n: usize) {
    WORKERS.store(n.max(1), Ordering::SeqCst);
}

fn workers() -> usize {
    WORKERS.load(Ordering::SeqCst)
}

/// Simulated test device — the paper's GTX 1080 Ti.
#[must_use]
pub fn paper_device() -> GpuDevice {
    GpuDevice::gtx_1080_ti()
}

fn measurer(trial_seed: u64) -> SimMeasurer {
    SimMeasurer::new(paper_device()).with_trial_seed(trial_seed)
}

fn trial_options(base: &TuneOptions, trial: u64) -> TuneOptions {
    TuneOptions { seed: base.seed.wrapping_add(trial * 0x5DEECE66D), ..*base }
}

// ---------------------------------------------------------------------------
// Fig. 4 — convergence of GFLOPS over sampled configurations
// ---------------------------------------------------------------------------

/// One averaged convergence curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Curve {
    /// Tuning method.
    pub method: Method,
    /// Which MobileNet-v1 layer (0-based task index; the paper plots 0, 1).
    pub layer: usize,
    /// Mean best-so-far GFLOPS after each measurement, averaged over trials.
    pub curve: Vec<f64>,
}

/// All curves of Fig. 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Data {
    /// Curves for each (layer, method).
    pub curves: Vec<Fig4Curve>,
    /// Measurement budget per run.
    pub n_trial: usize,
    /// Trials averaged.
    pub trials: usize,
}

/// Runs the Fig. 4 experiment: convergence on MobileNet-v1's first two
/// layers, early stopping disabled so curves span the whole budget.
#[must_use]
pub fn run_fig4(n_trial: usize, trials: usize, seed: u64) -> Fig4Data {
    let tasks = extract_tasks(&models::mobilenet_v1(1));
    let base = TuneOptions { n_trial, early_stopping: usize::MAX, seed, ..TuneOptions::default() };
    let tel = telemetry::global();
    // One unit per (layer, method, trial), fanned out over the worker pool
    // and folded back in unit order, so the averaged curves are identical
    // to the serial loop at any worker count.
    let units: Vec<(usize, Method, u64)> = (0..tasks.len().min(2))
        .flat_map(|layer| {
            Method::PAPER_ARMS
                .into_iter()
                .flat_map(move |method| (0..trials as u64).map(move |t| (layer, method, t)))
        })
        .collect();
    let runs = run_ordered(units, workers(), |_, (layer, method, t)| {
        tel.report(|| format!("fig4: layer {} {method} trial {t}", layer + 1));
        let opts = trial_options(&base, t);
        let m = measurer(opts.seed);
        let r = tune_task(&tasks[layer], &m, method, &opts);
        (r.log.convergence_curve(), r.best_gflops)
    });
    let mut runs = runs.into_iter();
    let mut curves = Vec::new();
    for layer in 0..tasks.len().min(2) {
        for method in Method::PAPER_ARMS {
            let mut sum = vec![0.0f64; n_trial];
            for _ in 0..trials {
                let (c, best) = runs.next().expect("one run per unit");
                for (i, s) in sum.iter_mut().enumerate() {
                    // Hold the final value if the run ended early.
                    *s += c.get(i).copied().unwrap_or(best);
                }
            }
            let curve = sum.into_iter().map(|s| s / trials as f64).collect();
            curves.push(Fig4Curve { method, layer, curve });
        }
    }
    Fig4Data { curves, n_trial, trials }
}

// ---------------------------------------------------------------------------
// Fig. 5 — per-task sampled-config counts and GFLOPS on MobileNet-v1
// ---------------------------------------------------------------------------

/// Per-task, per-method aggregate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Cell {
    /// Tuning method.
    pub method: Method,
    /// Mean number of configurations sampled (Fig. 5(a)).
    pub num_configs: f64,
    /// Mean best GFLOPS (absolute).
    pub gflops: f64,
    /// GFLOPS as a percentage of AutoTVM's on the same task (Fig. 5(b)).
    pub gflops_pct: f64,
}

/// One task row (T1..T19).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Task label, e.g. `"T3"`.
    pub task: String,
    /// One cell per method, in [`Method::PAPER_ARMS`] order.
    pub cells: Vec<Fig5Cell>,
}

/// The full Fig. 5 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Data {
    /// Rows T1..T19 followed by the AVG row.
    pub rows: Vec<Fig5Row>,
    /// Trials averaged.
    pub trials: usize,
}

/// Runs the Fig. 5 experiment over all 19 MobileNet-v1 tasks.
#[must_use]
pub fn run_fig5(base: &TuneOptions, trials: usize) -> Fig5Data {
    let tasks = extract_tasks(&models::mobilenet_v1(1));
    run_fig5_tasks(&tasks, base, trials)
}

/// Fig. 5 over an arbitrary task list (used by the criterion smoke bench).
#[must_use]
pub fn run_fig5_tasks(tasks: &[TuningTask], base: &TuneOptions, trials: usize) -> Fig5Data {
    let tel = telemetry::global();
    let units: Vec<(usize, Method, u64)> = (0..tasks.len())
        .flat_map(|ti| {
            Method::PAPER_ARMS
                .into_iter()
                .flat_map(move |method| (0..trials as u64).map(move |t| (ti, method, t)))
        })
        .collect();
    let runs = run_ordered(units, workers(), |_, (ti, method, t)| {
        tel.report(|| format!("fig5: task T{} of {} — {method} trial {t}", ti + 1, tasks.len()));
        let opts = trial_options(base, t);
        let m = measurer(opts.seed);
        let r = tune_task(&tasks[ti], &m, method, &opts);
        (r.num_measured as f64, r.best_gflops)
    });
    let mut runs = runs.into_iter();
    let mut rows = Vec::with_capacity(tasks.len() + 1);
    for ti in 0..tasks.len() {
        let mut cells = Vec::new();
        for method in Method::PAPER_ARMS {
            let mut configs = Vec::new();
            let mut gflops = Vec::new();
            for _ in 0..trials {
                let (n, g) = runs.next().expect("one run per unit");
                configs.push(n);
                gflops.push(g);
            }
            cells.push(Fig5Cell {
                method,
                num_configs: mean(&configs),
                gflops: mean(&gflops),
                gflops_pct: 0.0, // filled below once AutoTVM's cell exists
            });
        }
        let autotvm_gflops = cells[0].gflops.max(1e-9);
        for c in &mut cells {
            c.gflops_pct = 100.0 * c.gflops / autotvm_gflops;
        }
        rows.push(Fig5Row { task: format!("T{}", ti + 1), cells });
    }
    // AVG row: mean across tasks per method.
    let avg_cells: Vec<Fig5Cell> = (0..Method::PAPER_ARMS.len())
        .map(|mi| {
            let configs: Vec<f64> = rows.iter().map(|r| r.cells[mi].num_configs).collect();
            let gflops: Vec<f64> = rows.iter().map(|r| r.cells[mi].gflops).collect();
            let pct: Vec<f64> = rows.iter().map(|r| r.cells[mi].gflops_pct).collect();
            Fig5Cell {
                method: Method::PAPER_ARMS[mi],
                num_configs: mean(&configs),
                gflops: mean(&gflops),
                gflops_pct: mean(&pct),
            }
        })
        .collect();
    rows.push(Fig5Row { task: "AVG".to_string(), cells: avg_cells });
    Fig5Data { rows, trials }
}

// ---------------------------------------------------------------------------
// Table I — end-to-end latency and variance on the five models
// ---------------------------------------------------------------------------

/// One method's aggregate on one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Cell {
    /// Tuning method.
    pub method: Method,
    /// Mean end-to-end latency (ms) across trials.
    pub latency_ms: f64,
    /// Mean latency variance across trials.
    pub variance: f64,
    /// Latency change vs AutoTVM in percent (negative = faster).
    pub latency_delta_pct: f64,
    /// Variance change vs AutoTVM in percent.
    pub variance_delta_pct: f64,
}

/// One model row of Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Model name.
    pub model: String,
    /// Cells in [`Method::PAPER_ARMS`] order.
    pub cells: Vec<Table1Cell>,
}

/// The full Table I dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Data {
    /// Five model rows followed by the Average row.
    pub rows: Vec<Table1Row>,
    /// Trials averaged (the paper uses 10).
    pub trials: usize,
    /// End-to-end runs per trial (the paper uses 600).
    pub runs: usize,
}

/// Runs Table I on the given models (pass [`models::paper_models`] for the
/// full table).
#[must_use]
pub fn run_table1_models(
    graphs: &[dnn_graph::Graph],
    base: &TuneOptions,
    trials: usize,
    runs: usize,
) -> Table1Data {
    let tel = telemetry::global();
    let units: Vec<(usize, Method, u64)> = (0..graphs.len())
        .flat_map(|gi| {
            Method::PAPER_ARMS
                .into_iter()
                .flat_map(move |method| (0..trials as u64).map(move |t| (gi, method, t)))
        })
        .collect();
    let outcomes = run_ordered(units, workers(), |_, (gi, method, t)| {
        tel.report(|| format!("table1: {} {method} trial {t}", graphs[gi].name));
        let opts = trial_options(base, t);
        let m = measurer(opts.seed);
        let r: ModelTuneResult = tune_model(&graphs[gi], &m, method, &opts, runs);
        (r.latency.mean_ms, r.latency.variance)
    });
    let mut outcomes = outcomes.into_iter();
    let mut rows = Vec::with_capacity(graphs.len() + 1);
    for graph in graphs {
        let mut cells = Vec::new();
        for method in Method::PAPER_ARMS {
            let mut lat = Vec::new();
            let mut var = Vec::new();
            for _ in 0..trials {
                let (l, v) = outcomes.next().expect("one outcome per unit");
                lat.push(l);
                var.push(v);
            }
            cells.push(Table1Cell {
                method,
                latency_ms: mean(&lat),
                variance: mean(&var),
                latency_delta_pct: 0.0,
                variance_delta_pct: 0.0,
            });
        }
        let (base_lat, base_var) = (cells[0].latency_ms, cells[0].variance);
        for c in &mut cells {
            c.latency_delta_pct = delta_pct(base_lat, c.latency_ms);
            c.variance_delta_pct = delta_pct(base_var, c.variance);
        }
        rows.push(Table1Row { model: graph.name.clone(), cells });
    }
    // Average row (the paper averages the metric columns across models).
    let avg: Vec<Table1Cell> = (0..Method::PAPER_ARMS.len())
        .map(|mi| {
            let lat: Vec<f64> = rows.iter().map(|r| r.cells[mi].latency_ms).collect();
            let var: Vec<f64> = rows.iter().map(|r| r.cells[mi].variance).collect();
            Table1Cell {
                method: Method::PAPER_ARMS[mi],
                latency_ms: mean(&lat),
                variance: mean(&var),
                latency_delta_pct: 0.0,
                variance_delta_pct: 0.0,
            }
        })
        .collect();
    let mut avg = avg;
    let (base_lat, base_var) = (avg[0].latency_ms, avg[0].variance);
    for c in &mut avg {
        c.latency_delta_pct = delta_pct(base_lat, c.latency_ms);
        c.variance_delta_pct = delta_pct(base_var, c.variance);
    }
    rows.push(Table1Row { model: "Average".to_string(), cells: avg });
    Table1Data { rows, trials, runs }
}

/// Full Table I over the paper's five models.
#[must_use]
pub fn run_table1(base: &TuneOptions, trials: usize, runs: usize) -> Table1Data {
    run_table1_models(&models::paper_models(1), base, trials, runs)
}

// ---------------------------------------------------------------------------
// Ablations — design-choice sweeps called out in DESIGN.md
// ---------------------------------------------------------------------------

/// Result of one ablation setting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Human-readable setting label, e.g. `"gamma=4"`.
    pub setting: String,
    /// Mean best GFLOPS over trials and tasks.
    pub gflops: f64,
    /// Mean configurations measured.
    pub num_configs: f64,
}

/// Sweeps the bootstrap-resample count Γ of BAO.
#[must_use]
pub fn run_ablation_gamma(
    gammas: &[usize],
    base: &TuneOptions,
    task_indices: &[usize],
    trials: usize,
) -> Vec<AblationPoint> {
    let tasks = extract_tasks(&models::mobilenet_v1(1));
    gammas
        .iter()
        .map(|&g| {
            let opts =
                TuneOptions { bao: active_learning::BaoOptions { gamma: g, ..base.bao }, ..*base };
            sweep_point(format!("gamma={g}"), &tasks, task_indices, &opts, trials)
        })
        .collect()
}

/// Sweeps the adaptive-neighborhood parameters (η, τ, R).
#[must_use]
pub fn run_ablation_scope(
    settings: &[(f64, f64, f64)],
    base: &TuneOptions,
    task_indices: &[usize],
    trials: usize,
) -> Vec<AblationPoint> {
    let tasks = extract_tasks(&models::mobilenet_v1(1));
    settings
        .iter()
        .map(|&(eta, tau, radius)| {
            let opts = TuneOptions {
                bao: active_learning::BaoOptions { eta, tau, radius, ..base.bao },
                ..*base
            };
            sweep_point(
                format!("eta={eta},tau={tau},R={radius}"),
                &tasks,
                task_indices,
                &opts,
                trials,
            )
        })
        .collect()
}

/// Compares initialization strategies: random (AutoTVM), single-batch TED
/// (`B = 1`), and full BTED.
#[must_use]
pub fn run_ablation_init(
    base: &TuneOptions,
    task_indices: &[usize],
    trials: usize,
) -> Vec<AblationPoint> {
    let tasks = extract_tasks(&models::mobilenet_v1(1));
    let mut out = Vec::new();
    // Random init = stock AutoTVM arm.
    out.push(sweep_point_method(
        "init=random".to_string(),
        Method::AutoTvm,
        &tasks,
        task_indices,
        base,
        trials,
    ));
    // TED with a single batch.
    let ted_opts =
        TuneOptions { bted: active_learning::BtedOptions { num_batches: 1, ..base.bted }, ..*base };
    out.push(sweep_point_method(
        "init=ted(B=1)".to_string(),
        Method::Bted,
        &tasks,
        task_indices,
        &ted_opts,
        trials,
    ));
    // Full BTED.
    out.push(sweep_point_method(
        format!("init=bted(B={})", base.bted.num_batches),
        Method::Bted,
        &tasks,
        task_indices,
        base,
        trials,
    ));
    out
}

fn sweep_point(
    setting: String,
    tasks: &[TuningTask],
    task_indices: &[usize],
    opts: &TuneOptions,
    trials: usize,
) -> AblationPoint {
    sweep_point_method(setting, Method::BtedBao, tasks, task_indices, opts, trials)
}

fn sweep_point_method(
    setting: String,
    method: Method,
    tasks: &[TuningTask],
    task_indices: &[usize],
    opts: &TuneOptions,
    trials: usize,
) -> AblationPoint {
    telemetry::global().report(|| format!("ablation: {setting}"));
    let units: Vec<(usize, u64)> =
        task_indices.iter().flat_map(|&ti| (0..trials as u64).map(move |t| (ti, t))).collect();
    let outcomes = run_ordered(units, workers(), |_, (ti, t)| {
        let topts = trial_options(opts, t);
        let m = measurer(topts.seed);
        let r = tune_task(&tasks[ti], &m, method, &topts);
        (r.best_gflops, r.num_measured as f64)
    });
    let (gflops, configs): (Vec<f64>, Vec<f64>) = outcomes.into_iter().unzip();
    AblationPoint { setting, gflops: mean(&gflops), num_configs: mean(&configs) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> TuneOptions {
        TuneOptions::smoke()
    }

    #[test]
    fn delta_pct_signs() {
        assert!((delta_pct(2.0, 1.0) + 50.0).abs() < 1e-12);
        assert!((delta_pct(2.0, 3.0) - 50.0).abs() < 1e-12);
        assert_eq!(delta_pct(0.0, 3.0), 0.0);
    }

    #[test]
    fn fig4_smoke_produces_monotone_curves() {
        let d = run_fig4(48, 1, 3);
        assert_eq!(d.curves.len(), 6); // 2 layers x 3 methods
        for c in &d.curves {
            assert_eq!(c.curve.len(), 48);
            for w in c.curve.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "curve must be non-decreasing");
            }
        }
    }

    #[test]
    fn fig5_smoke_has_avg_row_and_pct() {
        let tasks = extract_tasks(&models::mobilenet_v1(1));
        let d = run_fig5_tasks(&tasks[..2], &smoke(), 1);
        assert_eq!(d.rows.len(), 3);
        assert_eq!(d.rows.last().unwrap().task, "AVG");
        for row in &d.rows {
            assert!((row.cells[0].gflops_pct - 100.0).abs() < 1e-6);
        }
    }

    #[test]
    fn table1_smoke_on_one_model() {
        let graphs = vec![models::squeezenet_v1_1(1)];
        let opts = TuneOptions { n_trial: 32, early_stopping: 32, ..smoke() };
        let d = run_table1_models(&graphs, &opts, 1, 50);
        assert_eq!(d.rows.len(), 2); // model + Average
        let cell = &d.rows[0].cells[0];
        assert!(cell.latency_ms > 0.0);
        assert!((d.rows[0].cells[0].latency_delta_pct).abs() < 1e-9);
    }

    #[test]
    fn ablation_gamma_smoke() {
        let pts = run_ablation_gamma(&[1, 2], &smoke(), &[0], 1);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.gflops > 0.0));
    }
}
