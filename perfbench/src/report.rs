//! Per-layer metrics of the traced run, the self-time table, and the
//! layer-to-metric map.

use crate::layers::Probes;
use crate::stats::Summary;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which end-to-end metric each layer should move, and on which
/// workload. Printed next to the layer's numbers in every traced run.
pub const LAYER_MAP: &[(&str, &str, &str)] = &[
    ("dnn-graph", "setup_s", "all three"),
    ("schedule", "setup_s", "all three"),
    ("bted", "trials_per_s", "tune-bao-serial (zero on tune-autotvm-model)"),
    ("tuner", "trials_per_s", "tune-bao-serial"),
    ("gbt", "trials_per_s", "tune-bao-serial; via span.* on tune-autotvm-model"),
    ("gpu-sim", "trials_per_s", "all (small everywhere)"),
    ("executor", "trials_per_s / job_wall_p50_s", "tune-autotvm-model / serve-mixed"),
    ("records", "trials_per_s", "tune-autotvm-model (negligible on tune-bao-serial)"),
    ("serve", "job_wall_p50_s", "serve-mixed"),
    ("tuning-db", "serve.lookup_*", "serve-mixed"),
    ("loadgen", "validity of serve.lookup_*", "serve-mixed"),
];

/// The end-to-end metric and workload a per-layer metric maps to, from
/// the layer named by its prefix.
pub fn moves(metric: &str) -> Option<String> {
    let layer = match metric.split('.').next()? {
        "span" => "gbt",
        "admission" | "runner" => "serve",
        other => other,
    };
    LAYER_MAP.iter().find(|m| m.0 == layer).map(|m| format!("moves {} on {}", m.1, m.2))
}

/// Everything the traced run of one workload measured. Layers a workload
/// does not exercise stay at zero.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub probes: Arc<Probes>,
    /// Per-task in-process time summed over tasks (thread-seconds).
    pub task_busy_s: f64,
    /// Wall time of the traced in-process run and of its untraced twin.
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub bytes_per_trial: f64,
    /// Client-side round trips per route, seconds.
    pub best_exact: Summary,
    pub best_nearest: Summary,
    pub submit: Summary,
    pub status: Summary,
    /// Job phases seen on the event stream: submit → running, running →
    /// done.
    pub admission_wait: Summary,
    pub runner_run: Summary,
    /// `ReadHandle` replay of the run's key sequence, seconds per call.
    pub db_lookup: Summary,
    pub db_nearest: Summary,
    pub db_records: f64,
    /// Open-loop lookup latency from the due time, seconds.
    pub lookup: Summary,
    /// Closed-loop lookups per second.
    pub capacity_qps: f64,
    /// How late the open-loop generator sent, seconds.
    pub lag: Summary,
}

impl LayerReport {
    fn model_s(&self) -> f64 {
        self.probes.next_batch_model_s()
    }

    /// Every per-layer metric: (name, value, unit).
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let p = &self.probes;
        #[allow(clippy::cast_precision_loss)]
        let f = |x: u64| x as f64;
        let mean = |total: u64, n: u64| if n == 0 { 0.0 } else { f(total) / f(n) };
        let next_lat =
            Summary::new(p.next_batch_lat.lock().expect("latency lock poisoned").clone());
        vec![
            ("dnn-graph.extract_ms", p.extract.secs() * 1e3, "ms"),
            ("schedule.space_ms", p.space.secs() * 1e3, "ms"),
            ("bted.calls", f(p.bted.calls()), "count"),
            ("bted.s", p.bted.secs(), "s"),
            ("tuner.next_batch_calls", f(p.next_batch.calls()), "count"),
            ("tuner.next_batch_s", p.next_batch.secs(), "s"),
            ("tuner.next_batch_p99_ms", next_lat.p99() * 1e3, "ms"),
            ("tuner.update_s", p.update.secs(), "s"),
            ("tuner.self_s", p.next_batch.secs() - self.model_s(), "s"),
            ("gbt.fit_calls", f(p.fit.calls()), "count"),
            ("gbt.fit_s", p.fit.secs(), "s"),
            ("gbt.fit_rows_mean", mean(p.fit.items(), p.fit.calls()), "rows"),
            ("gbt.predict_calls", f(p.predict.calls()), "count"),
            ("gbt.predict_s", p.predict.secs(), "s"),
            ("gbt.predict_rows", f(p.predict.items()), "rows"),
            ("span.xgb.fit_s", p.span_s("xgb.fit"), "s"),
            ("span.sa.search_s", p.span_s("sa.search"), "s"),
            ("span.gbt.predict_s", p.span_s("gbt.predict"), "s"),
            ("gpu-sim.measure_calls", f(p.measure.calls()), "count"),
            ("gpu-sim.measure_s", p.measure.secs(), "s"),
            (
                "gpu-sim.valid_frac",
                mean(p.measure_valid.load(Ordering::Relaxed), p.measure.calls()),
                "ratio",
            ),
            ("executor.batches", f(p.batch.calls()), "count"),
            ("executor.batch_s", p.batch.secs(), "s"),
            ("executor.overhead_s", p.batch.secs() - p.measure.secs(), "s"),
            ("records.append_calls", f(p.append.calls()), "count"),
            ("records.append_s", p.append.secs(), "s"),
            ("records.trace_s", p.trace.secs(), "s"),
            ("records.checkpoint_s", p.checkpoint.secs(), "s"),
            ("records.model_quality_s", p.model_quality.secs(), "s"),
            ("records.bytes_per_trial", self.bytes_per_trial, "B"),
            ("serve.best_exact_p50_us", self.best_exact.p50() * 1e6, "us"),
            ("serve.best_exact_p99_us", self.best_exact.p99() * 1e6, "us"),
            ("serve.best_nearest_p50_us", self.best_nearest.p50() * 1e6, "us"),
            ("serve.best_nearest_p99_us", self.best_nearest.p99() * 1e6, "us"),
            ("serve.submit_p50_ms", self.submit.p50() * 1e3, "ms"),
            ("serve.status_p50_ms", self.status.p50() * 1e3, "ms"),
            ("admission.wait_p50_s", self.admission_wait.p50(), "s"),
            ("runner.run_p50_s", self.runner_run.p50(), "s"),
            ("tuning-db.lookup_us", self.db_lookup.p50() * 1e6, "us"),
            ("tuning-db.nearest_us", self.db_nearest.p50() * 1e6, "us"),
            ("tuning-db.records", self.db_records, "count"),
            ("serve.lookup_p50_ms", self.lookup.p50() * 1e3, "ms"),
            ("serve.lookup_p99_ms", self.lookup.p99() * 1e3, "ms"),
            ("serve.capacity_qps", self.capacity_qps, "1/s"),
            ("loadgen.lag_p99_ms", self.lag.p99() * 1e3, "ms"),
            ("trace.traced_wall_s", self.traced_wall_s, "s"),
            ("trace.untraced_wall_s", self.untraced_wall_s, "s"),
            ("trace.overhead_s", self.traced_wall_s - self.untraced_wall_s, "s"),
        ]
    }

    /// Self time per layer of the in-process run, as a share of the summed
    /// per-task time, each next to the end-to-end metric it should move.
    pub fn table(&self) -> String {
        let p = &self.probes;
        let model = self.model_s();
        let rows = [
            ("dnn-graph", p.extract.secs()),
            ("schedule", p.space.secs()),
            ("bted", p.bted.secs()),
            ("tuner", p.next_batch.secs() - model + p.update.secs()),
            ("gbt", model),
            ("gpu-sim", p.measure.secs()),
            ("executor", p.batch.secs() - p.measure.secs()),
            (
                "records",
                p.append.secs() + p.trace.secs() + p.checkpoint.secs() + p.model_quality.secs(),
            ),
        ];
        let busy = self.task_busy_s + p.extract.secs();
        let accounted: f64 = rows.iter().map(|r| r.1).sum();
        let mut s = String::new();
        let _ = writeln!(s, "self time per layer (in-process traced run, {busy:.3} s busy):");
        let _ = writeln!(s, "  {:<10} {:>9} {:>7}", "layer", "self s", "share");
        let share = |x: f64| if busy > 0.0 { 100.0 * x / busy } else { 0.0 };
        for (layer, secs) in rows.iter().chain(std::iter::once(&("loop+other", busy - accounted))) {
            let moves = moves(layer).unwrap_or_default();
            let _ = writeln!(s, "  {layer:<10} {secs:>9.3} {:>6.1}%   {moves}", share(*secs));
        }
        let _ = writeln!(
            s,
            "tracing overhead: traced {:.3} s - untraced {:.3} s = {:.3} s",
            self.traced_wall_s,
            self.untraced_wall_s,
            self.traced_wall_s - self.untraced_wall_s
        );
        for (name, summary, scale, unit) in [
            ("serve /best exact", &self.best_exact, 1e6, "us"),
            ("serve /best nearest", &self.best_nearest, 1e6, "us"),
            ("serve POST /jobs", &self.submit, 1e3, "ms"),
            ("serve GET /jobs/:id", &self.status, 1e3, "ms"),
            ("admission wait", &self.admission_wait, 1.0, "s"),
            ("runner run", &self.runner_run, 1.0, "s"),
            ("tuning-db lookup", &self.db_lookup, 1e6, "us"),
            ("tuning-db nearest", &self.db_nearest, 1e6, "us"),
            ("lookup from due", &self.lookup, 1e3, "ms"),
            ("loadgen lag", &self.lag, 1e3, "ms"),
        ] {
            if summary.n() > 0 {
                let _ = writeln!(s, "  {name:<20} {}", summary.describe(scale, unit));
            }
        }
        s
    }
}
