//! Per-layer probes for the traced run: wrappers around each layer's
//! public interface that time calls from outside the program.
//!
//! Nothing here changes what a layer computes — every wrapper forwards
//! every trait method — so a traced run's trial logs must be
//! byte-identical to the untraced run's, and the run checks that.

use active_learning::model_quality::ProposalDiag;
use active_learning::tuner::Tuner;
use active_learning::Evaluator;
use dnn_graph::task::TuningTask;
use gbt::Matrix;
use gpu_sim::{MeasureResult, Measurer};
use schedule::{Config, ConfigSpace};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::{Record, Sink};

/// Calls, busy time and work items of one probed call site.
#[derive(Debug, Default)]
pub struct Counter {
    calls: AtomicU64,
    ns: AtomicU64,
    items: AtomicU64,
}

impl Counter {
    fn add(&self, started: Instant, items: u64) -> u64 {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        ns
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn secs(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ns = self.ns.load(Ordering::Relaxed) as f64;
        ns / 1e9
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }
}

/// Everything the traced run measures, shared by all wrappers.
#[derive(Debug, Default)]
pub struct Probes {
    pub extract: Counter,
    pub space: Counter,
    pub bted: Counter,
    pub next_batch: Counter,
    /// Per-call `next_batch` latency, seconds.
    pub next_batch_lat: Mutex<Vec<f64>>,
    /// Surrogate-model time spent inside `next_batch`, ns.
    pub next_batch_model_ns: AtomicU64,
    pub update: Counter,
    pub fit: Counter,
    pub predict: Counter,
    pub measure: Counter,
    pub measure_valid: AtomicU64,
    pub batch: Counter,
    pub append: Counter,
    /// Records written to the trace file.
    pub trace: Counter,
    /// Checkpoint and model-quality file writes.
    pub checkpoint: Counter,
    pub model_quality: Counter,
    /// Durations of the spans the program emits itself: name → (count, µs).
    pub spans: Mutex<BTreeMap<String, (u64, u64)>>,
}

impl Probes {
    /// Times `f` as one call of `counter` with `items` work items.
    pub fn time<R>(counter: &Counter, items: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        counter.add(t, items);
        r
    }

    /// Total seconds of the program's own spans named `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span table lock poisoned");
        #[allow(clippy::cast_precision_loss)]
        spans.get(name).map_or(0.0, |&(_, us)| us as f64 / 1e6)
    }

    /// Surrogate-model seconds inside `next_batch`.
    pub fn next_batch_model_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ns = self.next_batch_model_ns.load(Ordering::Relaxed) as f64;
        ns / 1e9
    }
}

thread_local! {
    /// Surrogate-model nanoseconds spent on this thread so far: the
    /// evaluator wrapper adds its fit and row-predict time, the span sink
    /// adds the program's own `xgb.fit` and `gbt.predict` spans (the
    /// AutoTVM tuner builds its model internally, out of the wrapper's
    /// reach). The two never cover the same call: BAO predicts row by row
    /// and never fits through `xgb.fit`.
    static MODEL_NS: Cell<u64> = const { Cell::new(0) };
}

fn add_model_ns(ns: u64) {
    MODEL_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Spans whose time is surrogate-model work (see [`MODEL_NS`]).
const MODEL_SPANS: [&str; 2] = ["xgb.fit", "gbt.predict"];

/// A telemetry sink that keeps per-name span totals in memory.
pub struct SpanSink(pub Arc<Probes>);

impl Sink for SpanSink {
    fn record(&self, rec: &Record) {
        if let Record::SpanEnd { name, dur_us, .. } = rec {
            if MODEL_SPANS.contains(&name.as_str()) {
                add_model_ns(dur_us.saturating_mul(1000));
            }
            let mut spans = self.0.spans.lock().expect("span table lock poisoned");
            let e = spans.entry(name.clone()).or_insert((0, 0));
            e.0 += 1;
            e.1 += dur_us;
        }
    }
}

/// The telemetry half of the records layer: times every record written
/// to the trace file.
pub struct TimedSink<S> {
    pub inner: S,
    pub probes: Arc<Probes>,
}

impl<S: Sink> Sink for TimedSink<S> {
    fn record(&self, rec: &Record) {
        Probes::time(&self.probes.trace, 1, || self.inner.record(rec));
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// The tuner layer: times `next_batch` and `update`.
pub struct TimedTuner<'a> {
    pub inner: Box<dyn Tuner + 'a>,
    pub probes: Arc<Probes>,
}

impl Tuner for TimedTuner<'_> {
    fn next_batch(&mut self, n: usize) -> Vec<Config> {
        let model_before = MODEL_NS.with(Cell::get);
        let t = Instant::now();
        let batch = self.inner.next_batch(n);
        let ns = self.probes.next_batch.add(t, batch.len() as u64);
        let model = MODEL_NS.with(Cell::get) - model_before;
        self.probes.next_batch_model_ns.fetch_add(model, Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        self.probes.next_batch_lat.lock().expect("latency lock poisoned").push(ns as f64 / 1e9);
        batch
    }

    fn update(&mut self, results: &[(Config, f64)]) {
        Probes::time(&self.probes.update, results.len() as u64, || self.inner.update(results));
    }

    fn preferred_batch(&self) -> usize {
        self.inner.preferred_batch()
    }

    fn exclude(&mut self, indices: &[u64]) {
        self.inner.exclude(indices);
    }

    fn set_capture(&mut self, enabled: bool) {
        self.inner.set_capture(enabled);
    }

    fn take_diagnostics(&mut self) -> Vec<ProposalDiag> {
        self.inner.take_diagnostics()
    }
}

/// The gbt layer, as BAO's evaluation function.
pub struct TimedEvaluator<E> {
    pub inner: E,
    pub probes: Arc<Probes>,
}

impl<E: Evaluator> Evaluator for TimedEvaluator<E> {
    fn fit(&mut self, x: &Matrix, y: &[f64], seed: u64) {
        let t = Instant::now();
        self.inner.fit(x, y, seed);
        add_model_ns(self.probes.fit.add(t, x.rows() as u64));
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let t = Instant::now();
        let p = self.inner.predict_row(row);
        add_model_ns(self.probes.predict.add(t, 1));
        p
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        // The inner batch predict emits its own `gbt.predict` span, which
        // the span sink already adds to the model time.
        Probes::time(&self.probes.predict, x.rows() as u64, || self.inner.predict(x))
    }
}

/// The gpu-sim layer: wraps the innermost simulated measurer.
pub struct TimedSim<M> {
    pub inner: M,
    pub probes: Arc<Probes>,
}

impl<M: Measurer> Measurer for TimedSim<M> {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        let r = Probes::time(&self.probes.measure, 1, || self.inner.measure(task, space, config));
        if r.is_valid() {
            self.probes.measure_valid.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn repeats(&self) -> usize {
        self.inner.repeats()
    }

    fn quarantined(&self, task: &TuningTask) -> Vec<u64> {
        self.inner.quarantined(task)
    }
}

/// The executor layer: times whole batches through `measure_batch`.
pub struct TimedBatches<M> {
    pub inner: M,
    pub probes: Arc<Probes>,
}

impl<M: Measurer> Measurer for TimedBatches<M> {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        self.inner.measure(task, space, config)
    }

    fn measure_batch(
        &self,
        task: &TuningTask,
        space: &ConfigSpace,
        configs: &[Config],
    ) -> Vec<MeasureResult> {
        Probes::time(&self.probes.batch, configs.len() as u64, || {
            self.inner.measure_batch(task, space, configs)
        })
    }

    fn repeats(&self) -> usize {
        self.inner.repeats()
    }

    fn quarantined(&self, task: &TuningTask) -> Vec<u64> {
        self.inner.quarantined(task)
    }
}
