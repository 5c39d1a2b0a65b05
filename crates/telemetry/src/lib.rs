//! Structured tracing, metrics, and tuning-trace artifacts for the aaltune
//! stack.
//!
//! The paper's claims are all about *where time and measurements go* — how
//! many configurations each arm measures, how fast each arm converges, how
//! BAO's scope radius adapts. This crate makes those quantities observable:
//!
//! * **Spans** — named regions of wall time with parent links, so the trace
//!   reconstructs the per-phase breakdown (init-set selection, surrogate
//!   fits, measurement batches). A hot call site (one model prediction,
//!   one simulated measurement) opens a [`Telemetry::call_span`] instead:
//!   inside an entered [`Fold`] its calls are timed but not written, and
//!   the fold writes each parent's calls as one span pair whose
//!   `calls` field counts them.
//! * **Events** — point-in-time facts with typed JSON payloads (one per
//!   task start, one per BAO radius adaptation, …). Per-trial facts live
//!   in the trial logs and the model capture, not in the trace.
//! * **Metrics** — monotonic counters (SA proposals accepted/rejected) and
//!   mergeable log-scale [`Histogram`]s (measurement latency, fit time),
//!   kept in the handle's one [`MetricsRegistry`] and snapshotted into the
//!   trace at [`Telemetry::flush`]. Gauges and labels live in the same
//!   registry but never reach the trace; observers such as the
//!   [`SnapshotWriter`] read the registry while the run executes.
//!
//! Everything flows into a [`Sink`]: [`FileSink`] writes JSONL trace
//! artifacts, [`VecSink`] captures records for tests, [`ReporterSink`]
//! renders progress for humans, [`NoopSink`] discards, and [`TeeSink`]
//! composes them.
//!
//! # Handles and the global registry
//!
//! A [`Telemetry`] handle is a cheap [`Arc`] clone. The tuning loop spans
//! three crates and many free functions, so instead of threading a handle
//! through every signature the process installs one with [`set_global`] and
//! instrumented code grabs it with [`global`]. The default global handle is
//! **disabled**: every probe short-circuits on an atomic load before any
//! payload is built, which keeps the un-instrumented hot path at zero cost.
//!
//! ```
//! use telemetry::{global, set_global, Telemetry, VecSink};
//!
//! let sink = VecSink::new();
//! set_global(Telemetry::new(sink.clone()));
//! {
//!     let tel = global();
//!     let _span = tel.span("bted");
//!     tel.event("bao.radius", || telemetry::json!({"step": 1u64, "radius": 2.0}));
//!     tel.count("sa.accepted", 1);
//!     tel.observe("measure.us", 1250.0);
//! }
//! global().flush();
//! assert!(sink.len() >= 4); // span start/end, event, counter, histogram
//! # set_global(Telemetry::disabled());
//! ```

pub mod durable;
pub mod events;
pub mod export;
pub mod metrics;
pub mod record;
pub mod registry;
pub mod sink;
pub mod stream;
pub mod summary;
pub mod sync;

pub use events::{HeartbeatEvent, RadiusEvent, SaDoneEvent};
pub use export::{parse_prometheus, to_prometheus};
pub use metrics::Histogram;
pub use record::Record;
pub use registry::{MetricsRegistry, MetricsSnapshot, SNAPSHOT_SCHEMA_VERSION};
/// Re-exported so instrumentation sites can build event payloads without
/// depending on `serde_json` directly.
pub use serde_json::{json, Value};
pub use sink::{FileSink, NoopSink, ReporterSink, Sink, TeeSink, VecSink};
pub use stream::{SnapshotRequest, SnapshotWriter, PROM_FILE, SNAPSHOT_FILE};
pub use summary::{FlameNode, TraceSummary};
pub use sync::{lock_or_recover, read_or_recover, write_or_recover};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Name of the progress-report event rendered by [`ReporterSink`].
///
/// Report events carry a `{"msg": "..."}` payload and replace ad-hoc
/// `println!` progress output; domain events use their own names and stay
/// machine-oriented.
pub const REPORT_EVENT: &str = "report";

/// Version of the trace wire format this crate writes.
///
/// Every enabled [`Telemetry`] handle emits a [`Record::Schema`] record
/// first, so consumers (`trace`, `compare`, `report`) can warn on traces
/// written by a newer crate instead of silently misparsing them. Bump when
/// a record variant or event payload changes incompatibly.
///
/// Version 2 adds the measurement-health events (`measure.fault`,
/// `measure.retry`, `measure.quarantine`, `tune.resume`) and the
/// multi-segment trace convention: a resumed run appends to the existing
/// trace file, and a mid-stream [`Record::Schema`] marker starts a new
/// process segment whose counter/histogram snapshots sum/merge with the
/// previous segment's finals.
///
/// Later, without a bump: the per-trial `trial`, `model.pred` and
/// `measure.quarantine` events were dropped (logs and capture hold them),
/// and the `measure.quarantine` counter came to count persistent failures.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

struct Inner {
    sink: Box<dyn Sink>,
    start: Instant,
    next_span: AtomicU64,
    /// The handle's one metrics store: `count`/`observe` land here, `flush`
    /// writes its counters and histograms into the trace, and observers
    /// (snapshot writer, dashboards) read it live.
    metrics: Arc<MetricsRegistry>,
}

/// Per-thread span state.
struct ThreadSpans {
    /// Innermost-last stack of this thread's open spans. Handle identity
    /// (the `Arc` pointer) keys the stack so two live handles on one
    /// thread cannot adopt each other's spans.
    stack: Vec<Frame>,
    /// Folds entered on this thread, innermost last.
    entered: Vec<Arc<FoldInner>>,
}

/// One open span on a thread's stack.
struct Frame {
    handle: usize,
    id: u64,
    /// Folded calls made with this span as their parent and not written
    /// yet: the span writes them before its own end.
    folded: Vec<FoldedCalls>,
}

/// One fold's calls of one name under one parent, not yet written.
struct FoldedCalls {
    fold: u64,
    name: &'static str,
    calls: u64,
    /// Summed call time, kept exact: a hot call is often sub-µs, so it
    /// is rounded to whole µs once, when the pair is written.
    dur: Duration,
    /// Start of the first call, µs since telemetry start.
    first_us: u64,
}

/// Adds one call to the matching entry of `folded`, or starts one.
fn add_call(
    folded: &mut Vec<FoldedCalls>,
    fold: u64,
    name: &'static str,
    dur: Duration,
    at_us: u64,
) {
    match folded.iter_mut().find(|c| c.fold == fold && c.name == name) {
        Some(c) => {
            c.calls += 1;
            c.dur += dur;
        }
        None => folded.push(FoldedCalls { fold, name, calls: 1, dur, first_us: at_us }),
    }
}

thread_local! {
    static THREAD: RefCell<ThreadSpans> =
        const { RefCell::new(ThreadSpans { stack: Vec::new(), entered: Vec::new() }) };
}

/// Innermost open span of handle `me` on this thread.
fn innermost(me: usize) -> Option<u64> {
    THREAD.with(|t| t.borrow().stack.iter().rev().find(|f| f.handle == me).map(|f| f.id))
}

/// Source of fold ids, unique per process.
static NEXT_FOLD: AtomicU64 = AtomicU64::new(1);

/// A handle for emitting telemetry. Cloning is cheap (one `Arc` clone); a
/// [`Telemetry::disabled`] handle makes every probe a no-op that
/// short-circuits before payloads are built.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Telemetry {
    /// Creates a handle that emits every record to `sink` and keeps its
    /// metrics in a fresh [`MetricsRegistry`]. Timestamps are microseconds
    /// since this call.
    pub fn new(sink: impl Sink + 'static) -> Self {
        Self::with_registry(sink, Arc::new(MetricsRegistry::new()))
    }

    /// [`Telemetry::new`] keeping its metrics in the caller's `registry`
    /// instead of a fresh one, so the caller can watch them live. The
    /// registry's counters and histograms are what [`Telemetry::flush`]
    /// writes to the trace.
    pub fn with_registry(sink: impl Sink + 'static, registry: Arc<MetricsRegistry>) -> Self {
        let inner = Inner {
            sink: Box::new(sink),
            start: Instant::now(),
            next_span: AtomicU64::new(1),
            metrics: registry,
        };
        inner.sink.record(&Record::Schema { version: TRACE_SCHEMA_VERSION });
        Telemetry { inner: Some(Arc::new(inner)) }
    }

    /// The handle's metrics store, `None` on a disabled handle. Observers
    /// (snapshot writer, dashboards) read it; publishers go through the
    /// probe methods.
    #[must_use]
    pub fn live_registry(&self) -> Option<Arc<MetricsRegistry>> {
        self.inner.as_ref().map(|i| Arc::clone(&i.metrics))
    }

    /// Creates a handle whose probes all short-circuit. This is the true
    /// zero-overhead path — payload closures are never invoked.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// True when records actually go somewhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_us(inner: &Inner) -> u64 {
        u64::try_from(inner.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn identity(inner: &Arc<Inner>) -> usize {
        Arc::as_ptr(inner) as usize
    }

    /// Opens a span named `name`. The span closes (emitting
    /// [`Record::SpanEnd`] with its duration) when the returned guard drops.
    /// Spans opened while another of this handle's spans is live on the same
    /// thread record it as their parent.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else { return SpanGuard { live: None } };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let me = Self::identity(inner);
        let parent = THREAD.with(|t| {
            let stack = &mut t.borrow_mut().stack;
            let parent = stack.iter().rev().find(|f| f.handle == me).map(|f| f.id);
            stack.push(Frame { handle: me, id, folded: Vec::new() });
            parent
        });
        inner.sink.record(&Record::SpanStart {
            id,
            parent,
            name: name.to_string(),
            t_us: Self::now_us(inner),
        });
        SpanGuard {
            live: Some(Live::Span(LiveSpan {
                inner: Arc::clone(inner),
                id,
                name: name.to_string(),
                opened: Instant::now(),
            })),
        }
    }

    /// Opens a span for one call of a hot call site. Inside a [`Fold`] of
    /// this handle entered on this thread, the call is timed but nothing
    /// is written: the fold writes it, with the other calls of `name`
    /// that had the same parent, as one span whose `dur_us` is their
    /// summed time. Outside any fold it is an ordinary [`Telemetry::span`].
    ///
    /// Each call keeps the parent an ordinary span would have had, so the
    /// per-phase breakdown reads the same either way.
    pub fn call_span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else { return SpanGuard { live: None } };
        let me = Self::identity(inner);
        let fold = THREAD.with(|t| {
            t.borrow().entered.iter().rev().find(|f| Self::identity(&f.tel) == me).cloned()
        });
        match fold {
            Some(fold) => SpanGuard {
                live: Some(Live::Call(LiveCall { fold, name, opened: Instant::now() })),
            },
            None => self.span(name),
        }
    }

    /// Opens a fold: a batch (one measured batch, one model replan) whose
    /// [`Telemetry::call_span`] calls are written once per batch instead
    /// of once per call. Calls fold into it on the threads that
    /// [`Fold::enter`] it; each name's calls under one parent become one
    /// [`Record::SpanStart`]/[`Record::SpanEnd`] pair, with `calls`
    /// counting them and `dur_us` their summed durations (each in whole
    /// µs, as its own span would have read).
    ///
    /// A pair is written when its parent span closes or the fold drops,
    /// whichever comes first, so it always lands inside its parent. Calls
    /// with no parent (on a worker thread) are written when the fold
    /// drops. Drop the fold before the spans that enclose it.
    #[must_use]
    pub fn fold(&self) -> Fold {
        Fold {
            inner: self.inner.as_ref().map(|tel| {
                Arc::new(FoldInner {
                    tel: Arc::clone(tel),
                    id: NEXT_FOLD.fetch_add(1, Ordering::Relaxed),
                    roots: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    /// Writes `folded` as one span pair under `parent`.
    fn write_folded(inner: &Inner, parent: Option<u64>, folded: &FoldedCalls) {
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        inner.sink.record(&Record::SpanStart {
            id,
            parent,
            name: folded.name.to_string(),
            t_us: folded.first_us,
        });
        inner.sink.record(&Record::SpanEnd {
            id,
            name: folded.name.to_string(),
            t_us: Self::now_us(inner),
            dur_us: whole_us(folded.dur),
            calls: (folded.calls != 1).then_some(folded.calls),
        });
    }

    /// Emits an event named `name`. `fields` is only invoked when the
    /// handle is enabled, so payload construction costs nothing otherwise.
    /// The innermost open span of this handle on the current thread is
    /// recorded as the event's span.
    pub fn event(&self, name: &str, fields: impl FnOnce() -> Value) {
        let Some(inner) = &self.inner else { return };
        let span = innermost(Self::identity(inner));
        inner.sink.record(&Record::Event {
            name: name.to_string(),
            span,
            t_us: Self::now_us(inner),
            fields: fields(),
        });
    }

    /// Emits a human-oriented progress line as a [`REPORT_EVENT`] event.
    /// `msg` is only invoked when the handle is enabled.
    pub fn report(&self, msg: impl FnOnce() -> String) {
        self.event(REPORT_EVENT, || json!({ "msg": msg() }));
    }

    /// Adds `delta` to the monotonic counter `name`. Counters are emitted
    /// as [`Record::Counter`] snapshots at [`Telemetry::flush`].
    pub fn count(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.inc(name, delta);
    }

    /// Records `value` into the log-scale histogram `name`. Histograms are
    /// emitted as [`Record::Histogram`] snapshots at [`Telemetry::flush`].
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.observe(name, value);
    }

    /// Sets the gauge `name` to `value`. Gauges are instantaneous state
    /// (queue depth, busy workers): they live only in the handle's
    /// registry and never reach the trace, so instrumenting a gauge cannot
    /// change any trace artifact. No-op on a disabled handle.
    pub fn gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.gauge_set(name, value);
    }

    /// Adds `delta` (may be negative) to the gauge `name`. Registry-only,
    /// like [`Telemetry::gauge`].
    pub fn gauge_add(&self, name: &str, delta: f64) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.gauge_add(name, delta);
    }

    /// Sets the string label `name` (e.g. the task currently tuning).
    /// Registry-only, like [`Telemetry::gauge`].
    pub fn set_label(&self, name: &str, value: &str) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.set_label(name, value);
    }

    /// Emits the registry's counter and histogram snapshots in name order,
    /// then flushes the sink. Call once at the end of a run (snapshots are
    /// cumulative, so flushing repeatedly is safe — summarizers keep the
    /// last value seen).
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        let snap = inner.metrics.snapshot();
        for (name, value) in snap.counters {
            inner.sink.record(&Record::Counter { name, value });
        }
        for (name, hist) in snap.histograms {
            inner.sink.record(&Record::Histogram { name, hist });
        }
        inner.sink.flush();
    }
}

struct LiveSpan {
    inner: Arc<Inner>,
    id: u64,
    name: String,
    opened: Instant,
}

/// One call timed into a fold.
struct LiveCall {
    fold: Arc<FoldInner>,
    name: &'static str,
    opened: Instant,
}

enum Live {
    Span(LiveSpan),
    Call(LiveCall),
}

/// Closes its span on drop. Hold it for the lifetime of the region:
/// `let _span = tel.span("bted");`
pub struct SpanGuard {
    live: Option<Live>,
}

impl SpanGuard {
    /// Span id, for correlating events in tests. `None` on disabled
    /// handles and for a call folded into a [`Fold`].
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        match &self.live {
            Some(Live::Span(l)) => Some(l.id),
            _ => None,
        }
    }
}

fn whole_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self.live.take() {
            None => {}
            Some(Live::Span(live)) => {
                let me = Telemetry::identity(&live.inner);
                let folded = THREAD.with(|t| {
                    let stack = &mut t.borrow_mut().stack;
                    // Guards are usually dropped innermost-first, but a
                    // guard moved across scopes may not be on top: remove
                    // by id, not by pop.
                    let pos = stack.iter().rposition(|f| f.handle == me && f.id == live.id);
                    pos.map(|pos| stack.remove(pos).folded).unwrap_or_default()
                });
                let dur_us = whole_us(live.opened.elapsed());
                for calls in &folded {
                    Telemetry::write_folded(&live.inner, Some(live.id), calls);
                }
                live.inner.sink.record(&Record::SpanEnd {
                    id: live.id,
                    name: live.name,
                    t_us: Telemetry::now_us(&live.inner),
                    dur_us,
                    calls: None,
                });
            }
            Some(Live::Call(call)) => {
                let dur = call.opened.elapsed();
                let fold = &call.fold;
                let at_us = whole_us(call.opened.saturating_duration_since(fold.tel.start));
                let me = Telemetry::identity(&fold.tel);
                let parented = THREAD.with(|t| {
                    let stack = &mut t.borrow_mut().stack;
                    let frame = stack.iter_mut().rev().find(|f| f.handle == me);
                    frame.map(|f| add_call(&mut f.folded, fold.id, call.name, dur, at_us))
                });
                if parented.is_none() {
                    add_call(&mut lock_or_recover(&fold.roots), fold.id, call.name, dur, at_us);
                }
            }
        }
    }
}

struct FoldInner {
    tel: Arc<Inner>,
    id: u64,
    /// Calls made with no open span of the handle on their thread.
    roots: Mutex<Vec<FoldedCalls>>,
}

/// A batch of hot calls written as one span pair per name and parent;
/// see [`Telemetry::fold`]. Share it by reference with the threads that
/// run the batch, and have each [`Fold::enter`] it.
pub struct Fold {
    inner: Option<Arc<FoldInner>>,
}

impl Fold {
    /// Makes this fold the one this thread's [`Telemetry::call_span`]
    /// calls fold into, until the returned guard drops.
    #[must_use]
    pub fn enter(&self) -> FoldEntry<'_> {
        if let Some(inner) = &self.inner {
            THREAD.with(|t| t.borrow_mut().entered.push(Arc::clone(inner)));
        }
        FoldEntry { fold: self }
    }
}

impl Drop for Fold {
    fn drop(&mut self) {
        let Some(fold) = self.inner.take() else { return };
        let me = Telemetry::identity(&fold.tel);
        // This thread's calls whose parent is still open; calls whose
        // parent closed were written then.
        let mut parented = Vec::new();
        THREAD.with(|t| {
            for frame in t.borrow_mut().stack.iter_mut().filter(|f| f.handle == me) {
                let mut i = 0;
                while i < frame.folded.len() {
                    if frame.folded[i].fold == fold.id {
                        parented.push((frame.id, frame.folded.remove(i)));
                    } else {
                        i += 1;
                    }
                }
            }
        });
        for (parent, calls) in &parented {
            Telemetry::write_folded(&fold.tel, Some(*parent), calls);
        }
        for calls in lock_or_recover(&fold.roots).iter() {
            Telemetry::write_folded(&fold.tel, None, calls);
        }
    }
}

/// Keeps a [`Fold`] entered on this thread; see [`Fold::enter`].
pub struct FoldEntry<'a> {
    fold: &'a Fold,
}

impl Drop for FoldEntry<'_> {
    fn drop(&mut self) {
        let Some(inner) = &self.fold.inner else { return };
        THREAD.with(|t| {
            let entered = &mut t.borrow_mut().entered;
            if let Some(pos) = entered.iter().rposition(|f| Arc::ptr_eq(f, inner)) {
                entered.remove(pos);
            }
        });
    }
}

/// Fast-path flag mirroring whether the global handle is enabled, so
/// [`global`] on the disabled default is a single atomic load.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Telemetry>> = RwLock::new(None);

/// Installs `tel` as the process-wide handle returned by [`global`].
/// Installing [`Telemetry::disabled`] turns global telemetry off again.
pub fn set_global(tel: Telemetry) {
    let enabled = tel.is_enabled();
    *write_or_recover(&GLOBAL) = enabled.then_some(tel);
    GLOBAL_ENABLED.store(enabled, Ordering::Release);
}

/// The process-wide handle. Disabled (all probes no-ops) until
/// [`set_global`] installs an enabled one. Grab it once per function, not
/// per loop iteration — the enabled path takes a read lock.
#[must_use]
pub fn global() -> Telemetry {
    if !GLOBAL_ENABLED.load(Ordering::Acquire) {
        return Telemetry::disabled();
    }
    read_or_recover(&GLOBAL).clone().unwrap_or_default()
}

/// Builds and installs the standard command-line pipeline: a progress
/// [`ReporterSink`] (human-readable, or JSON lines when `json` is set,
/// suppressed entirely by `quiet`) teed with an optional JSONL trace
/// [`FileSink`] at `trace`. When `append` is set the trace file is extended
/// instead of truncated, which is what a crash-safe resume wants — its
/// fresh [`Record::Schema`] header marks a new process segment in the same
/// trace.
///
/// Returns the installed handle so the caller can [`Telemetry::flush`] it
/// once the run finishes, or watch its [`Telemetry::live_registry`]. With
/// no reporter and no trace file the handle is [`Telemetry::disabled`],
/// keeping the hot path at zero overhead.
///
/// # Errors
///
/// Propagates trace-file open errors.
pub fn install_pipeline(
    trace: Option<&std::path::Path>,
    quiet: bool,
    json: bool,
    append: bool,
) -> std::io::Result<Telemetry> {
    let mut tee = TeeSink::new();
    if !quiet {
        tee = tee.with(if json { ReporterSink::json() } else { ReporterSink::human() });
    }
    if let Some(path) = trace {
        tee = tee.with(if append { FileSink::append(path)? } else { FileSink::create(path)? });
    }
    let tel = if tee.is_empty() { Telemetry::disabled() } else { Telemetry::new(tee) };
    set_global(tel.clone());
    Ok(tel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_invokes_payloads() {
        let tel = Telemetry::disabled();
        let _span = tel.span("dead");
        tel.event("never", || unreachable!("payload built on disabled handle"));
        tel.report(|| unreachable!("report built on disabled handle"));
        tel.count("c", 1);
        tel.observe("h", 1.0);
        let fold = tel.fold();
        let _in = fold.enter();
        let call = tel.call_span("hot");
        assert_eq!(call.id(), None);
        tel.flush();
    }

    /// `(parent, calls)` of every `name` span pair, in write order, with
    /// each pair's start and end record positions.
    fn pairs(recs: &[Record], name: &str) -> Vec<(Option<u64>, Option<u64>, usize, usize)> {
        let mut out = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            if let Record::SpanStart { id, parent, name: n, .. } = r {
                if n == name {
                    let (j, calls) = recs
                        .iter()
                        .enumerate()
                        .find_map(|(j, e)| match e {
                            Record::SpanEnd { id: eid, calls, .. } if eid == id => {
                                Some((j, *calls))
                            }
                            _ => None,
                        })
                        .unwrap();
                    out.push((*parent, calls, i, j));
                }
            }
        }
        out
    }

    fn span_id(recs: &[Record], name: &str) -> u64 {
        recs.iter()
            .find_map(|r| match r {
                Record::SpanStart { id, name: n, .. } if n == name => Some(*id),
                _ => None,
            })
            .unwrap()
    }

    fn end_at(recs: &[Record], name: &str) -> usize {
        recs.iter().position(|r| matches!(r, Record::SpanEnd { name: n, .. } if n == name)).unwrap()
    }

    #[test]
    fn a_fold_writes_one_pair_per_parent_and_counts_its_calls() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        {
            let _batch = tel.span("batch");
            let fold = tel.fold();
            {
                let _in = fold.enter();
                for _ in 0..5 {
                    let _call = tel.call_span("hot");
                }
                // A worker thread's calls have no parent, as their spans
                // would have had.
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let _in = fold.enter();
                        for _ in 0..3 {
                            let _call = tel.call_span("hot");
                        }
                    });
                });
                assert!(sink.records().iter().all(|r| r.name() != "hot"), "nothing yet");
            }
            drop(fold);
            // Outside the fold a call is an ordinary span again.
            let _late = tel.call_span("hot");
        }
        let recs = sink.records();
        let batch = span_id(&recs, "batch");
        let hot = pairs(&recs, "hot");
        assert_eq!(hot.len(), 3, "{hot:?}");
        assert_eq!((hot[0].0, hot[0].1), (Some(batch), Some(5)));
        assert_eq!((hot[1].0, hot[1].1), (None, Some(3)));
        assert_eq!((hot[2].0, hot[2].1), (Some(batch), None), "the late call stands alone");
        assert!(hot
            .iter()
            .all(|&(_, _, start, end)| end == start + 1 && end < end_at(&recs, "batch")));
        let summary = TraceSummary::from_records(&recs);
        assert_eq!(summary.spans["hot"].count, 9);
        assert_eq!(summary.unclosed_spans, 0);
    }

    #[test]
    fn a_parent_closing_before_the_fold_writes_its_calls_first() {
        // The replan shape: the fold spans the replan, one call lands in
        // the replan itself and the rest inside a search span that closes
        // before the fold does.
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        {
            let _replan = tel.span("replan");
            let fold = tel.fold();
            let _in = fold.enter();
            drop(tel.call_span("hot"));
            {
                let _search = tel.span("search");
                for _ in 0..4 {
                    let _call = tel.call_span("hot");
                }
            }
        }
        let recs = sink.records();
        let hot = pairs(&recs, "hot");
        assert_eq!(hot.len(), 2, "{hot:?}");
        let (search, replan) = (span_id(&recs, "search"), span_id(&recs, "replan"));
        assert_eq!((hot[0].0, hot[0].1), (Some(search), Some(4)));
        assert!(hot[0].3 < end_at(&recs, "search"), "written inside its parent");
        assert_eq!((hot[1].0, hot[1].1), (Some(replan), None), "one call: no count");
        assert!(hot[1].3 < end_at(&recs, "replan"));
        let summary = TraceSummary::from_records(&recs);
        assert_eq!(summary.spans["hot"].count, 5);
        let replan_node = &summary.flame.children[0];
        let names: Vec<&str> = replan_node.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["search", "hot"]);
        assert_eq!(replan_node.children[0].children[0].count, 4);
    }

    #[test]
    fn folded_sub_microsecond_calls_sum_to_their_time() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        let mut summed = Duration::ZERO;
        {
            let _batch = tel.span("batch");
            let fold = tel.fold();
            let _in = fold.enter();
            for _ in 0..1_000 {
                // Timed from outside, so `summed` also holds the fold's
                // own bookkeeping: an upper bound on the calls' time.
                let outer = Instant::now();
                let call = tel.call_span("hot");
                let spin = Instant::now();
                while spin.elapsed() < Duration::from_nanos(400) {}
                drop(call);
                summed += outer.elapsed();
            }
        }
        let dur_us = sink
            .records()
            .iter()
            .find_map(|r| match r {
                Record::SpanEnd { name, dur_us, calls: Some(1_000), .. } if name == "hot" => {
                    Some(*dur_us)
                }
                _ => None,
            })
            .expect("one pair holds all 1,000 calls");
        let summed_us = summed.as_secs_f64() * 1e6;
        assert!(dur_us > 0, "sub-µs calls must not round to 0 one by one");
        #[allow(clippy::cast_precision_loss)]
        let written = dur_us as f64;
        assert!(
            written <= summed_us && 2.0 * written >= summed_us,
            "{written} µs written for calls that took at most {summed_us:.1} µs"
        );
    }

    #[test]
    fn spans_nest_and_parent_on_one_thread() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        {
            let outer = tel.span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = tel.span("inner");
                assert_ne!(inner.id(), outer.id());
                tel.event("tick", || json!({ "n": 1u64 }));
            }
            let _sibling = tel.span("sibling");
            drop(outer);
            let _ = outer_id;
        }
        let recs = sink.records();
        let parent_of = |name: &str| {
            recs.iter()
                .find_map(|r| match r {
                    Record::SpanStart { name: n, parent, .. } if n == name => Some(*parent),
                    _ => None,
                })
                .unwrap()
        };
        let id_of = |name: &str| {
            recs.iter()
                .find_map(|r| match r {
                    Record::SpanStart { name: n, id, .. } if n == name => Some(*id),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(parent_of("outer"), None);
        assert_eq!(parent_of("inner"), Some(id_of("outer")));
        assert_eq!(parent_of("sibling"), Some(id_of("outer")));
        // The event attributes to the innermost open span at emission time.
        let ev_span = recs
            .iter()
            .find_map(|r| match r {
                Record::Event { name, span, .. } if name == "tick" => Some(*span),
                _ => None,
            })
            .unwrap();
        assert_eq!(ev_span, Some(id_of("inner")));
        // Every start has a matching end with the same id and name.
        for r in &recs {
            if let Record::SpanStart { id, name, .. } = r {
                assert!(recs.iter().any(|e| matches!(
                    e,
                    Record::SpanEnd { id: eid, name: en, .. } if eid == id && en == name
                )));
            }
        }
    }

    #[test]
    fn spans_on_different_threads_do_not_adopt_each_other() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        let _outer = tel.span("outer");
        let tel2 = tel.clone();
        std::thread::spawn(move || {
            let _worker = tel2.span("worker");
        })
        .join()
        .unwrap();
        let parent = sink
            .records()
            .iter()
            .find_map(|r| match r {
                Record::SpanStart { name, parent, .. } if name == "worker" => Some(*parent),
                _ => None,
            })
            .unwrap();
        assert_eq!(parent, None, "cross-thread span must not parent to outer");
    }

    #[test]
    fn flush_snapshots_counters_and_histograms() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        tel.count("sa.accepted", 3);
        tel.count("sa.accepted", 2);
        tel.observe("measure.us", 100.0);
        tel.observe("measure.us", 200.0);
        tel.flush();
        let recs = sink.records();
        assert!(recs
            .iter()
            .any(|r| matches!(r, Record::Counter { name, value: 5 } if name == "sa.accepted")));
        let hist_count = recs
            .iter()
            .find_map(|r| match r {
                Record::Histogram { name, hist } if name == "measure.us" => Some(hist.count()),
                _ => None,
            })
            .unwrap();
        assert_eq!(hist_count, 2);
    }

    #[test]
    fn new_and_with_registry_handles_emit_identical_records() {
        let reg = Arc::new(MetricsRegistry::new());
        let plain_sink = VecSink::new();
        let shared_sink = VecSink::new();
        let plain = Telemetry::new(plain_sink.clone());
        let shared = Telemetry::with_registry(shared_sink.clone(), Arc::clone(&reg));
        for tel in [&plain, &shared] {
            tel.count("c", 4);
            tel.count("b", 1);
            tel.observe("h", 10.0);
            tel.observe("a", 2.0);
            tel.flush();
        }
        // The caller's registry is the handle's store...
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 4);
        assert_eq!(snap.histograms["h"].count(), 1);
        let mut own = plain.live_registry().unwrap().snapshot();
        own.uptime_us = snap.uptime_us;
        own.unix_ms = snap.unix_ms;
        assert_eq!(own, snap, "both handles' registries hold the same metrics");
        // ...and the record streams are identical, in name order.
        let recs =
            |s: &VecSink| -> Vec<String> { s.records().iter().map(|r| format!("{r:?}")).collect() };
        assert_eq!(recs(&plain_sink), recs(&shared_sink));
        let names: Vec<String> =
            plain_sink.records().iter().map(|r| r.name().to_string()).collect();
        assert_eq!(names[1..], ["b", "c", "a", "h"]);
    }

    #[test]
    fn counters_published_on_the_registry_reach_the_trace() {
        // The snapshot writer counts `snapshot.write_errors` straight into
        // the handle's registry; flush must carry it like any `count`.
        let reg = Arc::new(MetricsRegistry::new());
        let sink = VecSink::new();
        let tel = Telemetry::with_registry(sink.clone(), Arc::clone(&reg));
        reg.inc("snapshot.write_errors", 2);
        reg.observe("direct.us", 5.0);
        tel.flush();
        let recs = sink.records();
        assert!(recs.iter().any(
            |r| matches!(r, Record::Counter { name, value: 2 } if name == "snapshot.write_errors")
        ));
        assert!(recs.iter().any(
            |r| matches!(r, Record::Histogram { name, hist } if name == "direct.us" && hist.count() == 1)
        ));
    }

    #[test]
    fn gauges_and_labels_stay_in_the_registry() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        tel.gauge("g", 2.0);
        tel.gauge_add("g", 0.5);
        tel.set_label("l", "v");
        tel.flush();
        let snap = tel.live_registry().unwrap().snapshot();
        assert!((snap.gauge("g") - 2.5).abs() < 1e-12);
        assert_eq!(snap.labels["l"], "v");
        // Only the schema header reaches the trace.
        assert_eq!(sink.records().len(), 1);
        assert!(matches!(sink.records()[0], Record::Schema { .. }));
        let disabled = Telemetry::disabled();
        disabled.gauge("g", 1.0);
        disabled.gauge_add("g", 1.0);
        disabled.set_label("l", "v");
        assert!(disabled.live_registry().is_none());
    }

    #[test]
    fn global_defaults_to_disabled_and_round_trips() {
        // Note: tests in this binary run in parallel; this test owns the
        // global slot only briefly and restores it.
        let sink = VecSink::new();
        set_global(Telemetry::new(sink.clone()));
        assert!(global().is_enabled());
        global().event("probe", || json!({}));
        set_global(Telemetry::disabled());
        assert!(!global().is_enabled());
        assert!(sink.records().iter().any(|r| r.name() == "probe"));
    }
}
