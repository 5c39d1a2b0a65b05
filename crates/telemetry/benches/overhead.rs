//! Probe-overhead benchmarks: the acceptance bar is that a disabled
//! (default) telemetry handle costs effectively nothing in the tuning hot
//! loop, and an enabled `VecSink` handle stays cheap relative to a single
//! simulated measurement (~tens of µs).
//!
//! A hot call site's per-call cost, written against folded: a `measure`
//! span written as a JSONL pair (what every call cost before folding) and
//! one `measure` call folded into its batch's record.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use telemetry::{json, FileSink, Telemetry, VecSink};

fn bench_overhead(c: &mut Criterion) {
    let disabled = Telemetry::disabled();
    c.bench_function("disabled_event", |b| {
        b.iter(|| {
            disabled.event("trial", || json!({"trial": 1u64, "gflops": 100.0}));
            black_box(());
        });
    });
    c.bench_function("disabled_span", |b| {
        b.iter(|| {
            let g = disabled.span("measure");
            black_box(g.id());
        });
    });
    c.bench_function("disabled_observe", |b| {
        b.iter(|| disabled.observe("measure.us", black_box(123.0)));
    });

    let enabled = Telemetry::new(VecSink::new());
    c.bench_function("enabled_event_vecsink", |b| {
        b.iter(|| enabled.event("trial", || json!({"trial": 1u64, "gflops": 100.0})));
    });
    c.bench_function("enabled_span_vecsink", |b| {
        b.iter(|| {
            let g = enabled.span("measure");
            black_box(g.id());
        });
    });
    c.bench_function("enabled_observe", |b| {
        b.iter(|| enabled.observe("measure.us", black_box(123.0)));
    });

    // Many samples: each is timed alone, so a mean over few is noise.
    let traced = Telemetry::new(FileSink::from_writer(std::io::sink()));
    let _loop = traced.span("drive_loop");
    let mut hot = c.benchmark_group("hot_call");
    hot.sample_size(200_000);
    hot.bench_function("written_measure_span", |b| {
        b.iter(|| {
            let g = traced.span("measure");
            black_box(g.id());
        });
    });
    let batch = traced.fold();
    let _folding = batch.enter();
    hot.bench_function("folded_measure_call", |b| {
        b.iter(|| {
            let g = traced.call_span("measure");
            black_box(g.id());
        });
    });
    hot.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
