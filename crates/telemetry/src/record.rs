//! The wire format: one [`Record`] per JSONL line.

use crate::metrics::Histogram;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// One telemetry record. Traces are streams of these, serialized as JSON
/// lines in the order they were emitted.
///
/// Timestamps (`t_us`) are microseconds since the owning
/// [`crate::Telemetry`] handle was created, so traces are comparable across
/// processes without wall-clock coupling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// Trace header: the wire-format version the rest of the stream uses.
    ///
    /// Emitted once, first, by every [`crate::Telemetry`] handle. Consumers
    /// compare `version` against [`crate::TRACE_SCHEMA_VERSION`] and warn on
    /// newer streams instead of silently misparsing them.
    Schema {
        /// Wire-format version ([`crate::TRACE_SCHEMA_VERSION`] at write
        /// time).
        version: u32,
    },
    /// A span opened: a named region of wall time, possibly nested.
    SpanStart {
        /// Span id, unique within the trace.
        id: u64,
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Span name (e.g. `"bted"`, `"bs.fit"`).
        name: String,
        /// Start time, µs since telemetry start.
        t_us: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Id matching the corresponding [`Record::SpanStart`].
        id: u64,
        /// Span name, repeated so single-line consumers need no join.
        name: String,
        /// End time, µs since telemetry start.
        t_us: u64,
        /// Wall-time duration of the span in µs.
        dur_us: u64,
    },
    /// A point-in-time event with a typed payload.
    Event {
        /// Event name (e.g. `"tune.start"`, `"bao.radius"`).
        name: String,
        /// Innermost open span on the emitting thread, if any.
        span: Option<u64>,
        /// Emission time, µs since telemetry start.
        t_us: u64,
        /// Structured payload.
        fields: Value,
    },
    /// Cumulative value of a monotonic counter at flush time.
    Counter {
        /// Counter name.
        name: String,
        /// Cumulative count.
        value: u64,
    },
    /// Snapshot of a histogram at flush time.
    Histogram {
        /// Histogram name.
        name: String,
        /// The aggregated distribution.
        hist: Histogram,
    },
}

impl Record {
    /// The record's name field regardless of variant.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Record::Schema { .. } => "schema",
            Record::SpanStart { name, .. }
            | Record::SpanEnd { name, .. }
            | Record::Event { name, .. }
            | Record::Counter { name, .. }
            | Record::Histogram { name, .. } => name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn every_variant_round_trips_through_json() {
        let mut h = Histogram::new();
        h.observe(3.5);
        h.observe(900.0);
        let records = vec![
            Record::Schema { version: 1 },
            Record::SpanStart { id: 1, parent: None, name: "a".into(), t_us: 10 },
            Record::SpanStart { id: 2, parent: Some(1), name: "b".into(), t_us: 12 },
            Record::Event {
                name: "trial".into(),
                span: Some(2),
                t_us: 15,
                fields: json!({"trial": 3u64, "gflops": 120.5}),
            },
            Record::SpanEnd { id: 2, name: "b".into(), t_us: 30, dur_us: 18 },
            Record::Counter { name: "sa.accepted".into(), value: 42 },
            Record::Histogram { name: "measure.us".into(), hist: h },
        ];
        for r in records {
            let line = serde_json::to_string(&r).unwrap();
            let back: Record = serde_json::from_str(&line).unwrap();
            assert_eq!(r, back, "line was: {line}");
        }
    }
}
