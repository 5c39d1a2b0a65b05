//! The wire format: one [`Record`] per JSONL line.

use crate::metrics::Histogram;
use serde::{Deserialize, Map, Serialize};
use serde_json::Value;

/// One telemetry record. Traces are streams of these, serialized as JSON
/// lines in the order they were emitted.
///
/// Timestamps (`t_us`) are microseconds since the owning
/// [`crate::Telemetry`] handle was created, so traces are comparable across
/// processes without wall-clock coupling.
#[derive(Debug, Clone, PartialEq, Deserialize)]
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
        /// Wall-time duration of the span in µs; for a folded span, the
        /// summed durations of its calls.
        dur_us: u64,
        /// How many calls a folded span stands for (see
        /// [`crate::Telemetry::fold`]). Absent (`None`) means one: the
        /// field is left out of the line, and lines written before it
        /// existed read as one call.
        calls: Option<u64>,
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

/// The derive's externally tagged shape, except that a
/// [`Record::SpanEnd`] without a call count leaves `calls` out, so a
/// plain span's line is as short as it was before folded spans existed.
impl Serialize for Record {
    fn serialize(&self) -> Value {
        let (variant, fields): (&str, Vec<(&str, Value)>) = match self {
            Record::Schema { version } => ("Schema", vec![("version", version.serialize())]),
            Record::SpanStart { id, parent, name, t_us } => (
                "SpanStart",
                vec![
                    ("id", id.serialize()),
                    ("parent", parent.serialize()),
                    ("name", name.serialize()),
                    ("t_us", t_us.serialize()),
                ],
            ),
            Record::SpanEnd { id, name, t_us, dur_us, calls } => {
                let mut f = vec![
                    ("id", id.serialize()),
                    ("name", name.serialize()),
                    ("t_us", t_us.serialize()),
                    ("dur_us", dur_us.serialize()),
                ];
                if let Some(calls) = calls {
                    f.push(("calls", calls.serialize()));
                }
                ("SpanEnd", f)
            }
            Record::Event { name, span, t_us, fields } => (
                "Event",
                vec![
                    ("name", name.serialize()),
                    ("span", span.serialize()),
                    ("t_us", t_us.serialize()),
                    ("fields", fields.clone()),
                ],
            ),
            Record::Counter { name, value } => {
                ("Counter", vec![("name", name.serialize()), ("value", value.serialize())])
            }
            Record::Histogram { name, hist } => {
                ("Histogram", vec![("name", name.serialize()), ("hist", hist.serialize())])
            }
        };
        let fields: Map = fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let mut m = Map::new();
        m.insert(variant.to_string(), Value::Object(fields));
        Value::Object(m)
    }
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
            Record::SpanEnd { id: 2, name: "b".into(), t_us: 30, dur_us: 18, calls: None },
            Record::SpanEnd { id: 3, name: "c".into(), t_us: 40, dur_us: 9, calls: Some(121) },
            Record::Counter { name: "sa.accepted".into(), value: 42 },
            Record::Histogram { name: "measure.us".into(), hist: h },
        ];
        for r in records {
            let line = serde_json::to_string(&r).unwrap();
            let back: Record = serde_json::from_str(&line).unwrap();
            assert_eq!(r, back, "line was: {line}");
        }
    }

    #[test]
    fn a_span_end_without_calls_keeps_the_old_line() {
        let plain = Record::SpanEnd { id: 2, name: "b".into(), t_us: 30, dur_us: 18, calls: None };
        let line = serde_json::to_string(&plain).unwrap();
        assert_eq!(line, r#"{"SpanEnd":{"id":2,"name":"b","t_us":30,"dur_us":18}}"#);
        let folded =
            Record::SpanEnd { id: 2, name: "b".into(), t_us: 30, dur_us: 18, calls: Some(4) };
        let line = serde_json::to_string(&folded).unwrap();
        assert_eq!(line, r#"{"SpanEnd":{"id":2,"name":"b","t_us":30,"dur_us":18,"calls":4}}"#);
    }
}
