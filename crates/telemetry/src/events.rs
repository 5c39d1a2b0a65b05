//! Typed views of the domain events the tuning stack emits.
//!
//! Trace consumers used to poke at `Record::Event` payloads with ad-hoc
//! JSON indexing, which silently yields zeros when a field is renamed.
//! This module is the single place that knows each event's payload shape:
//! every accessor returns `None` for a record that is not that event or
//! whose payload is missing a required field, so misparses are visible to
//! the caller instead of becoming fabricated data. An event gets a typed
//! view only when some consumer reads it; the rest are named here so
//! emitters agree on their names.

use crate::record::Record;
use serde_json::Value;

/// Name of the BAO scope-radius adaptation event.
pub const RADIUS_EVENT: &str = "bao.radius";
/// Name of the per-invocation SA search summary event.
pub const SA_DONE_EVENT: &str = "sa.done";
/// Name of the task-tuning start event.
pub const TUNE_START_EVENT: &str = "tune.start";
/// Name of the injected/observed measurement-fault event.
pub const MEASURE_FAULT_EVENT: &str = "measure.fault";
/// Name of the transient-fault retry event.
pub const MEASURE_RETRY_EVENT: &str = "measure.retry";
/// Name of the crash-safe resume event (a tuning loop replaying a log).
pub const TUNE_RESUME_EVENT: &str = "tune.resume";
/// Name of the periodic liveness event the snapshot writer emits.
pub const RUN_HEARTBEAT_EVENT: &str = "run.heartbeat";

fn event_parts<'a>(rec: &'a Record, expect: &str) -> Option<(Option<u64>, u64, &'a Value)> {
    match rec {
        Record::Event { name, span, t_us, fields } if name == expect => {
            Some((*span, *t_us, fields))
        }
        _ => None,
    }
}

/// One `bao.radius` event: the adaptive-neighborhood state at one BAO step.
#[derive(Debug, Clone, PartialEq)]
pub struct RadiusEvent {
    /// BAO iteration counter.
    pub step: u64,
    /// Relative improvement r_t that drove the decision (`None` on the
    /// first step, before any improvement is defined).
    pub r_t: Option<f64>,
    /// Current scope radius after widening.
    pub radius: f64,
    /// Whether this step widened the radius.
    pub widened: bool,
    /// Consecutive sub-η steps so far.
    pub stall_widenings: u64,
    /// Innermost open span at emission time.
    pub span: Option<u64>,
    /// Emission time, µs since telemetry start.
    pub t_us: u64,
}

impl RadiusEvent {
    /// Parses a [`Record`] as a radius event; `None` for anything else.
    #[must_use]
    pub fn from_record(rec: &Record) -> Option<RadiusEvent> {
        let (span, t_us, fields) = event_parts(rec, RADIUS_EVENT)?;
        Some(RadiusEvent {
            step: fields["step"].as_u64()?,
            r_t: fields["r_t"].as_f64(),
            radius: fields["radius"].as_f64()?,
            widened: fields["widened"].as_bool().unwrap_or(false),
            stall_widenings: fields["stall_widenings"].as_u64().unwrap_or(0),
            span,
            t_us,
        })
    }
}

/// One `sa.done` event: the outcome of one simulated-annealing search.
#[derive(Debug, Clone, PartialEq)]
pub struct SaDoneEvent {
    /// Proposals accepted across the whole search.
    pub accepted: u64,
    /// Proposals rejected across the whole search.
    pub rejected: u64,
    /// Innermost open span at emission time.
    pub span: Option<u64>,
    /// Emission time, µs since telemetry start.
    pub t_us: u64,
}

impl SaDoneEvent {
    /// Parses a [`Record`] as an SA summary event; `None` for anything else.
    #[must_use]
    pub fn from_record(rec: &Record) -> Option<SaDoneEvent> {
        let (span, t_us, fields) = event_parts(rec, SA_DONE_EVENT)?;
        Some(SaDoneEvent {
            accepted: fields["accepted"].as_u64()?,
            rejected: fields["rejected"].as_u64()?,
            span,
            t_us,
        })
    }

    /// Fraction of proposals accepted (0.0 when the search made none).
    #[must_use]
    pub fn accept_rate(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let rate = self.accepted as f64 / total as f64;
            rate
        }
    }
}

/// One `run.heartbeat` event: periodic liveness proof from a running tune.
///
/// Carries *wall-clock* time (unlike `t_us`, which is process-relative), so
/// `aaltune runs` can compare against "now" and flag a run whose heartbeats
/// stopped — a crashed run looks exactly like a slow one otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatEvent {
    /// Wall-clock milliseconds since the Unix epoch at emission.
    pub unix_ms: u64,
    /// Total live trials measured so far (across tasks).
    pub trials: u64,
    /// Tasks fully tuned so far.
    pub tasks_done: u64,
    /// Task currently tuning (`""` between tasks).
    pub task: String,
    /// Innermost open span at emission time.
    pub span: Option<u64>,
    /// Emission time, µs since telemetry start.
    pub t_us: u64,
}

impl HeartbeatEvent {
    /// Parses a [`Record`] as a heartbeat event; `None` for anything else.
    #[must_use]
    pub fn from_record(rec: &Record) -> Option<HeartbeatEvent> {
        let (span, t_us, fields) = event_parts(rec, RUN_HEARTBEAT_EVENT)?;
        Some(HeartbeatEvent {
            unix_ms: fields["unix_ms"].as_u64()?,
            trials: fields["trials"].as_u64().unwrap_or(0),
            tasks_done: fields["tasks_done"].as_u64().unwrap_or(0),
            task: fields["task"].as_str().unwrap_or("").to_string(),
            span,
            t_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn ev(name: &str, fields: Value) -> Record {
        Record::Event { name: name.into(), span: Some(7), t_us: 42, fields }
    }

    #[test]
    fn wrong_name_or_missing_field_is_none() {
        let other = ev(SA_DONE_EVENT, json!({"step": 1u64, "radius": 2.0}));
        assert!(RadiusEvent::from_record(&other).is_none());
        let missing = ev(RADIUS_EVENT, json!({"step": 1u64}));
        assert!(RadiusEvent::from_record(&missing).is_none());
        let non_event = Record::Counter { name: RADIUS_EVENT.into(), value: 1 };
        assert!(RadiusEvent::from_record(&non_event).is_none());
    }

    #[test]
    fn radius_event_tolerates_null_rt() {
        let rec = ev(
            RADIUS_EVENT,
            json!({
                "step": 5u64,
                "r_t": Value::Null,
                "eta": 0.02,
                "radius": 2.5,
                "widened": true,
                "stall_widenings": 2u64,
            }),
        );
        let r = RadiusEvent::from_record(&rec).unwrap();
        assert_eq!(r.step, 5);
        assert_eq!(r.r_t, None);
        assert!(r.widened);
        assert_eq!(r.stall_widenings, 2);
    }

    #[test]
    fn sa_done_accept_rate() {
        let rec = ev(SA_DONE_EVENT, json!({"accepted": 30u64, "rejected": 10u64}));
        let s = SaDoneEvent::from_record(&rec).unwrap();
        assert!((s.accept_rate() - 0.75).abs() < 1e-12);
        let empty = ev(SA_DONE_EVENT, json!({"accepted": 0u64, "rejected": 0u64}));
        assert_eq!(SaDoneEvent::from_record(&empty).unwrap().accept_rate(), 0.0);
    }

    #[test]
    fn heartbeat_round_trips_and_requires_wall_clock() {
        let rec = ev(
            RUN_HEARTBEAT_EVENT,
            json!({"unix_ms": 1_700_000_000_000u64, "trials": 96u64,
                   "tasks_done": 2u64, "task": "m.T3"}),
        );
        let h = HeartbeatEvent::from_record(&rec).unwrap();
        assert_eq!(h.unix_ms, 1_700_000_000_000);
        assert_eq!(h.trials, 96);
        assert_eq!(h.tasks_done, 2);
        assert_eq!(h.task, "m.T3");
        // unix_ms is the staleness signal: without it the event is useless.
        let missing = ev(RUN_HEARTBEAT_EVENT, json!({"trials": 1u64}));
        assert!(HeartbeatEvent::from_record(&missing).is_none());
    }
}
