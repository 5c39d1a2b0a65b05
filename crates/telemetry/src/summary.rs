//! Turning a JSONL trace back into numbers: per-phase time breakdown,
//! counter and histogram tables. Powers the CLI `trace` subcommand.

use crate::metrics::Histogram;
use crate::record::Record;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

/// Aggregated view of one trace.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    /// Per span name: aggregated timing.
    pub spans: BTreeMap<String, SpanStats>,
    /// Per event name: how many were emitted (report events included).
    pub events: BTreeMap<String, u64>,
    /// Final value of each counter. Within one process segment (between
    /// [`Record::Schema`] markers) snapshots are cumulative and the last
    /// wins; across segments — a resumed run appending to the same trace
    /// — segment finals sum.
    pub counters: BTreeMap<String, u64>,
    /// Final snapshot of each histogram, with the same segment rule as
    /// counters: last-wins within a segment, merged across segments.
    pub histograms: BTreeMap<String, Histogram>,
    /// Lines that failed to parse as records.
    pub malformed_lines: u64,
    /// Spans that started but never ended (crashed or truncated trace).
    pub unclosed_spans: u64,
    /// Wire-format version declared by the trace's [`Record::Schema`]
    /// header (`None` for traces predating the header).
    pub schema_version: Option<u32>,
}

/// Timing for every span sharing one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStats {
    /// Number of completed spans with this name.
    pub count: u64,
    /// Summed wall time, µs.
    pub total_us: u64,
    /// Summed wall time minus time attributed to child spans, µs. This is
    /// the per-phase breakdown: self time answers "where did the run
    /// actually spend its wall clock".
    pub self_us: u64,
}

impl TraceSummary {
    /// Parses a JSONL trace. Corrupt, truncated, or non-UTF-8 lines are
    /// counted and skipped ([`crate::record::read_jsonl`]), so a trace cut
    /// short by a crash still summarizes.
    ///
    /// # Errors
    ///
    /// Only the very first read failing.
    pub fn from_reader(reader: impl BufRead) -> std::io::Result<TraceSummary> {
        let (records, malformed) = crate::record::read_jsonl(reader)?;
        let mut s = TraceSummary::from_records(&records);
        s.malformed_lines += malformed;
        Ok(s)
    }

    /// Aggregates in-memory records (e.g. from a [`crate::VecSink`]).
    ///
    /// Counter and histogram records are cumulative snapshots within one
    /// process; a [`Record::Schema`] marker mid-stream means a new
    /// process appended to the trace (crash-safe resume), so the
    /// finished segment's final snapshots are committed — summed for
    /// counters, merged for histograms — before the new segment's
    /// snapshots start accumulating.
    #[must_use]
    pub fn from_records(records: &[Record]) -> TraceSummary {
        let mut out = TraceSummary::default();
        // id → (name, parent) from starts; on end, attribute duration to the
        // span's own name and subtract from the parent's self time.
        let mut open: BTreeMap<u64, (String, Option<u64>)> = BTreeMap::new();
        // id → child time accumulated so far (children end before parents).
        let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
        // Last snapshot per name in the current process segment.
        let mut seg_counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut seg_histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        let commit = |out: &mut TraceSummary,
                      seg_counters: &mut BTreeMap<String, u64>,
                      seg_histograms: &mut BTreeMap<String, Histogram>| {
            for (name, value) in std::mem::take(seg_counters) {
                *out.counters.entry(name).or_insert(0) += value;
            }
            for (name, hist) in std::mem::take(seg_histograms) {
                out.histograms.entry(name).or_default().merge(&hist);
            }
        };
        for rec in records {
            match rec {
                Record::Schema { version } => {
                    commit(&mut out, &mut seg_counters, &mut seg_histograms);
                    out.schema_version = Some(*version);
                }
                Record::SpanStart { id, parent, name, .. } => {
                    open.insert(*id, (name.clone(), *parent));
                }
                Record::SpanEnd { id, name, dur_us, .. } => {
                    let (name, parent) = open.remove(id).unwrap_or_else(|| (name.clone(), None));
                    let children = child_time.remove(id).unwrap_or(0);
                    let stats = out.spans.entry(name).or_default();
                    stats.count += 1;
                    stats.total_us += dur_us;
                    stats.self_us += dur_us.saturating_sub(children);
                    if let Some(p) = parent {
                        *child_time.entry(p).or_insert(0) += dur_us;
                    }
                }
                Record::Event { name, .. } => {
                    *out.events.entry(name.clone()).or_insert(0) += 1;
                }
                Record::Counter { name, value } => {
                    seg_counters.insert(name.clone(), *value);
                }
                Record::Histogram { name, hist } => {
                    seg_histograms.insert(name.clone(), hist.clone());
                }
            }
        }
        commit(&mut out, &mut seg_counters, &mut seg_histograms);
        out.unclosed_spans = open.len() as u64;
        out
    }

    /// Renders the summary as aligned text tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        if !self.spans.is_empty() {
            let total: u64 = self.spans.values().map(|v| v.self_us).sum();
            let _ = writeln!(s, "== Per-phase time breakdown (self time) ==");
            let _ = writeln!(
                s,
                "{:<28} {:>7} {:>12} {:>12} {:>6}",
                "span", "count", "total", "self", "self%"
            );
            let mut rows: Vec<(&String, &SpanStats)> = self.spans.iter().collect();
            rows.sort_by_key(|&(_, st)| std::cmp::Reverse(st.self_us));
            for (name, st) in rows {
                #[allow(clippy::cast_precision_loss)]
                let pct = if total == 0 { 0.0 } else { 100.0 * st.self_us as f64 / total as f64 };
                let _ = writeln!(
                    s,
                    "{:<28} {:>7} {:>12} {:>12} {:>5.1}%",
                    name,
                    st.count,
                    fmt_us(st.total_us),
                    fmt_us(st.self_us),
                    pct
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(s, "\n== Counters ==");
            for (name, value) in &self.counters {
                let _ = writeln!(s, "{name:<40} {value:>10}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(s, "\n== Histograms ==");
            let _ = writeln!(
                s,
                "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean", "p50", "p90", "p99"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    s,
                    "{:<28} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                    name,
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.quantile(0.99)
                );
            }
        }
        if !self.events.is_empty() {
            let _ = writeln!(s, "\n== Events ==");
            for (name, n) in &self.events {
                let _ = writeln!(s, "{name:<40} {n:>10}");
            }
        }
        if self.malformed_lines > 0 {
            let _ = writeln!(s, "\n({} malformed line(s) skipped)", self.malformed_lines);
        }
        if let Some(warning) = self.schema_warning() {
            let _ = writeln!(s, "warning: {warning}");
        }
        if self.unclosed_spans > 0 {
            let _ =
                writeln!(s, "({} span(s) never closed — truncated trace?)", self.unclosed_spans);
        }
        if s.is_empty() {
            s.push_str("(empty trace)\n");
        }
        s
    }

    /// A human-readable warning when the trace's declared wire-format
    /// version is newer than this crate understands, `None` otherwise.
    /// Traces with no header predate versioning and parse as version 1.
    #[must_use]
    pub fn schema_warning(&self) -> Option<String> {
        match self.schema_version {
            Some(v) if v > crate::TRACE_SCHEMA_VERSION => Some(format!(
                "trace declares schema version {v}, newer than the supported {} — \
                 fields may be misread",
                crate::TRACE_SCHEMA_VERSION
            )),
            _ => None,
        }
    }
}

/// Renders microseconds with an adaptive unit.
fn fmt_us(us: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let us_f = us as f64;
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us_f / 1e3)
    } else {
        format!("{:.2}s", us_f / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn span(id: u64, parent: Option<u64>, name: &str, t0: u64, dur: u64) -> [Record; 2] {
        [
            Record::SpanStart { id, parent, name: name.into(), t_us: t0 },
            Record::SpanEnd { id, name: name.into(), t_us: t0 + dur, dur_us: dur },
        ]
    }

    #[test]
    fn self_time_subtracts_children() {
        // parent (100µs) wraps child (60µs): parent self = 40µs.
        let [p0, p1] = span(1, None, "parent", 0, 100);
        let [c0, c1] = span(2, Some(1), "child", 10, 60);
        let s = TraceSummary::from_records(&[p0, c0, c1, p1]);
        assert_eq!(s.spans["parent"].total_us, 100);
        assert_eq!(s.spans["parent"].self_us, 40);
        assert_eq!(s.spans["child"].self_us, 60);
        assert_eq!(s.unclosed_spans, 0);
    }

    #[test]
    fn counters_keep_last_snapshot() {
        let recs = [
            Record::Counter { name: "c".into(), value: 5 },
            Record::Counter { name: "c".into(), value: 9 },
        ];
        let s = TraceSummary::from_records(&recs);
        assert_eq!(s.counters["c"], 9);
    }

    #[test]
    fn schema_markers_split_counter_segments_that_sum() {
        // One process counted to 9 (snapshots 5 then 9), crashed; the
        // resumed process appended a Schema header and counted to 4.
        let recs = [
            Record::Schema { version: crate::TRACE_SCHEMA_VERSION },
            Record::Counter { name: "c".into(), value: 5 },
            Record::Counter { name: "c".into(), value: 9 },
            Record::Schema { version: crate::TRACE_SCHEMA_VERSION },
            Record::Counter { name: "c".into(), value: 4 },
            Record::Counter { name: "only_second".into(), value: 2 },
        ];
        let s = TraceSummary::from_records(&recs);
        assert_eq!(s.counters["c"], 13, "segment finals sum across a resume");
        assert_eq!(s.counters["only_second"], 2);
    }

    #[test]
    fn schema_markers_merge_histogram_segments() {
        let mut h1 = Histogram::new();
        h1.observe(10.0);
        let mut h1b = h1.clone();
        h1b.observe(20.0);
        let mut h2 = Histogram::new();
        h2.observe(1000.0);
        let recs = [
            Record::Schema { version: crate::TRACE_SCHEMA_VERSION },
            // Two flushes in one process: cumulative snapshots, last wins.
            Record::Histogram { name: "h".into(), hist: h1 },
            Record::Histogram { name: "h".into(), hist: h1b },
            Record::Schema { version: crate::TRACE_SCHEMA_VERSION },
            Record::Histogram { name: "h".into(), hist: h2 },
        ];
        let s = TraceSummary::from_records(&recs);
        let h = &s.histograms["h"];
        assert_eq!(h.count(), 3, "2 from the first segment's final + 1 appended");
        assert!((h.sum() - 1030.0).abs() / 1030.0 < 0.1, "sum={}", h.sum());
        // The merged tail is visible: p99 sits near the appended 1000.
        assert!(h.quantile(0.99) > 500.0);
    }

    #[test]
    fn jsonl_round_trip_summarizes() {
        let mut h = Histogram::new();
        h.observe(10.0);
        let records: Vec<Record> = span(1, None, "tune", 0, 500)
            .into_iter()
            .chain([
                Record::Event {
                    name: "trial".into(),
                    span: Some(1),
                    t_us: 5,
                    fields: json!({"gflops": 10.0}),
                },
                Record::Counter { name: "sa.accepted".into(), value: 7 },
                Record::Histogram { name: "measure.us".into(), hist: h },
            ])
            .collect();
        let jsonl: String =
            records.iter().map(|r| serde_json::to_string(r).unwrap() + "\n").collect();
        let s = TraceSummary::from_reader(jsonl.as_bytes()).unwrap();
        assert_eq!(s.spans["tune"].count, 1);
        assert_eq!(s.events["trial"], 1);
        assert_eq!(s.counters["sa.accepted"], 7);
        assert_eq!(s.histograms["measure.us"].count(), 1);
        let rendered = s.render();
        assert!(rendered.contains("tune"), "{rendered}");
        assert!(rendered.contains("sa.accepted"), "{rendered}");
    }

    #[test]
    fn malformed_and_truncated_traces_still_summarize() {
        let jsonl =
            "not json\n{\"SpanStart\":{\"id\":1,\"parent\":null,\"name\":\"x\",\"t_us\":0}}\n";
        let s = TraceSummary::from_reader(jsonl.as_bytes()).unwrap();
        assert_eq!(s.malformed_lines, 1);
        assert_eq!(s.unclosed_spans, 1);
        assert!(s.render().contains("truncated"));
    }

    #[test]
    fn non_utf8_lines_count_as_malformed() {
        let mut bytes = b"{\"Counter\":{\"name\":\"c\",\"value\":3}}\n".to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE, 0xFD, b'\n']);
        bytes.extend_from_slice(b"{\"Counter\":{\"name\":\"d\",\"value\":4}}\n");
        let s = TraceSummary::from_reader(bytes.as_slice()).unwrap();
        assert_eq!(s.malformed_lines, 1);
        assert_eq!(s.counters["c"], 3);
        assert_eq!(s.counters["d"], 4, "lines after a corrupt one must still parse");
    }

    #[test]
    fn schema_version_is_tracked_and_newer_versions_warn() {
        let current =
            TraceSummary::from_records(&[Record::Schema { version: crate::TRACE_SCHEMA_VERSION }]);
        assert_eq!(current.schema_version, Some(crate::TRACE_SCHEMA_VERSION));
        assert!(current.schema_warning().is_none());

        let legacy = TraceSummary::from_records(&[Record::Counter { name: "c".into(), value: 1 }]);
        assert_eq!(legacy.schema_version, None);
        assert!(legacy.schema_warning().is_none());

        let future = TraceSummary::from_records(&[Record::Schema {
            version: crate::TRACE_SCHEMA_VERSION + 1,
        }]);
        let warning = future.schema_warning().unwrap();
        assert!(warning.contains("newer"), "{warning}");
        assert!(future.render().contains("warning:"));
    }
}
