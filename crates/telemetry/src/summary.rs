//! Turning a JSONL trace back into numbers: per-phase time breakdown,
//! the aggregated span tree, counter and histogram tables, and the BAO /
//! SA adaptation series. One fold fills all of them in a single streaming
//! pass, so `aaltune trace`, `aaltune report` and `aaltune runs` read
//! the same numbers.

use crate::events::{HeartbeatEvent, RadiusEvent, SaDoneEvent};
use crate::metrics::Histogram;
use crate::record::Record;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;
use std::path::Path;

/// Aggregated view of one trace.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    /// Per span name: aggregated timing.
    pub spans: BTreeMap<String, SpanStats>,
    /// The span tree aggregated by name path: spans with the same path
    /// merge, so repeated phases (512 `measure` spans) become one node
    /// with a count. The synthetic root is named `"run"` and its total is
    /// the sum of its children.
    pub flame: FlameNode,
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
    /// Every BAO radius-adaptation event, in emission order.
    pub radius: Vec<RadiusEvent>,
    /// Every SA search summary, in emission order.
    pub sa: Vec<SaDoneEvent>,
    /// The last well-formed `run.heartbeat` event, if any.
    pub last_heartbeat: Option<HeartbeatEvent>,
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
    /// Number of completed spans with this name, a folded span counting
    /// as the calls it stands for.
    pub count: u64,
    /// Summed wall time, µs.
    pub total_us: u64,
    /// Summed wall time minus time attributed to child spans, µs. This is
    /// the per-phase breakdown: self time answers "where did the run
    /// actually spend its wall clock".
    pub self_us: u64,
}

/// One node of the aggregated span tree.
#[derive(Debug, Clone, Default)]
pub struct FlameNode {
    /// Span name (the synthetic root is `"run"`).
    pub name: String,
    /// Summed wall time of all spans merged into this node, µs.
    pub total_us: u64,
    /// How many spans merged into this node (a folded span counts its
    /// calls).
    pub count: u64,
    /// Child phases, in the order their first span ended.
    pub children: Vec<FlameNode>,
}

impl FlameNode {
    fn new(name: &str) -> FlameNode {
        FlameNode { name: name.to_string(), ..FlameNode::default() }
    }

    fn child_mut(&mut self, name: &str) -> &mut FlameNode {
        let i = match self.children.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.children.push(FlameNode::new(name));
                self.children.len() - 1
            }
        };
        &mut self.children[i]
    }

    /// Wall time not attributed to any child, µs.
    #[must_use]
    pub fn self_us(&self) -> u64 {
        self.total_us.saturating_sub(self.children.iter().map(|c| c.total_us).sum())
    }

    /// Depth of the tree below (and including) this node.
    #[must_use]
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(FlameNode::depth).max().unwrap_or(0)
    }
}

/// The one pass over a record stream that fills every table of a
/// [`TraceSummary`].
///
/// Counter and histogram records are cumulative snapshots within one
/// process; a [`Record::Schema`] marker mid-stream means a new process
/// appended to the trace (crash-safe resume), so the finished segment's
/// final snapshots are committed — summed for counters, merged for
/// histograms — before the new segment's snapshots start accumulating.
/// A new process also numbers its spans from 1 again, so the spans the
/// finished segment left open are counted as unclosed and forgotten.
struct Fold {
    out: TraceSummary,
    /// Open span id → (name, parent). Children close before parents, so
    /// every ancestor of an ending span is still here.
    open: BTreeMap<u64, (String, Option<u64>)>,
    /// Span id → child time accumulated so far.
    child_time: BTreeMap<u64, u64>,
    /// Last snapshot per name in the current process segment.
    seg_counters: BTreeMap<String, u64>,
    seg_histograms: BTreeMap<String, Histogram>,
}

impl Fold {
    fn new() -> Fold {
        Fold {
            out: TraceSummary { flame: FlameNode::new("run"), ..TraceSummary::default() },
            open: BTreeMap::new(),
            child_time: BTreeMap::new(),
            seg_counters: BTreeMap::new(),
            seg_histograms: BTreeMap::new(),
        }
    }

    fn push(&mut self, rec: Record) {
        match rec {
            Record::Schema { version } => {
                self.commit_segment();
                self.out.unclosed_spans += self.open.len() as u64;
                self.open.clear();
                self.child_time.clear();
                self.out.schema_version = Some(version);
            }
            Record::SpanStart { id, parent, name, .. } => {
                self.open.insert(id, (name, parent));
            }
            Record::SpanEnd { id, name, dur_us, calls, .. } => {
                // A folded span stands for `calls` calls of its name.
                let calls = calls.unwrap_or(1);
                let (name, parent) = self.open.remove(&id).unwrap_or((name, None));
                let children = self.child_time.remove(&id).unwrap_or(0);
                if let Some(p) = parent {
                    *self.child_time.entry(p).or_insert(0) += dur_us;
                }
                let mut path = vec![name.as_str()];
                let mut cursor = parent;
                for _ in 0..64 {
                    let Some(pid) = cursor else { break };
                    let Some((pname, pparent)) = self.open.get(&pid) else { break };
                    path.push(pname);
                    cursor = *pparent;
                }
                let node = path.iter().rev().fold(&mut self.out.flame, |n, seg| n.child_mut(seg));
                node.total_us += dur_us;
                node.count += calls;
                let stats = self.out.spans.entry(name).or_default();
                stats.count += calls;
                stats.total_us += dur_us;
                stats.self_us += dur_us.saturating_sub(children);
            }
            event @ Record::Event { .. } => {
                if let Some(r) = RadiusEvent::from_record(&event) {
                    self.out.radius.push(r);
                } else if let Some(s) = SaDoneEvent::from_record(&event) {
                    self.out.sa.push(s);
                } else if let Some(h) = HeartbeatEvent::from_record(&event) {
                    self.out.last_heartbeat = Some(h);
                }
                *self.out.events.entry(event.name().to_string()).or_insert(0) += 1;
            }
            Record::Counter { name, value } => {
                self.seg_counters.insert(name, value);
            }
            Record::Histogram { name, hist } => {
                self.seg_histograms.insert(name, hist);
            }
        }
    }

    fn commit_segment(&mut self) {
        for (name, value) in std::mem::take(&mut self.seg_counters) {
            *self.out.counters.entry(name).or_insert(0) += value;
        }
        for (name, hist) in std::mem::take(&mut self.seg_histograms) {
            self.out.histograms.entry(name).or_default().merge(&hist);
        }
    }

    fn finish(mut self) -> TraceSummary {
        self.commit_segment();
        self.out.unclosed_spans += self.open.len() as u64;
        self.out.flame.total_us = self.out.flame.children.iter().map(|c| c.total_us).sum();
        self.out
    }
}

impl TraceSummary {
    /// Parses and folds a JSONL trace one line at a time, never holding
    /// the whole trace. Corrupt, truncated, or non-UTF-8 lines are
    /// counted and skipped, not fatal: a trace cut short by a crash (or a
    /// partially flushed final line) still summarizes. An unreadable tail
    /// counts as one more bad line and ends the stream.
    ///
    /// # Errors
    ///
    /// Only the very first read failing.
    pub fn from_reader(mut reader: impl BufRead) -> std::io::Result<TraceSummary> {
        let mut fold = Fold::new();
        let mut buf = Vec::new();
        let mut first_read = true;
        loop {
            buf.clear();
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                // An unreadable tail (e.g. a bad sector or a stream error
                // mid-file) is truncation, not a reason to drop the prefix.
                Err(_) if !first_read => {
                    fold.out.malformed_lines += 1;
                    break;
                }
                Err(e) => return Err(e),
            }
            first_read = false;
            let Ok(line) = std::str::from_utf8(&buf) else {
                fold.out.malformed_lines += 1;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<Record>(line) {
                Ok(rec) => fold.push(rec),
                Err(_) => fold.out.malformed_lines += 1,
            }
        }
        Ok(fold.finish())
    }

    /// Summarizes the trace at `path`; a missing file reads as `None`
    /// (old run directories have no trace).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the file not existing.
    pub fn load(path: &Path) -> std::io::Result<Option<TraceSummary>> {
        match std::fs::File::open(path) {
            Ok(f) => TraceSummary::from_reader(std::io::BufReader::new(f)).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Folds in-memory records (e.g. from a [`crate::VecSink`]).
    #[must_use]
    pub fn from_records(records: &[Record]) -> TraceSummary {
        let mut fold = Fold::new();
        for rec in records {
            fold.push(rec.clone());
        }
        fold.finish()
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

/// Renders microseconds with an adaptive unit, the way `aaltune trace` and
/// `aaltune report` both print durations.
#[must_use]
pub fn fmt_us(us: u64) -> String {
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
            Record::SpanEnd { id, name: name.into(), t_us: t0 + dur, dur_us: dur, calls: None },
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
    fn a_folded_span_counts_its_calls() {
        // A parent (100µs) holding one folded record of 40 calls (30µs)
        // reads like 40 child spans summing to 30µs; a line without
        // `calls` (written before folding existed) counts once.
        let [p0, p1] = span(1, None, "sa.search", 0, 100);
        let [c0, c1] = span(2, Some(1), "gbt.predict", 10, 30);
        let Record::SpanEnd { id, name, t_us, dur_us, .. } = c1 else { unreachable!() };
        let folded = Record::SpanEnd { id, name, t_us, dur_us, calls: Some(40) };
        let [d0, d1] = span(3, Some(1), "gbt.predict", 60, 5);
        let s = TraceSummary::from_records(&[p0, c0, folded, d0, d1, p1]);
        let predict = s.spans["gbt.predict"];
        assert_eq!((predict.count, predict.total_us, predict.self_us), (41, 35, 35));
        assert_eq!(s.spans["sa.search"].self_us, 65);
        let node = &s.flame.children[0].children[0];
        assert_eq!((node.name.as_str(), node.count, node.total_us), ("gbt.predict", 41, 35));
    }

    #[test]
    fn flame_tree_merges_same_name_paths() {
        // tune_task > bted; then a second tune_task.
        let [t0, t1] = span(1, None, "tune_task", 0, 60);
        let [b0, b1] = span(2, Some(1), "bted", 1, 49);
        let [u0, u1] = span(3, None, "tune_task", 70, 20);
        let s = TraceSummary::from_records(&[t0, b0, b1, t1, u0, u1]);
        let tree = &s.flame;
        assert_eq!(tree.name, "run");
        assert_eq!(tree.children.len(), 1, "both tune_task spans merge");
        let tune = &tree.children[0];
        assert_eq!(tune.name, "tune_task");
        assert_eq!(tune.count, 2);
        assert_eq!(tune.total_us, 80);
        assert_eq!(tune.children[0].name, "bted");
        assert_eq!(tune.children[0].total_us, 49);
        assert_eq!(tune.self_us(), 80 - 49);
        assert_eq!(tree.total_us, 80);
        assert_eq!(tree.depth(), 3);
        // The per-name table comes from the same walk.
        assert_eq!(s.spans["tune_task"].self_us, 80 - 49);
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
    fn a_resumed_segment_reusing_span_ids_starts_clean() {
        // A killed process left span 2 (inside span 1) open after its
        // child 3 ended; the resumed process numbers from 1 again.
        let schema = || Record::Schema { version: crate::TRACE_SCHEMA_VERSION };
        let [a0, _] = span(1, None, "tune_task", 0, 100);
        let [b0, _] = span(2, Some(1), "measure", 1, 90);
        let [c0, c1] = span(3, Some(2), "sim", 2, 40);
        let [x0, x1] = span(2, None, "session.progress", 0, 10);
        let s = TraceSummary::from_records(&[schema(), a0, b0, c0, c1, schema(), x0, x1]);
        assert_eq!(s.unclosed_spans, 2, "the killed segment's open spans stay unclosed");
        let x = s.spans["session.progress"];
        assert_eq!((x.count, x.total_us, x.self_us), (1, 10, 10), "no stale child time");
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
    fn reader_skips_corrupt_lines_and_splits_segments_at_schema_markers() {
        let jsonl = format!(
            "{}\nnot json\n{}\n",
            serde_json::to_string(&Record::Schema { version: 1 }).unwrap(),
            serde_json::to_string(&Record::Counter { name: "c".into(), value: 3 }).unwrap(),
        );
        let s = TraceSummary::from_reader(jsonl.as_bytes()).unwrap();
        assert_eq!(s.schema_version, Some(1));
        assert_eq!(s.malformed_lines, 1);
        assert_eq!(s.counters["c"], 3);
        assert!(s.schema_warning().is_none());
    }

    #[test]
    fn missing_trace_file_loads_as_none() {
        let path = std::env::temp_dir().join("aaltune-no-such-trace.jsonl");
        assert!(TraceSummary::load(&path).unwrap().is_none());
    }

    #[test]
    fn adaptation_series_and_last_heartbeat_come_from_the_same_pass() {
        let ev = |name: &str, t_us: u64, fields: serde_json::Value| Record::Event {
            name: name.into(),
            span: None,
            t_us,
            fields,
        };
        let s = TraceSummary::from_records(&[
            ev("bao.radius", 1, json!({"step": 1u64, "radius": 2.0})),
            ev("sa.done", 2, json!({"accepted": 3u64, "rejected": 1u64})),
            ev("run.heartbeat", 3, json!({"unix_ms": 10u64, "trials": 4u64})),
            ev("bao.radius", 4, json!({"step": 2u64, "r_t": 0.1, "radius": 3.0, "widened": true})),
            ev("run.heartbeat", 5, json!({"unix_ms": 20u64, "trials": 9u64})),
            // Missing its wall clock: not a heartbeat, the earlier one stays last.
            ev("run.heartbeat", 6, json!({"trials": 11u64})),
        ]);
        assert_eq!(s.radius.iter().map(|r| r.step).collect::<Vec<_>>(), [1, 2]);
        assert!(s.radius[1].widened);
        assert_eq!(s.sa.len(), 1);
        assert!((s.sa[0].accept_rate() - 0.75).abs() < 1e-12);
        let hb = s.last_heartbeat.unwrap();
        assert_eq!((hb.unix_ms, hb.trials), (20, 9));
        assert_eq!(s.events["run.heartbeat"], 3);
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
