//! Reconstructing analysis-ready series from a raw JSONL trace.
//!
//! [`TraceSummary`](telemetry::TraceSummary) aggregates a trace into tables;
//! this module keeps the *sequence*: the span tree with durations
//! (flamegraph input) and the BAO / SA adaptation series, recovered from
//! the flat record stream. Per-trial series (convergence curves) come from
//! the trial logs, not the trace.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;
use telemetry::events::{RadiusEvent, SaDoneEvent};
use telemetry::Record;

/// A trace loaded back into memory, with the same robustness contract as
/// [`telemetry::TraceSummary::from_reader`]: corrupt, truncated, or
/// non-UTF-8 lines are counted and skipped, never fatal mid-file.
#[derive(Debug, Default, Clone)]
pub struct TraceData {
    /// Every record that parsed, in emission order.
    pub records: Vec<Record>,
    /// Lines that failed to parse.
    pub malformed_lines: u64,
    /// Declared wire-format version (`None` for pre-versioning traces).
    pub schema_version: Option<u32>,
}

impl TraceData {
    /// Parses a JSONL trace stream.
    ///
    /// # Errors
    ///
    /// Only the very first read failing surfaces as an error; later I/O
    /// failures count as truncation.
    pub fn from_reader(reader: impl BufRead) -> std::io::Result<TraceData> {
        let (records, malformed_lines) = telemetry::record::read_jsonl(reader)?;
        // Schema markers stay in the stream: they delimit process segments,
        // which segment-aware consumers ([`telemetry::TraceSummary`]) need
        // to sum counters across a resumed run correctly.
        let schema_version = records.iter().rev().find_map(|r| match r {
            Record::Schema { version } => Some(*version),
            _ => None,
        });
        Ok(TraceData { records, malformed_lines, schema_version })
    }

    /// Loads `path`; a missing file reads as `None` (old run directories
    /// have no trace), any other I/O failure is an error.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the file not existing.
    pub fn load(path: &Path) -> std::io::Result<Option<TraceData>> {
        match std::fs::File::open(path) {
            Ok(f) => TraceData::from_reader(std::io::BufReader::new(f)).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Same warning rule as [`telemetry::TraceSummary::schema_warning`].
    #[must_use]
    pub fn schema_warning(&self) -> Option<String> {
        match self.schema_version {
            Some(v) if v > telemetry::TRACE_SCHEMA_VERSION => Some(format!(
                "trace declares schema version {v}, newer than the supported {} — \
                 fields may be misread",
                telemetry::TRACE_SCHEMA_VERSION
            )),
            _ => None,
        }
    }

    /// All BAO radius-adaptation events, in emission order.
    #[must_use]
    pub fn radius_series(&self) -> Vec<RadiusEvent> {
        self.records.iter().filter_map(RadiusEvent::from_record).collect()
    }

    /// All SA search summaries, in emission order.
    #[must_use]
    pub fn sa_series(&self) -> Vec<SaDoneEvent> {
        self.records.iter().filter_map(SaDoneEvent::from_record).collect()
    }

    /// The aggregated span tree: children with the same name path merge,
    /// so repeated phases (512 `measure` spans) become one node with a
    /// count. The synthetic root's total is the sum of its children.
    #[must_use]
    pub fn flame_tree(&self) -> FlameNode {
        let mut open: BTreeMap<u64, (String, Option<u64>)> = BTreeMap::new();
        let mut root = FlameNode::new("run");
        for rec in &self.records {
            match rec {
                Record::SpanStart { id, parent, name, .. } => {
                    open.insert(*id, (name.clone(), *parent));
                }
                Record::SpanEnd { id, name, dur_us, .. } => {
                    // Children close before parents, so every ancestor is
                    // still in `open` and the full name path is available.
                    let (name, parent) = open.remove(id).unwrap_or_else(|| (name.clone(), None));
                    let mut path = vec![name];
                    let mut cursor = parent;
                    for _ in 0..64 {
                        let Some(pid) = cursor else { break };
                        let Some((pname, pparent)) = open.get(&pid) else { break };
                        path.push(pname.clone());
                        cursor = *pparent;
                    }
                    path.reverse();
                    let mut node = &mut root;
                    for seg in path {
                        node = node.child_mut(&seg);
                    }
                    node.total_us += dur_us;
                    node.count += 1;
                }
                _ => {}
            }
        }
        root.total_us = root.children.iter().map(|c| c.total_us).sum();
        root
    }
}

/// One node of the aggregated span tree.
#[derive(Debug, Clone, Default)]
pub struct FlameNode {
    /// Span name (the synthetic root is `"run"`).
    pub name: String,
    /// Summed wall time of all spans merged into this node, µs.
    pub total_us: u64,
    /// How many spans merged into this node.
    pub count: u64,
    /// Child phases, in first-seen order.
    pub children: Vec<FlameNode>,
}

impl FlameNode {
    fn new(name: &str) -> FlameNode {
        FlameNode { name: name.to_string(), ..FlameNode::default() }
    }

    fn child_mut(&mut self, name: &str) -> &mut FlameNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            &mut self.children[i]
        } else {
            self.children.push(FlameNode::new(name));
            // aal-lint: allow(unwrap, reason = "a child was pushed on the line above")
            self.children.last_mut().expect("just pushed")
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: Option<u64>, name: &str, t: u64) -> Record {
        Record::SpanStart { id, parent, name: name.into(), t_us: t }
    }

    fn end(id: u64, name: &str, t: u64, dur: u64) -> Record {
        Record::SpanEnd { id, name: name.into(), t_us: t, dur_us: dur }
    }

    fn two_task_trace() -> TraceData {
        // tune_task > bted; then a second tune_task.
        let records = vec![
            start(1, None, "tune_task", 0),
            start(2, Some(1), "bted", 1),
            end(2, "bted", 50, 49),
            end(1, "tune_task", 60, 60),
            start(3, None, "tune_task", 70),
            end(3, "tune_task", 90, 20),
        ];
        TraceData { records, ..TraceData::default() }
    }

    #[test]
    fn flame_tree_merges_same_name_paths() {
        let data = two_task_trace();
        let tree = data.flame_tree();
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
    }

    #[test]
    fn loader_skips_corrupt_lines_and_keeps_schema_markers() {
        let jsonl = format!(
            "{}\nnot json\n{}\n",
            serde_json::to_string(&Record::Schema { version: 1 }).unwrap(),
            serde_json::to_string(&Record::Counter { name: "c".into(), value: 3 }).unwrap(),
        );
        let data = TraceData::from_reader(jsonl.as_bytes()).unwrap();
        assert_eq!(data.schema_version, Some(1));
        assert_eq!(data.malformed_lines, 1);
        // Schema markers stay in the stream (they delimit process segments
        // for resumed-run counter summing).
        assert_eq!(data.records.len(), 2);
        assert!(matches!(data.records[0], Record::Schema { version: 1 }));
        assert!(data.schema_warning().is_none());
        let future = TraceData { schema_version: Some(99), ..TraceData::default() };
        assert!(future.schema_warning().unwrap().contains("newer"));
    }

    #[test]
    fn missing_trace_file_loads_as_none() {
        let path = std::env::temp_dir().join("aaltune-no-such-trace.jsonl");
        assert!(TraceData::load(&path).unwrap().is_none());
    }
}
