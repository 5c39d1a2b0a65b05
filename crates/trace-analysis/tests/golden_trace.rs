//! Golden-file tests: `aaltune trace` and `aaltune report` output pinned
//! on the committed run directory `tests/fixtures/traced/`.
//!
//! Its `trace.jsonl` is two real traces of mobilenet_v1 run by the CLI
//! (seed 0, 2 workers): a 72-trial `bted+bao` run on task 0 (so it holds
//! `bao.radius` events), then a torn line, then a 96-trial `autotvm` run
//! on task 1 (so it holds `sa.done`), whose `Schema` header opens a second
//! process segment the way `tune --resume` does. `trace.txt` and
//! `report.html` beside it are what `aaltune trace` and `aaltune report
//! --html` printed for it when the trace was still read record-by-record
//! into memory; the streaming fold must reproduce them byte for byte.
//! Since then the report's executor panel has dropped its builder/runner
//! busy rows and queue-depth lines (the executor no longer has stages or
//! queues), though the trace still holds those metrics.

use std::path::PathBuf;
use telemetry::TraceSummary;
use trace_analysis::{render_report, LoadedRun};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/traced").join(name)
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).unwrap()
}

#[test]
fn trace_summary_matches_golden_output() {
    let summary = TraceSummary::load(&fixture("trace.jsonl")).unwrap().unwrap();
    assert_eq!(summary.malformed_lines, 1, "the torn line between the segments");
    assert!(!summary.radius.is_empty() && !summary.sa.is_empty());
    assert_eq!(summary.render(), golden("trace.txt"));
}

#[test]
fn report_matches_golden_output() {
    let run = LoadedRun::load(&fixture("")).unwrap();
    assert_eq!(render_report(&run, None, None), golden("report.html"));
}
