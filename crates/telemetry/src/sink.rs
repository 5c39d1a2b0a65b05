//! Where records go: the [`Sink`] trait and its implementations.

use crate::record::Record;
use crate::sync::lock_or_recover;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Receives every record a [`crate::Telemetry`] handle emits.
///
/// Sinks are shared across threads (BTED batches run on scoped threads), so
/// implementations synchronize internally.
pub trait Sink: Send + Sync {
    /// Consumes one record.
    fn record(&self, rec: &Record);

    /// Flushes any buffered output (called by [`crate::Telemetry::flush`]).
    fn flush(&self) {}
}

/// Discards everything.
///
/// Rarely needed directly: a [`crate::Telemetry::disabled`] handle
/// short-circuits before records (or their payload closures) are even
/// built, which is the true zero-overhead path. `NoopSink` exists for
/// compositions that want an explicit "off" arm at runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _rec: &Record) {}
}

/// Thread-safe JSONL writer: one record per line.
pub struct FileSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl FileSink {
    /// Creates (truncating) `path` and writes records to it as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        // aal-lint: allow(raw-artifact-write, reason = "opens the append-only trace; records are checksummed and readers tolerate torn tails")
        let f = std::fs::File::create(path)?;
        Ok(FileSink { out: Mutex::new(Box::new(std::io::BufWriter::new(f))) })
    }

    /// Opens `path` for appending (creating it if absent) through
    /// [`crate::durable::open_append`], which cuts a line torn by a kill.
    /// A resumed run uses this so its records extend the crashed run's
    /// trace; the fresh [`Record::Schema`] header it emits marks the
    /// segment boundary for [`crate::TraceSummary`]'s merge rules.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let log = crate::durable::open_append(path.as_ref())?;
        Ok(FileSink { out: Mutex::new(Box::new(std::io::BufWriter::new(log))) })
    }

    /// Wraps an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn from_writer(w: impl Write + Send + 'static) -> Self {
        FileSink { out: Mutex::new(Box::new(w)) }
    }
}

impl Sink for FileSink {
    fn record(&self, rec: &Record) {
        // aal-lint: allow(unwrap, reason = "trace records are plain data; serialization cannot fail")
        let line = serde_json::to_string(rec).expect("records serialize");
        let mut out = lock_or_recover(&self.out);
        // Trace output is best-effort: losing a line beats panicking the
        // tuning loop on a full disk.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = lock_or_recover(&self.out).flush();
    }
}

/// In-memory sink for tests. Clones share the same buffer, so keep one
/// handle and give the other to [`crate::Telemetry::new`].
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    records: Arc<Mutex<Vec<Record>>>,
}

impl VecSink {
    /// Creates an empty shared buffer.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Snapshot of everything recorded so far.
    #[must_use]
    pub fn records(&self) -> Vec<Record> {
        lock_or_recover(&self.records).clone()
    }

    /// Number of records so far.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_or_recover(&self.records).len()
    }

    /// True if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for VecSink {
    fn record(&self, rec: &Record) {
        lock_or_recover(&self.records).push(rec.clone());
    }
}

/// Fans every record out to several sinks (e.g. a human reporter plus a
/// JSONL trace file).
#[derive(Default)]
pub struct TeeSink {
    sinks: Vec<Box<dyn Sink>>,
}

impl TeeSink {
    /// Creates an empty tee.
    #[must_use]
    pub fn new() -> Self {
        TeeSink::default()
    }

    /// Adds a downstream sink.
    #[must_use]
    pub fn with(mut self, sink: impl Sink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Number of downstream sinks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True if there are no downstream sinks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Sink for TeeSink {
    fn record(&self, rec: &Record) {
        for s in &self.sinks {
            s.record(rec);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

/// Renders `report` events human-readably on stderr, or as JSON lines when
/// `json` is set — the single progress reporter behind `--quiet` / `--json`.
///
/// Only events named [`crate::REPORT_EVENT`] are printed; spans, metrics,
/// and domain events pass through silently (they belong in a trace file).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReporterSink {
    json: bool,
}

impl ReporterSink {
    /// Human-readable reporter.
    #[must_use]
    pub fn human() -> Self {
        ReporterSink { json: false }
    }

    /// JSON-lines reporter (one record per line on stderr).
    #[must_use]
    pub fn json() -> Self {
        ReporterSink { json: true }
    }
}

impl Sink for ReporterSink {
    fn record(&self, rec: &Record) {
        let Record::Event { name, t_us, fields, .. } = rec else { return };
        if name != crate::REPORT_EVENT {
            return;
        }
        if self.json {
            // aal-lint: allow(unwrap, reason = "trace records are plain data; serialization cannot fail")
            eprintln!("{}", serde_json::to_string(rec).expect("records serialize"));
        } else {
            let msg = fields["msg"].as_str().unwrap_or_default();
            #[allow(clippy::cast_precision_loss)]
            let secs = *t_us as f64 / 1e6;
            eprintln!("[{secs:>8.2}s] {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn ev(name: &str) -> Record {
        Record::Event { name: name.into(), span: None, t_us: 1, fields: json!({"msg": "hi"}) }
    }

    #[test]
    fn vec_sink_accumulates() {
        let v = VecSink::new();
        assert!(v.is_empty());
        v.record(&ev("a"));
        v.record(&ev("b"));
        assert_eq!(v.len(), 2);
        assert_eq!(v.records()[1].name(), "b");
    }

    #[test]
    fn tee_fans_out() {
        let a = VecSink::new();
        let b = VecSink::new();
        let tee = TeeSink::new().with(a.clone()).with(b.clone());
        assert_eq!(tee.len(), 2);
        tee.record(&ev("x"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn reopening_a_torn_trace_cuts_the_torn_line() {
        let dir = std::env::temp_dir().join(format!("aaltune-sink-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let whole = serde_json::to_string(&ev("whole")).unwrap();
        let torn = serde_json::to_string(&ev("torn")).unwrap();
        // A kill mid-append leaves half a line after the last newline.
        std::fs::write(&path, format!("{whole}\n{}", &torn[..torn.len() / 2])).unwrap();
        let sink = FileSink::append(&path).unwrap();
        sink.record(&ev("resumed"));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let names: Vec<String> = text
            .lines()
            .map(|l| match serde_json::from_str::<Record>(l).unwrap() {
                Record::Event { name, .. } => name,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(names, ["whole", "resumed"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_sink_writes_parseable_jsonl() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                lock_or_recover(&self.0).extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = FileSink::from_writer(Shared(buf.clone()));
        sink.record(&ev("one"));
        sink.record(&ev("two"));
        sink.flush();
        let text = String::from_utf8(lock_or_recover(&buf).clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            let r: Record = serde_json::from_str(l).unwrap();
            assert!(matches!(r, Record::Event { .. }));
        }
    }
}
