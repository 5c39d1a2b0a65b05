//! Streaming observability: tail a live trace and publish periodic
//! snapshots of the live [`MetricsRegistry`].
//!
//! Two pieces:
//!
//! * [`TraceFollower`] tails a JSONL trace with `tail -f` semantics —
//!   remembers its byte offset, returns only complete new lines, buffers a
//!   partial trailing line until its newline arrives, and tolerates the
//!   file not existing yet (a follower can start before the run does).
//! * [`SnapshotWriter`] is a background thread that every interval writes
//!   `metrics.snapshot.json` and `metrics.prom` via [`crate::durable`]
//!   (a reader never sees a torn file) into the run directory, and emits
//!   a `run.heartbeat` trace event carrying wall-clock time so
//!   stale/crashed runs are distinguishable from slow ones.
//!
//! Determinism: the writer thread only appends events to the trace and
//! rewrites side files. It never touches trial logs, checkpoints, or the
//! measurement stream, so trial logs stay byte-identical whether or not a
//! snapshot writer is running — the invariant CI's `live-smoke` job checks.

use crate::durable::replace;
use crate::export::to_prometheus;
use crate::record::Record;
use crate::registry::{unix_ms_now, MetricsRegistry};
use crate::Telemetry;
use serde_json::json;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// File name of the JSON metrics snapshot inside a run directory.
pub const SNAPSHOT_FILE: &str = "metrics.snapshot.json";
/// File name of the Prometheus text snapshot inside a run directory.
pub const PROM_FILE: &str = "metrics.prom";

/// Counter read by the heartbeat for "trials done".
pub const TRIALS_COUNTER: &str = "tune.trials";
/// Counter read by the heartbeat for "tasks completed".
pub const TASKS_DONE_COUNTER: &str = "tune.tasks_completed";
/// Label read by the heartbeat for "current task".
pub const CURRENT_TASK_LABEL: &str = "task.current";

/// Tails a JSONL trace file, yielding newly completed [`Record`]s on each
/// [`TraceFollower::poll`].
#[derive(Debug)]
pub struct TraceFollower {
    path: PathBuf,
    offset: u64,
    partial: Vec<u8>,
    malformed: u64,
}

impl TraceFollower {
    /// Creates a follower for `path`, starting at the beginning of the
    /// file. The file need not exist yet.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        TraceFollower { path: path.into(), offset: 0, partial: Vec::new(), malformed: 0 }
    }

    /// Lines seen so far that did not parse as a [`Record`] (skipped, not
    /// fatal — a live trace can interleave with a crash mid-line).
    #[must_use]
    pub fn malformed_lines(&self) -> u64 {
        self.malformed
    }

    /// Reads any new complete lines since the last poll and parses them.
    /// Returns an empty vec when the file is absent or has no new complete
    /// line. A truncated file (shorter than our offset) restarts the
    /// follower from the beginning.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn poll(&mut self) -> std::io::Result<Vec<Record>> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let len = file.metadata()?.len();
        if len < self.offset {
            // Truncated/rewritten underneath us: start over.
            self.offset = 0;
            self.partial.clear();
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        self.offset += buf.len() as u64;
        self.partial.extend_from_slice(&buf);

        let mut records = Vec::new();
        // Consume complete lines; keep the trailing partial (if any).
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            match serde_json::from_str::<Record>(trimmed) {
                Ok(rec) => records.push(rec),
                Err(_) => self.malformed += 1,
            }
        }
        Ok(records)
    }
}

/// Publishes `registry` into `dir` once: `metrics.snapshot.json` and
/// `metrics.prom`, both atomic.
///
/// # Errors
///
/// Propagates serialization and I/O errors.
pub fn publish_snapshot(dir: &Path, registry: &MetricsRegistry) -> std::io::Result<()> {
    let snap = registry.snapshot();
    let json = serde_json::to_string_pretty(&snap)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    replace(&dir.join(SNAPSHOT_FILE), |w| w.write_all(json.as_bytes()))?;
    replace(&dir.join(PROM_FILE), |w| w.write_all(to_prometheus(&snap).as_bytes()))
}

/// Name of the periodic liveness event emitted by [`SnapshotWriter`].
/// (Mirrored in [`crate::events::RUN_HEARTBEAT_EVENT`].)
const HEARTBEAT_EVENT: &str = "run.heartbeat";

fn emit_heartbeat(tel: &Telemetry, registry: &MetricsRegistry) {
    let snap = registry.snapshot();
    tel.event(HEARTBEAT_EVENT, || {
        json!({
            "unix_ms": snap.unix_ms,
            "trials": snap.counter(TRIALS_COUNTER),
            "tasks_done": snap.counter(TASKS_DONE_COUNTER),
            "task": snap.labels.get(CURRENT_TASK_LABEL).cloned().unwrap_or_default(),
        })
    });
}

/// A background thread that periodically snapshots a [`MetricsRegistry`]
/// into a run directory and heartbeats the trace. Stops (after one final
/// snapshot + heartbeat) when dropped, so the files always reflect the end
/// state of the run.
pub struct SnapshotWriter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter").finish()
    }
}

impl SnapshotWriter {
    /// Starts the writer: every `interval` it publishes snapshots into
    /// `dir` and emits a `run.heartbeat` event on `tel`. Publish errors are
    /// counted on the registry (`snapshot.write_errors`) rather than
    /// killing the run — observability must never take the tuner down.
    #[must_use]
    pub fn start(
        dir: PathBuf,
        registry: Arc<MetricsRegistry>,
        interval: Duration,
        tel: Telemetry,
    ) -> SnapshotWriter {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        // aal-lint: allow(thread-spawn, reason = "observability-only snapshot thread with explicit stop+join; routing it through the executor would couple tuning to the dashboard")
        let handle = std::thread::Builder::new()
            .name("metrics-snapshot".to_string())
            .spawn(move || {
                let tick = Duration::from_millis(25).min(interval);
                let mut last = std::time::Instant::now();
                // First snapshot immediately, so followers see files early.
                Self::publish(&dir, &registry, &tel);
                while !stop_flag.load(Ordering::Acquire) {
                    std::thread::sleep(tick);
                    if last.elapsed() >= interval {
                        Self::publish(&dir, &registry, &tel);
                        last = std::time::Instant::now();
                    }
                }
                // Final snapshot so the files reflect run completion.
                Self::publish(&dir, &registry, &tel);
            })
            // aal-lint: allow(unwrap, reason = "thread spawn fails only on OS resource exhaustion; no recovery at this layer")
            .expect("spawn metrics-snapshot thread");
        SnapshotWriter { stop, handle: Some(handle) }
    }

    fn publish(dir: &Path, registry: &MetricsRegistry, tel: &Telemetry) {
        registry.gauge_set("snapshot.last_unix_ms", {
            #[allow(clippy::cast_precision_loss)]
            let ms = unix_ms_now() as f64;
            ms
        });
        if publish_snapshot(dir, registry).is_err() {
            registry.inc("snapshot.write_errors", 1);
        }
        emit_heartbeat(tel, registry);
    }

    /// Stops the thread after its final snapshot. Equivalent to dropping.
    pub fn finish(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, VecSink};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aaltune-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn follower_tails_complete_lines_only() {
        let dir = tmp_dir("follow");
        let path = dir.join("trace.jsonl");
        let mut follower = TraceFollower::new(&path);
        // File absent: empty, no error.
        assert!(follower.poll().unwrap().is_empty());

        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "{}", serde_json::to_string(&Record::Schema { version: 2 }).unwrap()).unwrap();
        // A partial line with no newline must not be yielded yet.
        write!(f, "{{\"Counter\":{{\"name\":\"a\",").unwrap();
        f.flush().unwrap();
        let first = follower.poll().unwrap();
        assert_eq!(first.len(), 1);
        assert!(matches!(first[0], Record::Schema { version: 2 }));

        // Complete the line: now it parses.
        writeln!(f, "\"value\":7}}}}").unwrap();
        f.flush().unwrap();
        let second = follower.poll().unwrap();
        assert_eq!(second.len(), 1);
        assert!(
            matches!(&second[0], Record::Counter { name, value: 7 } if name == "a"),
            "{second:?}"
        );
        assert_eq!(follower.malformed_lines(), 0);

        // Garbage lines are skipped and counted.
        writeln!(f, "not json at all").unwrap();
        f.flush().unwrap();
        assert!(follower.poll().unwrap().is_empty());
        assert_eq!(follower.malformed_lines(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follower_recovers_from_truncation() {
        let dir = tmp_dir("trunc");
        let path = dir.join("trace.jsonl");
        let schema = serde_json::to_string(&Record::Schema { version: 2 }).unwrap();
        // Several lines, so the rewrite below is genuinely shorter.
        std::fs::write(&path, format!("{schema}\n{schema}\n{schema}\n")).unwrap();
        let mut follower = TraceFollower::new(&path);
        assert_eq!(follower.poll().unwrap().len(), 3);
        // Rewrite shorter: follower restarts from byte 0.
        std::fs::write(
            &path,
            format!(
                "{}\n",
                serde_json::to_string(&Record::Counter { name: "x".into(), value: 1 }).unwrap()
            ),
        )
        .unwrap();
        let recs = follower.poll().unwrap();
        assert_eq!(recs.len(), 1);
        assert!(matches!(&recs[0], Record::Counter { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_writer_publishes_and_heartbeats() {
        let dir = tmp_dir("writer");
        let reg = Arc::new(MetricsRegistry::new());
        reg.inc(TRIALS_COUNTER, 5);
        reg.set_label(CURRENT_TASK_LABEL, "m.T1");
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        let writer =
            SnapshotWriter::start(dir.clone(), Arc::clone(&reg), Duration::from_millis(10), tel);
        // Wait for at least the immediate first publish.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !dir.join(SNAPSHOT_FILE).exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        reg.inc(TRIALS_COUNTER, 2);
        writer.finish();

        let snap: crate::MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap())
                .unwrap();
        // The final (drop-time) snapshot must include the late increment.
        assert_eq!(snap.counter(TRIALS_COUNTER), 7);
        let prom = std::fs::read_to_string(dir.join(PROM_FILE)).unwrap();
        let samples = crate::export::parse_prometheus(&prom).unwrap();
        assert!(samples.iter().any(|s| s.name == "aaltune_tune_trials" && s.value == 7.0));

        // Heartbeat events carry wall-clock time and live progress.
        let hb: Vec<_> =
            sink.records().iter().filter_map(crate::events::HeartbeatEvent::from_record).collect();
        assert!(!hb.is_empty(), "no heartbeat events recorded");
        let last = hb.last().unwrap();
        assert!(last.unix_ms > 0);
        assert_eq!(last.trials, 7);
        assert_eq!(last.task, "m.T1");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
