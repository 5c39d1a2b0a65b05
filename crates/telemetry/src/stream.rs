//! Streaming observability: periodic snapshots of a [`Telemetry`]
//! handle's [`MetricsRegistry`].
//!
//! [`SnapshotWriter`] is a background thread that every interval writes
//! `metrics.snapshot.json` and `metrics.prom` via [`crate::durable`] (a
//! reader never sees a torn file) into the run directory, and emits a
//! `run.heartbeat` trace event carrying wall-clock time so stale/crashed
//! runs are distinguishable from slow ones. A [`SnapshotRequest`] asks it
//! to publish now instead of waiting out the interval, for moments a
//! dashboard should not miss. Traces themselves are read back by
//! [`crate::TraceSummary`].
//!
//! Determinism: the writer thread only appends events to the trace and
//! rewrites side files. It never touches trial logs, progress journals, or the
//! measurement stream, so trial logs stay byte-identical whether or not a
//! snapshot writer is running — the invariant CI's `live-smoke` job checks.

use crate::durable::replace;
use crate::events::RUN_HEARTBEAT_EVENT;
use crate::export::to_prometheus;
use crate::registry::{unix_ms_now, MetricsRegistry};
use crate::sync::lock_or_recover;
use crate::Telemetry;
use serde_json::json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

fn emit_heartbeat(tel: &Telemetry, registry: &MetricsRegistry) {
    let snap = registry.snapshot();
    tel.event(RUN_HEARTBEAT_EVENT, || {
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
    signal: Arc<Signal>,
    handle: Option<JoinHandle<()>>,
}

/// What wakes the writer thread, and how far its publishes have got.
#[derive(Debug, Default)]
struct Signal {
    state: Mutex<SignalState>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct SignalState {
    stop: bool,
    requested: bool,
    /// The writer thread has ended: no publish will start again.
    exited: bool,
    /// Publishes begun so far, and the number of the last one finished.
    started: u64,
    finished: u64,
}

/// Flags the writer thread's end on drop, and wakes every waiter.
struct Exited<'a>(&'a Signal);

impl Drop for Exited<'_> {
    fn drop(&mut self) {
        lock_or_recover(&self.0.state).exited = true;
        self.0.wake.notify_all();
    }
}

/// Asks a [`SnapshotWriter`] to publish now rather than at the end of its
/// interval. Cheap to clone; requests made before the writer gets to them
/// coalesce into one publish.
#[derive(Debug, Clone)]
pub struct SnapshotRequest(Arc<Signal>);

impl SnapshotRequest {
    /// Requests a publish and returns at once.
    pub fn publish_now(&self) {
        self.request();
    }

    /// Requests a publish and waits for one that began after the request
    /// to finish: the files then hold everything recorded before this call.
    /// Returns false, without waiting further, if the writer has stopped
    /// before such a publish finished.
    pub fn publish_and_wait(&self) -> bool {
        let target = self.request();
        let st = lock_or_recover(&self.0.state);
        let st = self
            .0
            .wake
            .wait_while(st, |s| s.finished < target && !s.exited)
            .unwrap_or_else(PoisonError::into_inner);
        st.finished >= target
    }

    /// Flags a request and wakes the writer; returns the number of the
    /// first publish that will see everything recorded before the call.
    fn request(&self) -> u64 {
        let mut st = lock_or_recover(&self.0.state);
        st.requested = true;
        let target = st.started + 1;
        drop(st);
        self.0.wake.notify_all();
        target
    }
}

impl std::fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter").finish()
    }
}

impl SnapshotWriter {
    /// Starts the writer: every `interval`, and whenever a
    /// [`SnapshotRequest`] asks, it publishes `tel`'s registry into `dir`
    /// and emits a `run.heartbeat` event on `tel`. Publish errors are
    /// counted on the registry (`snapshot.write_errors`, which the trace's
    /// final counters then carry) rather than killing the run —
    /// observability must never take the tuner down. A disabled `tel` has
    /// no registry and publishes an empty one.
    #[must_use]
    pub fn start(dir: PathBuf, interval: Duration, tel: Telemetry) -> SnapshotWriter {
        let registry = tel.live_registry().unwrap_or_default();
        let signal = Arc::new(Signal::default());
        let writer_signal = Arc::clone(&signal);
        // aal-lint: allow(thread-spawn, reason = "observability-only snapshot thread with explicit stop+join; routing it through the executor would couple tuning to the dashboard")
        let handle = std::thread::Builder::new()
            .name("metrics-snapshot".to_string())
            .spawn(move || {
                let signal = writer_signal;
                // Marks the writer gone however the thread ends, so no
                // waiting request outlives it.
                let _exited = Exited(&signal);
                let publish = || Self::publish(&dir, &registry, &tel, &signal);
                // First snapshot immediately, so followers see files early.
                publish();
                let mut last = std::time::Instant::now();
                loop {
                    let due = interval.saturating_sub(last.elapsed());
                    let st = lock_or_recover(&signal.state);
                    let (st, _) = signal
                        .wake
                        .wait_timeout_while(st, due, |s| !s.requested && !s.stop)
                        .unwrap_or_else(PoisonError::into_inner);
                    if st.stop {
                        break;
                    }
                    drop(st);
                    publish();
                    last = std::time::Instant::now();
                }
                // Final snapshot so the files reflect run completion.
                publish();
            })
            // aal-lint: allow(unwrap, reason = "thread spawn fails only on OS resource exhaustion; no recovery at this layer")
            .expect("spawn metrics-snapshot thread");
        SnapshotWriter { signal, handle: Some(handle) }
    }

    /// A handle that asks this writer to publish now.
    #[must_use]
    pub fn request(&self) -> SnapshotRequest {
        SnapshotRequest(Arc::clone(&self.signal))
    }

    fn publish(dir: &Path, registry: &MetricsRegistry, tel: &Telemetry, signal: &Signal) {
        let number = {
            let mut st = lock_or_recover(&signal.state);
            st.requested = false;
            st.started += 1;
            st.started
        };
        registry.gauge_set("snapshot.last_unix_ms", {
            #[allow(clippy::cast_precision_loss)]
            let ms = unix_ms_now() as f64;
            ms
        });
        if publish_snapshot(dir, registry).is_err() {
            registry.inc("snapshot.write_errors", 1);
        }
        emit_heartbeat(tel, registry);
        lock_or_recover(&signal.state).finished = number;
        signal.wake.notify_all();
    }

    /// Stops the thread after its final snapshot. Equivalent to dropping.
    pub fn finish(mut self) {
        self.join();
    }

    fn join(&mut self) {
        lock_or_recover(&self.signal.state).stop = true;
        self.signal.wake.notify_all();
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
    use crate::{NoopSink, Telemetry, VecSink};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aaltune-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_writer_publishes_and_heartbeats() {
        let dir = tmp_dir("writer");
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        let reg = tel.live_registry().unwrap();
        tel.count(TRIALS_COUNTER, 5);
        tel.set_label(CURRENT_TASK_LABEL, "m.T1");
        let writer = SnapshotWriter::start(dir.clone(), Duration::from_millis(10), tel);
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

    #[test]
    fn requested_publish_does_not_wait_for_the_interval() {
        let dir = tmp_dir("request");
        let tel = Telemetry::new(NoopSink);
        let reg = tel.live_registry().unwrap();
        let writer = SnapshotWriter::start(dir.clone(), Duration::from_secs(60), tel);
        let published = |name: &str| {
            std::fs::read_to_string(dir.join(SNAPSHOT_FILE))
                .ok()
                .and_then(|body| serde_json::from_str::<crate::MetricsSnapshot>(&body).ok())
                .is_some_and(|snap| snap.counters.contains_key(name))
        };
        let wait_for = |name: &str| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !published(name) && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            published(name)
        };
        // Once the immediate first publish is on disk, the next one is a
        // minute away unless requested.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !dir.join(SNAPSHOT_FILE).exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        reg.inc("late", 1);
        assert!(!published("late"));
        writer.request().publish_now();
        assert!(wait_for("late"), "a request publishes without waiting out the interval");
        // A waiting request returns only once the files hold the counter.
        reg.inc("later", 1);
        let request = writer.request();
        assert!(request.publish_and_wait());
        assert!(published("later"));
        writer.finish();
        // Once the writer has stopped, a waiting request returns at once.
        assert!(!request.publish_and_wait());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
