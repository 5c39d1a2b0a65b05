//! Thread-safe metrics shared between publishers (executor workers, the
//! robust measurer, tuning loops) and observers (the snapshot writer,
//! `aaltune top`, the trace).
//!
//! Every enabled [`crate::Telemetry`] handle keeps its counters, histograms,
//! gauges and labels in one [`MetricsRegistry`]. Every update lands in
//! shared memory immediately, so [`MetricsRegistry::snapshot`] produces a
//! consistent, serializable [`MetricsSnapshot`] at any moment without
//! stopping publishers, and [`crate::Telemetry::flush`] writes the same
//! counters and histograms into the trace.
//!
//! Publisher cost is kept near zero:
//!
//! * counters are `Arc<AtomicU64>` — one `fetch_add` after a read-locked
//!   name lookup, and hot paths can hoist the lookup out entirely by
//!   holding a [`CounterHandle`];
//! * gauges store `f64` bits in an `AtomicU64` (set is a single store;
//!   add is a CAS loop that virtually never spins in practice);
//! * histograms reuse the mergeable log-scale [`Histogram`] under
//!   name-sharded mutexes, so two workers observing different metrics
//!   almost never contend on the same lock.
//!
//! Gauges and labels are deliberately *not* part of the trace wire format:
//! they are a lossy, restart-scoped view, while the trace is the durable
//! record. Setting a gauge or label must never change what the trace (or
//! any tuning artifact) contains — that is the determinism constraint the
//! snapshot layer is built around.

use crate::metrics::Histogram;
use crate::sync::{lock_or_recover, read_or_recover, write_or_recover};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Version of the `metrics.snapshot.json` schema written by
/// [`MetricsSnapshot`]. Bump when a field changes incompatibly; consumers
/// (`aaltune top`) warn on versions newer than they know.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Number of independent histogram shards. Shard choice is by name hash,
/// so distinct metrics contend only on an 1-in-8 collision.
const HIST_SHARDS: usize = 8;

/// A pre-resolved counter: one atomic `fetch_add` per increment, no name
/// lookup. Obtain via [`MetricsRegistry::counter`] and hold it across a
/// hot loop.
#[derive(Clone, Debug)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A pre-resolved gauge storing an `f64` as atomic bits.
#[derive(Clone, Debug)]
pub struct GaugeHandle(Arc<AtomicU64>);

impl GaugeHandle {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) to the gauge.
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Thread-safe live metrics: atomic counters and gauges, sharded log-scale
/// histograms, and small string labels (e.g. the task currently tuning).
///
/// Cloning the `Arc` this usually lives in is the intended sharing model;
/// the struct itself is `Sync` and all methods take `&self`.
pub struct MetricsRegistry {
    start: Instant,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    labels: RwLock<BTreeMap<String, String>>,
    hist_shards: Vec<Mutex<BTreeMap<String, Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry; uptime counts from this call.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            start: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            labels: RwLock::new(BTreeMap::new()),
            hist_shards: (0..HIST_SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect(),
        }
    }

    /// Microseconds since the registry was created.
    #[must_use]
    pub fn uptime_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn cell(
        map: &RwLock<BTreeMap<String, Arc<AtomicU64>>>,
        name: &str,
        init: u64,
    ) -> Arc<AtomicU64> {
        if let Some(cell) = read_or_recover(map).get(name) {
            return Arc::clone(cell);
        }
        let mut w = write_or_recover(map);
        Arc::clone(w.entry(name.to_string()).or_insert_with(|| Arc::new(AtomicU64::new(init))))
    }

    /// Resolves (creating if needed) the counter `name` into a handle the
    /// caller can increment without further lookups.
    #[must_use]
    pub fn counter(&self, name: &str) -> CounterHandle {
        CounterHandle(Self::cell(&self.counters, name, 0))
    }

    /// Adds `delta` to counter `name` (lookup + `fetch_add`).
    pub fn inc(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Resolves (creating if needed) the gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        GaugeHandle(Self::cell(&self.gauges, name, 0f64.to_bits()))
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.gauge(name).set(value);
    }

    /// Adds `delta` (may be negative) to gauge `name`.
    pub fn gauge_add(&self, name: &str, delta: f64) {
        self.gauge(name).add(delta);
    }

    fn shard_of(name: &str) -> usize {
        // FNV-1a: tiny, deterministic, and good enough to spread names.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % HIST_SHARDS as u64) as usize
    }

    /// Records `value` into the histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        let mut shard = lock_or_recover(&self.hist_shards[Self::shard_of(name)]);
        if let Some(hist) = shard.get_mut(name) {
            hist.observe(value);
        } else {
            shard.entry(name.to_string()).or_default().observe(value);
        }
    }

    /// Sets the string label `name` (e.g. `task.current`).
    pub fn set_label(&self, name: &str, value: &str) {
        write_or_recover(&self.labels).insert(name.to_string(), value.to_string());
    }

    /// Produces a consistent point-in-time view of every registered metric.
    ///
    /// Consistency is per-family (counters are snapshotted together, then
    /// gauges, then histograms) — cross-family skew of a few microseconds is
    /// acceptable for a live dashboard and keeps publishers unblocked.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = read_or_recover(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = read_or_recover(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let labels = read_or_recover(&self.labels).clone();
        let mut histograms = BTreeMap::new();
        for shard in &self.hist_shards {
            for (k, h) in lock_or_recover(shard).iter() {
                histograms.insert(k.clone(), h.clone());
            }
        }
        MetricsSnapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            uptime_us: self.uptime_us(),
            unix_ms: unix_ms_now(),
            counters,
            gauges,
            labels,
            histograms,
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").field("uptime_us", &self.uptime_us()).finish()
    }
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is before
/// the epoch, which only happens on badly misconfigured hosts).
#[must_use]
pub fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A serializable point-in-time view of a [`MetricsRegistry`], written to
/// `metrics.snapshot.json` in the run directory and consumed by
/// `aaltune top` and `aaltune runs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// [`SNAPSHOT_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Microseconds since the publishing process created its registry.
    pub uptime_us: u64,
    /// Wall-clock ms since the Unix epoch at snapshot time — the staleness
    /// signal (`t_us`/`uptime_us` are process-relative and can't detect a
    /// crashed publisher).
    pub unix_ms: u64,
    /// Monotonic counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Small string labels by name (e.g. `task.current`).
    pub labels: BTreeMap<String, String>,
    /// Live histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Counter value by name, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, 0.0 when absent.
    #[must_use]
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// True when nothing has been registered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.labels.is_empty()
            && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.inc("a", 2);
        reg.inc("a", 3);
        reg.inc("b", 1);
        let handle = reg.counter("a");
        handle.add(5);
        assert_eq!(handle.get(), 10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 10);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.schema_version, SNAPSHOT_SCHEMA_VERSION);
        assert!(snap.unix_ms > 0);
    }

    #[test]
    fn gauges_set_add_and_go_negative() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("depth", 4.0);
        reg.gauge_add("depth", -1.5);
        assert!((reg.gauge("depth").get() - 2.5).abs() < 1e-12);
        reg.gauge_add("drift", -3.0);
        assert!((reg.snapshot().gauge("drift") + 3.0).abs() < 1e-12);
        assert_eq!(reg.snapshot().gauge("missing"), 0.0);
    }

    #[test]
    fn histograms_shard_by_name_and_snapshot_merges_shards() {
        let reg = MetricsRegistry::new();
        for i in 1..=100 {
            reg.observe("lat.a", f64::from(i));
            reg.observe("lat.b", f64::from(i) * 10.0);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["lat.a"].count(), 100);
        assert_eq!(snap.histograms["lat.b"].count(), 100);
        assert!(snap.histograms["lat.b"].quantile(0.5) > snap.histograms["lat.a"].quantile(0.5));
    }

    #[test]
    fn labels_round_trip() {
        let reg = MetricsRegistry::new();
        reg.set_label("task.current", "m.T3");
        reg.set_label("task.current", "m.T4");
        assert_eq!(reg.snapshot().labels["task.current"], "m.T4");
    }

    #[test]
    fn snapshot_serializes_and_parses() {
        let reg = MetricsRegistry::new();
        reg.inc("trials", 7);
        reg.gauge_set("busy", 2.0);
        reg.observe("us", 123.0);
        reg.set_label("task.current", "t");
        let snap = reg.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        assert!(!back.is_empty());
        assert!(MetricsSnapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            uptime_us: 0,
            unix_ms: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            labels: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
        .is_empty());
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("hot");
                    for _ in 0..per {
                        c.add(1);
                        reg.gauge_add("g", 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.snapshot().counter("hot"), threads * per);
        #[allow(clippy::cast_precision_loss)]
        let expect = (threads * per) as f64;
        assert!((reg.snapshot().gauge("g") - expect).abs() < 1e-6);
    }
}
