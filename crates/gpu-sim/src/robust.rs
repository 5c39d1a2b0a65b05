//! Measurement hardening: timeout budgets, bounded retry, quarantine.
//!
//! [`RobustMeasurer`] wraps any [`Measurer`] with the policy layer a real
//! tuning fleet needs around flaky hardware:
//!
//! * **timeout budget** — a valid trial slower than the per-trial budget
//!   is converted into a [`MeasureErrorKind::Timeout`] failure, exactly
//!   like AutoTVM's runner killing an overlong kernel;
//! * **bounded retry** — transient faults are retried up to
//!   `max_retries` times with exponential backoff (the backoff is
//!   *recorded* in telemetry, not slept — the simulator has no wall-clock
//!   to wait out);
//! * **quarantine** — configurations that fail persistently are added to
//!   a per-task quarantine set, surfaced through
//!   [`Measurer::quarantined`] so tuners (the SA proposer's exclusion
//!   set, BAO's scope filter) never re-propose a known-crashing config.
//!   The set lives in memory for the process that found it; it is never
//!   persisted, because every quarantined config was measured, and a
//!   resumed run's log replay puts every measured config back into the
//!   tuner's visited set;
//! * **graceful degradation** — failures still come back as zero-GFLOPS
//!   penalty results (AutoTVM semantics), so cost models learn the
//!   validity cliff instead of the loop falling over.
//!
//! Everything here is deterministic: retry outcomes depend only on the
//! wrapped measurer's (seeded) behavior, never on timing.

use crate::measure::{MeasureError, MeasureErrorKind, MeasureResult, Measurer};
use dnn_graph::task::TuningTask;
use schedule::{Config, ConfigSpace};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use telemetry::sync::lock_or_recover;

/// Retry/timeout policy for [`RobustMeasurer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt of a transient fault.
    pub max_retries: u32,
    /// Per-trial device-time budget in milliseconds; `0` disables the
    /// timeout.
    pub trial_timeout_ms: f64,
    /// Base of the exponential backoff recorded per retry, milliseconds.
    pub backoff_base_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, trial_timeout_ms: 0.0, backoff_base_ms: 50 }
    }
}

impl RetryPolicy {
    /// Backoff recorded before retry number `attempt` (1-based), ms.
    #[must_use]
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.backoff_base_ms.saturating_mul(1u64 << attempt.min(16))
    }
}

/// Per-task sets of configuration indices known to crash persistently.
///
/// Keys are task names. The set is process memory only: a resumed run
/// starts empty and rebuilds its exclusions by replaying the trial logs.
/// It serializes only as a field of the checkpoint older binaries wrote.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quarantine {
    sets: BTreeMap<String, BTreeSet<u64>>,
}

impl Quarantine {
    /// An empty quarantine.
    #[must_use]
    pub fn new() -> Self {
        Quarantine::default()
    }

    /// Marks `index` of `task` as known-crashing. Returns true if it was
    /// newly added.
    pub fn insert(&mut self, task: &str, index: u64) -> bool {
        self.sets.entry(task.to_string()).or_default().insert(index)
    }

    /// True if `index` of `task` is quarantined.
    #[must_use]
    pub fn contains(&self, task: &str, index: u64) -> bool {
        self.sets.get(task).is_some_and(|s| s.contains(&index))
    }

    /// Quarantined indices for `task`, sorted.
    #[must_use]
    pub fn indices_for(&self, task: &str) -> Vec<u64> {
        self.sets.get(task).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// Total quarantined configurations across all tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.values().map(BTreeSet::len).sum()
    }

    /// True if nothing is quarantined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.values().all(BTreeSet::is_empty)
    }
}

/// A [`Measurer`] wrapper applying [`RetryPolicy`] and [`Quarantine`].
///
/// The quarantine lives behind a `Mutex`, so the worker threads of a
/// pooled executor driving one `RobustMeasurer` share one set: a
/// configuration that crashed on worker 1 is never retried on worker 2.
#[derive(Debug)]
pub struct RobustMeasurer<M> {
    inner: M,
    policy: RetryPolicy,
    quarantine: Mutex<Quarantine>,
}

impl<M: Measurer> RobustMeasurer<M> {
    /// Wraps `inner` with `policy` and an empty quarantine.
    pub fn new(inner: M, policy: RetryPolicy) -> Self {
        RobustMeasurer { inner, policy, quarantine: Mutex::new(Quarantine::new()) }
    }

    /// Snapshot of the current quarantine.
    #[must_use]
    pub fn quarantine_snapshot(&self) -> Quarantine {
        lock_or_recover(&self.quarantine).clone()
    }

    /// The wrapped measurer.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Applies the timeout budget: a valid result slower than the budget
    /// becomes a transient `Timeout` failure.
    fn apply_timeout(&self, result: MeasureResult) -> MeasureResult {
        if self.policy.trial_timeout_ms <= 0.0 || !result.is_valid() {
            return result;
        }
        let latency_ms = result.latency_s * 1e3;
        if latency_ms <= self.policy.trial_timeout_ms {
            return result;
        }
        MeasureResult::failed(MeasureError::new(
            MeasureErrorKind::Timeout,
            format!(
                "trial exceeded budget: {latency_ms:.3} ms > {:.3} ms",
                self.policy.trial_timeout_ms
            ),
        ))
    }
}

impl<M: Measurer> Measurer for RobustMeasurer<M> {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        let tel = telemetry::global();
        if lock_or_recover(&self.quarantine).contains(&task.name, config.index) {
            // Should not normally be proposed (tuners consult the set),
            // but short-circuit rather than crash again if it is.
            tel.count("measure.quarantine_hit", 1);
            return MeasureResult::failed(MeasureError::new(
                MeasureErrorKind::LaunchCrash,
                "configuration is quarantined",
            ));
        }
        let mut attempt: u32 = 0;
        loop {
            tel.count("measure.attempts", 1);
            let result = self.apply_timeout(self.inner.measure(task, space, config));
            let Some(error) = &result.error else {
                // Health counters: fault rate = failed/attempts, retry rate
                // = retry/attempts — the live dashboard's measurement row.
                tel.count("measure.ok", 1);
                return result;
            };
            if error.is_transient() && attempt < self.policy.max_retries {
                attempt += 1;
                let backoff_ms = self.policy.backoff_ms(attempt);
                tel.count("measure.retry", 1);
                tel.observe("measure.retry.backoff_ms", backoff_ms as f64);
                let kind = error.kind;
                tel.event(telemetry::events::MEASURE_RETRY_EVENT, || {
                    serde_json::json!({
                        "task": task.name,
                        "config_index": config.index,
                        "attempt": attempt,
                        "kind": kind.label(),
                        "backoff_ms": backoff_ms,
                    })
                });
                continue;
            }
            if !error.is_transient() {
                // Persistent failure: quarantine so it is never
                // re-proposed, but still return the zero-GFLOPS penalty
                // so cost models learn the cliff.
                let newly = lock_or_recover(&self.quarantine).insert(&task.name, config.index);
                if newly {
                    tel.count("measure.quarantine", 1);
                }
            }
            tel.count("measure.failed", 1);
            return result;
        }
    }

    fn repeats(&self) -> usize {
        self.inner.repeats()
    }

    fn quarantined(&self, task: &TuningTask) -> Vec<u64> {
        let mut indices = lock_or_recover(&self.quarantine).indices_for(&task.name);
        indices.extend(self.inner.quarantined(task));
        indices.sort_unstable();
        indices.dedup();
        indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuDevice;
    use crate::fault::{FaultConfig, FaultInjectingMeasurer};
    use crate::measure::SimMeasurer;
    use dnn_graph::{models, task::extract_tasks};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use schedule::template::space_for_task;

    fn setup() -> (TuningTask, ConfigSpace) {
        let task = extract_tasks(&models::mobilenet_v1(1)).remove(0);
        let space = space_for_task(&task);
        (task, space)
    }

    fn faulty(rate: f64) -> FaultInjectingMeasurer<SimMeasurer> {
        FaultInjectingMeasurer::new(
            SimMeasurer::new(GpuDevice::gtx_1080_ti()),
            FaultConfig { rate, seed: 21 },
        )
    }

    #[test]
    fn retries_recover_transient_faults() {
        let (task, space) = setup();
        let plain = faulty(0.3);
        let robust = RobustMeasurer::new(faulty(0.3), RetryPolicy::default());
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut recovered = false;
        for _ in 0..300 {
            let cfg = space.sample(&mut rng);
            let bare = plain.measure(&task, &space, &cfg);
            let hard = robust.measure(&task, &space, &cfg);
            if bare.error_kind().is_some_and(MeasureErrorKind::is_transient) && hard.is_valid() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "expected a retry to clear at least one transient fault");
    }

    #[test]
    fn persistent_failures_are_quarantined_and_short_circuited() {
        let (task, space) = setup();
        let robust = RobustMeasurer::new(faulty(0.5), RetryPolicy::default());
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut quarantined_cfg = None;
        for _ in 0..200 {
            let cfg = space.sample(&mut rng);
            let r = robust.measure(&task, &space, &cfg);
            if r.error_kind().is_some_and(|k| !k.is_transient()) {
                quarantined_cfg = Some(cfg);
                break;
            }
        }
        let cfg = quarantined_cfg.expect("expected a persistent failure at 50% fault rate");
        assert!(robust.quarantined(&task).contains(&cfg.index));
        let again = robust.measure(&task, &space, &cfg);
        assert_eq!(again.error_kind(), Some(MeasureErrorKind::LaunchCrash));
        assert_eq!(again.gflops, 0.0);
    }

    #[test]
    fn timeout_budget_converts_slow_trials() {
        let (task, space) = setup();
        let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (cfg, base) = loop {
            let c = space.sample(&mut rng);
            let r = sim.measure(&task, &space, &c);
            if r.is_valid() {
                break (c, r);
            }
        };
        // A budget below the observed latency must convert the trial.
        let tight = RetryPolicy {
            trial_timeout_ms: base.latency_s * 1e3 / 2.0,
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let robust = RobustMeasurer::new(SimMeasurer::new(GpuDevice::gtx_1080_ti()), tight);
        let r = robust.measure(&task, &space, &cfg);
        assert_eq!(r.error_kind(), Some(MeasureErrorKind::Timeout));
        assert!(r.error.unwrap().is_transient());
        // Timeouts are transient: they must NOT be quarantined.
        assert!(robust.quarantined(&task).is_empty());
        // A generous budget leaves the result untouched.
        let loose = RetryPolicy { trial_timeout_ms: 1e9, ..RetryPolicy::default() };
        let robust = RobustMeasurer::new(SimMeasurer::new(GpuDevice::gtx_1080_ti()), loose);
        assert_eq!(robust.measure(&task, &space, &cfg), base);
    }

    #[test]
    fn quarantine_snapshot_round_trips() {
        let mut q = Quarantine::new();
        assert!(q.is_empty());
        assert!(q.insert("t1", 5));
        assert!(!q.insert("t1", 5), "second insert is a no-op");
        q.insert("t2", 9);
        assert_eq!(q.len(), 2);
        assert!(q.contains("t1", 5));
        assert!(!q.contains("t1", 6));
        let json = serde_json::to_string(&q).unwrap();
        let back: Quarantine = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.indices_for("t1"), vec![5]);
    }
}
