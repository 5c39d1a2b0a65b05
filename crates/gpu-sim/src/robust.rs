//! Measurement hardening: timeout budgets and bounded retry.
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
//!   to wait out). Persistent faults return after one attempt;
//! * **graceful degradation** — failures still come back as zero-GFLOPS
//!   penalty results (AutoTVM semantics), so cost models learn the
//!   validity cliff instead of the loop falling over.
//!
//! The measurer keeps no memory of failed configurations. The tuners
//! propose from outside their own visited sets, so in practice a task
//! measures each configuration once, and a resumed task's log replay
//! marks every logged configuration visited.
//!
//! Everything here is deterministic: retry outcomes depend only on the
//! wrapped measurer's (seeded) behavior, never on timing.

use crate::measure::{MeasureError, MeasureErrorKind, MeasureResult, Measurer};
use dnn_graph::task::TuningTask;
use schedule::{Config, ConfigSpace};
use serde::{Deserialize, Serialize};

/// Base of the exponential backoff recorded per retry, milliseconds.
const BACKOFF_BASE_MS: u64 = 50;

/// Backoff recorded before retry number `attempt` (1-based), ms.
fn backoff_ms(attempt: u32) -> u64 {
    BACKOFF_BASE_MS.saturating_mul(1u64 << attempt.min(16))
}

/// Retry/timeout policy for [`RobustMeasurer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt of a transient fault.
    pub max_retries: u32,
    /// Per-trial device-time budget in milliseconds; `0` disables the
    /// timeout.
    pub trial_timeout_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, trial_timeout_ms: 0.0 }
    }
}

/// A [`Measurer`] wrapper applying a [`RetryPolicy`].
#[derive(Debug)]
pub struct RobustMeasurer<M> {
    inner: M,
    policy: RetryPolicy,
}

impl<M: Measurer> RobustMeasurer<M> {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: M, policy: RetryPolicy) -> Self {
        RobustMeasurer { inner, policy }
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
                let backoff_ms = backoff_ms(attempt);
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
                // Persistent failure: retrying never helps. The counter
                // keeps its historical name, `measure.quarantine`.
                tel.count("measure.quarantine", 1);
            }
            tel.count("measure.failed", 1);
            return result;
        }
    }

    fn repeats(&self) -> usize {
        self.inner.repeats()
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

    /// Counts the attempts the wrapped measurer sees.
    struct Counting<M> {
        inner: M,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl<M: Measurer> Measurer for Counting<M> {
        fn measure(
            &self,
            task: &TuningTask,
            space: &ConfigSpace,
            config: &Config,
        ) -> MeasureResult {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.measure(task, space, config)
        }
    }

    #[test]
    fn persistent_failures_return_after_one_attempt() {
        let (task, space) = setup();
        let robust = RobustMeasurer::new(
            Counting { inner: faulty(0.5), calls: 0.into() },
            RetryPolicy::default(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut persistent = false;
        for _ in 0..200 {
            let cfg = space.sample(&mut rng);
            let before = robust.inner().calls.load(std::sync::atomic::Ordering::SeqCst);
            let r = robust.measure(&task, &space, &cfg);
            let attempts = robust.inner().calls.load(std::sync::atomic::Ordering::SeqCst) - before;
            if r.error_kind().is_some_and(|k| !k.is_transient()) {
                assert_eq!(attempts, 1, "a persistent failure is never retried");
                assert_eq!(r.gflops, 0.0);
                persistent = true;
                break;
            }
        }
        assert!(persistent, "expected a persistent failure at 50% fault rate");
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
        let tight = RetryPolicy { trial_timeout_ms: base.latency_s * 1e3 / 2.0, max_retries: 0 };
        let robust = RobustMeasurer::new(SimMeasurer::new(GpuDevice::gtx_1080_ti()), tight);
        let r = robust.measure(&task, &space, &cfg);
        assert_eq!(r.error_kind(), Some(MeasureErrorKind::Timeout));
        assert!(r.error.unwrap().is_transient());
        // A generous budget leaves the result untouched.
        let loose = RetryPolicy { trial_timeout_ms: 1e9, ..RetryPolicy::default() };
        let robust = RobustMeasurer::new(SimMeasurer::new(GpuDevice::gtx_1080_ti()), loose);
        assert_eq!(robust.measure(&task, &space, &cfg), base);
    }
}
