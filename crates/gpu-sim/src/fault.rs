//! Deterministic fault injection for the measurement boundary.
//!
//! Real AutoTVM measurement is the flakiest part of the stack: compile
//! failures, kernel crashes, RPC timeouts, boards dropping off the rack.
//! [`FaultInjectingMeasurer`] wraps any [`Measurer`] and injects that
//! hostility deterministically, so chaos runs are exactly reproducible:
//! every fault draw is keyed off [`seed_for`] over the task name, the
//! configuration index, and a user-chosen fault seed, never off wall
//! clock or global RNG state.
//!
//! Faults split into two populations:
//!
//! * **persistent** — the draw depends only on `(task, config, seed)`, so
//!   the same configuration fails the same way on every attempt. These
//!   model compile errors and genuinely crashing kernels; retry never
//!   helps and the robust layer reports them after one attempt.
//! * **transient** — the draw additionally mixes in the per-configuration
//!   attempt number, so a bounded retry can clear them. These model
//!   timeouts and one-off RPC flakes.

use crate::measure::{MeasureError, MeasureErrorKind, MeasureResult, Measurer};
use crate::noise::{seed_for, splitmix64, unit};
use dnn_graph::task::TuningTask;
use schedule::{Config, ConfigSpace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;
use telemetry::sync::lock_or_recover;

/// Share of the overall fault rate drawn as persistent faults.
const PERSISTENT_SHARE: f64 = 0.4;
/// Share of the overall fault rate drawn as transient faults.
const TRANSIENT_SHARE: f64 = 0.6;

/// Serializable fault-injection settings.
///
/// Recorded in the run manifest so a resumed run reproduces the exact
/// fault stream of the run it continues.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Overall fault probability per first attempt, in `[0, 1]`.
    pub rate: f64,
    /// Seed namespace for the fault stream.
    pub seed: u64,
}

impl FaultConfig {
    /// Fault injection disabled (rate 0). The wrapper becomes a
    /// transparent pass-through with identical results to the inner
    /// measurer.
    #[must_use]
    pub fn off() -> Self {
        FaultConfig { rate: 0.0, seed: 0 }
    }

    /// True if this configuration injects nothing.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.rate <= 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

/// A [`Measurer`] wrapper that injects deterministic, seeded faults.
#[derive(Debug)]
pub struct FaultInjectingMeasurer<M> {
    inner: M,
    config: FaultConfig,
    /// Attempts seen per `(task, config)` key; drives the transient draw
    /// so retries of the same configuration see fresh coin flips. Behind a
    /// mutex so pooled executors can share one fault stream across worker
    /// threads — the counter stays per-`(task, config)`, so as long as all
    /// attempts of one configuration run on one worker (the retry loop
    /// does), the draw sequence is identical to the serial path.
    attempts: Mutex<BTreeMap<u64, u64>>,
}

impl<M: Measurer> FaultInjectingMeasurer<M> {
    /// Wraps `inner`, injecting faults per `config`.
    pub fn new(inner: M, config: FaultConfig) -> Self {
        FaultInjectingMeasurer { inner, config, attempts: Mutex::new(BTreeMap::new()) }
    }

    /// The wrapped measurer.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Draws the fault (if any) for this attempt of `(task, config)`.
    fn draw(&self, task: &TuningTask, config: &Config, attempt: u64) -> Option<MeasureErrorKind> {
        if self.config.is_off() {
            return None;
        }
        let key = seed_for(&task.name, config.index);
        // Persistent draw: attempt-independent, so the same config fails
        // identically forever.
        let p = unit(splitmix64(key ^ self.config.seed ^ 0xFA01_7AB1E));
        if p < self.config.rate * PERSISTENT_SHARE {
            let pick = unit(splitmix64(key ^ self.config.seed.rotate_left(7) ^ 0xDEAD));
            return Some(if pick < 0.5 {
                MeasureErrorKind::LaunchCrash
            } else if pick < 0.85 {
                MeasureErrorKind::CompileError
            } else {
                MeasureErrorKind::DeviceLost
            });
        }
        // Transient draw: mixes in the attempt counter, so a retry gets a
        // fresh coin flip and bounded retries can clear the fault.
        let t = unit(splitmix64(
            key ^ self.config.seed.rotate_left(31) ^ (attempt + 1).wrapping_mul(0x9E37_79B9),
        ));
        if t < self.config.rate * TRANSIENT_SHARE {
            let pick = unit(splitmix64(key ^ self.config.seed ^ attempt ^ 0xF1A6));
            return Some(if pick < 0.6 {
                MeasureErrorKind::Timeout
            } else {
                MeasureErrorKind::TransientFlake
            });
        }
        None
    }
}

impl<M: Measurer> Measurer for FaultInjectingMeasurer<M> {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        let attempt = {
            let mut attempts = lock_or_recover(&self.attempts);
            let slot = attempts.entry(seed_for(&task.name, config.index)).or_insert(0);
            let current = *slot;
            *slot += 1;
            current
        };
        if let Some(kind) = self.draw(task, config, attempt) {
            let tel = telemetry::global();
            tel.count("measure.fault", 1);
            tel.event(telemetry::events::MEASURE_FAULT_EVENT, || {
                serde_json::json!({
                    "task": task.name,
                    "config_index": config.index,
                    "kind": kind.label(),
                    "transient": kind.is_transient(),
                    "attempt": attempt,
                })
            });
            return MeasureResult::failed(MeasureError::new(
                kind,
                format!("injected fault (attempt {attempt})"),
            ));
        }
        self.inner.measure(task, space, config)
    }

    fn repeats(&self) -> usize {
        self.inner.repeats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuDevice;
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

    #[test]
    fn zero_rate_is_a_transparent_passthrough() {
        let (task, space) = setup();
        let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        let wrapped = FaultInjectingMeasurer::new(
            SimMeasurer::new(GpuDevice::gtx_1080_ti()),
            FaultConfig::off(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..20 {
            let cfg = space.sample(&mut rng);
            assert_eq!(sim.measure(&task, &space, &cfg), wrapped.measure(&task, &space, &cfg));
        }
    }

    #[test]
    fn fault_stream_is_deterministic_in_the_seed() {
        let (task, space) = setup();
        let make = |seed| {
            FaultInjectingMeasurer::new(
                SimMeasurer::new(GpuDevice::gtx_1080_ti()),
                FaultConfig { rate: 0.5, seed },
            )
        };
        let (a, b, c) = (make(7), make(7), make(8));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut diverged = false;
        for _ in 0..64 {
            let cfg = space.sample(&mut rng);
            let ra = a.measure(&task, &space, &cfg);
            assert_eq!(ra, b.measure(&task, &space, &cfg), "same seed, same stream");
            if ra != c.measure(&task, &space, &cfg) {
                diverged = true;
            }
        }
        assert!(diverged, "different fault seeds should disagree somewhere");
    }

    #[test]
    fn persistent_faults_repeat_but_transients_can_clear() {
        let (task, space) = setup();
        let m = FaultInjectingMeasurer::new(
            SimMeasurer::new(GpuDevice::gtx_1080_ti()),
            FaultConfig { rate: 0.6, seed: 11 },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut saw_persistent_repeat = false;
        let mut saw_transient_clear = false;
        for _ in 0..200 {
            let cfg = space.sample(&mut rng);
            let first = m.measure(&task, &space, &cfg);
            let Some(error) = first.error.clone() else { continue };
            // Only injected faults are under test here; a naturally
            // invalid config's lowering error is the inner measurer's.
            if !error.detail.starts_with("injected") {
                continue;
            }
            // Retry the same config several times.
            let retries: Vec<_> = (0..6).map(|_| m.measure(&task, &space, &cfg)).collect();
            if !error.is_transient() {
                assert!(
                    retries.iter().all(|r| r.error_kind() == Some(error.kind)),
                    "persistent faults must survive retries"
                );
                saw_persistent_repeat = true;
            } else if retries.iter().any(MeasureResult::is_valid) {
                saw_transient_clear = true;
            }
            if saw_persistent_repeat && saw_transient_clear {
                break;
            }
        }
        assert!(saw_persistent_repeat, "expected a repeating persistent fault");
        assert!(saw_transient_clear, "expected a transient fault to clear on retry");
    }
}
