//! The measurement interface between tuners and "hardware".
//!
//! Tuners never see the performance model directly — they submit a
//! configuration and get back a [`MeasureResult`], exactly like AutoTVM's
//! `LocalRunner` RPC round-trip. Invalid configurations (launch failures)
//! come back with `gflops == 0.0`, which is how AutoTVM records them too.

use crate::device::GpuDevice;
use crate::noise::seed_for;
use crate::perf::{predict, KernelPerf};
use dnn_graph::task::TuningTask;
use schedule::kernel::lower;
use schedule::{Config, ConfigSpace};
use serde::{Deserialize, Serialize};

/// What went wrong with a measurement, classified the way AutoTVM's
/// measure infrastructure classifies RPC round-trip failures.
///
/// The split that matters operationally is [`is_transient`]: transient
/// faults (timeouts, RPC flakes) may succeed on retry, persistent faults
/// (compile errors, launch crashes, lost devices) never will, so they
/// are reported after one attempt.
///
/// [`is_transient`]: MeasureErrorKind::is_transient
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MeasureErrorKind {
    /// Lowering/compilation rejected the configuration.
    CompileError,
    /// The kernel launched but crashed (or the launch itself was refused
    /// by the driver for resource limits).
    LaunchCrash,
    /// The trial exceeded its wall-clock budget.
    Timeout,
    /// A one-off infrastructure flake (RPC drop, board hiccup).
    TransientFlake,
    /// The device disappeared mid-measurement.
    DeviceLost,
}

impl MeasureErrorKind {
    /// True if retrying the same configuration can plausibly succeed.
    #[must_use]
    pub fn is_transient(self) -> bool {
        matches!(self, MeasureErrorKind::Timeout | MeasureErrorKind::TransientFlake)
    }

    /// Stable lowercase label (used in telemetry fields and reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MeasureErrorKind::CompileError => "compile_error",
            MeasureErrorKind::LaunchCrash => "launch_crash",
            MeasureErrorKind::Timeout => "timeout",
            MeasureErrorKind::TransientFlake => "transient_flake",
            MeasureErrorKind::DeviceLost => "device_lost",
        }
    }
}

impl std::fmt::Display for MeasureErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed measurement failure: a taxonomy kind plus human detail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureError {
    /// Failure class.
    pub kind: MeasureErrorKind,
    /// Free-form diagnostic (the underlying error message).
    pub detail: String,
}

impl MeasureError {
    /// Builds an error of `kind` with a diagnostic message.
    pub fn new(kind: MeasureErrorKind, detail: impl Into<String>) -> Self {
        MeasureError { kind, detail: detail.into() }
    }

    /// True if retrying the same configuration can plausibly succeed.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        self.kind.is_transient()
    }
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl From<schedule::ScheduleError> for MeasureError {
    fn from(e: schedule::ScheduleError) -> Self {
        use schedule::ScheduleError as SE;
        // Resource-limit violations surface at launch time on real
        // hardware; everything else dies during lowering/compilation.
        let kind = match e {
            SE::InvalidThreadCount { .. }
            | SE::InvalidSharedMem { .. }
            | SE::InvalidRegisterCount { .. } => MeasureErrorKind::LaunchCrash,
            SE::IndexOutOfRange { .. } | SE::UnsupportedTask(_) => MeasureErrorKind::CompileError,
        };
        MeasureError::new(kind, e.to_string())
    }
}

/// Outcome of measuring one configuration on (simulated) hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureResult {
    /// Mean achieved GFLOPS over the repeats (0.0 for failed launches).
    pub gflops: f64,
    /// Mean latency in seconds. Failed trials carry 0.0 and must be
    /// excluded from latency aggregation, never averaged in.
    pub latency_s: f64,
    /// Typed failure, if the measurement did not produce a timing.
    pub error: Option<MeasureError>,
}

impl MeasureResult {
    /// The zero-GFLOPS penalty result AutoTVM records for a failure.
    #[must_use]
    pub fn failed(error: MeasureError) -> Self {
        MeasureResult { gflops: 0.0, latency_s: 0.0, error: Some(error) }
    }

    /// True if the configuration launched successfully.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.error.is_none()
    }

    /// Failure class, if this result is a failure.
    #[must_use]
    pub fn error_kind(&self) -> Option<MeasureErrorKind> {
        self.error.as_ref().map(|e| e.kind)
    }
}

/// Anything that can evaluate a configuration of a task.
///
/// The paper's framework is explicitly agnostic to what sits behind this
/// interface (real silicon via RPC in the paper, [`SimMeasurer`] here).
pub trait Measurer {
    /// Deploys `config` for `task` and reports measured performance.
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult;

    /// Measures a whole batch of configurations, returning results in
    /// submission order (`results[i]` belongs to `configs[i]`).
    ///
    /// The default walks the batch serially through [`Measurer::measure`],
    /// so every existing measurer works unchanged; a pooled executor
    /// overrides this to fan the batch out across workers while keeping
    /// the ordering contract. The tuning loop only ever talks to this
    /// method — per-config calls are an implementation detail of the
    /// serial default.
    fn measure_batch(
        &self,
        task: &TuningTask,
        space: &ConfigSpace,
        configs: &[Config],
    ) -> Vec<MeasureResult> {
        configs.iter().map(|c| self.measure(task, space, c)).collect()
    }

    /// Number of timed runs averaged per measurement.
    fn repeats(&self) -> usize {
        3
    }

    /// Configuration indices this measurer holds back for `task`; no
    /// measurer in the workspace holds any, and no caller remains.
    /// ROADMAP item 2, which deletes perfbench's `layers.rs` (the last
    /// override), deletes this method too.
    fn quarantined(&self, _task: &TuningTask) -> Vec<u64> {
        Vec::new()
    }
}

/// Simulated on-chip measurement: lowering + performance model + noise.
#[derive(Debug, Clone)]
pub struct SimMeasurer {
    device: GpuDevice,
    repeats: usize,
    /// Seed namespace separating measurement noise between experiment
    /// trials (the paper runs 10 trials per algorithm).
    trial_seed: u64,
}

impl SimMeasurer {
    /// Creates a measurer for `device` with AutoTVM's default of averaging
    /// 3 timed runs.
    #[must_use]
    pub fn new(device: GpuDevice) -> Self {
        SimMeasurer { device, repeats: 3, trial_seed: 0 }
    }

    /// Sets the number of timed runs averaged per measurement.
    #[must_use]
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        assert!(repeats > 0, "need at least one timed run");
        self.repeats = repeats;
        self
    }

    /// Sets the trial seed (distinct trials observe different noise).
    #[must_use]
    pub fn with_trial_seed(mut self, seed: u64) -> Self {
        self.trial_seed = seed;
        self
    }

    /// The device being simulated.
    #[must_use]
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Noise-free performance of a configuration (used when assembling
    /// end-to-end deployments, where noise is re-sampled per run).
    ///
    /// # Errors
    ///
    /// Returns the lowering error for invalid configurations.
    pub fn true_perf(
        &self,
        task: &TuningTask,
        space: &ConfigSpace,
        config: &Config,
    ) -> Result<KernelPerf, schedule::ScheduleError> {
        let spec = lower(task, space, config)?;
        Ok(predict(&spec, &self.device, config.index))
    }
}

impl Measurer for SimMeasurer {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        let tel = telemetry::global();
        // Folded into the enclosing batch's record when the caller (the
        // executor) has entered a fold.
        let _span = tel.call_span("measure");
        // aal-lint: allow(wall-clock, reason = "host-side wall-time metric around the simulated kernel; observability only")
        let wall = std::time::Instant::now();
        let result = match self.true_perf(task, space, config) {
            Err(e) => MeasureResult::failed(MeasureError::from(e)),
            Ok(perf) => {
                let profile = perf.noise_profile();
                let seed = seed_for(&task.name, config.index ^ self.trial_seed.rotate_left(17));
                let mean_latency = (0..self.repeats as u64)
                    .map(|i| profile.sample(perf.latency_s, seed, i))
                    .sum::<f64>()
                    / self.repeats as f64;
                MeasureResult {
                    gflops: task.flops() as f64 / mean_latency / 1e9,
                    latency_s: mean_latency,
                    error: None,
                }
            }
        };
        tel.count("measure.total", 1);
        if result.is_valid() {
            tel.observe("measure.device_us", result.latency_s * 1e6);
        } else {
            tel.count("measure.invalid", 1);
        }
        tel.observe("measure.wall_us", wall.elapsed().as_secs_f64() * 1e6);
        result
    }

    fn repeats(&self) -> usize {
        self.repeats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_graph::{models, task::extract_tasks};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use schedule::template::space_for_task;

    fn setup() -> (TuningTask, ConfigSpace, SimMeasurer) {
        let task = extract_tasks(&models::mobilenet_v1(1)).remove(0);
        let space = space_for_task(&task);
        (task, space, SimMeasurer::new(GpuDevice::gtx_1080_ti()))
    }

    #[test]
    fn measurement_is_deterministic_given_trial_seed() {
        let (task, space, m) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let cfg = space.sample(&mut rng);
        assert_eq!(m.measure(&task, &space, &cfg), m.measure(&task, &space, &cfg));
    }

    #[test]
    fn different_trials_see_different_noise() {
        let (task, space, m0) = setup();
        let m1 = m0.clone().with_trial_seed(99);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Find a valid config so noise actually applies.
        let cfg = loop {
            let c = space.sample(&mut rng);
            if m0.measure(&task, &space, &c).is_valid() {
                break c;
            }
        };
        let a = m0.measure(&task, &space, &cfg);
        let b = m1.measure(&task, &space, &cfg);
        assert_ne!(a.gflops, b.gflops);
        // But they agree to within the noise scale.
        assert!((a.gflops - b.gflops).abs() / a.gflops < 0.5);
    }

    #[test]
    fn invalid_configs_report_zero_gflops() {
        let (task, space, m) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut saw_invalid = false;
        for _ in 0..500 {
            let cfg = space.sample(&mut rng);
            let r = m.measure(&task, &space, &cfg);
            if !r.is_valid() {
                assert_eq!(r.gflops, 0.0);
                // Failed trials must not poison latency aggregation.
                assert_eq!(r.latency_s, 0.0);
                let kind = r.error_kind().unwrap();
                assert!(!kind.is_transient(), "lowering failures are persistent");
                saw_invalid = true;
                break;
            }
        }
        assert!(saw_invalid, "expected some invalid configs in 500 samples");
    }

    #[test]
    fn more_repeats_reduce_measurement_scatter() {
        let (task, space, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let base = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        let cfg = loop {
            let c = space.sample(&mut rng);
            if base.measure(&task, &space, &c).is_valid() {
                break c;
            }
        };
        // 200 trial seeds: enough that the averaging effect dominates the
        // sampling error of the scatter estimate itself (30 was borderline).
        let scatter = |reps: usize| {
            let xs: Vec<f64> = (0..200)
                .map(|t| {
                    SimMeasurer::new(GpuDevice::gtx_1080_ti())
                        .with_repeats(reps)
                        .with_trial_seed(t)
                        .measure(&task, &space, &cfg)
                        .gflops
                })
                .collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        assert!(scatter(20) < scatter(1));
    }
}
