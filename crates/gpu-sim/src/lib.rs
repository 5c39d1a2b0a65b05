//! Analytical GPU execution substrate.
//!
//! The paper measures every candidate configuration on an Nvidia GTX 1080 Ti
//! through TVM's RPC runner. This crate replaces that hardware loop with a
//! first-principles performance model of a CUDA GPU:
//!
//! * [`device`] — device descriptions (SM count, register file, shared
//!   memory, DRAM bandwidth, clocks) with a GTX 1080 Ti preset;
//! * [`occupancy`] — the CUDA occupancy calculation (blocks per SM limited
//!   by threads, registers, shared memory);
//! * [`perf`] — kernel latency from compute / DRAM / shared-memory
//!   bottlenecks, wave quantization, launch overhead, and a deterministic
//!   high-frequency ruggedness term;
//! * [`noise`] — config-dependent run-to-run measurement noise with a heavy
//!   tail for fragile (low-occupancy, imbalanced) configurations;
//! * [`measure`] — the [`measure::Measurer`] abstraction the tuners talk
//!   to, plus [`measure::SimMeasurer`] and the typed
//!   [`measure::MeasureError`] fault taxonomy;
//! * [`fault`] — deterministic seeded fault injection
//!   ([`fault::FaultInjectingMeasurer`]) for chaos testing;
//! * [`robust`] — the hardening policy layer
//!   ([`robust::RobustMeasurer`]): timeout budgets and bounded retry
//!   with backoff;
//! * [`model_exec`] — end-to-end model latency: composes tuned kernels and
//!   un-tuned auxiliary operators, sampling the 600-run latency
//!   distribution the paper reports in Table I.
//!
//! The substitution argument (see `DESIGN.md`): the tuning algorithms only
//! observe `(configuration → GFLOPS)` and latency distributions. The model
//! preserves the properties those algorithms exploit — local smoothness in
//! knob space, global ruggedness with rare sharp optima, hard validity
//! cliffs, and noise that shrinks as configurations improve.

pub mod analysis;
pub mod device;
pub mod fault;
pub mod measure;
pub mod model_exec;
pub mod noise;
pub mod occupancy;
pub mod perf;
pub mod robust;

pub use analysis::{analyze, KernelAnalysis};
pub use device::GpuDevice;
pub use fault::{FaultConfig, FaultInjectingMeasurer};
pub use measure::{MeasureError, MeasureErrorKind, MeasureResult, Measurer, SimMeasurer};
pub use model_exec::{measure_model, ModelDeployment, ModelLatency};
pub use perf::{Bottleneck, KernelPerf};
pub use robust::{RetryPolicy, RobustMeasurer};
