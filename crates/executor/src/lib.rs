//! # executor — parallel batched measurement execution
//!
//! The measurement subsystem between the tuning loop and the (simulated)
//! hardware: an AutoTVM-style builder/runner pool that measures whole
//! candidate batches concurrently while keeping results — and therefore
//! tuner behavior and trial logs — byte-identical to the serial path.
//!
//! Three layers, bottom up:
//!
//! * [`BoundedQueue`] — a blocking bounded MPMC queue: backpressured
//!   submission, close-to-drain shutdown.
//! * [`DevicePool`] / [`DeviceLease`] — N simulated device slots with
//!   per-task fair-share allocation and optional real-time occupancy
//!   emulation.
//! * [`Executor`] — the two-stage build→run pipeline. It implements
//!   [`gpu_sim::Measurer`], overriding `measure_batch` to fan a batch out
//!   over the pools and re-sequence results by submission index; wrap any
//!   measurer stack (`RobustMeasurer<FaultInjectingMeasurer<SimMeasurer>>`
//!   included) and hand it to the existing tuning loop unchanged. At one
//!   worker it runs no threads and measures on the caller's thread.
//!
//! [`run_ordered`] adds task-level scheduling on top: tune several
//! `TuningTask`s concurrently with deterministic result ordering, while
//! the shared [`DevicePool`] arbitrates devices between them fairly.
//! [`cpu_share`] sizes it for CPU-bound work, such as the bootstrap fits
//! of one BAO step, so that nested fan-out never oversubscribes the CPUs.
//!
//! ## Determinism contract
//!
//! For a fixed seed, `tune --workers N` produces byte-identical trial
//! logs for every `N`. This holds because (a) results are re-sequenced by
//! submission index before the tuner sees them, (b) the simulated
//! measurement is a pure function of `(task, config, trial_seed)`, and
//! (c) fault/retry bookkeeping is keyed per `(task, config)` with all
//! attempts of one configuration confined to a single worker.

pub mod device;
pub mod pool;
pub mod queue;
pub mod scheduler;

pub use device::{DeviceLease, DevicePool};
pub use pool::{BatchHandle, Executor, ExecutorConfig};
pub use queue::BoundedQueue;
pub use scheduler::{available_cpus, cpu_share, run_ordered, set_cpu_share};
