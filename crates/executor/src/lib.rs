//! # executor — parallel batched measurement execution
//!
//! The measurement subsystem between the tuning loop and the (simulated)
//! hardware: it measures whole candidate batches concurrently while
//! keeping results — and therefore tuner behavior and trial logs —
//! byte-identical to the serial path.
//!
//! * [`run_ordered`] — the one fan-out: runs items on up to N threads,
//!   the caller's included, and returns results in item order. It tunes
//!   several `TuningTask`s concurrently and measures each executor batch;
//!   [`cpu_share`] sizes it for CPU-bound work, such as the bootstrap fits
//!   of one BAO step, so that nested fan-out never oversubscribes the CPUs.
//! * [`DevicePool`] / [`DeviceLease`] — N simulated device slots with
//!   per-task fair-share allocation and optional real-time occupancy
//!   emulation.
//! * [`Executor`] — implements [`gpu_sim::Measurer`], overriding
//!   `measure_batch` to measure a batch through `run_ordered`, leasing a
//!   device for each valid configuration; wrap any measurer stack
//!   (`RobustMeasurer<FaultInjectingMeasurer<SimMeasurer>>` included) and
//!   hand it to the existing tuning loop unchanged. At one worker it
//!   measures on the caller's thread.
//! * [`BoundedQueue`] — a blocking bounded MPMC queue (backpressured
//!   push, close-to-drain shutdown): serve's connection queue.
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
pub use pool::{Executor, ExecutorConfig};
pub use queue::BoundedQueue;
pub use scheduler::{available_cpus, cpu_share, run_ordered, set_cpu_share};
