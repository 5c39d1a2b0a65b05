//! [`Executor`]: measures each candidate batch on up to `workers` threads
//! and hands the results back in submission order.
//!
//! A batch goes through [`run_ordered`], the same fan-out that runs
//! concurrent tasks, bootstrap fits and BTED batches. One configuration's
//! work is `measure_one`: lower and validate it (AutoTVM's build step),
//! lease a device if it is valid, and measure it through the wrapped
//! stack. `run_ordered` files each result under its submission index, so
//! the vector handed back by [`Executor::measure_batch`] is in submission
//! order no matter which thread finished first. Because the wrapped
//! measurer stack is seeded and keyed per `(task, config)` — and one
//! configuration's attempts (first try plus robust retries) always run on
//! one thread — trial logs are byte-identical to the serial path for any
//! worker count.
//!
//! A batch fans out to at most `workers` threads, and, unless the device
//! pool holds each lease for real time, to at most the caller's
//! [`cpu_share`]: without a hold a measurement is CPU-bound work like a
//! bootstrap fit, so tasks tuned side by side on as many CPUs measure in
//! their own threads instead of starting and joining a helper per batch.
//! A hold (`--device-ms`, serve) is time spent waiting on a device, which
//! overlaps across `workers` threads whatever the CPU count.
//!
//! At one thread `run_ordered` is a plain loop on the caller's thread:
//! no thread is started. A panic in the wrapped measurer fails the whole
//! batch: `run_ordered` raises it in the caller once every thread has
//! stopped.

use crate::device::DevicePool;
use crate::scheduler::{cpu_share, run_ordered};
use dnn_graph::task::TuningTask;
use gpu_sim::{MeasureResult, Measurer};
use schedule::kernel::lower;
use schedule::{Config, ConfigSpace};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizing for [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Threads each batch is measured on at most, the caller's included
    /// (the `--workers` knob); without a device hold also at most the
    /// caller's [`cpu_share`]. At one worker (or zero) each batch is
    /// measured in submission order on the caller's thread.
    pub workers: usize,
    /// Simulated devices in the [`DevicePool`] (the `--devices` knob).
    pub devices: usize,
    /// Per-lease device occupancy emulation (see [`DevicePool::with_hold`]).
    pub device_hold: Duration,
}

impl ExecutorConfig {
    /// `workers` measuring threads and one device per thread.
    #[must_use]
    pub fn for_workers(workers: usize) -> Self {
        let w = workers.max(1);
        ExecutorConfig { workers: w, devices: w, device_hold: Duration::ZERO }
    }

    /// Overrides the device count (clamped to at least one).
    #[must_use]
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        self
    }

    /// Enables device occupancy emulation: each lease holds its device for
    /// at least `hold` of real time.
    #[must_use]
    pub fn with_device_hold(mut self, hold: Duration) -> Self {
        self.device_hold = hold;
        self
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::for_workers(1)
    }
}

/// A pooled [`Measurer`]: each batch fans out over up to `workers`
/// threads (and, without a device hold, the caller's [`cpu_share`]) and a
/// [`DevicePool`], and its results come back in submission order.
///
/// Wrap the full measurement stack once and share the executor by
/// reference; per-measure policy (fault injection, retry, timeout) stays
/// inside the wrapped stack. Callers that measure concurrently (tasks
/// tuned side by side, serve jobs) each fan out their own batches; the
/// device pool caps how many of all those measurements hold a device.
#[derive(Debug)]
pub struct Executor<M> {
    measurer: M,
    devices: Arc<DevicePool>,
    lease_tag: Option<String>,
    workers: usize,
}

impl<M> Executor<M> {
    /// Wraps `measurer` with a private [`DevicePool`] sized by `config`.
    #[must_use]
    pub fn new(measurer: M, config: ExecutorConfig) -> Self {
        let pool = DevicePool::with_hold(config.devices, config.device_hold);
        Self::with_pool(measurer, config, pool, None)
    }

    /// Like [`Executor::new`], but leasing devices from a caller-provided
    /// (possibly shared) pool instead of a private one, and optionally
    /// overriding the lease tag. By default leases are tagged with the
    /// task name (fair share *between tasks* of one run); a serving
    /// deployment passes the tenant id as `lease_tag` so several
    /// executors sharing one pool contend *between tenants*, with
    /// [`DevicePool::set_tag_cap`] quotas enforced across all of them.
    /// `config.devices` / `config.device_hold` are ignored — the shared
    /// pool's own sizing wins.
    #[must_use]
    pub fn with_pool(
        measurer: M,
        config: ExecutorConfig,
        devices: Arc<DevicePool>,
        lease_tag: Option<String>,
    ) -> Self {
        Executor { measurer, devices, lease_tag, workers: config.workers }
    }

    /// The wrapped measurer.
    #[must_use]
    pub fn inner(&self) -> &M {
        &self.measurer
    }
}

impl<M: Measurer> Executor<M> {
    /// One configuration's work: lowers it, leases a device (valid
    /// configurations only: a refused launch never occupies a board),
    /// measures through the wrapped stack, and releases the lease. Leases
    /// are tagged with `tag`: the tenant for shared pools contending
    /// between tenants, else the task name.
    fn measure_one(
        &self,
        tel: &telemetry::Telemetry,
        tag: &str,
        task: &TuningTask,
        space: &ConfigSpace,
        config: &Config,
    ) -> MeasureResult {
        tel.gauge_add("exec.workers.busy.now", 1.0);
        // aal-lint: allow(wall-clock, reason = "build-time metric; exported as telemetry only")
        let build = Instant::now();
        let valid = lower(task, space, config).is_ok();
        tel.count(if valid { "exec.build.ok" } else { "exec.build.invalid" }, 1);
        tel.observe("exec.build_us", build.elapsed().as_secs_f64() * 1e6);
        let lease = valid.then(|| self.devices.acquire(tag));
        let result = self.measurer.measure(task, space, config);
        drop(lease);
        tel.count("exec.jobs.total", 1);
        tel.gauge_add("exec.workers.busy.now", -1.0);
        result
    }
}

impl<M: Measurer + Sync> Measurer for Executor<M> {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        self.measure_batch(task, space, std::slice::from_ref(config))
            .pop()
            // aal-lint: allow(unwrap, reason = "a batch of one yields one result")
            .expect("a batch of one yields one result")
    }

    fn measure_batch(
        &self,
        task: &TuningTask,
        space: &ConfigSpace,
        configs: &[Config],
    ) -> Vec<MeasureResult> {
        if configs.is_empty() {
            return Vec::new();
        }
        let tel = telemetry::global();
        tel.count("exec.batch.submitted", 1);
        #[allow(clippy::cast_precision_loss)]
        tel.observe("exec.batch.size", configs.len() as f64);
        // aal-lint: allow(wall-clock, reason = "batch wall-time metric; results are ordered by index, never by time")
        let submitted = Instant::now();
        let tag = self.lease_tag.as_deref().unwrap_or(&task.name);
        // Without a device hold a measurement only keeps a CPU busy, so
        // more threads than the caller's CPUs would only take turns.
        let threads = if self.devices.hold().is_zero() {
            self.workers.min(cpu_share())
        } else {
            self.workers
        };
        // The batch's `measure` calls are traced as one folded span per
        // thread's parent instead of a span each.
        let measures = tel.fold();
        let results = run_ordered(configs.iter().collect(), threads, |_, config| {
            let _folding = measures.enter();
            self.measure_one(&tel, tag, task, space, config)
        });
        drop(measures);
        tel.observe("exec.batch.wall_us", submitted.elapsed().as_secs_f64() * 1e6);
        results
    }

    fn repeats(&self) -> usize {
        self.measurer.repeats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::set_cpu_share;
    use dnn_graph::{models, task::extract_tasks};
    use gpu_sim::{
        FaultConfig, FaultInjectingMeasurer, GpuDevice, RetryPolicy, RobustMeasurer, SimMeasurer,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::{Barrier, Mutex};
    use telemetry::sync::lock_or_recover;

    fn setup() -> (TuningTask, ConfigSpace) {
        let task = extract_tasks(&models::mobilenet_v1(1)).remove(0);
        let space = schedule::template::space_for_task(&task);
        (task, space)
    }

    fn sample(space: &ConfigSpace, n: usize, seed: u64) -> Vec<Config> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| space.sample(&mut rng)).collect()
    }

    fn serial(task: &TuningTask, space: &ConfigSpace, configs: &[Config]) -> Vec<MeasureResult> {
        let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        configs.iter().map(|c| sim.measure(task, space, c)).collect()
    }

    /// Runs `f` on a thread of its own and returns its result, or `None`
    /// if it panicked; fails the test instead of hanging if `f` is still
    /// running after 30 s.
    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> Option<R> {
        let (tx, rx) = mpsc::channel();
        let caller = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Disconnected) => {
                assert!(caller.join().is_err(), "the sender drops without a send only on a panic");
                None
            }
            Err(RecvTimeoutError::Timeout) => panic!("still running after 30 s"),
        }
    }

    #[test]
    fn batch_results_match_the_serial_path_in_order() {
        let (task, space) = setup();
        let exec = Executor::new(
            SimMeasurer::new(GpuDevice::gtx_1080_ti()),
            ExecutorConfig::for_workers(4),
        );
        let configs = sample(&space, 64, 42);
        assert_eq!(exec.measure_batch(&task, &space, &configs), serial(&task, &space, &configs));
        // And a second batch through the same executor still matches.
        let more = sample(&space, 16, 43);
        assert_eq!(exec.measure_batch(&task, &space, &more), serial(&task, &space, &more));
    }

    #[test]
    fn single_measure_matches_the_serial_path() {
        let (task, space) = setup();
        let exec =
            Executor::new(SimMeasurer::new(GpuDevice::gtx_1080_ti()), ExecutorConfig::default());
        let cfg = sample(&space, 1, 7);
        assert_eq!(vec![exec.measure(&task, &space, &cfg[0])], serial(&task, &space, &cfg));
        assert_eq!(exec.repeats(), SimMeasurer::new(GpuDevice::gtx_1080_ti()).repeats());
    }

    /// The production measurer stack with 10% injected faults.
    fn faulty() -> RobustMeasurer<FaultInjectingMeasurer<SimMeasurer>> {
        let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        let faults = FaultInjectingMeasurer::new(sim, FaultConfig { rate: 0.1, seed: 3 });
        RobustMeasurer::new(faults, RetryPolicy::default())
    }

    #[test]
    fn one_worker_matches_four_workers_under_faults() {
        let (task, space) = setup();
        let inline = Executor::new(faulty(), ExecutorConfig::for_workers(1));
        let pooled = Executor::new(faulty(), ExecutorConfig::for_workers(4));
        let mut persistent = false;
        for seed in [11, 12] {
            let configs = sample(&space, 48, seed);
            let results = inline.measure_batch(&task, &space, &configs);
            persistent |= results.iter().any(|r| r.error_kind().is_some_and(|k| !k.is_transient()));
            assert_eq!(results, pooled.measure_batch(&task, &space, &configs), "batch {seed}");
        }
        assert!(persistent, "expected a persistent failure at a 10% fault rate");
    }

    /// Records the thread each measurement ran on.
    struct ThreadRecorder {
        inner: SimMeasurer,
        threads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Measurer for ThreadRecorder {
        fn measure(
            &self,
            task: &TuningTask,
            space: &ConfigSpace,
            config: &Config,
        ) -> MeasureResult {
            lock_or_recover(&self.threads).push(std::thread::current().id());
            self.inner.measure(task, space, config)
        }
    }

    /// Measures only in pairs: each measurement waits until a second one
    /// is in flight beside it.
    struct PairedMeasurer {
        inner: SimMeasurer,
        both: Barrier,
    }

    impl Measurer for PairedMeasurer {
        fn measure(
            &self,
            task: &TuningTask,
            space: &ConfigSpace,
            config: &Config,
        ) -> MeasureResult {
            self.both.wait();
            self.inner.measure(task, space, config)
        }
    }

    #[test]
    fn one_worker_measures_on_the_callers_thread() {
        let (task, space) = setup();
        let configs = sample(&space, 16, 13);
        let me = std::thread::current().id();
        let inline = Executor::new(
            ThreadRecorder {
                inner: SimMeasurer::new(GpuDevice::gtx_1080_ti()),
                threads: Mutex::default(),
            },
            ExecutorConfig::for_workers(1),
        );
        assert_eq!(inline.measure_batch(&task, &space, &configs).len(), 16);
        let threads = lock_or_recover(&inline.inner().threads);
        assert_eq!(threads.len(), 16);
        assert!(threads.iter().all(|&t| t == me), "one worker starts no thread");
    }

    #[test]
    fn two_workers_keep_two_measurements_in_flight() {
        let (task, space) = setup();
        let configs = sample(&space, 16, 13);
        let expect = serial(&task, &space, &configs);
        let paired = Executor::new(
            PairedMeasurer {
                inner: SimMeasurer::new(GpuDevice::gtx_1080_ti()),
                both: Barrier::new(2),
            },
            ExecutorConfig::for_workers(2),
        );
        // Serial measuring would wait at the barrier forever. Two CPUs
        // let a batch without a device hold fan out to both workers,
        // whatever the machine running the test has.
        let results = within_deadline(move || {
            set_cpu_share(2);
            paired.measure_batch(&task, &space, &configs)
        });
        assert_eq!(results, Some(expect));
    }

    #[test]
    fn without_a_hold_a_batch_stays_within_the_callers_cpu_share() {
        let (task, space) = setup();
        let configs = sample(&space, 16, 13);
        let expect = serial(&task, &space, &configs);
        let recorded = within_deadline(move || {
            set_cpu_share(1);
            let exec = Executor::new(
                ThreadRecorder {
                    inner: SimMeasurer::new(GpuDevice::gtx_1080_ti()),
                    threads: Mutex::default(),
                },
                ExecutorConfig::for_workers(4),
            );
            let results = exec.measure_batch(&task, &space, &configs);
            let me = std::thread::current().id();
            let threads = lock_or_recover(&exec.inner().threads).clone();
            (results, threads.len(), threads.iter().all(|&t| t == me))
        });
        assert_eq!(recorded, Some((expect, 16, true)), "one CPU: every measurement in-thread");
    }

    #[test]
    fn with_a_hold_two_measurements_stay_in_flight_on_one_cpu() {
        let (task, space) = setup();
        // Only valid configurations lease a device, and so hold it; the
        // measurer pairs them, so take an even count.
        let mut configs: Vec<Config> = sample(&space, 64, 13)
            .into_iter()
            .filter(|c| lower(&task, &space, c).is_ok())
            .collect();
        configs.truncate(configs.len() / 2 * 2);
        assert!(configs.len() >= 4, "sample has valid configs");
        let expect = serial(&task, &space, &configs);
        let paired = Executor::new(
            PairedMeasurer {
                inner: SimMeasurer::new(GpuDevice::gtx_1080_ti()),
                both: Barrier::new(2),
            },
            ExecutorConfig::for_workers(2).with_device_hold(Duration::from_millis(1)),
        );
        // A device hold is waiting, not computing, so the batch still
        // fans out to both workers on one CPU.
        let results = within_deadline(move || {
            set_cpu_share(1);
            paired.measure_batch(&task, &space, &configs)
        });
        assert_eq!(results, Some(expect));
    }

    /// Panics on one configuration, like a crashing device driver.
    struct PanicsOn {
        inner: SimMeasurer,
        bad: Config,
    }

    impl Measurer for PanicsOn {
        fn measure(
            &self,
            task: &TuningTask,
            space: &ConfigSpace,
            config: &Config,
        ) -> MeasureResult {
            assert!(config != &self.bad, "measurer crashed");
            self.inner.measure(task, space, config)
        }
    }

    #[test]
    fn a_panicking_measurer_fails_the_batch_instead_of_hanging() {
        let (task, space) = setup();
        let configs = sample(&space, 8, 15);
        let exec = Executor::new(
            PanicsOn { inner: SimMeasurer::new(GpuDevice::gtx_1080_ti()), bad: configs[3].clone() },
            ExecutorConfig::for_workers(2),
        );
        let outcome = within_deadline(move || exec.measure_batch(&task, &space, &configs));
        assert!(outcome.is_none(), "measure_batch must re-raise the measurer's panic");
    }

    #[test]
    fn one_worker_leases_devices_for_valid_configs_only() {
        let (task, space) = setup();
        let (valid, invalid): (Vec<Config>, Vec<Config>) =
            sample(&space, 64, 14).into_iter().partition(|c| lower(&task, &space, c).is_ok());
        assert!(!valid.is_empty() && !invalid.is_empty(), "sample has both kinds");
        let hold = Duration::from_millis(30);
        let pool = DevicePool::with_hold(1, hold);
        let exec = Executor::with_pool(
            SimMeasurer::new(GpuDevice::gtx_1080_ti()),
            ExecutorConfig::for_workers(1),
            Arc::clone(&pool),
            Some("tenant".to_string()),
        );
        // With the only device leased elsewhere, invalid configs still
        // complete: they never ask for a device.
        let elsewhere = pool.acquire("other");
        assert_eq!(exec.measure_batch(&task, &space, &invalid).len(), invalid.len());
        drop(elsewhere);
        // A valid config holds the device for at least the hold.
        let started = Instant::now();
        let _ = exec.measure_batch(&task, &space, &valid[..1]);
        assert!(started.elapsed() >= hold, "device hold honoured inline");
        assert_eq!(pool.free_now(), 1, "the lease is released");
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let (task, space) = setup();
        let exec =
            Executor::new(SimMeasurer::new(GpuDevice::gtx_1080_ti()), ExecutorConfig::default());
        assert!(exec.measure_batch(&task, &space, &[]).is_empty());
    }
}
