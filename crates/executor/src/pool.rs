//! The two-stage build→run measurement pipeline.
//!
//! ```text
//!   measure_batch(configs)                      deterministic re-sequencing
//!        │  (backpressured submit)                        ▲
//!        ▼                                                │ slot[seq]
//!   [build queue] → builder workers → [run queue] → runner workers
//!                   (lower/validate)                (DevicePool lease +
//!                                                    Measurer::measure)
//! ```
//!
//! Every job carries its submission index (`seq`); runners write results
//! into that slot of a shared per-batch buffer, so the vector handed back
//! by [`Executor::measure_batch`] is in submission order no matter which
//! worker finished first. Because the wrapped measurer stack is seeded and
//! keyed per `(task, config)` — and one configuration's attempts (first
//! try plus robust retries) always run on a single worker — trial logs are
//! byte-identical to the serial path for any worker count.
//!
//! At one worker the pipeline buys nothing: the single runner measured
//! serially anyway, and every configuration paid two queue hand-offs and
//! two thread wake-ups. A one-worker executor therefore spawns no threads
//! and creates no queues. It builds, leases and measures each
//! configuration in submission order on the caller's thread, through the
//! same `build_stage` and `run_stage` functions the workers call.

use crate::device::DevicePool;
use crate::queue::BoundedQueue;
use dnn_graph::task::TuningTask;
use gpu_sim::{MeasureError, MeasureErrorKind, MeasureResult, Measurer};
use schedule::kernel::lower;
use schedule::{Config, ConfigSpace};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::sync::lock_or_recover;

/// Pool sizing and pipeline tuning for [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Runner worker threads (the `--workers` knob). At one worker (or
    /// zero) the executor spawns no threads and measures inline on the
    /// caller's thread.
    pub workers: usize,
    /// Builder worker threads feeding the runners (unused inline).
    pub builders: usize,
    /// Simulated devices in the [`DevicePool`] (the `--devices` knob).
    pub devices: usize,
    /// Backpressure bound of each stage queue.
    pub queue_capacity: usize,
    /// Per-lease device occupancy emulation (see [`DevicePool::with_hold`]).
    pub device_hold: Duration,
}

impl ExecutorConfig {
    /// Symmetric sizing for `workers` runner threads: as many builders,
    /// one device per runner, and two queue slots per worker.
    #[must_use]
    pub fn for_workers(workers: usize) -> Self {
        let w = workers.max(1);
        ExecutorConfig {
            workers: w,
            builders: w,
            devices: w,
            queue_capacity: 2 * w,
            device_hold: Duration::ZERO,
        }
    }

    /// Overrides the device count (clamped to at least one).
    #[must_use]
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        self
    }

    /// Overrides the per-stage queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
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

/// Result slots of one submitted batch, filled in any order.
#[derive(Debug)]
struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

#[derive(Debug)]
struct BatchState {
    /// Result slots indexed by submission order.
    results: Vec<Option<MeasureResult>>,
    remaining: usize,
}

impl Batch {
    fn complete(&self, seq: usize, result: MeasureResult) {
        let mut st = lock_or_recover(&self.state);
        debug_assert!(st.results[seq].is_none(), "slot {seq} completed twice");
        st.results[seq] = Some(result);
        st.remaining -= 1;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// What every job of one batch is measured against.
#[derive(Debug)]
struct Target {
    task: TuningTask,
    space: ConfigSpace,
}

/// One configuration travelling the pipeline.
#[derive(Debug)]
struct BuildJob {
    seq: usize,
    config: Config,
    target: Arc<Target>,
    batch: Arc<Batch>,
}

/// A built job heading to the runners.
#[derive(Debug)]
struct RunJob {
    job: BuildJob,
    /// Lowering verdict from the build stage: known-invalid configurations
    /// skip device acquisition (a refused launch never occupies a board).
    valid: bool,
}

/// An in-flight batch; [`BatchHandle::wait`] blocks for the ordered results.
#[derive(Debug)]
pub struct BatchHandle {
    batch: Arc<Batch>,
    submitted: Instant,
}

impl BatchHandle {
    /// Blocks until every job of the batch completed, returning results in
    /// submission order. Completion is guaranteed even if the executor is
    /// dropped after the submit: shutdown drains accepted jobs.
    #[must_use]
    pub fn wait(self) -> Vec<MeasureResult> {
        let mut st = lock_or_recover(&self.batch.state);
        while st.remaining > 0 {
            st = self.batch.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let results: Vec<MeasureResult> = st
            .results
            .drain(..)
            // aal-lint: allow(unwrap, reason = "remaining == 0 means every result slot was filled")
            .map(|r| r.expect("remaining == 0 means every slot filled"))
            .collect();
        drop(st);
        let tel = telemetry::global();
        tel.observe("exec.batch.wall_us", self.submitted.elapsed().as_secs_f64() * 1e6);
        results
    }
}

/// The builder and runner worker threads and the queues between them.
#[derive(Debug)]
struct Pipeline {
    build_q: Arc<BoundedQueue<BuildJob>>,
    run_q: Arc<BoundedQueue<RunJob>>,
    builders: Vec<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
}

/// A pooled [`Measurer`]: batches fan out over builder/runner workers and
/// a [`DevicePool`], results come back re-sequenced by submission index.
///
/// Wrap the full measurement stack once and share the executor by
/// reference; per-measure policy (fault injection, retry, timeout)
/// stays inside the wrapped stack, which worker threads drive through a
/// shared `Arc`. At one worker there are no worker threads: each batch
/// runs to completion on the thread that submits it.
#[derive(Debug)]
pub struct Executor<M> {
    measurer: Arc<M>,
    devices: Arc<DevicePool>,
    lease_tag: Option<Arc<str>>,
    /// `None` at one worker, where batches run inline.
    pipeline: Option<Pipeline>,
    config: ExecutorConfig,
}

impl<M: Measurer + Send + Sync + 'static> Executor<M> {
    /// Wraps `measurer` with a private [`DevicePool`] sized by `config`,
    /// spawning the worker pools unless `config.workers` is one.
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
        let measurer = Arc::new(measurer);
        let lease_tag: Option<Arc<str>> = lease_tag.map(Into::into);
        let pipeline = (config.workers > 1).then(|| {
            let build_q =
                Arc::new(BoundedQueue::new(config.queue_capacity, "exec.queue.build.depth"));
            let run_q = Arc::new(BoundedQueue::new(config.queue_capacity, "exec.queue.run.depth"));
            let builders = (0..config.builders.max(1))
                .map(|i| {
                    let (bq, rq) = (Arc::clone(&build_q), Arc::clone(&run_q));
                    std::thread::Builder::new()
                        .name(format!("exec-build-{i}"))
                        .spawn(move || builder_loop(&bq, &rq))
                        // aal-lint: allow(unwrap, reason = "thread spawn fails only on OS resource exhaustion; no recovery at this layer")
                        .expect("spawn builder")
                })
                .collect();
            let runners = (0..config.workers)
                .map(|i| {
                    let rq = Arc::clone(&run_q);
                    let pool = Arc::clone(&devices);
                    let m = Arc::clone(&measurer);
                    let tag = lease_tag.clone();
                    std::thread::Builder::new()
                        .name(format!("exec-run-{i}"))
                        .spawn(move || runner_loop(&rq, &pool, &*m, tag.as_deref()))
                        // aal-lint: allow(unwrap, reason = "thread spawn fails only on OS resource exhaustion; no recovery at this layer")
                        .expect("spawn runner")
                })
                .collect();
            Pipeline { build_q, run_q, builders, runners }
        });
        Executor { measurer, devices, lease_tag, pipeline, config }
    }

    /// The wrapped measurer.
    #[must_use]
    pub fn inner(&self) -> &M {
        &self.measurer
    }

    /// The pool configuration this executor runs with.
    #[must_use]
    pub fn pool_config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// The shared device pool (diagnostics).
    #[must_use]
    pub fn device_pool(&self) -> &Arc<DevicePool> {
        &self.devices
    }

    /// Submits a batch without waiting; pushes block under backpressure.
    /// Pair with [`BatchHandle::wait`] — [`Executor::measure_batch`] does
    /// exactly that. At one worker the batch is measured before this
    /// returns, and the handle is already complete.
    #[must_use]
    pub fn submit_batch(
        &self,
        task: &TuningTask,
        space: &ConfigSpace,
        configs: &[Config],
    ) -> BatchHandle {
        let tel = telemetry::global();
        tel.count("exec.batch.submitted", 1);
        #[allow(clippy::cast_precision_loss)]
        tel.observe("exec.batch.size", configs.len() as f64);
        // aal-lint: allow(wall-clock, reason = "batch wall-time metric; results are ordered by slot, never by time")
        let submitted = Instant::now();
        let Some(pipeline) = &self.pipeline else {
            let tag = self.lease_tag.as_deref().unwrap_or(&task.name);
            let results = configs
                .iter()
                .map(|config| {
                    let valid = build_stage(&tel, task, space, config);
                    Some(run_stage(
                        &tel,
                        &self.devices,
                        &*self.measurer,
                        tag,
                        task,
                        space,
                        config,
                        valid,
                    ))
                })
                .collect();
            let batch = Batch {
                state: Mutex::new(BatchState { results, remaining: 0 }),
                done: Condvar::new(),
            };
            return BatchHandle { batch: Arc::new(batch), submitted };
        };
        let target = Arc::new(Target { task: task.clone(), space: space.clone() });
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                results: vec![None; configs.len()],
                remaining: configs.len(),
            }),
            done: Condvar::new(),
        });
        for (seq, config) in configs.iter().enumerate() {
            let job = BuildJob {
                seq,
                config: config.clone(),
                target: Arc::clone(&target),
                batch: Arc::clone(&batch),
            };
            if let Err(job) = pipeline.build_q.push(job) {
                // Unreachable while the executor is alive (`&self` blocks
                // `Drop`), but never strand a slot: fail it explicitly.
                job.batch.complete(
                    job.seq,
                    MeasureResult::failed(MeasureError::new(
                        MeasureErrorKind::DeviceLost,
                        "executor shut down during submit",
                    )),
                );
            }
        }
        BatchHandle { batch, submitted }
    }
}

impl<M: Measurer + Send + Sync + 'static> Measurer for Executor<M> {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        self.measure_batch(task, space, std::slice::from_ref(config))
            .pop()
            // aal-lint: allow(unwrap, reason = "submitting one job guarantees one result")
            .expect("one submitted job yields one result")
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
        self.submit_batch(task, space, configs).wait()
    }

    fn repeats(&self) -> usize {
        self.measurer.repeats()
    }
}

impl<M> Drop for Executor<M> {
    fn drop(&mut self) {
        let Some(p) = &mut self.pipeline else { return };
        // Two-phase drain: builders first (they still feed the run queue),
        // then runners. Jobs already accepted all complete — `close` only
        // stops *new* submissions.
        p.build_q.close();
        for h in p.builders.drain(..) {
            let _ = h.join();
        }
        p.run_q.close();
        for h in p.runners.drain(..) {
            let _ = h.join();
        }
    }
}

/// Build stage of one job: validates/lowers the configuration (AutoTVM's
/// compile step) and returns whether it is valid.
fn build_stage(
    tel: &telemetry::Telemetry,
    task: &TuningTask,
    space: &ConfigSpace,
    config: &Config,
) -> bool {
    // aal-lint: allow(wall-clock, reason = "worker idle/busy accounting exported as telemetry only")
    let busy = Instant::now();
    tel.gauge_add("exec.workers.build.busy.now", 1.0);
    let valid = lower(task, space, config).is_ok();
    tel.count(if valid { "exec.build.ok" } else { "exec.build.invalid" }, 1);
    tel.observe("exec.build_us", busy.elapsed().as_secs_f64() * 1e6);
    record_us(tel, "exec.worker.build.busy_us", busy);
    tel.gauge_add("exec.workers.build.busy.now", -1.0);
    valid
}

/// Run stage of one job: leases a device (valid configurations only),
/// measures through the wrapped stack, and releases the lease. Leases are
/// tagged with `tag`: the tenant for shared pools contending between
/// tenants, else the task name.
#[allow(clippy::too_many_arguments)]
fn run_stage<M: Measurer>(
    tel: &telemetry::Telemetry,
    pool: &Arc<DevicePool>,
    measurer: &M,
    tag: &str,
    task: &TuningTask,
    space: &ConfigSpace,
    config: &Config,
    valid: bool,
) -> MeasureResult {
    // aal-lint: allow(wall-clock, reason = "worker idle/busy accounting exported as telemetry only")
    let busy = Instant::now();
    tel.gauge_add("exec.workers.run.busy.now", 1.0);
    let lease = valid.then(|| pool.acquire(tag));
    let result = measurer.measure(task, space, config);
    drop(lease);
    tel.count("exec.jobs.total", 1);
    record_us(tel, "exec.worker.run.busy_us", busy);
    tel.gauge_add("exec.workers.run.busy.now", -1.0);
    result
}

/// Builder worker: runs the build stage of each queued job and forwards
/// it to the runners.
fn builder_loop(build_q: &BoundedQueue<BuildJob>, run_q: &BoundedQueue<RunJob>) {
    let tel = telemetry::global();
    loop {
        // aal-lint: allow(wall-clock, reason = "worker idle/busy accounting exported as telemetry only")
        let idle = Instant::now();
        let Some(job) = build_q.pop() else { break };
        record_us(&tel, "exec.worker.build.idle_us", idle);
        let valid = build_stage(&tel, &job.target.task, &job.target.space, &job.config);
        if run_q.push(RunJob { job, valid }).is_err() {
            // Run queue closed before this job could be forwarded — only
            // possible on teardown after all batches completed; nothing to
            // hand the result to.
            break;
        }
    }
}

/// Runner worker: runs the run stage of each built job and completes its
/// batch slot.
fn runner_loop<M: Measurer>(
    run_q: &BoundedQueue<RunJob>,
    pool: &Arc<DevicePool>,
    measurer: &M,
    lease_tag: Option<&str>,
) {
    let tel = telemetry::global();
    loop {
        // aal-lint: allow(wall-clock, reason = "worker idle/busy accounting exported as telemetry only")
        let idle = Instant::now();
        let Some(RunJob { job, valid }) = run_q.pop() else { break };
        record_us(&tel, "exec.worker.run.idle_us", idle);
        let Target { task, space } = &*job.target;
        let tag = lease_tag.unwrap_or(&task.name);
        let result = run_stage(&tel, pool, measurer, tag, task, space, &job.config, valid);
        job.batch.complete(job.seq, result);
    }
}

/// Accumulates elapsed-µs into a counter (utilization = busy/(busy+idle)).
fn record_us(tel: &telemetry::Telemetry, name: &str, since: Instant) {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    tel.count(name, (since.elapsed().as_secs_f64() * 1e6) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_graph::{models, task::extract_tasks};
    use gpu_sim::{
        FaultConfig, FaultInjectingMeasurer, GpuDevice, RetryPolicy, RobustMeasurer, SimMeasurer,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use schedule::template::space_for_task;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup() -> (TuningTask, ConfigSpace) {
        let task = extract_tasks(&models::mobilenet_v1(1)).remove(0);
        let space = space_for_task(&task);
        (task, space)
    }

    fn sample(space: &ConfigSpace, n: usize, seed: u64) -> Vec<Config> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| space.sample(&mut rng)).collect()
    }

    #[test]
    fn batch_results_match_the_serial_path_in_order() {
        let (task, space) = setup();
        let serial = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        let exec = Executor::new(
            SimMeasurer::new(GpuDevice::gtx_1080_ti()),
            ExecutorConfig::for_workers(4),
        );
        let configs = sample(&space, 64, 42);
        let expect: Vec<MeasureResult> =
            configs.iter().map(|c| serial.measure(&task, &space, c)).collect();
        assert_eq!(exec.measure_batch(&task, &space, &configs), expect);
        // And a second batch through the same pools still matches.
        let more = sample(&space, 16, 43);
        let expect2: Vec<MeasureResult> =
            more.iter().map(|c| serial.measure(&task, &space, c)).collect();
        assert_eq!(exec.measure_batch(&task, &space, &more), expect2);
    }

    #[test]
    fn single_measure_matches_the_serial_path() {
        let (task, space) = setup();
        let serial = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        let exec =
            Executor::new(SimMeasurer::new(GpuDevice::gtx_1080_ti()), ExecutorConfig::default());
        let cfg = &sample(&space, 1, 7)[0];
        assert_eq!(exec.measure(&task, &space, cfg), serial.measure(&task, &space, cfg));
        assert_eq!(exec.repeats(), serial.repeats());
    }

    /// A measurer that blocks until released, for stall/shutdown tests.
    struct GatedMeasurer {
        inner: SimMeasurer,
        gate: Arc<(Mutex<bool>, Condvar)>,
        measured: Arc<AtomicUsize>,
    }

    impl Measurer for GatedMeasurer {
        fn measure(
            &self,
            task: &TuningTask,
            space: &ConfigSpace,
            config: &Config,
        ) -> MeasureResult {
            let (lock, cv) = &*self.gate;
            let mut open = lock_or_recover(lock);
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            self.measured.fetch_add(1, Ordering::SeqCst);
            self.inner.measure(task, space, config)
        }
    }

    type Gate = Arc<(Mutex<bool>, Condvar)>;

    fn gated() -> (GatedMeasurer, Gate, Arc<AtomicUsize>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let measured = Arc::new(AtomicUsize::new(0));
        let m = GatedMeasurer {
            inner: SimMeasurer::new(GpuDevice::gtx_1080_ti()),
            gate: Arc::clone(&gate),
            measured: Arc::clone(&measured),
        };
        (m, gate, measured)
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        *lock_or_recover(&gate.0) = true;
        gate.1.notify_all();
    }

    #[test]
    fn submit_applies_backpressure_when_runners_stall() {
        let (task, space) = setup();
        let (m, gate, _measured) = gated();
        // 2 runners, 1 builder, queue capacity 2: with the runners stalled,
        // at most 2 (runners) + 2 (run q) + 1 (builder) + 2 (build q) = 7
        // jobs can be in flight; a 64-config batch must block mid-submit.
        // (One worker has no queues: it measures on the caller's thread.)
        let exec = Arc::new(Executor::new(
            m,
            ExecutorConfig {
                workers: 2,
                builders: 1,
                devices: 2,
                queue_capacity: 2,
                device_hold: Duration::ZERO,
            },
        ));
        let configs = sample(&space, 64, 9);
        let submitter = {
            let (exec, task, space, configs) =
                (Arc::clone(&exec), task.clone(), space.clone(), configs.clone());
            std::thread::spawn(move || exec.measure_batch(&task, &space, &configs).len())
        };
        // The submit thread must still be blocked (bounded memory, no OOM)
        // well after it would have finished unimpeded.
        std::thread::sleep(Duration::from_millis(100));
        assert!(!submitter.is_finished(), "submit must block while runners stall");
        let pipeline = exec.pipeline.as_ref().expect("two workers run a pipeline");
        assert!(pipeline.build_q.len() <= 2, "build queue stays within its bound");
        open_gate(&gate);
        assert_eq!(submitter.join().unwrap(), 64, "all results arrive after the stall clears");
    }

    #[test]
    fn shutdown_mid_batch_drains_without_losing_results() {
        let (task, space) = setup();
        let (m, gate, measured) = gated();
        let exec = Executor::new(
            m,
            ExecutorConfig {
                workers: 2,
                builders: 2,
                devices: 2,
                queue_capacity: 4,
                device_hold: Duration::ZERO,
            },
        );
        let configs = sample(&space, 8, 10);
        let handle = exec.submit_batch(&task, &space, &configs);
        // Drop the executor while every job is still gated. Drop must not
        // deadlock: it closes the queues, opens nothing early, and joins
        // workers only after they drain the accepted jobs.
        let dropper = std::thread::spawn(move || drop(exec));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!dropper.is_finished(), "drop must wait for in-flight jobs");
        open_gate(&gate);
        dropper.join().unwrap();
        let results = handle.wait();
        assert_eq!(results.len(), 8, "no result may be lost on shutdown");
        assert_eq!(measured.load(Ordering::SeqCst), 8, "every job ran exactly once");
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

    fn recorder() -> ThreadRecorder {
        ThreadRecorder {
            inner: SimMeasurer::new(GpuDevice::gtx_1080_ti()),
            threads: Mutex::default(),
        }
    }

    #[test]
    fn one_worker_measures_on_the_callers_thread() {
        let (task, space) = setup();
        let configs = sample(&space, 16, 13);
        let me = std::thread::current().id();
        let inline = Executor::new(recorder(), ExecutorConfig::for_workers(1));
        let handle = inline.submit_batch(&task, &space, &configs);
        assert_eq!(lock_or_recover(&inline.inner().threads).len(), 16, "complete at submit");
        assert_eq!(handle.wait().len(), 16);
        assert!(lock_or_recover(&inline.inner().threads).iter().all(|&t| t == me));
        assert!(inline.pipeline.is_none(), "one worker spawns no threads");

        let pooled = Executor::new(recorder(), ExecutorConfig::for_workers(2));
        assert_eq!(pooled.measure_batch(&task, &space, &configs).len(), 16);
        assert!(lock_or_recover(&pooled.inner().threads).iter().all(|&t| t != me));
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
