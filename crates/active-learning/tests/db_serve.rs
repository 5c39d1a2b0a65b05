//! The `serve` database policy when the cached best fails its one
//! verifying measurement: the task is retuned cold.
//!
//! A database filled by a fault-free run is served under injected faults,
//! through a measurer on which the cached best crashes persistently. The
//! retuned log must equal the log of a cold run on the same stack: the
//! retune does not start by measuring the failed config again, and it
//! measures it only where its own proposals reach it, as a cold run
//! does (AutoTVM's does here, sharing the filling run's initial set).

use active_learning::{DbPolicy, Method, Session, SessionDb, TuneOptions, TuningLog};
use dnn_graph::models;
use dnn_graph::task::{extract_tasks, TuningTask};
use gpu_sim::{
    FaultConfig, FaultInjectingMeasurer, GpuDevice, MeasureError, MeasureErrorKind, MeasureResult,
    Measurer, RetryPolicy, RobustMeasurer, SimMeasurer,
};
use schedule::{Config, ConfigSpace};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tuning_db::{LockOptions, TuningDb};

/// Crashes on one configuration, counting the attempts that reach it;
/// measures every other one with `inner`.
struct CrashOn<M> {
    inner: M,
    index: u64,
    hits: AtomicUsize,
}

impl<M: Measurer> Measurer for CrashOn<M> {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        if config.index == self.index {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return MeasureResult::failed(MeasureError::new(
                MeasureErrorKind::LaunchCrash,
                "the cached best no longer launches",
            ));
        }
        self.inner.measure(task, space, config)
    }
}

/// The production stack under 20% injected faults, crashing on `index`.
fn crashing(index: u64) -> RobustMeasurer<CrashOn<FaultInjectingMeasurer<SimMeasurer>>> {
    let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let faulty = FaultInjectingMeasurer::new(sim, FaultConfig { rate: 0.2, seed: 7 });
    let crash = CrashOn { inner: faulty, index, hits: AtomicUsize::new(0) };
    RobustMeasurer::new(crash, RetryPolicy::default())
}

fn task() -> TuningTask {
    extract_tasks(&models::squeezenet_v1_1(1)).swap_remove(0)
}

/// Tunes `task()` in memory with `method`, attached to `db` under
/// `consult` when there is one.
fn run<M: Measurer + Sync>(
    m: &M,
    method: Method,
    db: Option<&Mutex<TuningDb>>,
    consult: Option<DbPolicy>,
) -> TuningLog {
    let opts = TuneOptions { n_trial: 48, early_stopping: 48, seed: 0, ..TuneOptions::smoke() };
    Session {
        measurer: m,
        method,
        opts,
        device: "gtx1080ti",
        dir: None,
        resume: false,
        completed: Vec::new(),
        task_workers: 1,
        db: db.map(|store| SessionDb { store, consult }),
        tel: &telemetry::Telemetry::disabled(),
        on_trial: &|_, _| {},
        on_abort: &|_, _| Ok(()),
    }
    .run(&[task()])
    .expect("session runs")
    .swap_remove(0)
}

/// The config the database serves for `log`'s task: its best, lowest
/// index first among ties.
fn cached_best(log: &TuningLog) -> u64 {
    let best = log
        .records
        .iter()
        .filter(|r| r.gflops > 0.0)
        .min_by(|a, b| b.gflops.total_cmp(&a.gflops).then(a.config_index.cmp(&b.config_index)))
        .expect("the fault-free run measured a valid config");
    best.config_index
}

fn failed_verification_retunes_cold(method: Method, root: &Path) {
    let store =
        Mutex::new(TuningDb::open(&root.join(method.label()), &LockOptions::default()).unwrap());
    let fill = run(&SimMeasurer::new(GpuDevice::gtx_1080_ti()), method, Some(&store), None);
    let index = cached_best(&fill);

    let served = crashing(index);
    let log = run(&served, method, Some(&store), Some(DbPolicy::Serve));
    let cold = crashing(index);
    let cold_log = run(&cold, method, None, None);

    assert!(log.records.len() > 1, "{method}: a failed verification must retune");
    assert_eq!(log, cold_log, "{method}: the retune is a cold run");
    assert_eq!(
        served.inner().hits.load(Ordering::SeqCst),
        cold.inner().hits.load(Ordering::SeqCst) + 1,
        "{method}: only the verification adds an attempt on the cached best"
    );
    let mut seen = HashSet::new();
    assert!(log.records.iter().all(|r| seen.insert(r.config_index)), "{method}: a config repeats");
}

#[test]
fn a_cached_best_that_fails_verification_is_retuned_cold() {
    let root = std::env::temp_dir().join(format!("aal-db-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for method in [Method::Random, Method::AutoTvm, Method::Bted, Method::BtedBao] {
        failed_verification_retunes_cold(method, &root);
    }
    let _ = std::fs::remove_dir_all(&root);
}
