//! Cross-layer determinism: tuning through the parallel [`Executor`] must
//! reproduce the serial measurement path byte-for-byte.
//!
//! This is the contract that makes `tune --workers N` safe to use for
//! paper-figure runs: for a fixed seed, the trial JSONL and the best
//! GFLOPS are identical at every worker count — with and without fault
//! injection.

use active_learning::{tune_task, Method, TuneOptions};
use dnn_graph::models;
use dnn_graph::task::extract_tasks;
use executor::{Executor, ExecutorConfig};
use gpu_sim::{
    FaultConfig, FaultInjectingMeasurer, GpuDevice, RetryPolicy, RobustMeasurer, SimMeasurer,
};
use proptest::prelude::*;

/// One tuning run through the full production measurer stack
/// (`Executor<RobustMeasurer<FaultInjectingMeasurer<SimMeasurer>>>`),
/// returning the trial log as JSONL bytes plus the best GFLOPS.
fn tune_with_workers(workers: usize, seed: u64, fault_rate: f64, method: Method) -> (String, f64) {
    let task = extract_tasks(&models::squeezenet_v1_1(1)).remove(0);
    let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let faulty = FaultInjectingMeasurer::new(sim, FaultConfig { rate: fault_rate, seed: 7 });
    let robust = RobustMeasurer::new(faulty, RetryPolicy::default());
    let exec = Executor::new(robust, ExecutorConfig::for_workers(workers));
    let opts = TuneOptions { n_trial: 48, early_stopping: 48, seed, ..TuneOptions::smoke() };
    let r = tune_task(&task, &exec, method, &opts);
    let jsonl: String = r
        .log
        .records
        .iter()
        .map(|rec| serde_json::to_string(rec).expect("trial record serializes") + "\n")
        .collect();
    (jsonl, r.best_gflops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// For any seed, with faults on or off, worker counts 2 and 8 yield the
    /// trial log of the serial run byte-for-byte.
    #[test]
    fn worker_count_never_changes_the_trial_log(
        seed in 0u64..1_000_000,
        fault_rate in prop_oneof![Just(0.0), Just(0.1)],
    ) {
        let (base_log, base_best) = tune_with_workers(1, seed, fault_rate, Method::Bted);
        prop_assert!(!base_log.is_empty());
        for workers in [2usize, 8] {
            let (log, best) = tune_with_workers(workers, seed, fault_rate, Method::Bted);
            prop_assert_eq!(
                &log, &base_log,
                "trial JSONL diverged at workers={} seed={} fault={}", workers, seed, fault_rate
            );
            prop_assert_eq!(best, base_best);
        }
    }
}

#[test]
fn faulty_bao_run_is_identical_across_worker_counts() {
    // BAO exercises a different proposal path (bootstrap ensemble +
    // neighborhood search); check it survives parallel measurement too,
    // under a 10% fault rate so retries and persistent failures are in play.
    let (base_log, base_best) = tune_with_workers(1, 42, 0.1, Method::BtedBao);
    assert!(!base_log.is_empty());
    for workers in [2usize, 8] {
        let (log, best) = tune_with_workers(workers, 42, 0.1, Method::BtedBao);
        assert_eq!(log, base_log, "workers={workers}");
        assert_eq!(best, base_best);
    }
}

#[test]
fn capture_is_byte_identical_across_worker_counts() {
    // Model-introspection capture must not perturb the measurement loop:
    // with capture ON, trial JSONL at workers {1, 8} stays byte-identical
    // to the capture-OFF serial log, and the captured model records are
    // themselves identical at every worker count.
    use active_learning::{tune_task_with, ModelPredRecord, TuneHooks};

    let run = |workers: usize, capture: bool| -> (String, Vec<ModelPredRecord>) {
        let task = extract_tasks(&models::squeezenet_v1_1(1)).remove(0);
        let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        let exec = Executor::new(sim, ExecutorConfig::for_workers(workers));
        let opts = TuneOptions {
            n_trial: 48,
            early_stopping: 48,
            seed: 11,
            capture_model: Some(capture),
            ..TuneOptions::smoke()
        };
        let mut records = Vec::new();
        let mut sink = |r: &ModelPredRecord| records.push(r.clone());
        let r = tune_task_with(
            &task,
            &exec,
            Method::Bted,
            &opts,
            TuneHooks { on_model: Some(&mut sink), ..TuneHooks::default() },
        );
        let jsonl: String = r
            .log
            .records
            .iter()
            .map(|rec| serde_json::to_string(rec).expect("trial record serializes") + "\n")
            .collect();
        (jsonl, records)
    };

    let (plain_log, plain_records) = run(1, false);
    assert!(plain_records.is_empty(), "capture off must produce no records");
    let (base_log, base_records) = run(1, true);
    assert_eq!(base_log, plain_log, "capture changed the serial trial log");
    assert!(!base_records.is_empty());
    for workers in [2usize, 8] {
        let (log, records) = run(workers, true);
        assert_eq!(log, base_log, "workers={workers}");
        assert_eq!(records, base_records, "workers={workers}");
    }
}

#[test]
fn executor_wrapped_model_tuning_matches_serial() {
    // Task-level parallelism: tune_model_parallel with several tasks in
    // flight must fold to exactly the serial result.
    let g = models::squeezenet_v1_1(1);
    let m = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let opts = TuneOptions { n_trial: 24, early_stopping: 24, ..TuneOptions::smoke() };
    let serial = active_learning::model_tuning::tune_model(&g, &m, Method::Random, &opts, 60);
    let parallel =
        active_learning::model_tuning::tune_model_parallel(&g, &m, Method::Random, &opts, 60, 4);
    assert_eq!(serde_json::to_string(&parallel).unwrap(), serde_json::to_string(&serial).unwrap());
}
