//! Persistence and reuse: tuning logs on disk, warm starts transferred
//! through the tuning database.

use aaltune::active_learning::records::TuningLog;
use aaltune::active_learning::{tune_task, Method, Session, SessionDb, TuneOptions};
use aaltune::dnn_graph::{models, task::extract_tasks};
use aaltune::gpu_sim::{GpuDevice, SimMeasurer};
use aaltune::schedule::template::space_for_task;
use std::io::BufReader;
use std::sync::Mutex;
use telemetry::Telemetry;
use tuning_db::{LockOptions, TaskSpec, TuningDb};

/// Device name that keys the database records.
const DEVICE: &str = "gtx1080ti";

#[test]
fn tuning_log_survives_a_disk_round_trip() {
    let task = extract_tasks(&models::mobilenet_v1(1)).remove(4);
    let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let opts = TuneOptions { seed: 17, ..TuneOptions::smoke() };
    let r = tune_task(&task, &measurer, Method::Bted, &opts);

    let dir = std::env::temp_dir().join("aaltune-it-records");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("log.jsonl");
    let file = std::fs::File::create(&path).unwrap();
    r.log.write_jsonl(file).unwrap();

    let back = TuningLog::read_jsonl(BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
    assert_eq!(back, r.log);
    assert_eq!(back.best_gflops(), r.best_gflops);
}

#[test]
fn warm_start_from_a_real_log_lands_in_the_new_space() {
    let tasks = extract_tasks(&models::vgg16(1));
    let prior_task = &tasks[7];
    let new_task = &tasks[8];
    let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let opts = TuneOptions { seed: 23, ..TuneOptions::smoke() };

    // Tune the prior task into a fresh database, as `tune --db` does.
    let root = std::env::temp_dir().join(format!("aaltune-it-transfer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Mutex::new(TuningDb::open(&root, &LockOptions::default()).unwrap());
    let logs = Session {
        measurer: &measurer,
        method: Method::AutoTvm,
        opts,
        device: DEVICE,
        dir: None,
        resume: false,
        completed: Vec::new(),
        task_workers: 1,
        db: Some(SessionDb { store: &store, consult: None }),
        tel: &Telemetry::disabled(),
        on_trial: &|_, _| {},
        on_abort: &|_, _| Ok(()),
    }
    .run(std::slice::from_ref(prior_task))
    .unwrap();
    let prior_log = &logs[0];
    assert!(prior_log.records.iter().any(|r| r.gflops <= 0.0), "the prior run must hold failures");

    let store = store.into_inner().unwrap();
    let new_space = space_for_task(new_task);
    let spec = TaskSpec::of(new_task, &new_space, DEVICE);
    let nearest = store.nearest(&spec, &TaskSpec::features(new_task), 1);
    assert_eq!(nearest.len(), 1, "a same-family task is a transfer candidate");
    let prior = &nearest[0];
    // The record keeps successful trials only, best first.
    assert_eq!(prior.best_gflops, prior_log.best_gflops());
    assert!(prior.top_k.iter().all(|c| c.gflops > 0.0), "failed trials are never stored");
    assert!(prior.top_k.windows(2).all(|w| w[0].gflops >= w[1].gflops));

    let warm = prior.configs_for(&new_space, 16);
    assert!(!warm.is_empty(), "same-family tasks must transfer");
    for cfg in &warm {
        // Every transferred config decodes consistently in the new space.
        let decoded = new_space.config(cfg.index).unwrap();
        assert_eq!(decoded.choices, cfg.choices);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn logs_from_different_methods_are_distinguishable() {
    let task = extract_tasks(&models::alexnet(1)).remove(1);
    let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let opts = TuneOptions { seed: 29, ..TuneOptions::smoke() };
    let a = tune_task(&task, &measurer, Method::AutoTvm, &opts);
    let b = tune_task(&task, &measurer, Method::BtedBao, &opts);
    assert_eq!(a.log.method, "autotvm");
    assert_eq!(b.log.method, "bted+bao");
    assert_eq!(a.log.task_name, b.log.task_name);
}
