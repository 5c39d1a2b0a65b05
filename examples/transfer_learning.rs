//! Transfer learning across similar tasks ([17] in the paper): seed a new
//! task's initial set with the best configurations of an already-tuned
//! task of the same template family, then compare cold vs warm tuning.
//!
//! The prior task is tuned into a tuning database, as `aaltune tune --db`
//! does; the new task takes its nearest database record and maps the
//! stored knob choices into its own space.
//!
//! ```text
//! cargo run --release --example transfer_learning
//! ```

use aaltune::active_learning::{
    tune_task, tune_task_with, Method, Session, SessionDb, TuneHooks, TuneOptions,
};
use aaltune::dnn_graph::{models, task::extract_tasks};
use aaltune::gpu_sim::{GpuDevice, SimMeasurer};
use aaltune::schedule::template::space_for_task;
use std::sync::Mutex;
use telemetry::Telemetry;
use tuning_db::{LockOptions, TaskSpec, TuningDb};

fn main() -> Result<(), String> {
    let tasks = extract_tasks(&models::vgg16(1));
    // Two 3x3 conv workloads with 512 channels at different resolutions —
    // similar enough for configurations to transfer.
    let prior_task = &tasks[7]; // 512 -> 512 @ 28x28
    let new_task = &tasks[8]; // 512 -> 512 @ 14x14
    let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let opts = TuneOptions { n_trial: 256, early_stopping: 256, seed: 5, ..TuneOptions::default() };
    let device = "gtx1080ti";

    let root = std::env::temp_dir().join(format!("aaltune-transfer-{}", std::process::id()));
    let store = TuningDb::open(&root, &LockOptions::default()).map_err(|e| e.to_string())?;
    let store = Mutex::new(store);
    println!("prior task: {prior_task}");
    let prior = Session {
        measurer: &measurer,
        method: Method::AutoTvm,
        opts,
        device,
        dir: None,
        resume: false,
        completed: Vec::new(),
        task_workers: 1,
        db: Some(SessionDb { store: &store, consult: None }),
        tel: &Telemetry::disabled(),
        on_trial: &|_, _| {},
        on_abort: &|_, _| Ok(()),
    }
    .run(std::slice::from_ref(prior_task))?;
    println!(
        "  tuned to {:.1} GFLOPS in {} measurements",
        prior[0].best_gflops(),
        prior[0].num_measured()
    );

    println!("new task:   {new_task}");
    let cold = tune_task(new_task, &measurer, Method::AutoTvm, &opts);

    // Warm start: the nearest stored task's top configurations, mapped
    // into the new task's space, go first in its initial set.
    let new_space = space_for_task(new_task);
    let spec = TaskSpec::of(new_task, &new_space, device);
    let store = store.into_inner().map_err(|e| e.to_string())?;
    let warm: Vec<_> = store
        .nearest(&spec, &TaskSpec::features(new_task), 1)
        .iter()
        .flat_map(|rec| rec.configs_for(&new_space, 32))
        .collect();
    println!("  transferred {} warm-start configurations", warm.len());
    let warm_run = tune_task_with(
        new_task,
        &measurer,
        Method::AutoTvm,
        &opts,
        TuneHooks { warm_start: Some(&warm), ..TuneHooks::default() },
    );

    println!("  cold: {:7.1} GFLOPS in {} measurements", cold.best_gflops, cold.num_measured);
    println!(
        "  warm: {:7.1} GFLOPS in {} measurements",
        warm_run.best_gflops, warm_run.num_measured
    );
    drop(store);
    std::fs::remove_dir_all(&root).map_err(|e| e.to_string())
}
