//! Crash-safe resume of the run engine, in process.
//!
//! Each case tunes two tasks through [`Session`] twice: once
//! uninterrupted (the twin), and once with a crash image of the run
//! directory and the tuning database taken mid-run. The crash image is
//! restored over the finished run — an earlier checkpoint, logs cut back
//! to where they stood with the in-flight lines torn mid-line — and the
//! session resumes it. Every trial log and the model-capture file must
//! then be byte-identical to the twin's.
//!
//! The measurer is the production stack with fault injection, so
//! configs get quarantined mid-run and the checkpoint's per-task
//! quarantine restriction is exercised.

use active_learning::{
    Checkpoint, DbPolicy, Method, RunDir, Session, SessionDb, TuneOptions, TuningLog,
    MODEL_QUALITY_FILE,
};
use dnn_graph::models;
use dnn_graph::task::{extract_tasks, TuningTask};
use executor::{Executor, ExecutorConfig};
use gpu_sim::{
    FaultConfig, FaultInjectingMeasurer, GpuDevice, Quarantine, RetryPolicy, RobustMeasurer,
    SimMeasurer,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tuning_db::{LockOptions, TuningDb};

type Stack = Executor<RobustMeasurer<FaultInjectingMeasurer<SimMeasurer>>>;

/// File contents under a directory, keyed by relative path.
type Image = BTreeMap<PathBuf, Vec<u8>>;

fn opts(seed: u64) -> TuneOptions {
    TuneOptions {
        n_trial: 48,
        early_stopping: 48,
        seed,
        capture_model: Some(true),
        ..TuneOptions::smoke()
    }
}

fn tasks() -> Vec<TuningTask> {
    extract_tasks(&models::squeezenet_v1_1(1)).into_iter().take(2).collect()
}

fn stack(workers: usize, quarantine: Option<Quarantine>) -> Stack {
    let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let faulty = FaultInjectingMeasurer::new(sim, FaultConfig { rate: 0.2, seed: 7 });
    let robust = RobustMeasurer::new(faulty, RetryPolicy::default());
    if let Some(q) = quarantine {
        robust.restore_quarantine(q);
    }
    Executor::new(robust, ExecutorConfig::for_workers(workers))
}

/// Every file under `root` except the database's advisory lock, which
/// names a live process.
fn image(root: &Path) -> Image {
    fn walk(root: &Path, dir: &Path, out: &mut Image) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.file_name().is_some_and(|n| n != "lock") {
                // A file renamed away mid-walk is simply not in the image.
                if let Ok(bytes) = std::fs::read(&path) {
                    out.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
                }
            }
        }
    }
    let mut out = Image::new();
    walk(root, root, &mut out);
    out
}

/// Replaces everything under `root` with `image`.
fn restore(root: &Path, image: &Image) {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root.join("logs")).unwrap();
    for (rel, bytes) in image {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
}

/// Counts live trials, and takes the crash image of `run` (and `db`) at
/// the `at`-th one.
struct CrashAt {
    at: usize,
    seen: AtomicUsize,
    run: PathBuf,
    db: Option<PathBuf>,
    image: Mutex<Option<(Image, Option<Image>)>>,
}

impl CrashAt {
    fn new(at: usize, run: &Path, db: Option<PathBuf>) -> CrashAt {
        CrashAt {
            at,
            seen: AtomicUsize::new(0),
            run: run.to_path_buf(),
            db,
            image: Mutex::default(),
        }
    }

    /// Only counts.
    fn never() -> CrashAt {
        CrashAt::new(0, Path::new(""), None)
    }
}

impl CrashAt {
    fn trial(&self) {
        if self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.at {
            let db = self.db.as_deref().map(image);
            *self.image.lock().unwrap() = Some((image(&self.run), db));
        }
    }
}

/// Tunes `tasks()` into `run`, resuming from `resume` when given, and
/// returns the logs plus the measurer's final quarantine.
fn session(
    run: &Path,
    db: Option<&Path>,
    consult: Option<DbPolicy>,
    workers: usize,
    seed: u64,
    resume: Option<Checkpoint>,
    hooks: &CrashAt,
) -> (Vec<TuningLog>, Quarantine) {
    let dir = RunDir::create(run).unwrap();
    let ckpt = resume.clone().unwrap_or_default();
    let m = stack(workers, ckpt.quarantine);
    let store = db.map(|p| Mutex::new(TuningDb::open(p, &LockOptions::default()).unwrap()));
    let quarantine = || m.inner().quarantine_snapshot();
    let logs = Session {
        measurer: &m,
        method: Method::BtedBao,
        opts: opts(seed),
        device: "gtx1080ti",
        dir: Some(&dir),
        resume: resume.is_some(),
        completed: ckpt.completed_tasks,
        task_workers: workers,
        db: store.as_ref().map(|store| SessionDb { store, consult }),
        quarantine: Some(&quarantine),
        tel: &telemetry::Telemetry::disabled(),
        on_trial: &|_, _| hooks.trial(),
        on_abort: &|_, _| Ok(()),
    }
    .run(&tasks())
    .expect("session runs");
    (logs, m.inner().quarantine_snapshot())
}

fn resume_matches_twin(with_db: bool, workers: usize, at: usize) {
    let base = std::env::temp_dir().join(format!(
        "aaltune-session-{}-db{}-w{workers}",
        std::process::id(),
        u8::from(with_db)
    ));
    let _ = std::fs::remove_dir_all(&base);
    let never = CrashAt::never();

    // A cold run with another seed populates the database; the twin and
    // the cut run each start from their own copy of it.
    let (twin_db, cut_db) = (base.join("twin-db"), base.join("cut-db"));
    if with_db {
        session(&base.join("seed-run"), Some(&base.join("db")), None, 1, 11, None, &never);
        for copy in [&twin_db, &cut_db] {
            restore(copy, &image(&base.join("db")));
        }
    }
    let db_of = |p: &Path| with_db.then(|| p.to_path_buf());
    let consult = with_db.then_some(DbPolicy::Warm);

    let twin = base.join("twin");
    let (twin_logs, twin_quarantine) =
        session(&twin, db_of(&twin_db).as_deref(), consult, workers, 5, None, &never);
    assert!(!twin_quarantine.is_empty(), "fault injection must quarantine configs");
    // The run returns only after its last checkpoint is on disk.
    let done = RunDir::create(&twin).unwrap().read_checkpoint().unwrap().expect("checkpoint");
    assert_eq!(done.completed_tasks.len(), tasks().len());
    assert!(done.in_flight.is_none(), "the last checkpoint is a completion");

    let cut = base.join("cut");
    let crash = CrashAt::new(at, &cut, db_of(&cut_db));
    let (cut_logs, _) = session(&cut, db_of(&cut_db).as_deref(), consult, workers, 5, None, &crash);
    assert_eq!(cut_logs, twin_logs, "the cut run is itself a twin before the crash");
    let (run_image, db_image) = crash.image.into_inner().unwrap().expect("crash image taken");

    // Restore the crash image, tearing each unfinished log mid-line, and
    // count the trials that survive in it (complete lines after the
    // header).
    let finished = image(&cut);
    let (mut torn, mut durable) = (0, 0);
    let mut crashed = run_image;
    for (rel, bytes) in &mut crashed {
        let Some(full) = finished.get(rel).filter(|_| rel.starts_with("logs")) else { continue };
        if bytes.len() < full.len() {
            let next_line = full[bytes.len()..].iter().position(|&b| b == b'\n').unwrap();
            bytes.extend_from_slice(&full[bytes.len()..bytes.len() + next_line / 2 + 1]);
            torn += 1;
        }
        durable += bytes.iter().filter(|&&b| b == b'\n').count().saturating_sub(1);
    }
    assert!(torn > 0, "the crash must land mid-task");
    restore(&cut, &crashed);
    if let Some(db) = &db_image {
        restore(&cut_db, db);
    }

    let ckpt = RunDir::create(&cut).unwrap().read_checkpoint().unwrap().expect("checkpoint");
    assert!(ckpt.in_flight.is_some(), "the restored checkpoint is mid-task");
    let resumed_hooks = CrashAt::never();
    let (resumed, _) =
        session(&cut, db_of(&cut_db).as_deref(), consult, workers, 5, Some(ckpt), &resumed_hooks);
    assert_eq!(resumed, twin_logs);
    // Resume continues where the logs end: only the lost trials are
    // measured again.
    let total: usize = twin_logs.iter().map(|log| log.records.len()).sum();
    assert_eq!(resumed_hooks.seen.into_inner(), total - durable, "live trials after resume");

    let (twin_files, cut_files) = (image(&twin), image(&cut));
    for rel in twin_files.keys().filter(|p| p.starts_with("logs")) {
        assert!(twin_files[rel] == cut_files[rel], "{} differs after resume", rel.display());
    }
    let capture = PathBuf::from(MODEL_QUALITY_FILE);
    assert!(twin_files[&capture] == cut_files[&capture], "model capture differs after resume");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn resume_is_byte_identical_without_db_one_task_in_flight() {
    resume_matches_twin(false, 1, 60);
}

#[test]
fn resume_is_byte_identical_without_db_two_tasks_in_flight() {
    resume_matches_twin(false, 2, 45);
}

#[test]
fn resume_is_byte_identical_with_warm_db_one_task_in_flight() {
    resume_matches_twin(true, 1, 60);
}

#[test]
fn resume_is_byte_identical_with_warm_db_two_tasks_in_flight() {
    resume_matches_twin(true, 2, 45);
}
