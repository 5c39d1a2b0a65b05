//! Crash-safe resume of the run engine, in process.
//!
//! Each case tunes two tasks through [`Session`] twice: once
//! uninterrupted (the twin), and once with a crash image of the run
//! directory and the tuning database taken mid-run. The crash image is
//! restored over the finished run — a shorter progress journal, logs cut
//! back to where they stood with the in-flight lines torn mid-line — and
//! the session resumes it. Every trial log and the model-capture file
//! must then be byte-identical to the twin's.
//!
//! The measurer is the production stack with fault injection, so
//! configs get quarantined mid-run. The quarantine stays in memory: after
//! every live trial the journal on disk is checked to hold only
//! `Complete` lines, each once.
//!
//! More crash images are resumed: one after a power loss in which the
//! journal outlived the unsynced log tail and holds a `Quarantine` line
//! for a config the log lost, one between a task's capture part and its
//! `Complete` line, one between the last task's capture part and the
//! final capture file, and two in the formats of older binaries: a
//! journal with complete and torn `Quarantine` lines, and a
//! `checkpoint.json` holding every task's quarantine set beside a
//! capture that is one file rewritten per task.

use active_learning::{
    read_capture, read_model_quality, write_model_quality, Checkpoint, DbPolicy, Method,
    ModelPredRecord, ProgressEntry, RunDir, Session, SessionDb, TuneOptions, TuningLog,
    CHECKPOINT_SCHEMA_VERSION, MODEL_QUALITY_FILE, MODEL_QUALITY_PARTS_DIR,
};
use dnn_graph::models;
use dnn_graph::task::{extract_tasks, TuningTask};
use executor::{Executor, ExecutorConfig};
use gpu_sim::{
    FaultConfig, FaultInjectingMeasurer, GpuDevice, Quarantine, RetryPolicy, RobustMeasurer,
    SimMeasurer,
};
use std::collections::{BTreeMap, BTreeSet};
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

fn stack(workers: usize) -> Stack {
    let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let faulty = FaultInjectingMeasurer::new(sim, FaultConfig { rate: 0.2, seed: 7 });
    let robust = RobustMeasurer::new(faulty, RetryPolicy::default());
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

/// Where a crash image is taken, relative to the lines a run appends.
#[derive(Clone, Copy, PartialEq)]
enum Kill {
    /// Right after the `at`-th live trial.
    AfterTrial,
    /// Right after the `at`-th live trial, by a power loss that kept a
    /// journal line written after the log's unsynced tail: a
    /// `Quarantine` line (as an earlier binary wrote them) for a config
    /// the twin quarantined later in an in-flight task.
    JournalOutlivesLog,
    /// Between the first task's capture part and its `Complete` line
    /// (one task at a time).
    BeforeCompleteLine,
}

/// Counts live trials, and takes the crash image of `run` (and `db`)
/// where `kill` says.
struct CrashAt {
    at: usize,
    kill: Kill,
    seen: AtomicUsize,
    run: PathBuf,
    db: Option<PathBuf>,
    image: Mutex<Option<(Image, Option<Image>)>>,
}

impl CrashAt {
    fn new(at: usize, kill: Kill, run: &Path, db: Option<PathBuf>) -> CrashAt {
        CrashAt {
            at,
            kill,
            seen: AtomicUsize::new(0),
            run: run.to_path_buf(),
            db,
            image: Mutex::default(),
        }
    }

    /// Only counts.
    fn never() -> CrashAt {
        CrashAt::new(0, Kill::AfterTrial, Path::new(""), None)
    }

    /// A live trial was appended; `journal` is the progress journal on
    /// disk.
    fn trial(&self, journal: &[ProgressEntry]) {
        let n = self.seen.fetch_add(1, Ordering::SeqCst) + 1;
        let due = match self.kill {
            Kill::AfterTrial | Kill::JournalOutlivesLog => n == self.at,
            Kill::BeforeCompleteLine => {
                journal.iter().any(|e| matches!(e, ProgressEntry::Complete(_)))
            }
        };
        let mut image_slot = self.image.lock().unwrap();
        if due && image_slot.is_none() {
            let db = self.db.as_deref().map(image);
            *image_slot = Some((image(&self.run), db));
        }
    }
}

/// Reads the progress journal on disk and asserts what it promises: it
/// holds only `Complete` lines, each once. The first `inherited` lines
/// are an older binary's, which may also hold `Quarantine` lines.
fn check_journal(dir: &RunDir, inherited: usize) -> Vec<ProgressEntry> {
    let Some(entries) = dir.read_progress().unwrap() else { return Vec::new() };
    let mut completed = BTreeSet::new();
    for (i, entry) in entries.iter().enumerate() {
        match entry {
            ProgressEntry::Complete(task) => {
                assert!(completed.insert(task), "{task} is journaled complete twice");
            }
            ProgressEntry::Quarantine(..) => {
                assert!(
                    i < inherited,
                    "the journal gained a line other than `Complete`: {entry:?}"
                );
            }
        }
    }
    entries
}

/// What a session run returns: its logs and the measurer's final
/// quarantine.
type Outcome = (Vec<TuningLog>, Quarantine);

/// Tunes `tasks()` into `run`, resuming from its progress journal when
/// `resume`. After every live trial, the journal on disk is checked.
fn session(
    run: &Path,
    db: Option<&Path>,
    consult: Option<DbPolicy>,
    workers: usize,
    seed: u64,
    resume: bool,
    hooks: &CrashAt,
) -> Outcome {
    let dir = RunDir::create(run).unwrap();
    let completed = if resume {
        dir.recover_progress().unwrap().expect("progress journal")
    } else {
        Vec::new()
    };
    let inherited = if resume { dir.read_progress().unwrap().map_or(0, |e| e.len()) } else { 0 };
    let m = stack(workers);
    let store = db.map(|p| Mutex::new(TuningDb::open(p, &LockOptions::default()).unwrap()));
    let logs = Session {
        measurer: &m,
        method: Method::BtedBao,
        opts: opts(seed),
        device: "gtx1080ti",
        dir: Some(&dir),
        resume,
        completed,
        task_workers: workers,
        db: store.as_ref().map(|store| SessionDb { store, consult }),
        tel: &telemetry::Telemetry::disabled(),
        on_trial: &|_, _| hooks.trial(&check_journal(&dir, inherited)),
        on_abort: &|_, _| Ok(()),
    }
    .run(&tasks())
    .expect("session runs");
    check_journal(&dir, inherited);
    (logs, m.inner().quarantine_snapshot())
}

/// The capture records of each of `tasks()` that has a part in `dir`,
/// in task order.
fn parts_in_task_order(dir: &RunDir) -> Vec<ModelPredRecord> {
    let mut out = Vec::new();
    for task in tasks() {
        let Ok(body) = std::fs::read_to_string(dir.model_quality_part_path(&task.name)) else {
            continue;
        };
        out.extend(body.lines().map(|l| serde_json::from_str::<ModelPredRecord>(l).unwrap()));
    }
    out
}

/// How the crash image is laid out before the resume.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    /// As this binary leaves it.
    Current,
    /// As the binary before this one left it: the journal also holds a
    /// `Quarantine` line for each logged trial of a quarantined config,
    /// and ends in a torn one.
    QuarantineLines,
    /// As an older binary left it: `checkpoint.json` and no journal;
    /// the checkpoint holds every task's quarantine set, and the capture
    /// is one file holding the completed tasks, with no parts.
    Checkpoint,
}

/// The twin's quarantined configs that the logs of the crash image in
/// `dir` hold, as `Quarantine` lines in log order, and the first one
/// those logs lost: a config the resume measures again.
fn quarantine_lines(
    dir: &RunDir,
    twin_logs: &[TuningLog],
    twin_quarantine: &Quarantine,
) -> (Vec<ProgressEntry>, Option<ProgressEntry>) {
    let (mut logged, mut lost) = (Vec::new(), None);
    for twin_log in twin_logs {
        let task = &twin_log.task_name;
        let kept = std::fs::read(dir.log_path(task))
            .map_or(0, |b| TuningLog::recover_jsonl(&b).unwrap().log.records.len());
        for (i, rec) in twin_log.records.iter().enumerate() {
            if twin_quarantine.contains(task, rec.config_index) {
                let line = ProgressEntry::Quarantine(task.clone(), rec.config_index);
                if i < kept {
                    logged.push(line);
                } else {
                    lost.get_or_insert(line);
                }
            }
        }
    }
    (logged, lost)
}

fn resume_matches_twin(with_db: bool, workers: usize, at: usize, kill: Kill, format: Format) {
    let base = std::env::temp_dir().join(format!(
        "aaltune-session-{}-db{}-w{workers}-{}-{}",
        std::process::id(),
        u8::from(with_db),
        kill as u8,
        format as u8
    ));
    let _ = std::fs::remove_dir_all(&base);
    let never = CrashAt::never();

    // A cold run with another seed populates the database; the twin and
    // the cut run each start from their own copy of it.
    let (twin_db, cut_db) = (base.join("twin-db"), base.join("cut-db"));
    if with_db {
        session(&base.join("seed-run"), Some(&base.join("db")), None, 1, 11, false, &never);
        for copy in [&twin_db, &cut_db] {
            restore(copy, &image(&base.join("db")));
        }
    }
    let db_of = |p: &Path| with_db.then(|| p.to_path_buf());
    let consult = with_db.then_some(DbPolicy::Warm);

    let twin = base.join("twin");
    let (twin_logs, twin_quarantine) =
        session(&twin, db_of(&twin_db).as_deref(), consult, workers, 5, false, &never);
    assert!(!twin_quarantine.is_empty(), "fault injection must quarantine configs");
    assert!(!twin.join(MODEL_QUALITY_PARTS_DIR).exists(), "the run's end removes the parts");
    let twin_dir = RunDir::create(&twin).unwrap();
    let done = twin_dir.read_progress().unwrap().expect("progress journal");
    assert_eq!(done.len(), tasks().len(), "one Complete line per task, and nothing else");
    assert!(!twin_dir.checkpoint_path().exists(), "no checkpoint is written");

    let cut = base.join("cut");
    let crash = CrashAt::new(at, kill, &cut, db_of(&cut_db));
    let (cut_logs, _) =
        session(&cut, db_of(&cut_db).as_deref(), consult, workers, 5, false, &crash);
    assert_eq!(cut_logs, twin_logs, "the cut run is itself a twin before the crash");
    let (run_image, db_image) = crash.image.into_inner().unwrap().expect("crash image taken");

    // Restore the crash image, tearing each unfinished log mid-line, and
    // count the trials that survive in it (complete lines after the
    // header).
    let finished = image(&cut);
    let mut crashed = run_image;
    if kill == Kill::BeforeCompleteLine {
        // The journal ends before the first `Complete` line, and the
        // second task has not started.
        let journal = crashed.get_mut(&PathBuf::from("progress.jsonl"));
        journal.expect("journal in the crash image").clear();
        let first = RunDir::create(&cut).unwrap().log_path(&tasks()[0].name);
        let first = first.strip_prefix(&cut).unwrap().to_path_buf();
        crashed.retain(|rel, _| !rel.starts_with("logs") || *rel == first);
        assert!(crashed.contains_key(
            &PathBuf::from(MODEL_QUALITY_PARTS_DIR).join(first.file_name().unwrap())
        ));
    }
    let (mut torn, mut durable) = (0, 0);
    for (rel, bytes) in &mut crashed {
        let Some(full) = finished.get(rel).filter(|_| rel.starts_with("logs")) else { continue };
        if bytes.len() < full.len() {
            let next_line = full[bytes.len()..].iter().position(|&b| b == b'\n').unwrap();
            bytes.extend_from_slice(&full[bytes.len()..bytes.len() + next_line / 2 + 1]);
            torn += 1;
        }
        durable += bytes.iter().filter(|&&b| b == b'\n').count().saturating_sub(1);
    }
    assert!(torn > 0 || kill == Kill::BeforeCompleteLine, "the crash must land mid-task");
    restore(&cut, &crashed);
    if let Some(db) = &db_image {
        restore(&cut_db, db);
    }

    let cut_dir = RunDir::create(&cut).unwrap();
    let completed = cut_dir.recover_progress().unwrap().expect("progress journal");
    assert!(completed.len() < tasks().len(), "the crash image is mid-run");
    let (logged, lost) = quarantine_lines(&cut_dir, &twin_logs, &twin_quarantine);
    let line = |entry: &ProgressEntry| serde_json::to_string(entry).unwrap() + "\n";
    let lost = || line(lost.as_ref().expect("the twin quarantined a config the image lost"));
    let journal = std::fs::read_to_string(cut_dir.progress_path()).unwrap();
    if kill == Kill::JournalOutlivesLog {
        // The unsynced journal line reached the disk; the unsynced log
        // line of its trial did not.
        std::fs::write(cut_dir.progress_path(), journal.clone() + &lost()).unwrap();
    }
    match format {
        Format::Current => {}
        Format::QuarantineLines => {
            let torn = lost();
            let lines: String = logged.iter().map(line).collect();
            let body = lines + &journal + &torn[..torn.len() / 2];
            std::fs::write(cut_dir.progress_path(), body).unwrap();
        }
        Format::Checkpoint => {
            // Turn the journal into a checkpoint holding the quarantine
            // of every logged trial, and fold the parts into one capture
            // file.
            let mut q = Quarantine::new();
            for entry in &logged {
                if let ProgressEntry::Quarantine(task, i) = entry {
                    q.insert(task, *i);
                }
            }
            cut_dir
                .write_checkpoint(&Checkpoint {
                    schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
                    completed_tasks: completed.clone(),
                    quarantine: Some(q),
                    ..Checkpoint::default()
                })
                .unwrap();
            std::fs::remove_file(cut_dir.progress_path()).unwrap();
            write_model_quality(&cut_dir.model_quality_path(), &parts_in_task_order(&cut_dir))
                .unwrap();
            std::fs::remove_dir_all(cut_dir.model_quality_parts_dir()).unwrap();
        }
    }
    assert_eq!(cut_dir.recover_progress().unwrap(), Some(completed), "the same tasks read back");
    assert!(!cut_dir.checkpoint_path().exists(), "a checkpoint is migrated once");
    let resumed_hooks = CrashAt::never();
    let (resumed, _) =
        session(&cut, db_of(&cut_db).as_deref(), consult, workers, 5, true, &resumed_hooks);
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
    resume_matches_twin(false, 1, 60, Kill::AfterTrial, Format::Current);
}

#[test]
fn resume_is_byte_identical_without_db_two_tasks_in_flight() {
    resume_matches_twin(false, 2, 45, Kill::AfterTrial, Format::Current);
}

#[test]
fn resume_is_byte_identical_with_warm_db_one_task_in_flight() {
    resume_matches_twin(true, 1, 60, Kill::AfterTrial, Format::Current);
}

#[test]
fn resume_is_byte_identical_with_warm_db_two_tasks_in_flight() {
    resume_matches_twin(true, 2, 45, Kill::AfterTrial, Format::Current);
}

/// A power loss keeps what the disk happened to write: here a journal
/// line naming a quarantined config whose trial line was lost. The
/// resume must measure that config again, as the twin did.
#[test]
fn resume_after_a_power_loss_that_kept_a_quarantine_line_is_byte_identical() {
    resume_matches_twin(false, 1, 30, Kill::JournalOutlivesLog, Format::Current);
}

#[test]
fn resume_of_an_older_binarys_crash_image_is_byte_identical() {
    resume_matches_twin(false, 1, 60, Kill::AfterTrial, Format::Checkpoint);
}

#[test]
fn resume_after_a_torn_quarantine_line_is_byte_identical() {
    resume_matches_twin(false, 1, 10, Kill::AfterTrial, Format::QuarantineLines);
}

#[test]
fn resume_between_a_capture_part_and_its_complete_line_is_byte_identical() {
    resume_matches_twin(false, 1, 0, Kill::BeforeCompleteLine, Format::Current);
}

/// A kill after every task's part is durable but before the final
/// capture file is written: the run is explainable from the parts, and
/// its resume writes the twin's capture bytes.
#[test]
fn resume_between_the_last_part_and_the_capture_file_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("aaltune-session-{}-parts", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let never = CrashAt::never();
    let twin = base.join("twin");
    let (twin_logs, _) = session(&twin, None, None, 1, 5, false, &never);
    let twin_files = image(&twin);
    let capture = PathBuf::from(MODEL_QUALITY_FILE);
    let twin_records = read_model_quality(&twin.join(MODEL_QUALITY_FILE)).unwrap();

    // Split the capture into one part per task, as the run wrote them.
    let cut = base.join("cut");
    let mut crashed = twin_files.clone();
    crashed.remove(&capture);
    restore(&cut, &crashed);
    let cut_dir = RunDir::create(&cut).unwrap();
    std::fs::create_dir_all(cut_dir.model_quality_parts_dir()).unwrap();
    for task in tasks() {
        let lines: String = twin_records
            .iter()
            .filter(|r| r.task == task.name)
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        assert!(!lines.is_empty(), "every task captured records");
        std::fs::write(cut_dir.model_quality_part_path(&task.name), lines).unwrap();
    }
    assert_eq!(read_capture(&cut_dir).unwrap(), Some(twin_records), "parts read as the file");

    let completed = cut_dir.recover_progress().unwrap().expect("progress journal");
    assert_eq!(completed.len(), tasks().len());
    let (resumed, _) = session(&cut, None, None, 1, 5, true, &never);
    assert_eq!(resumed, twin_logs);
    let cut_files = image(&cut);
    assert!(twin_files[&capture] == cut_files[&capture], "model capture differs after resume");
    assert!(!cut.join(MODEL_QUALITY_PARTS_DIR).exists(), "the resume removes the parts");
    let _ = std::fs::remove_dir_all(&base);
}
