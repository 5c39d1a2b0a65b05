//! A served job is a `tune --out` run.
//!
//! `aaltune tune --out` and `aaltune serve` assemble a run the same way:
//! [`Run::fresh`] for the spec, [`Run::measurer`] for the measurement
//! stack, and a [`Session`] into the run directory. The first test
//! submits one spec to a server and runs it as `tune --out` does without
//! flags; the trial logs and the model capture must be the same bytes.
//! The second resumes a job that an older server started with other
//! options: the job must continue under the options its manifest
//! recorded, not under the ones its spec would get today.

use aaltune::active_learning::{Run, RunDir, Session, TuneOptions};
use aaltune::executor::{Executor, ExecutorConfig};
use serde_json::Value;
use serve::{client, JobSpec, JournalLine, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aaltune-served-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(root: &Path) -> ServeConfig {
    ServeConfig {
        root: root.to_path_buf(),
        http_workers: 2,
        job_workers: 1,
        devices: 2,
        quiet: true,
        snapshot_interval: Duration::from_millis(200),
        ..ServeConfig::default()
    }
}

fn spec(method: &str, n_trial: u64, seed: u64) -> Value {
    serde_json::from_str(&format!(
        r#"{{"tenant": "alpha", "model": "squeezenet", "task": 0, "method": "{method}",
            "n_trial": {n_trial}, "seed": {seed}}}"#
    ))
    .unwrap()
}

/// Waits for job `id` to finish and returns its result.
fn wait_done(addr: &str, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (_, status) = client::request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        match status["state"].as_str() {
            Some("done") => break,
            Some("failed") => panic!("job {id} failed: {status}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "timeout waiting for {id}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (code, result) = client::request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
    assert_eq!(code, 200, "{result}");
    result
}

/// Runs `run` into `dir` the way `aaltune tune --out` does at
/// `--workers 1`.
fn tune_out(run: &Run, dir: &RunDir) {
    dir.write_manifest(&run.manifest).unwrap();
    let measurer = Executor::new(run.measurer().unwrap(), ExecutorConfig::for_workers(1));
    Session {
        measurer: &measurer,
        method: run.method,
        opts: run.manifest.options,
        device: run.device(),
        dir: Some(dir),
        resume: false,
        completed: Vec::new(),
        task_workers: 1,
        db: None,
        tel: &telemetry::Telemetry::disabled(),
        on_trial: &|_, _| {},
        on_abort: &|_, _| Ok(()),
    }
    .run(&run.tasks)
    .unwrap();
}

/// The bytes of the one task log in `dir`.
fn task_log(dir: &Path) -> (std::ffi::OsString, Vec<u8>) {
    let mut logs: Vec<_> =
        std::fs::read_dir(dir.join("logs")).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(logs.len(), 1, "{logs:?}");
    let path = logs.remove(0);
    (path.file_name().unwrap().to_owned(), std::fs::read(&path).unwrap())
}

#[test]
fn a_served_job_writes_the_logs_and_capture_of_tune_out() {
    let root = temp_dir("same");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr().to_string();
    for method in ["bted+bao", "autotvm", "random"] {
        let (code, resp) =
            client::request(&addr, "POST", "/jobs", Some(&spec(method, 128, 3))).unwrap();
        assert_eq!(code, 202, "{resp}");
        let id = resp["id"].as_str().unwrap().to_string();
        let result = wait_done(&addr, &id);

        let run = Run::fresh("squeezenet", method, Some(0), 128, 3).unwrap();
        let cli = RunDir::create(root.join(format!("tune-{method}"))).unwrap();
        tune_out(&run, &cli);
        let job = root.join("jobs").join(&id);
        assert_eq!(task_log(&job), task_log(cli.path()), "{method}: trial logs differ");
        let capture = |dir: &Path| std::fs::read(dir.join("model_quality.jsonl")).unwrap();
        assert!(capture(&job) == capture(cli.path()), "{method}: model captures differ");
        let log = cli.read_logs().unwrap().remove(0);
        assert_eq!(result["tasks"][0]["best_gflops"].as_f64(), Some(log.best_gflops()));
    }
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_job_started_by_an_older_server_resumes_under_its_manifests_options() {
    let (n_trial, seed) = (96, 2);
    // What an older server wrote: the smoke profile, early stopping only
    // at the budget, no capture.
    let mut old = Run::fresh("squeezenet", "bted+bao", Some(0), n_trial, seed).unwrap();
    old.manifest.model = "squeezenet".to_string();
    old.manifest.options = TuneOptions {
        n_trial,
        early_stopping: n_trial,
        seed,
        capture_model: Some(false),
        ..TuneOptions::smoke()
    };
    let reference = temp_dir("upgrade-reference");
    let reference = RunDir::create(&reference).unwrap();
    tune_out(&old, &reference);
    let (log_name, full) = task_log(reference.path());

    // The job directory a server killed mid-task left: the submission
    // journaled, the manifest, a log cut after 40 trials (past the
    // initial set), and a progress journal with no task complete.
    let root = temp_dir("upgrade");
    let job = RunDir::create(root.join("jobs").join("j1")).unwrap();
    job.write_manifest(&old.manifest).unwrap();
    let cut: Vec<u8> = full.split_inclusive(|&b| b == b'\n').take(41).flatten().copied().collect();
    assert!(cut.len() < full.len(), "the log must extend past the cut");
    std::fs::write(job.path().join("logs").join(&log_name), &cut).unwrap();
    std::fs::write(job.path().join("progress.jsonl"), "").unwrap();
    let submitted = JournalLine {
        entry: "submitted".to_string(),
        id: "j1".to_string(),
        spec: Some(JobSpec::from_value(&spec("bted+bao", n_trial as u64, seed)).unwrap()),
        error: None,
    };
    let line = format!("{}\n", serde_json::to_string(&submitted).unwrap());
    std::fs::write(root.join("journal.jsonl"), line).unwrap();

    let server = Server::start(config(&root)).expect("restarted server");
    wait_done(&server.addr().to_string(), "j1");
    server.shutdown();
    server.wait();
    assert!(
        task_log(job.path()).1 == full,
        "the resumed log must be the uninterrupted older-profile run's"
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(reference.path());
}
