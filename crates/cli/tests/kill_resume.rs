//! End-to-end crash safety: SIGKILL a chaos `tune` mid-run, resume it, and
//! require the final per-task trial log to be byte-identical to an
//! uninterrupted run with the same seed and fault stream, and its report
//! to draw the same convergence curves.
//!
//! If the child happens to finish before the kill lands, the resume path
//! degrades to a completed-task read-back and the assertion still holds, so
//! the test is timing-tolerant rather than flaky.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn aaltune() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aaltune"))
}

fn tune_args(out: &Path) -> Vec<String> {
    [
        "tune",
        "squeezenet",
        "--task",
        "0",
        "--n-trial",
        "60",
        "--method",
        "autotvm",
        "--quiet",
        "--fault-rate",
        "0.1",
        "--fault-seed",
        "3",
        // Holds the device 2 ms per measurement, so the kill lands
        // mid-run; the hold changes timing only, never the log.
        "--device-ms",
        "2",
        "--out",
        out.to_str().unwrap(),
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

fn task_log(base: &Path, sub: &str, run: &str) -> PathBuf {
    std::fs::read_dir(base.join(sub).join(run).join("logs"))
        .expect("logs dir exists")
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .expect("task log exists")
}

#[test]
fn sigkill_mid_run_then_resume_matches_uninterrupted() {
    let base = std::env::temp_dir().join(format!("aaltune-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let run = "squeezenet_v1.1-autotvm-seed0";

    let status = aaltune().args(tune_args(&base.join("full"))).status().expect("spawn full run");
    assert!(status.success(), "uninterrupted run must succeed");

    // Start the same run again, wait until some trials have hit disk, then
    // kill -9 without any chance to clean up.
    let mut child = aaltune().args(tune_args(&base.join("cut"))).spawn().expect("spawn cut run");
    let logs_dir = base.join("cut").join(run).join("logs");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let bytes: u64 = std::fs::read_dir(&logs_dir)
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        if bytes > 600 || child.try_wait().expect("try_wait").is_some() || Instant::now() > deadline
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();

    let run_dir = base.join("cut").join(run);
    let status = aaltune()
        .args(["tune", "--resume", run_dir.to_str().unwrap(), "--quiet"])
        .status()
        .expect("spawn resume");
    assert!(status.success(), "resume must succeed");

    let full = std::fs::read(task_log(&base, "full", run)).expect("full log");
    let cut = std::fs::read(task_log(&base, "cut", run)).expect("cut log");
    assert_eq!(full, cut, "resumed log must be byte-identical to the uninterrupted run");

    // The report's curves come from the logs, so the resumed run's
    // convergence section is the uninterrupted run's, even though its
    // trace lost the killed process's unflushed tail.
    let convergence = |sub: &str| {
        let html = base.join(format!("{sub}.html"));
        let out = aaltune()
            .args(["report", base.join(sub).join(run).to_str().unwrap(), "--html"])
            .arg(&html)
            .output()
            .expect("spawn report");
        assert!(out.status.success(), "report must succeed");
        let html = std::fs::read_to_string(html).expect("report html");
        let start = html.find("<section><h2>Convergence").expect("convergence section");
        let len = html[start..].find("</section>").expect("section end");
        html[start..start + len].to_string()
    };
    assert_eq!(convergence("full"), convergence("cut"), "resumed run draws the same curves");

    std::fs::remove_dir_all(&base).expect("cleanup");
}
