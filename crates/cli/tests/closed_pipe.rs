//! A reader that stops early must not crash the CLI: `aaltune client
//! events j1 | head -1` ends the client quietly with status 0 once the
//! pipe closes, instead of panicking on the next line it prints.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn aaltune() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aaltune"))
}

/// Kills the server when the test ends, however it ends.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn wait_for(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !path.is_file() {
        assert!(Instant::now() < deadline, "{} never appeared", path.display());
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn client_events_into_a_closed_pipe_exits_quietly() {
    let root = std::env::temp_dir().join(format!("aaltune-closed-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let root_arg = root.to_str().unwrap();
    let _server = Server(
        aaltune()
            .args(["serve", "--root", root_arg, "--addr", "127.0.0.1:0", "--device-ms", "2"])
            .arg("--quiet")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server"),
    );
    wait_for(&root.join("serve.addr"));

    // A job long enough that it still emits events after the reader has
    // gone: ~2 ms of device time per valid config.
    let submit = aaltune()
        .args(["client", "submit", "--root", root_arg, "--model", "squeezenet", "--task", "0"])
        .args(["--method", "random", "--n-trial", "4000", "--seed", "3"])
        .output()
        .expect("submit");
    assert!(submit.status.success(), "{}", String::from_utf8_lossy(&submit.stderr));
    let resp: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&submit.stdout)).unwrap();
    let id = resp["id"].as_str().expect("job id").to_string();

    let mut events = aaltune()
        .args(["client", "events", &id, "--root", root_arg])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn client events");
    let mut first = String::new();
    BufReader::new(events.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(first.contains("job.start"), "first event: {first}");
    // The reader is dropped here: the pipe is closed while the job runs.
    let mut stderr = String::new();
    events.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = events.wait().unwrap();
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&root);
}
