//! Building the `aaltune` binary and running it as a user would.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Where the benchmark runs: the repository checkout and a work
/// directory inside it that the run removes when it ends.
pub struct Env {
    pub root: PathBuf,
    pub aaltune: PathBuf,
    pub work: PathBuf,
}

impl Env {
    /// Builds the release `aaltune` binary from the checkout in the
    /// current directory and creates the run's work directory.
    pub fn prepare(workload: &str) -> Result<Env, String> {
        let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
        if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
            return Err(format!("{} is not an aaltune checkout", root.display()));
        }
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet", "-p", "aaltune-cli"])
            .current_dir(&root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building aaltune failed ({status})"));
        }
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| root.join("target"), |d| root.join(PathBuf::from(d)));
        let aaltune = target.join("release").join("aaltune");
        if !aaltune.is_file() {
            return Err(format!("{} missing after the build", aaltune.display()));
        }
        let work = root.join(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Env { root, aaltune, work })
    }

    /// An `aaltune` command with `args`, its output discarded.
    pub fn aaltune(&self, args: &[String]) -> Command {
        let mut cmd = Command::new(&self.aaltune);
        cmd.args(args).current_dir(&self.work).stdout(Stdio::null()).stderr(Stdio::null());
        cmd
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
        let parent = self.root.join(".perfbench-work");
        let _ = std::fs::remove_dir(parent);
    }
}

/// One watched run of a program.
#[derive(Debug, Clone, Copy)]
pub struct Watched {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Spawn to the moment `ready` first held, seconds.
    pub setup_s: Option<f64>,
    /// Largest resident set seen (`VmHWM`), KiB.
    pub peak_rss_kib: u64,
    /// Whether the program exited successfully (always false when it was
    /// killed once ready).
    pub success: bool,
}

/// Longest one program run may take; a run stays within the three minutes
/// a benchmark run is allowed.
const RUN_LIMIT: Duration = Duration::from_secs(120);

/// Spawns `cmd` and polls it until it exits. `ready` is polled every
/// 0.1 ms until it first holds, which marks the end of set-up; from then
/// on the peak resident set (a high-water mark) is sampled every 5 ms. With
/// `kill_when_ready` the process is killed (and reaped) once ready — a
/// set-up probe.
pub fn run_watched(
    cmd: &mut Command,
    ready: &dyn Fn() -> bool,
    kill_when_ready: bool,
) -> Result<Watched, String> {
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let mut setup_s = None;
    let mut peak = 0;
    let status: ExitStatus = loop {
        if setup_s.is_none() && ready() {
            setup_s = Some(start.elapsed().as_secs_f64());
            if kill_when_ready {
                peak = peak.max(peak_rss_kib(child.id()));
                let _ = child.kill();
                break child.wait().map_err(|e| format!("wait: {e}"))?;
            }
        }
        if setup_s.is_some() {
            peak = peak.max(peak_rss_kib(child.id()));
        }
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            break status;
        }
        if start.elapsed() > RUN_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{cmd:?} still running after {RUN_LIMIT:?}; killed"));
        }
        std::thread::sleep(if setup_s.is_none() {
            Duration::from_micros(100)
        } else {
            Duration::from_millis(5)
        });
    };
    Ok(Watched {
        wall_s: start.elapsed().as_secs_f64(),
        setup_s,
        peak_rss_kib: peak,
        success: status.success() && !kill_when_ready,
    })
}

/// `VmHWM` of a live process, KiB (0 once it is gone).
pub fn peak_rss_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// True once `dir` holds at least one entry.
pub fn has_entry(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|mut d| d.next().is_some())
}

/// A running `aaltune serve`, shut down and reaped on drop.
pub struct ServeProc {
    child: Option<Child>,
    pub addr: String,
    pub setup_s: f64,
}

impl ServeProc {
    /// Spawns `aaltune serve` over `root` (whose `db/` the caller has
    /// seeded) and waits until `/healthz` answers. `setup_s` is spawn to
    /// the first healthy answer.
    pub fn start(env: &Env, root: &Path, extra: &[&str]) -> Result<ServeProc, String> {
        let mut args: Vec<String> = ["serve", "--addr", "127.0.0.1:0", "--quiet", "--root"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        args.push(root.display().to_string());
        args.extend(extra.iter().map(|s| (*s).to_string()));
        let start = Instant::now();
        let child = env.aaltune(&args).spawn().map_err(|e| format!("cannot spawn serve: {e}"))?;
        let mut proc = ServeProc { child: Some(child), addr: String::new(), setup_s: 0.0 };
        let deadline = start + Duration::from_secs(30);
        let addr_file = root.join("serve.addr");
        loop {
            if Instant::now() > deadline {
                return Err("serve did not become healthy within 30 s".to_string());
            }
            if let Some(status) = proc.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!("serve exited during start-up ({status})"));
            }
            if proc.addr.is_empty() {
                if let Ok(a) = std::fs::read_to_string(&addr_file) {
                    proc.addr = a.trim().to_string();
                }
            }
            if !proc.addr.is_empty()
                && matches!(
                    serve::client::request(&proc.addr, "GET", "/healthz", None),
                    Ok((200, _))
                )
            {
                proc.setup_s = start.elapsed().as_secs_f64();
                return Ok(proc);
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Peak resident set of the server so far, KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        self.child.as_ref().map_or(0, |c| peak_rss_kib(c.id()))
    }

    /// Asks the server to drain and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else { return Ok(()) };
        let asked = serve::client::request(&self.addr, "POST", "/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = child.try_wait() {
                return if asked.is_ok() && status.success() {
                    Ok(())
                } else {
                    Err(format!("serve shutdown: {asked:?}, exit {status}"))
                };
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("serve did not drain within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
