//! `aaltune top` — a refreshing terminal dashboard over a run directory's
//! live metrics.
//!
//! The dashboard is read-only: it renders whatever the run's
//! [`SnapshotWriter`](telemetry::SnapshotWriter) last published to
//! `metrics.snapshot.json` (atomically, so a frame never sees a torn file)
//! plus the static facts in `manifest.json`. It never opens the trace or
//! the trial logs, so watching a run cannot perturb it.
//!
//! Modes:
//!
//! * default — clear-and-repaint every `--refresh-ms` until the manifest
//!   records a final wall time (the run finished);
//! * `--once` — print a single frame without ANSI escapes (scripts, CI);
//! * `--check` — validate the snapshot schema and the Prometheus export,
//!   exiting non-zero on malformed or empty files (the CI `live-smoke`
//!   job's probe).

use crate::opts::Cli;
use active_learning::RunManifest;
use std::fmt::Write as _;
use std::path::Path;
use telemetry::{MetricsSnapshot, SNAPSHOT_SCHEMA_VERSION};
use trace_analysis::STALE_AFTER_MS;

/// Default dashboard refresh period.
const DEFAULT_REFRESH_MS: u64 = 1000;
/// Floor on `--refresh-ms`, so a typo cannot busy-spin on the filesystem.
const MIN_REFRESH_MS: u64 = 50;

/// Entry point for `aaltune top RUN_DIR`.
///
/// # Errors
///
/// Returns a message when the directory is missing, or (under `--check`)
/// when the snapshot files are absent, malformed, or empty.
pub fn top(cli: &Cli) -> Result<(), String> {
    let dir = cli.positional.get(1).map(Path::new).ok_or("missing RUN_DIR argument")?;
    if !dir.is_dir() {
        return Err(format!("{} is not a run directory", dir.display()));
    }
    if cli.flag_present("check") {
        return check(dir);
    }
    let refresh = cli.flag::<u64>("refresh-ms", DEFAULT_REFRESH_MS)?.max(MIN_REFRESH_MS);
    let once = cli.flag_present("once");
    loop {
        let frame = frame(dir);
        if once {
            out!("{frame}")?;
            return Ok(());
        }
        // Full repaint: clear screen + cursor home, then the frame.
        out!("\x1b[2J\x1b[H{frame}")?;
        if read_manifest(dir).is_some_and(|m| m.wall_time_s.is_some()) {
            // The run finished and the frame above reflects its final
            // snapshot (the writer publishes once more before the manifest
            // gains a wall time) — stop refreshing.
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(refresh));
    }
}

/// Validates the snapshot pair for CI: parseable, schema we understand,
/// and actually carrying metrics.
fn check(dir: &Path) -> Result<(), String> {
    let snap_path = dir.join(telemetry::SNAPSHOT_FILE);
    let text = std::fs::read_to_string(&snap_path)
        .map_err(|e| format!("cannot read {}: {e}", snap_path.display()))?;
    let snap: MetricsSnapshot = serde_json::from_str(&text)
        .map_err(|e| format!("malformed {}: {e}", snap_path.display()))?;
    if snap.schema_version > SNAPSHOT_SCHEMA_VERSION {
        return Err(format!(
            "{}: schema v{} is newer than supported v{SNAPSHOT_SCHEMA_VERSION}",
            snap_path.display(),
            snap.schema_version
        ));
    }
    if snap.is_empty() {
        return Err(format!("{}: snapshot carries no metrics", snap_path.display()));
    }
    let prom_path = dir.join(telemetry::PROM_FILE);
    let prom = std::fs::read_to_string(&prom_path)
        .map_err(|e| format!("cannot read {}: {e}", prom_path.display()))?;
    let samples = telemetry::parse_prometheus(&prom)
        .map_err(|e| format!("malformed {}: {e}", prom_path.display()))?;
    if samples.is_empty() {
        return Err(format!("{}: no samples", prom_path.display()));
    }
    outln!(
        "{}: snapshot v{} ok ({} counters, {} gauges, {} histograms); \
         prometheus ok ({} samples)",
        dir.display(),
        snap.schema_version,
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        samples.len()
    )?;
    Ok(())
}

fn read_manifest(dir: &Path) -> Option<RunManifest> {
    let text = std::fs::read_to_string(dir.join("manifest.json")).ok()?;
    serde_json::from_str(&text).ok()
}

fn read_snapshot(dir: &Path) -> Option<MetricsSnapshot> {
    let text = std::fs::read_to_string(dir.join(telemetry::SNAPSHOT_FILE)).ok()?;
    serde_json::from_str(&text).ok()
}

/// One dashboard frame for `dir` as of now. Missing snapshot renders a
/// waiting banner instead of failing: `top` may be started before the run.
fn frame(dir: &Path) -> String {
    let run_id = dir
        .file_name()
        .map_or_else(|| dir.display().to_string(), |n| n.to_string_lossy().into_owned());
    match read_snapshot(dir) {
        None => format!(
            "{run_id}: waiting for {} (is the run using --snapshot-interval-ms > 0?)\n",
            telemetry::SNAPSHOT_FILE
        ),
        Some(snap) => {
            render(&run_id, &snap, read_manifest(dir).as_ref(), telemetry::registry::unix_ms_now())
        }
    }
}

/// Formats seconds compactly: `42s`, `3m10s`, `1h02m`.
fn fmt_secs(secs: f64) -> String {
    if !secs.is_finite() || secs < 0.0 {
        return "-".to_string();
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let s = secs.round() as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

/// Renders a full dashboard frame from a snapshot (pure — testable with a
/// pinned `now_ms`).
#[allow(clippy::cast_precision_loss)]
fn render(
    run_id: &str,
    snap: &MetricsSnapshot,
    manifest: Option<&RunManifest>,
    now_ms: u64,
) -> String {
    let mut out = String::new();
    let uptime_s = snap.uptime_us as f64 / 1e6;

    // Header: identity + liveness.
    let status = match manifest {
        Some(m) if m.wall_time_s.is_some() => "done".to_string(),
        _ => {
            let age_ms = now_ms.saturating_sub(snap.unix_ms);
            if age_ms <= STALE_AFTER_MS {
                format!("live ({:.1}s ago)", age_ms as f64 / 1e3)
            } else {
                format!("STALE — no snapshot for {}", fmt_secs(age_ms as f64 / 1e3))
            }
        }
    };
    match manifest {
        Some(m) => {
            let _ =
                writeln!(out, "{run_id} — {} / {} seed {} — {status}", m.model, m.method, m.seed);
        }
        None => {
            let _ = writeln!(out, "{run_id} — {status}");
        }
    }

    // Progress: trials, rate, ETA against the manifest's budget.
    let trials = snap.counter(telemetry::stream::TRIALS_COUNTER);
    let tasks_done = snap.counter(telemetry::stream::TASKS_DONE_COUNTER);
    let rate = if uptime_s > 0.0 { trials as f64 / uptime_s } else { 0.0 };
    let _ = write!(out, "trials   {trials}");
    if let Some(m) = manifest {
        let planned = (m.tasks.len() * m.options.n_trial) as u64;
        let _ = write!(out, "/{planned}");
        let _ = write!(out, "   {rate:.1} trials/s");
        // Upper bound: early stopping can finish tasks under budget.
        let eta = if rate > 0.0 && m.wall_time_s.is_none() {
            format!("ETA <={}", fmt_secs(planned.saturating_sub(trials) as f64 / rate))
        } else {
            "ETA -".to_string()
        };
        let _ = write!(out, "   {eta}   tasks {tasks_done}/{} done", m.tasks.len());
    } else {
        let _ = write!(out, "   {rate:.1} trials/s   tasks {tasks_done} done");
    }
    let current = snap.labels.get(telemetry::stream::CURRENT_TASK_LABEL);
    if let Some(task) = current.filter(|t| !t.is_empty()) {
        let _ = write!(out, "   tuning {task}");
    }
    let _ = writeln!(out, "   up {}", fmt_secs(uptime_s));

    // Executor: threads measuring, device occupancy.
    let _ = write!(out, "executor {:.0} measuring", snap.gauge("exec.workers.busy.now"));
    let devices = device_occupancy(snap);
    if !devices.is_empty() {
        let busy = snap.gauge("exec.devices.busy.now");
        let map: String = devices.iter().map(|&b| if b { '#' } else { '.' }).collect();
        let _ = write!(out, "   devices {busy:.0}/{} busy  [{map}]", devices.len());
    }
    let _ = writeln!(out);

    // Measurement health: fault/retry/persistent-failure rates.
    let attempts = snap.counter("measure.attempts");
    let failed = snap.counter("measure.failed");
    let fail_pct = if attempts > 0 { 100.0 * failed as f64 / attempts as f64 } else { 0.0 };
    let _ = writeln!(
        out,
        "health   attempts {attempts}  ok {}  failed {failed} ({fail_pct:.1}%)  \
         retries {}  persistent {}  faults {}",
        snap.counter("measure.ok"),
        snap.counter("measure.retry"),
        snap.counter("measure.quarantine"),
        snap.counter("measure.fault"),
    );

    // Per-task table from the `task.<name>.best_gflops` / `.trials` gauges.
    let tasks = per_task(snap);
    if !tasks.is_empty() {
        let _ = writeln!(out, "{:<28} {:>12} {:>8}", "task", "best GFLOPS", "trials");
        for (name, best, task_trials) in tasks {
            let marker = if current.is_some_and(|c| c == &name) { " <- tuning" } else { "" };
            let _ = writeln!(out, "{name:<28} {best:>12.1} {task_trials:>8.0}{marker}");
        }
    }
    out
}

/// Per-device busy flags, ordered by device id, from the
/// `exec.device.<id>.busy.now` gauges.
fn device_occupancy(snap: &MetricsSnapshot) -> Vec<bool> {
    let mut by_id: Vec<(usize, bool)> = snap
        .gauges
        .iter()
        .filter_map(|(name, &v)| {
            let id = name
                .strip_prefix("exec.device.")
                .and_then(|rest| rest.strip_suffix(".busy.now"))?;
            Some((id.parse().ok()?, v > 0.5))
        })
        .collect();
    by_id.sort_unstable();
    by_id.into_iter().map(|(_, b)| b).collect()
}

/// `(task name, best GFLOPS, trials)` rows from the per-task gauges.
fn per_task(snap: &MetricsSnapshot) -> Vec<(String, f64, f64)> {
    snap.gauges
        .iter()
        .filter_map(|(name, &best)| {
            let task = name.strip_prefix("task.")?.strip_suffix(".best_gflops")?;
            let trials = snap.gauge(&format!("task.{task}.trials"));
            Some((task.to_string(), best, trials))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::MetricsRegistry;

    fn snap_with_run() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.inc(telemetry::stream::TRIALS_COUNTER, 120);
        reg.inc(telemetry::stream::TASKS_DONE_COUNTER, 1);
        reg.inc("measure.attempts", 130);
        reg.inc("measure.ok", 120);
        reg.inc("measure.failed", 10);
        reg.inc("measure.retry", 6);
        reg.set_label(telemetry::stream::CURRENT_TASK_LABEL, "sq.T2");
        reg.gauge_set("exec.workers.busy.now", 4.0);
        reg.gauge_set("exec.devices.busy.now", 2.0);
        reg.gauge_set("exec.device.0.busy.now", 1.0);
        reg.gauge_set("exec.device.1.busy.now", 0.0);
        reg.gauge_set("exec.device.2.busy.now", 1.0);
        reg.gauge_set("task.sq.T1.best_gflops", 88.5);
        reg.gauge_set("task.sq.T1.trials", 64.0);
        reg.gauge_set("task.sq.T2.best_gflops", 40.2);
        reg.gauge_set("task.sq.T2.trials", 56.0);
        let mut snap = reg.snapshot();
        snap.uptime_us = 12_000_000; // 12 s in → 10 trials/s
        snap
    }

    fn manifest() -> RunManifest {
        RunManifest {
            model: "squeezenet_v1.1".into(),
            method: "autotvm".into(),
            tasks: vec!["sq.T1".into(), "sq.T2".into()],
            seed: 0,
            options: active_learning::TuneOptions { n_trial: 100, ..Default::default() },
            schema_version: Some(active_learning::MANIFEST_SCHEMA_VERSION),
            git_describe: None,
            wall_time_s: None,
            device: None,
            fault: None,
            resumed: None,
            workers: Some(4),
            devices: Some(3),
            db: None,
        }
    }

    #[test]
    fn render_shows_progress_executor_health_and_tasks() {
        let snap = snap_with_run();
        let frame = render("sq-run", &snap, Some(&manifest()), snap.unix_ms + 400);
        assert!(frame.contains("sq-run — squeezenet_v1.1 / autotvm seed 0 — live"), "{frame}");
        assert!(frame.contains("trials   120/200"), "{frame}");
        assert!(frame.contains("10.0 trials/s"), "{frame}");
        assert!(frame.contains("ETA <=8s"), "{frame}");
        assert!(frame.contains("tasks 1/2 done"), "{frame}");
        assert!(frame.contains("tuning sq.T2"), "{frame}");
        assert!(frame.contains("executor 4 measuring   devices 2/3 busy  [#.#]"), "{frame}");
        assert!(frame.contains("failed 10 (7.7%)"), "{frame}");
        assert!(frame.contains("retries 6"), "{frame}");
        assert!(frame.contains("sq.T1"), "{frame}");
        assert!(frame.contains("88.5"), "{frame}");
        assert!(frame.contains("<- tuning"), "{frame}");
    }

    #[test]
    fn render_classifies_stale_and_done() {
        let snap = snap_with_run();
        let stale = render("r", &snap, Some(&manifest()), snap.unix_ms + STALE_AFTER_MS + 65_000);
        assert!(stale.contains("STALE"), "{stale}");
        let mut done = manifest();
        done.wall_time_s = Some(3.5);
        let frame = render("r", &snap, Some(&done), snap.unix_ms);
        assert!(frame.contains("— done"), "{frame}");
        assert!(frame.contains("ETA -"), "{frame}");
        // No manifest at all still renders.
        let bare = render("r", &snap, None, snap.unix_ms);
        assert!(bare.contains("trials   120   10.0 trials/s"), "{bare}");
    }

    #[test]
    fn fmt_secs_scales() {
        assert_eq!(fmt_secs(5.2), "5s");
        assert_eq!(fmt_secs(190.0), "3m10s");
        assert_eq!(fmt_secs(3725.0), "1h02m");
        assert_eq!(fmt_secs(f64::NAN), "-");
        assert_eq!(fmt_secs(-1.0), "-");
    }
}
