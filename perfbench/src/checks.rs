//! Output checks. Any failure makes the run report `correct: false`.

use active_learning::TuningLog;
use dnn_graph::task::TuningTask;
use gpu_sim::{GpuDevice, Measurer, SimMeasurer};
use schedule::template::space_for_task;
use std::collections::BTreeMap;
use std::path::Path;

/// Reads every `logs/*.jsonl` of a run directory: file name → bytes.
pub fn read_logs(run_dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let dir = run_dir.join("logs");
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut logs = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?.path();
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        logs.insert(name, bytes);
    }
    Ok(logs)
}

/// Parses one trial log.
pub fn parse_log(name: &str, bytes: &[u8]) -> Result<TuningLog, String> {
    TuningLog::read_jsonl(bytes).map_err(|e| format!("log {name} does not parse: {e}"))
}

/// Requires two sets of logs to be byte-identical, file by file.
pub fn same_logs(
    what: &str,
    a: &BTreeMap<String, Vec<u8>>,
    b: &BTreeMap<String, Vec<u8>>,
) -> Result<(), String> {
    if a.keys().ne(b.keys()) {
        return Err(format!("{what}: different log files {:?} vs {:?}", a.keys(), b.keys()));
    }
    match a.iter().find(|(name, bytes)| b.get(*name) != Some(*bytes)) {
        Some((name, _)) => Err(format!("{what}: log {name} differs")),
        None => Ok(()),
    }
}

/// Requires `best_gflops` to be the running maximum of the successful
/// measurements (0 until the first one succeeds).
pub fn running_max(log: &TuningLog) -> Result<(), String> {
    let mut best = 0.0f64;
    for rec in &log.records {
        if rec.gflops > best {
            best = rec.gflops;
        }
        if rec.best_gflops.to_bits() != best.to_bits() {
            return Err(format!(
                "{}: trial {} logs best_gflops {} but the running maximum is {best}",
                log.task_name, rec.trial, rec.best_gflops
            ));
        }
    }
    Ok(())
}

/// Re-measures every logged trial through a fresh simulated measurer and
/// requires the logged GFLOPS and latency bit for bit.
pub fn remeasure(log: &TuningLog, task: &TuningTask, device: GpuDevice) -> Result<(), String> {
    let space = space_for_task(task);
    let measurer = SimMeasurer::new(device);
    for rec in &log.records {
        let cfg = space
            .config(rec.config_index)
            .map_err(|e| format!("{}: trial {} has a bad config: {e}", log.task_name, rec.trial))?;
        let r = measurer.measure(task, &space, &cfg);
        if r.gflops.to_bits() != rec.gflops.to_bits()
            || r.latency_s.to_bits() != rec.latency_s.to_bits()
        {
            return Err(format!(
                "{}: trial {} logged {} GFLOPS / {} s, re-measured {} / {}",
                log.task_name, rec.trial, rec.gflops, rec.latency_s, r.gflops, r.latency_s
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use active_learning::TrialRecord;

    fn log(gflops: &[f64], best: &[f64]) -> TuningLog {
        let mut log = TuningLog::new("t", "m");
        for (i, (&g, &b)) in gflops.iter().zip(best).enumerate() {
            log.records.push(TrialRecord {
                trial: i,
                config_index: i as u64,
                gflops: g,
                latency_s: 0.0,
                best_gflops: b,
            });
        }
        log
    }

    #[test]
    fn running_max_accepts_a_monotone_best_and_rejects_a_wrong_one() {
        assert!(running_max(&log(&[0.0, 3.0, 2.0, 5.0], &[0.0, 3.0, 3.0, 5.0])).is_ok());
        assert!(running_max(&log(&[0.0, 3.0, 2.0], &[0.0, 3.0, 2.0])).is_err());
        assert!(running_max(&log(&[1.0], &[0.0])).is_err());
    }

    #[test]
    fn same_logs_compares_bytes_per_file() {
        let a: BTreeMap<String, Vec<u8>> = [("x".to_string(), b"1".to_vec())].into();
        let mut b = a.clone();
        assert!(same_logs("t", &a, &b).is_ok());
        b.insert("x".to_string(), b"2".to_vec());
        assert!(same_logs("t", &a, &b).is_err());
        b.clear();
        assert!(same_logs("t", &a, &b).is_err());
    }
}
