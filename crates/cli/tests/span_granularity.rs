//! The trace of a `tune --out` run grows with batches and replans, not
//! with trials: each executor batch writes its `measure` calls, and each
//! AutoTVM replan its `gbt.predict` calls, as one folded span per parent,
//! while `aaltune trace` still counts every call.

use std::collections::BTreeMap;
use std::process::Command;

fn aaltune() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aaltune"))
}

/// Span starts per name, and the final value of each counter.
fn scan(trace: &str) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let (mut starts, mut counters) = (BTreeMap::new(), BTreeMap::new());
    for line in trace.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("trace line parses");
        if let Some(s) = v.get("SpanStart") {
            *starts.entry(s["name"].as_str().unwrap().to_string()).or_insert(0) += 1;
        } else if let Some(c) = v.get("Counter") {
            counters.insert(c["name"].as_str().unwrap().to_string(), c["value"].as_u64().unwrap());
        }
    }
    (starts, counters)
}

/// The count column of `span`'s row in `aaltune trace`'s breakdown.
fn trace_count(table: &str, span: &str) -> u64 {
    table
        .lines()
        .find_map(|l| {
            let mut cols = l.split_whitespace();
            (cols.next() == Some(span)).then(|| cols.next().unwrap().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("no {span} row in:\n{table}"))
}

#[test]
fn hot_spans_are_written_per_batch_and_per_replan() {
    let base = std::env::temp_dir().join(format!("aaltune-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let n_trial = 384;
    for workers in [1, 2] {
        let out = base.join(format!("w{workers}"));
        let status = aaltune()
            .args(["tune", "squeezenet", "--task", "0", "--method", "autotvm", "--seed", "0"])
            .args(["--n-trial", &n_trial.to_string(), "--workers", &workers.to_string()])
            .args(["--quiet", "--out", out.to_str().unwrap()])
            .status()
            .expect("spawn tune");
        assert!(status.success());
        let trace_path = out.join("squeezenet_v1.1-autotvm-seed0").join("trace.jsonl");
        let (starts, counters) = scan(&std::fs::read_to_string(&trace_path).unwrap());
        let batches = counters["exec.batch.submitted"];
        let trials = counters["tune.trials"];
        let replans = starts["xgb.replan"];
        assert_eq!(trials, n_trial);
        assert!(batches >= 2 && trials >= 32 * batches, "{batches} batches of {trials} trials");
        // One record per batch for each thread's parent: the calling
        // thread's loop span, and no parent on a worker thread.
        let measure = starts["measure"];
        assert!((batches..=batches * workers).contains(&measure), "{measure} measure records");
        // One record per replan for each parent: the replan itself (the
        // walkers' first scoring) and its annealing search.
        let predict = starts["gbt.predict"];
        assert!(predict <= 2 * replans, "{predict} gbt.predict records for {replans} replans");

        // `aaltune trace` still counts the calls.
        let table = aaltune().arg("trace").arg(&trace_path).output().expect("trace");
        assert!(table.status.success());
        let table = String::from_utf8(table.stdout).unwrap();
        assert_eq!(trace_count(&table, "measure"), trials);
        let searches = trace_count(&table, "sa.search");
        let n_iter = active_learning::sa::SaOptions::default().n_iter as u64;
        assert!(searches > 0);
        assert_eq!(trace_count(&table, "gbt.predict"), searches * (n_iter + 1));
    }
    let _ = std::fs::remove_dir_all(&base);
}
