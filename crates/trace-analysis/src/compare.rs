//! Statistical comparison of two run directories.
//!
//! Aligns the runs task-by-task, bootstraps a confidence interval for the
//! mean GFLOPS delta of each task from the *recorded trial outcomes* (not
//! just the headline means), and classifies every task as improved,
//! regressed, or noise. `aaltune compare --fail-on-regress` turns the
//! verdict into an exit code, which is what makes tuning changes CI-gatable.

use crate::model_insight::TaskModelQuality;
use crate::stats::{bootstrap_mean_delta_ci, mean, BootstrapCi};
use active_learning::{read_capture, RunDir, RunManifest, TuningLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Final-rank-correlation drop (candidate vs baseline) beyond which the
/// candidate's surrogate is flagged as a model regression: the tuner may
/// still luck into good configs this run, but its cost model has stopped
/// ranking candidates correctly — the next run won't be so lucky.
pub const RANK_CORR_REGRESS_DROP: f64 = 0.25;

/// Knobs for a comparison.
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Significance level: a task needs its `1 − alpha` CI clear of zero to
    /// leave the noise verdict.
    pub alpha: f64,
    /// Bootstrap resamples per task.
    pub resamples: usize,
    /// Minimum |mean delta| as a percentage of the baseline mean to call a
    /// task improved/regressed — statistically significant but tiny shifts
    /// stay noise.
    pub min_effect_pct: f64,
    /// Seed for the bootstrap RNG (comparisons are reproducible).
    pub seed: u64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions { alpha: 0.05, resamples: 2000, min_effect_pct: 1.0, seed: 0 }
    }
}

/// Classification of one task's delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// CI above zero and the effect size clears the threshold.
    Improved,
    /// CI below zero and the effect size clears the threshold.
    Regressed,
    /// Everything else: the delta is indistinguishable from seed noise.
    Noise,
    /// The task exists in only one of the runs, so there is nothing to
    /// bootstrap — explicitly listed instead of silently dropped.
    Incomparable,
}

impl Verdict {
    /// Stable lowercase label (used in text output and the HTML report).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Noise => "noise",
            Verdict::Incomparable => "incomparable",
        }
    }
}

/// One aligned task.
///
/// For [`Verdict::Incomparable`] rows the missing side's `*_mean` /
/// `*_best` fields are `NaN` (rendered as `-`) and the CI is degenerate.
#[derive(Debug, Clone)]
pub struct TaskComparison {
    /// Task name.
    pub task: String,
    /// Mean trial GFLOPS in the baseline run.
    pub base_mean: f64,
    /// Mean trial GFLOPS in the candidate run.
    pub cand_mean: f64,
    /// Final best GFLOPS in the baseline run.
    pub base_best: f64,
    /// Final best GFLOPS in the candidate run.
    pub cand_best: f64,
    /// Bootstrap CI for the mean delta (candidate − base).
    pub ci: BootstrapCi,
    /// Delta as a percentage of the baseline mean.
    pub delta_pct: f64,
    /// The classification.
    pub verdict: Verdict,
}

/// The full result of comparing two runs.
#[derive(Debug, Clone)]
pub struct RunComparison {
    /// Baseline run id (directory name).
    pub base_id: String,
    /// Candidate run id (directory name).
    pub cand_id: String,
    /// Aligned tasks, in task-name order.
    pub tasks: Vec<TaskComparison>,
    /// Tasks present only in the baseline run.
    pub only_in_base: Vec<String>,
    /// Tasks present only in the candidate run.
    pub only_in_cand: Vec<String>,
    /// CI over the per-task *best*-GFLOPS deltas — the aggregate answer to
    /// "did the candidate change end-of-budget quality".
    pub aggregate: BootstrapCi,
    /// Options the comparison ran with.
    pub options: CompareOptions,
    /// Surrogate-quality deltas, one per task captured in *both* runs —
    /// empty unless both run directories carry a `model_quality.jsonl`.
    pub model_quality: Vec<ModelQualityComparison>,
    /// Non-fatal issues: schema-version skew, mismatched configurations,
    /// skipped corrupt lines.
    pub warnings: Vec<String>,
}

/// One task's surrogate-quality delta between two captured runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelQualityComparison {
    /// Task name.
    pub task: String,
    /// Baseline final cumulative rank correlation.
    pub base_rank_corr: f64,
    /// Candidate final cumulative rank correlation.
    pub cand_rank_corr: f64,
    /// Whether the drop exceeds [`RANK_CORR_REGRESS_DROP`].
    pub regressed: bool,
}

/// Aligns two analyzed capture streams task-by-task and flags tasks whose
/// final rank correlation dropped by more than [`RANK_CORR_REGRESS_DROP`].
/// Tasks missing from either side, or without a final correlation (blind
/// runs), are skipped — there is no model to compare.
#[must_use]
pub fn compare_model_quality(
    base: &[TaskModelQuality],
    cand: &[TaskModelQuality],
) -> Vec<ModelQualityComparison> {
    let cand_by: BTreeMap<&str, &TaskModelQuality> =
        cand.iter().map(|t| (t.task.as_str(), t)).collect();
    let mut out: Vec<ModelQualityComparison> = base
        .iter()
        .filter_map(|b| {
            let c = cand_by.get(b.task.as_str())?;
            let (bc, cc) = (b.final_rank_corr?, c.final_rank_corr?);
            Some(ModelQualityComparison {
                task: b.task.clone(),
                base_rank_corr: bc,
                cand_rank_corr: cc,
                regressed: cc < bc - RANK_CORR_REGRESS_DROP,
            })
        })
        .collect();
    out.sort_by(|a, b| a.task.cmp(&b.task));
    out
}

impl RunComparison {
    /// True when any task regressed — on trial outcomes or (when both runs
    /// captured model diagnostics) on surrogate rank correlation.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.tasks.iter().any(|t| t.verdict == Verdict::Regressed)
            || self.model_quality.iter().any(|m| m.regressed)
    }

    /// Count of tasks with the given verdict.
    #[must_use]
    pub fn count(&self, v: Verdict) -> usize {
        self.tasks.iter().filter(|t| t.verdict == v).count()
    }

    /// Renders the comparison as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "base:      {}", self.base_id);
        let _ = writeln!(s, "candidate: {}", self.cand_id);
        let _ = writeln!(
            s,
            "confidence {:.0}%, {} resamples, min effect {:.1}%\n",
            100.0 * (1.0 - self.options.alpha),
            self.options.resamples,
            self.options.min_effect_pct
        );
        let _ = writeln!(
            s,
            "{:<28} {:>10} {:>10} {:>8} {:>22} {:<9}",
            "task", "base", "cand", "Δ%", "CI (GFLOPS)", "verdict"
        );
        let num = |v: f64| {
            if v.is_nan() {
                format!("{:>10}", "-")
            } else {
                format!("{v:>10.2}")
            }
        };
        for t in &self.tasks {
            if t.verdict == Verdict::Incomparable {
                let _ = writeln!(
                    s,
                    "{:<28} {} {} {:>8} {:>22} {:<9}",
                    t.task,
                    num(t.base_mean),
                    num(t.cand_mean),
                    "-",
                    "-",
                    t.verdict.label()
                );
                continue;
            }
            let _ = writeln!(
                s,
                "{:<28} {} {} {:>7.2}% [{:>8.2}, {:>8.2}] {:<9}",
                t.task,
                num(t.base_mean),
                num(t.cand_mean),
                t.delta_pct,
                t.ci.lo,
                t.ci.hi,
                t.verdict.label()
            );
        }
        let _ = writeln!(
            s,
            "\naggregate best-GFLOPS delta: {:+.2} [{:+.2}, {:+.2}]",
            self.aggregate.delta, self.aggregate.lo, self.aggregate.hi
        );
        let _ = writeln!(
            s,
            "verdicts: {} improved, {} regressed, {} noise, {} incomparable",
            self.count(Verdict::Improved),
            self.count(Verdict::Regressed),
            self.count(Verdict::Noise),
            self.count(Verdict::Incomparable)
        );
        if !self.model_quality.is_empty() {
            let _ = writeln!(s, "\nmodel quality (final rank correlation):");
            let _ = writeln!(s, "{:<28} {:>10} {:>10} {:<9}", "task", "base", "cand", "verdict");
            for m in &self.model_quality {
                let _ = writeln!(
                    s,
                    "{:<28} {:>10.3} {:>10.3} {:<9}",
                    m.task,
                    m.base_rank_corr,
                    m.cand_rank_corr,
                    if m.regressed { "regressed" } else { "ok" }
                );
            }
        }
        for task in &self.only_in_base {
            let _ = writeln!(s, "note: task {task} only in baseline — incomparable");
        }
        for task in &self.only_in_cand {
            let _ = writeln!(s, "note: task {task} only in candidate — incomparable");
        }
        for w in &self.warnings {
            let _ = writeln!(s, "warning: {w}");
        }
        s
    }
}

/// Loads both run directories and compares them.
///
/// # Errors
///
/// Returns a message when either directory's manifest or logs cannot be
/// read.
pub fn compare_run_dirs(
    base: &Path,
    cand: &Path,
    options: CompareOptions,
) -> Result<RunComparison, String> {
    let (base_manifest, base_logs) = read_run(base)?;
    let (cand_manifest, cand_logs) = read_run(cand)?;
    let mut warnings = Vec::new();
    for (label, m) in [("baseline", &base_manifest), ("candidate", &cand_manifest)] {
        if let Some(w) = m.schema_warning() {
            warnings.push(format!("{label}: {w}"));
        }
    }
    if base_manifest.options != cand_manifest.options {
        warnings.push(
            "runs used different tuning options — deltas mix configuration and code effects"
                .to_string(),
        );
    }
    if base_manifest.seed == cand_manifest.seed
        && base_manifest.model == cand_manifest.model
        && base_manifest.method != cand_manifest.method
    {
        warnings.push(format!(
            "comparing methods {} vs {} (same model and seed)",
            base_manifest.method, cand_manifest.method
        ));
    }
    let mut cmp =
        compare_logs(run_id(base), run_id(cand), &base_logs, &cand_logs, options, warnings);
    // Surrogate-quality gating applies only when BOTH runs captured model
    // diagnostics — a capture-less run is not a model regression.
    let capture = |path: &Path| {
        RunDir::create(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))
            .and_then(|dir| read_capture(&dir))
    };
    match (capture(base), capture(cand)) {
        (Ok(Some(b)), Ok(Some(c))) => {
            cmp.model_quality = compare_model_quality(
                &crate::model_insight::analyze(&b),
                &crate::model_insight::analyze(&c),
            );
        }
        (b, c) => {
            for (label, r) in [("baseline", &b), ("candidate", &c)] {
                if let Err(e) = r {
                    cmp.warnings.push(format!("{label} model quality unreadable: {e}"));
                }
            }
        }
    }
    Ok(cmp)
}

/// Core comparison over already-loaded logs (exposed for tests and the
/// report, which has the logs in hand anyway).
#[must_use]
pub fn compare_logs(
    base_id: String,
    cand_id: String,
    base_logs: &[TuningLog],
    cand_logs: &[TuningLog],
    options: CompareOptions,
    mut warnings: Vec<String>,
) -> RunComparison {
    let base_by_task: BTreeMap<&str, &TuningLog> =
        base_logs.iter().map(|l| (l.task_name.as_str(), l)).collect();
    let cand_by_task: BTreeMap<&str, &TuningLog> =
        cand_logs.iter().map(|l| (l.task_name.as_str(), l)).collect();

    let mut tasks = Vec::new();
    let mut best_base = Vec::new();
    let mut best_cand = Vec::new();
    for (i, (task, b)) in base_by_task.iter().enumerate() {
        let Some(c) = cand_by_task.get(task) else { continue };
        let bx: Vec<f64> = b.records.iter().map(|r| r.gflops).collect();
        let cx: Vec<f64> = c.records.iter().map(|r| r.gflops).collect();
        if bx.len() != cx.len() {
            warnings.push(format!(
                "task {task}: trial counts differ ({} vs {}) — using the unpaired estimator",
                bx.len(),
                cx.len()
            ));
        }
        let ci = bootstrap_mean_delta_ci(
            &bx,
            &cx,
            options.resamples,
            options.alpha,
            options.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let base_mean = mean(&bx);
        let delta_pct =
            if base_mean.abs() > f64::EPSILON { 100.0 * ci.delta / base_mean } else { 0.0 };
        let verdict = if ci.lo > 0.0 && delta_pct >= options.min_effect_pct {
            Verdict::Improved
        } else if ci.hi < 0.0 && delta_pct <= -options.min_effect_pct {
            Verdict::Regressed
        } else {
            Verdict::Noise
        };
        best_base.push(b.best_gflops());
        best_cand.push(c.best_gflops());
        tasks.push(TaskComparison {
            task: (*task).to_string(),
            base_mean,
            cand_mean: mean(&cx),
            base_best: b.best_gflops(),
            cand_best: c.best_gflops(),
            ci,
            delta_pct,
            verdict,
        });
    }
    // Tasks present on only one side cannot be bootstrapped; give them an
    // explicit incomparable row (excluded from the aggregate and from
    // `has_regressions`) instead of dropping them from the table.
    let incomparable_ci = BootstrapCi {
        delta: f64::NAN,
        lo: f64::NAN,
        hi: f64::NAN,
        confidence: 1.0 - options.alpha,
        resamples: 0,
        paired: false,
    };
    for (task, b) in &base_by_task {
        if cand_by_task.contains_key(*task) {
            continue;
        }
        let bx: Vec<f64> = b.records.iter().map(|r| r.gflops).collect();
        tasks.push(TaskComparison {
            task: (*task).to_string(),
            base_mean: mean(&bx),
            cand_mean: f64::NAN,
            base_best: b.best_gflops(),
            cand_best: f64::NAN,
            ci: incomparable_ci,
            delta_pct: f64::NAN,
            verdict: Verdict::Incomparable,
        });
    }
    for (task, c) in &cand_by_task {
        if base_by_task.contains_key(*task) {
            continue;
        }
        let cx: Vec<f64> = c.records.iter().map(|r| r.gflops).collect();
        tasks.push(TaskComparison {
            task: (*task).to_string(),
            base_mean: f64::NAN,
            cand_mean: mean(&cx),
            base_best: f64::NAN,
            cand_best: c.best_gflops(),
            ci: incomparable_ci,
            delta_pct: f64::NAN,
            verdict: Verdict::Incomparable,
        });
    }
    tasks.sort_by(|a, b| a.task.cmp(&b.task));
    let aggregate = bootstrap_mean_delta_ci(
        &best_base,
        &best_cand,
        options.resamples,
        options.alpha,
        options.seed,
    );
    RunComparison {
        base_id,
        cand_id,
        tasks,
        only_in_base: base_by_task
            .keys()
            .filter(|t| !cand_by_task.contains_key(**t))
            .map(ToString::to_string)
            .collect(),
        only_in_cand: cand_by_task
            .keys()
            .filter(|t| !base_by_task.contains_key(**t))
            .map(ToString::to_string)
            .collect(),
        aggregate,
        options,
        model_quality: Vec::new(),
        warnings,
    }
}

fn read_run(path: &Path) -> Result<(RunManifest, Vec<TuningLog>), String> {
    if !path.is_dir() {
        return Err(format!("{} is not a run directory", path.display()));
    }
    // `RunDir::create` reuses an existing directory; the guard above keeps
    // a typo from silently materializing an empty one.
    let dir = RunDir::create(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let manifest =
        dir.read_manifest().map_err(|e| format!("bad manifest in {}: {e}", path.display()))?;
    let logs = dir.read_logs().map_err(|e| format!("bad logs in {}: {e}", path.display()))?;
    Ok((manifest, logs))
}

fn run_id(path: &Path) -> String {
    path.file_name()
        .map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use active_learning::TrialRecord;

    fn log(task: &str, gflops: impl IntoIterator<Item = f64>) -> TuningLog {
        let mut l = TuningLog::new(task, "bted+bao");
        let mut best: f64 = 0.0;
        for (i, g) in gflops.into_iter().enumerate() {
            best = best.max(g);
            l.records.push(TrialRecord {
                trial: i,
                config_index: i as u64,
                gflops: g,
                latency_s: 1e-4,
                best_gflops: best,
            });
        }
        l
    }

    fn wavy(n: usize, level: f64) -> Vec<f64> {
        (0..n).map(|i| level + ((i * 13) % 7) as f64).collect()
    }

    #[test]
    fn identical_runs_are_all_noise() {
        let logs = vec![log("m.T1", wavy(40, 100.0)), log("m.T2", wavy(40, 50.0))];
        let cmp = compare_logs(
            "a".into(),
            "b".into(),
            &logs,
            &logs,
            CompareOptions::default(),
            Vec::new(),
        );
        assert_eq!(cmp.count(Verdict::Noise), 2);
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.aggregate.delta, 0.0);
    }

    #[test]
    fn a_clear_slowdown_is_flagged_as_regression() {
        let base = vec![log("m.T1", wavy(40, 100.0)), log("m.T2", wavy(40, 50.0))];
        let cand = vec![log("m.T1", wavy(40, 80.0)), log("m.T2", wavy(40, 50.0))];
        let cmp = compare_logs(
            "a".into(),
            "b".into(),
            &base,
            &cand,
            CompareOptions::default(),
            Vec::new(),
        );
        assert!(cmp.has_regressions());
        let t1 = cmp.tasks.iter().find(|t| t.task == "m.T1").unwrap();
        assert_eq!(t1.verdict, Verdict::Regressed);
        assert!(t1.delta_pct < -15.0, "{}", t1.delta_pct);
        let t2 = cmp.tasks.iter().find(|t| t.task == "m.T2").unwrap();
        assert_eq!(t2.verdict, Verdict::Noise);
        let text = cmp.render();
        assert!(text.contains("regressed"), "{text}");
    }

    #[test]
    fn a_clear_speedup_is_flagged_as_improvement() {
        let base = vec![log("m.T1", wavy(40, 100.0))];
        let cand = vec![log("m.T1", wavy(40, 130.0))];
        let cmp = compare_logs(
            "a".into(),
            "b".into(),
            &base,
            &cand,
            CompareOptions::default(),
            Vec::new(),
        );
        assert_eq!(cmp.tasks[0].verdict, Verdict::Improved);
    }

    #[test]
    fn significant_but_tiny_shifts_stay_noise() {
        // A constant +0.2% shift: every bootstrap resample is positive, so
        // the CI excludes zero — but the effect floor keeps it noise.
        let base = vec![log("m.T1", vec![100.0; 50])];
        let cand = vec![log("m.T1", vec![100.2; 50])];
        let cmp = compare_logs(
            "a".into(),
            "b".into(),
            &base,
            &cand,
            CompareOptions::default(),
            Vec::new(),
        );
        assert!(cmp.tasks[0].ci.excludes_zero());
        assert_eq!(cmp.tasks[0].verdict, Verdict::Noise);
    }

    #[test]
    fn unmatched_tasks_are_reported_not_compared() {
        let base = vec![log("m.T1", wavy(10, 10.0)), log("m.T9", wavy(10, 10.0))];
        let cand = vec![log("m.T1", wavy(10, 10.0)), log("m.T5", wavy(10, 10.0))];
        let cmp = compare_logs(
            "a".into(),
            "b".into(),
            &base,
            &cand,
            CompareOptions::default(),
            Vec::new(),
        );
        assert_eq!(cmp.tasks.len(), 3, "unmatched tasks get explicit rows");
        assert_eq!(cmp.count(Verdict::Incomparable), 2);
        assert_eq!(cmp.only_in_base, vec!["m.T9".to_string()]);
        assert_eq!(cmp.only_in_cand, vec!["m.T5".to_string()]);
        let t5 = cmp.tasks.iter().find(|t| t.task == "m.T5").unwrap();
        assert_eq!(t5.verdict, Verdict::Incomparable);
        assert!(t5.base_mean.is_nan() && t5.cand_mean > 0.0);
        let t9 = cmp.tasks.iter().find(|t| t.task == "m.T9").unwrap();
        assert!(t9.cand_mean.is_nan() && t9.base_mean > 0.0);
        assert!(!cmp.has_regressions(), "incomparable must not gate CI");
        let text = cmp.render();
        assert!(text.contains("only in baseline"));
        assert!(text.contains("incomparable"), "{text}");
        // Rows are still sorted by task name, incomparable interleaved.
        let names: Vec<&str> = cmp.tasks.iter().map(|t| t.task.as_str()).collect();
        assert_eq!(names, ["m.T1", "m.T5", "m.T9"]);
    }

    #[test]
    fn rank_correlation_drop_is_a_gated_regression() {
        use active_learning::ModelPredRecord;

        // Predictions ranked by `corr`: +1 tracks measurements, −1 inverts.
        let stream = |corr: f64| -> Vec<ModelPredRecord> {
            (0..12)
                .map(|i| {
                    let g = 50.0 + i as f64;
                    ModelPredRecord {
                        task: "m.T1".to_string(),
                        round: i / 4,
                        trial: i,
                        config_index: i as u64,
                        predicted_mean: Some(100.0 + corr * g),
                        predicted_std: None,
                        acquisition: None,
                        measured_gflops: g,
                    }
                })
                .collect()
        };
        let good = crate::model_insight::analyze(&stream(1.0));
        let bad = crate::model_insight::analyze(&stream(-1.0));

        let mq = compare_model_quality(&good, &bad);
        assert_eq!(mq.len(), 1);
        assert!(mq[0].regressed, "+1 → −1 rank corr must regress");
        assert!(!compare_model_quality(&good, &good)[0].regressed);

        // The model-quality verdict flows into CI gating even when the
        // trial outcomes themselves are identical.
        let logs = vec![log("m.T1", wavy(40, 100.0))];
        let mut cmp = compare_logs(
            "a".into(),
            "b".into(),
            &logs,
            &logs,
            CompareOptions::default(),
            Vec::new(),
        );
        assert!(!cmp.has_regressions());
        cmp.model_quality = mq;
        assert!(cmp.has_regressions(), "model regression must gate");
        let text = cmp.render();
        assert!(text.contains("model quality"), "{text}");
        assert!(text.contains("regressed"), "{text}");
    }

    #[test]
    fn blind_runs_have_no_model_quality_to_compare() {
        use active_learning::ModelPredRecord;
        let blind: Vec<ModelPredRecord> = (0..8)
            .map(|i| ModelPredRecord {
                task: "m.T1".to_string(),
                round: 0,
                trial: i,
                config_index: i as u64,
                predicted_mean: None,
                predicted_std: None,
                acquisition: None,
                measured_gflops: 50.0 + i as f64,
            })
            .collect();
        let b = crate::model_insight::analyze(&blind);
        assert!(compare_model_quality(&b, &b).is_empty());
    }

    #[test]
    fn differing_trial_counts_warn_and_use_unpaired() {
        let base = vec![log("m.T1", wavy(30, 100.0))];
        let cand = vec![log("m.T1", wavy(45, 100.0))];
        let cmp = compare_logs(
            "a".into(),
            "b".into(),
            &base,
            &cand,
            CompareOptions::default(),
            Vec::new(),
        );
        assert!(!cmp.tasks[0].ci.paired);
        assert!(cmp.warnings.iter().any(|w| w.contains("trial counts differ")));
    }
}
