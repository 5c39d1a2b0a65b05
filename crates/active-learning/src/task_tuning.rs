//! Node-wise tuning: the shared measurement loop over any [`Tuner`].

use crate::bao::BaoTuner;
use crate::bted::bted;
use crate::model_quality::{ModelPredRecord, ProposalDiag};
use crate::options::TuneOptions;
use crate::records::{TrialRecord, TuningLog};
use crate::tuner::{RandomTuner, Tuner, XgbTuner};
use dnn_graph::task::TuningTask;
use gpu_sim::Measurer;
use schedule::template::space_for_task;
use schedule::{Config, ConfigSpace, IndexSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The experiment arms of Section V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Uniform random search (sanity baseline, not in the paper's table).
    Random,
    /// Stock AutoTVM: random init + XGBoost cost model + SA search.
    AutoTvm,
    /// AutoTVM with the BTED initial set (the paper's "BTED" arm).
    Bted,
    /// BTED initialization + BAO iterative optimization (the paper's
    /// "BTED + BAO" arm — the full advanced active-learning framework).
    BtedBao,
}

impl Method {
    /// All methods compared in the paper's Table I, in column order.
    pub const PAPER_ARMS: [Method; 3] = [Method::AutoTvm, Method::Bted, Method::BtedBao];

    /// Short label used in logs and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Method::Random => "random",
            Method::AutoTvm => "autotvm",
            Method::Bted => "bted",
            Method::BtedBao => "bted+bao",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Outcome of tuning one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTuneResult {
    /// Task name.
    pub task_name: String,
    /// Method used.
    pub method: Method,
    /// Best configuration found (`None` if every measurement failed).
    pub best_config: Option<Config>,
    /// Its measured GFLOPS.
    pub best_gflops: f64,
    /// Number of configurations measured (Fig. 5(a)'s y-axis).
    pub num_measured: usize,
    /// Full per-trial log.
    pub log: TuningLog,
    /// Diagnostic when the loop aborted early (fail-rate cap tripped)
    /// instead of exhausting its budget; `None` for a clean run.
    pub aborted: Option<String>,
}

/// Optional extension points for the measurement loop.
///
/// `tune_task` uses the defaults; the crash-safe CLI path threads a
/// per-trial sink (append-to-log-before-consume) and a recovered log to
/// replay through [`tune_task_with`].
#[derive(Default)]
pub struct TuneHooks<'a> {
    /// Called after every *live* (non-replayed) trial, before the result
    /// is fed to the tuner — the crash-safety contract is that a trial
    /// reaches durable storage before anything consumes it.
    pub on_trial: Option<&'a mut dyn FnMut(&TrialRecord)>,
    /// Previously recorded trials to replay through the deterministic
    /// loop before measuring anything. Replay feeds each recorded result
    /// to the tuner without re-measuring, reconstructing the exact loop
    /// state (step counters, model state, BAO radius, RNG cursors) the
    /// recorded run had after its last durable trial.
    pub replay: Option<&'a [TrialRecord]>,
    /// Called once per trial — replayed *and* live — with the surrogate's
    /// opinion of that proposal, when `opts.capture_model` is on. Replayed
    /// trials recompute their diagnostics deterministically, so a resumed
    /// run rebuilds the same `model_quality.jsonl` an uninterrupted run
    /// writes. Never called when capture is off.
    pub on_model: Option<&'a mut dyn FnMut(&ModelPredRecord)>,
    /// Configurations to measure first, ahead of the method's own initial
    /// set (tuning-database warm start or cross-task transfer). Prepended
    /// with dedup-by-index; the combined set is truncated to
    /// `opts.init_points` so the trial budget is unchanged. Ignored by
    /// [`Method::Random`], which takes no initial set. Resume determinism
    /// is the caller's contract: a resumed run must pass the same slice
    /// the original run used (persist it, don't re-derive it).
    pub warm_start: Option<&'a [Config]>,
}

/// Builds the initial configuration set for `method`.
fn initial_set(space: &ConfigSpace, method: Method, opts: &TuneOptions) -> Vec<Config> {
    use rand::SeedableRng;
    let tel = telemetry::global();
    let _span = tel.span("init_select");
    match method {
        Method::Bted | Method::BtedBao => {
            let bopts = crate::bted::BtedOptions { num_selected: opts.init_points, ..opts.bted };
            bted(space, &bopts, opts.seed ^ 0xB7ED)
        }
        Method::AutoTvm => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(opts.seed ^ 0xA070);
            space.sample_distinct(&mut rng, opts.init_points)
        }
        Method::Random => Vec::new(),
    }
}

/// Tunes one task with the given method and options.
///
/// Runs the shared measurement loop: propose → measure → update, stopping
/// at the `n_trial` budget or after `early_stopping` measurements without
/// improvement (the paper uses 400).
#[must_use]
pub fn tune_task<M: Measurer>(
    task: &TuningTask,
    measurer: &M,
    method: Method,
    opts: &TuneOptions,
) -> TaskTuneResult {
    tune_task_with(task, measurer, method, opts, TuneHooks::default())
}

/// [`tune_task`] with explicit [`TuneHooks`] — the crash-safe resume
/// entry point: pass the recovered trial records as `hooks.replay` and a
/// durable-append sink as `hooks.on_trial`.
#[must_use]
pub fn tune_task_with<M: Measurer>(
    task: &TuningTask,
    measurer: &M,
    method: Method,
    opts: &TuneOptions,
    hooks: TuneHooks<'_>,
) -> TaskTuneResult {
    let tel = telemetry::global();
    let _span = tel.span("tune_task");
    // Live-only: lets heartbeats and `aaltune top` name the task currently
    // tuning. Never reaches the trace or the trial log.
    tel.set_label("task.current", &task.name);
    tel.event(telemetry::events::TUNE_START_EVENT, || {
        telemetry::json!({
            "task": task.name.clone(),
            "method": method.label(),
            "seed": opts.seed,
            "n_trial": opts.n_trial as u64,
        })
    });
    let space = space_for_task(task);
    let mut init = initial_set(&space, method, opts);
    let mut warm_used = 0usize;
    if let Some(warm) = hooks.warm_start.filter(|w| !w.is_empty()) {
        // `init` is a pending stack (tuners pop from the end), so build the
        // merged set in measured order — warm first, then the method's own
        // picks in the order they would have been measured — and reverse.
        let mut seen = IndexSet::default();
        let mut merged = Vec::with_capacity(opts.init_points.max(1));
        for cfg in warm.iter().chain(init.iter().rev()) {
            if merged.len() >= opts.init_points.max(1) {
                break;
            }
            if seen.insert(cfg.index) {
                merged.push(cfg.clone());
            }
        }
        warm_used = merged.iter().filter(|c| warm.iter().any(|w| w.index == c.index)).count();
        merged.reverse();
        init = merged;
    }
    tel.event("init_select.done", || {
        telemetry::json!({
            "method": method.label(),
            "init_size": init.len() as u64,
            "warm_start": warm_used as u64,
        })
    });
    let mut tuner: Box<dyn Tuner> = match method {
        Method::Random => Box::new(RandomTuner::new(&space, opts.seed)),
        Method::AutoTvm | Method::Bted => Box::new(XgbTuner::new(
            &space,
            init,
            opts.gbt,
            opts.sa,
            opts.plan_size,
            opts.epsilon,
            opts.seed,
        )),
        Method::BtedBao => Box::new(BaoTuner::new(&space, init, opts.bao, opts.bao_gbt, opts.seed)),
    };
    drive_loop(task, &space, tuner.as_mut(), measurer, method, opts, hooks)
}

/// The measurement loop, shared by every method (and reusable with a custom
/// [`Tuner`] implementation).
#[allow(clippy::too_many_lines)]
pub fn drive_loop<M: Measurer>(
    task: &TuningTask,
    space: &ConfigSpace,
    tuner: &mut dyn Tuner,
    measurer: &M,
    method: Method,
    opts: &TuneOptions,
    mut hooks: TuneHooks<'_>,
) -> TaskTuneResult {
    let tel = telemetry::global();
    let _span = tel.span("drive_loop");
    let mut log = TuningLog::new(task.name.clone(), method.label());
    let mut best: Option<(Config, f64)> = None;
    let mut since_best = 0usize;
    let mut measured = 0usize;
    let mut failed = 0usize;
    let mut aborted: Option<String> = None;

    // Model-introspection capture. Pure reads of the fitted model: turning
    // it on must not perturb proposals, RNG streams, or trial-log bytes.
    let capture = opts.capture_model_or_default();
    if capture {
        tuner.set_capture(true);
    }
    let mut round = 0usize;
    // Cumulative (predicted, measured) pairs over successful trials with a
    // model opinion, for the live rank-correlation / calibration gauges.
    let mut cap_pred: Vec<f64> = Vec::new();
    let mut cap_meas: Vec<f64> = Vec::new();
    let mut cap_z_within = 0usize;
    let mut cap_z_total = 0usize;

    // Per-task progress gauges for the live dashboard, named once per task
    // and only when there is a registry to receive them.
    let progress_gauges = tel
        .is_enabled()
        .then(|| (format!("task.{}.best_gflops", task.name), format!("task.{}.trials", task.name)));

    let mut replay: &[TrialRecord] = hooks.replay.unwrap_or(&[]);
    if !replay.is_empty() {
        tel.count("tune.resume", 1);
        let replayed = replay.len() as u64;
        tel.event(
            telemetry::events::TUNE_RESUME_EVENT,
            || telemetry::json!({ "task": task.name.clone(), "replayed": replayed }),
        );
    }
    // The measurer keeps no record of failed configurations: a task
    // measures each configuration once in practice. The strategies
    // propose from outside their visited sets (BAO's random fallbacks
    // can repeat one, with negligible probability), and a resumed task's
    // replay marks every logged configuration visited.

    while measured < opts.n_trial && since_best < opts.early_stopping {
        let cap = opts.fail_rate_cap_or_default();
        if cap < 1.0 && measured >= TuneOptions::FAIL_RATE_MIN_TRIALS {
            #[allow(clippy::cast_precision_loss)]
            let rate = failed as f64 / measured as f64;
            if rate > cap {
                let diag = format!(
                    "fail-rate cap tripped: {failed}/{measured} trials failed \
                     ({rate:.2} > {cap:.2}) — aborting task"
                );
                tel.count("tune.aborted", 1);
                tel.report(|| format!("{}: {diag}", task.name));
                aborted = Some(diag);
                break;
            }
        }
        let want = tuner.preferred_batch().min(opts.batch_size).min(opts.n_trial - measured).max(1);
        let batch = tuner.next_batch(want);
        if batch.is_empty() {
            break;
        }
        // Positionally aligned with `batch`; empty when capture is off or
        // the tuner has no model (then every proposal is blind).
        let diags = if capture { tuner.take_diagnostics() } else { Vec::new() };
        // Split the proposed batch into a replayed prefix (recorded trials
        // fed back without re-measuring) and a live tail submitted as ONE
        // batch through `measure_batch` — the executor's fan-out point.
        // Per-config `measure` calls are deliberately absent here: the
        // serial default of `measure_batch` covers plain measurers.
        let mut outcomes: Vec<(f64, f64, bool)> = Vec::with_capacity(batch.len());
        for cfg in &batch {
            match replay.split_first() {
                Some((rec, rest)) if rec.config_index == cfg.index => {
                    replay = rest;
                    outcomes.push((rec.gflops, rec.latency_s, false));
                }
                Some((rec, _)) => {
                    // The proposal stream no longer matches the log
                    // (different binary or options?). Degrade gracefully:
                    // stop replaying and measure live from here.
                    let at = measured + outcomes.len();
                    tel.report(|| {
                        format!(
                            "{}: resume replay diverged at trial {at} (logged config {}, \
                             proposed {}) — continuing with live measurements",
                            task.name, rec.config_index, cfg.index
                        )
                    });
                    replay = &[];
                    break;
                }
                None => break,
            }
        }
        let live_tail = &batch[outcomes.len()..];
        if !live_tail.is_empty() {
            outcomes.extend(
                measurer
                    .measure_batch(task, space, live_tail)
                    .into_iter()
                    .map(|r| (r.gflops, r.latency_s, true)),
            );
        }
        debug_assert_eq!(outcomes.len(), batch.len());

        let mut results = Vec::with_capacity(batch.len());
        for (i, (cfg, (gflops, latency_s, live))) in batch.into_iter().zip(outcomes).enumerate() {
            if gflops <= 0.0 {
                failed += 1;
            }
            let improved = best.as_ref().is_none_or(|(_, g)| gflops > *g);
            if improved && gflops > 0.0 {
                best = Some((cfg.clone(), gflops));
                since_best = 0;
            } else {
                since_best += 1;
            }
            let best_now = best.as_ref().map_or(0.0, |(_, g)| *g);
            let record = TrialRecord {
                trial: measured,
                config_index: cfg.index,
                gflops,
                latency_s,
                best_gflops: best_now,
            };
            if live {
                tel.observe("trial.gflops", gflops);
                tel.count("tune.trials", 1);
                if let Some((best_gauge, trials_gauge)) = &progress_gauges {
                    tel.gauge(best_gauge, best_now);
                    #[allow(clippy::cast_precision_loss)]
                    tel.gauge(trials_gauge, (measured + 1) as f64);
                }
                if let Some(sink) = hooks.on_trial.as_mut() {
                    sink(&record);
                }
            }
            if capture {
                let diag = diags.get(i).copied().unwrap_or_else(|| ProposalDiag::blind(cfg.index));
                debug_assert_eq!(diag.config_index, cfg.index, "diagnostics misaligned");
                let mrec = ModelPredRecord {
                    task: task.name.clone(),
                    round,
                    trial: record.trial,
                    config_index: cfg.index,
                    predicted_mean: diag.predicted_mean,
                    predicted_std: diag.predicted_std,
                    acquisition: diag.acquisition,
                    measured_gflops: gflops,
                };
                if let Some(p) = diag.predicted_mean {
                    if gflops > 0.0 {
                        cap_pred.push(p);
                        cap_meas.push(gflops);
                        if let Some(s) = diag.predicted_std {
                            if s > 0.0 {
                                cap_z_total += 1;
                                if ((gflops - p) / s).abs() <= 1.0 {
                                    cap_z_within += 1;
                                }
                            }
                        }
                    }
                }
                if let Some(sink) = hooks.on_model.as_mut() {
                    sink(&mrec);
                }
            }
            log.records.push(record);
            measured += 1;
            results.push((cfg, gflops));
        }
        if capture && tel.is_enabled() {
            // Live-only model-quality gauges for `aaltune top`: cumulative
            // Spearman rank correlation between predictions and
            // measurements, and |coverage(|z| ≤ 1) − 0.683| calibration
            // error over trials with a predictive std.
            let _span = tel.span("capture.diagnostics");
            if cap_pred.len() >= 2 {
                tel.gauge("model.rank_corr", gbt::metrics::spearman(&cap_pred, &cap_meas));
            }
            if cap_z_total > 0 {
                #[allow(clippy::cast_precision_loss)]
                let coverage = cap_z_within as f64 / cap_z_total as f64;
                tel.gauge("model.calibration", (coverage - 0.683).abs());
            }
        }
        round += 1;
        {
            let _update = tel.span("tuner.update");
            tuner.update(&results);
        }
    }

    let (best_config, best_gflops) = match best {
        Some((c, g)) => (Some(c), g),
        None => (None, 0.0),
    };
    tel.count("tune.tasks_completed", 1);
    TaskTuneResult {
        task_name: task.name.clone(),
        method,
        best_config,
        best_gflops,
        num_measured: measured,
        log,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_graph::{models, task::extract_tasks};
    use gpu_sim::{GpuDevice, SimMeasurer};

    fn measurer() -> SimMeasurer {
        SimMeasurer::new(GpuDevice::gtx_1080_ti())
    }

    fn task(idx: usize) -> TuningTask {
        extract_tasks(&models::mobilenet_v1(1)).remove(idx)
    }

    #[test]
    fn all_methods_produce_a_valid_best() {
        let t = task(0);
        let m = measurer();
        let opts = TuneOptions::smoke();
        for method in [Method::Random, Method::AutoTvm, Method::Bted, Method::BtedBao] {
            let r = tune_task(&t, &m, method, &opts);
            assert!(r.best_gflops > 0.0, "{method} found nothing");
            assert!(r.best_config.is_some());
            assert!(r.num_measured <= opts.n_trial);
            assert_eq!(r.log.num_measured(), r.num_measured);
        }
    }

    #[test]
    fn convergence_curve_is_monotone() {
        let t = task(1);
        let r = tune_task(&t, &measurer(), Method::BtedBao, &TuneOptions::smoke());
        let curve = r.log.convergence_curve();
        for w in curve.windows(2) {
            assert!(w[1] >= w[0], "best-so-far must be monotone");
        }
    }

    #[test]
    fn early_stopping_caps_measurements() {
        let t = task(0);
        let opts = TuneOptions { n_trial: 10_000, early_stopping: 24, ..TuneOptions::smoke() };
        let r = tune_task(&t, &measurer(), Method::Random, &opts);
        assert!(r.num_measured < 10_000, "early stopping must trigger");
    }

    #[test]
    fn deterministic_given_seed() {
        let t = task(2);
        let m = measurer();
        let opts = TuneOptions::smoke();
        let a = tune_task(&t, &m, Method::BtedBao, &opts);
        let b = tune_task(&t, &m, Method::BtedBao, &opts);
        assert_eq!(a.best_gflops, b.best_gflops);
        assert_eq!(a.log, b.log);
    }

    #[test]
    fn replaying_a_prefix_reproduces_the_uninterrupted_run() {
        let t = task(2);
        let m = measurer();
        let opts = TuneOptions::smoke();
        let full = tune_task(&t, &m, Method::BtedBao, &opts);
        assert!(full.log.records.len() > 10);

        // Resume from a mid-run prefix: the continued log must equal the
        // uninterrupted one exactly (same trials, same floats).
        for cut in [1, full.log.records.len() / 2, full.log.records.len()] {
            let prefix = &full.log.records[..cut];
            let resumed = tune_task_with(
                &t,
                &m,
                Method::BtedBao,
                &opts,
                TuneHooks { replay: Some(prefix), ..TuneHooks::default() },
            );
            assert_eq!(resumed.log, full.log, "cut at {cut} diverged");
            assert_eq!(resumed.best_gflops, full.best_gflops);
        }
    }

    #[test]
    fn on_trial_sink_sees_only_live_trials() {
        let t = task(0);
        let m = measurer();
        let opts = TuneOptions::smoke();
        let full = tune_task(&t, &m, Method::Bted, &opts);
        let cut = full.log.records.len() / 2;
        let mut seen = Vec::new();
        let mut sink = |r: &TrialRecord| seen.push(r.clone());
        let resumed = tune_task_with(
            &t,
            &m,
            Method::Bted,
            &opts,
            TuneHooks {
                on_trial: Some(&mut sink),
                replay: Some(&full.log.records[..cut]),
                ..TuneHooks::default()
            },
        );
        assert_eq!(resumed.log, full.log);
        assert_eq!(seen, full.log.records[cut..], "sink must see exactly the live tail");
    }

    /// Tunes with capture on, collecting the model records.
    fn tune_captured(
        t: &TuningTask,
        m: &SimMeasurer,
        method: Method,
        opts: &TuneOptions,
        replay: Option<&[TrialRecord]>,
    ) -> (TaskTuneResult, Vec<ModelPredRecord>) {
        let mut records = Vec::new();
        let mut sink = |r: &ModelPredRecord| records.push(r.clone());
        let result = tune_task_with(
            t,
            m,
            method,
            opts,
            TuneHooks { on_model: Some(&mut sink), replay, ..TuneHooks::default() },
        );
        (result, records)
    }

    #[test]
    fn capture_leaves_trial_logs_byte_identical() {
        let t = task(1);
        let m = measurer();
        let plain_opts = TuneOptions::smoke();
        let cap_opts = TuneOptions { capture_model: Some(true), ..plain_opts };
        for method in [Method::AutoTvm, Method::BtedBao] {
            let plain = tune_task(&t, &m, method, &plain_opts);
            let (captured, records) = tune_captured(&t, &m, method, &cap_opts, None);
            assert_eq!(plain.log, captured.log, "{method}: capture perturbed the loop");
            let plain_bytes = serde_json::to_string(&plain.log).unwrap();
            let cap_bytes = serde_json::to_string(&captured.log).unwrap();
            assert_eq!(plain_bytes, cap_bytes, "{method}: log bytes differ");
            // One model record per trial, aligned with the trial log.
            assert_eq!(records.len(), captured.log.records.len());
            for (mr, tr) in records.iter().zip(&captured.log.records) {
                assert_eq!(mr.trial, tr.trial);
                assert_eq!(mr.config_index, tr.config_index);
                assert_eq!(mr.measured_gflops, tr.gflops);
            }
            // Past initialization the model must actually have opinions.
            assert!(
                records.iter().any(|r| r.predicted_mean.is_some()),
                "{method}: no model opinions captured"
            );
            // Blind proposals never fabricate an opinion.
            let init = &records[..plain_opts.init_points.min(records.len())];
            assert!(init.iter().all(|r| r.predicted_mean.is_none()));
        }
    }

    #[test]
    fn capture_disabled_never_calls_the_model_sink() {
        let t = task(0);
        let (_, records) =
            tune_captured(&t, &measurer(), Method::Bted, &TuneOptions::smoke(), None);
        assert!(records.is_empty(), "capture off must be zero-cost: no records");
    }

    #[test]
    fn resumed_runs_rebuild_identical_model_records() {
        let t = task(2);
        let m = measurer();
        let opts = TuneOptions { capture_model: Some(true), ..TuneOptions::smoke() };
        let (full, full_records) = tune_captured(&t, &m, Method::BtedBao, &opts, None);
        assert!(full_records.len() > 10);
        let cut = full.log.records.len() / 2;
        let (resumed, resumed_records) =
            tune_captured(&t, &m, Method::BtedBao, &opts, Some(&full.log.records[..cut]));
        assert_eq!(resumed.log, full.log);
        // Replay recomputes diagnostics deterministically: the resumed
        // stream equals the uninterrupted one for replayed AND live trials.
        assert_eq!(resumed_records, full_records);
    }

    #[test]
    fn warm_start_configs_are_measured_first_and_replay_stays_exact() {
        let t = task(1);
        let m = measurer();
        let opts = TuneOptions::smoke();
        // Seed with three distinct configs (one duplicated: must dedup).
        let space = space_for_task(&t);
        let warm: Vec<Config> =
            [7u64, 3, 7, 11].iter().map(|&i| space.config(i % space.len()).unwrap()).collect();
        let r = tune_task_with(
            &t,
            &m,
            Method::Bted,
            &opts,
            TuneHooks { warm_start: Some(&warm), ..TuneHooks::default() },
        );
        let measured: Vec<u64> = r.log.records.iter().map(|rec| rec.config_index).collect();
        assert_eq!(&measured[..3], &[7, 3, 11], "warm configs lead, deduplicated");
        assert!(r.num_measured <= opts.n_trial, "budget unchanged by warm start");

        // A warm run resumes exactly like a cold one: replaying a prefix
        // with the same warm slice reproduces the identical log.
        let cut = r.log.records.len() / 2;
        let resumed = tune_task_with(
            &t,
            &m,
            Method::Bted,
            &opts,
            TuneHooks {
                warm_start: Some(&warm),
                replay: Some(&r.log.records[..cut]),
                ..TuneHooks::default()
            },
        );
        assert_eq!(resumed.log, r.log);

        // Without warm start the run differs (the seeding is real).
        let cold = tune_task(&t, &m, Method::Bted, &opts);
        assert_ne!(cold.log.records[0].config_index, 7);
    }

    #[test]
    fn fail_rate_cap_aborts_with_a_diagnostic() {
        struct AlwaysFails;
        impl Measurer for AlwaysFails {
            fn measure(
                &self,
                _t: &TuningTask,
                _s: &ConfigSpace,
                _c: &Config,
            ) -> gpu_sim::MeasureResult {
                gpu_sim::MeasureResult::failed(gpu_sim::MeasureError::new(
                    gpu_sim::MeasureErrorKind::LaunchCrash,
                    "boom",
                ))
            }
        }
        let t = task(0);
        let opts = TuneOptions {
            fail_rate_cap: Some(0.9),
            n_trial: 4096,
            early_stopping: 4096,
            ..TuneOptions::smoke()
        };
        let r = tune_task(&t, &AlwaysFails, Method::Random, &opts);
        let diag = r.aborted.expect("cap must trip when everything fails");
        assert!(diag.contains("fail-rate cap"), "{diag}");
        assert!(r.num_measured >= TuneOptions::FAIL_RATE_MIN_TRIALS);
        assert!(r.num_measured < 4096, "must abort well before the budget");
        assert!(r.best_config.is_none());

        // Disabled cap (default): same measurer burns the early-stopping
        // budget instead but completes without an abort diagnostic.
        let opts = TuneOptions { n_trial: 128, early_stopping: 128, ..TuneOptions::smoke() };
        let r = tune_task(&t, &AlwaysFails, Method::Random, &opts);
        assert!(r.aborted.is_none());
    }

    /// Tunes `method` under a 30%-fault retrying measurer and checks the
    /// invariant that makes a measurer-side crash memory unnecessary: no
    /// configuration is measured twice in one task.
    fn measures_each_config_once_under_faults(method: Method) {
        use gpu_sim::{FaultConfig, FaultInjectingMeasurer, RetryPolicy, RobustMeasurer};
        let t = task(1);
        let m = RobustMeasurer::new(
            FaultInjectingMeasurer::new(measurer(), FaultConfig { rate: 0.3, seed: 5 }),
            RetryPolicy::default(),
        );
        let r = tune_task(&t, &m, method, &TuneOptions::smoke());
        assert!(r.best_gflops > 0.0, "{method}: tuning must survive 30% faults");
        let mut seen = std::collections::HashSet::new();
        for rec in &r.log.records {
            assert!(
                seen.insert(rec.config_index),
                "{method}: config {} measured twice",
                rec.config_index
            );
        }
        assert!(r.log.records.iter().any(|rec| rec.gflops == 0.0), "{method}: expected failures");
    }

    #[test]
    fn no_config_is_measured_twice_in_a_task_under_faults() {
        for method in [Method::Random, Method::AutoTvm, Method::Bted, Method::BtedBao] {
            measures_each_config_once_under_faults(method);
        }
    }

    #[test]
    fn model_guided_methods_beat_random_on_average() {
        let t = task(3);
        let m = measurer();
        let mut rand_best = 0.0;
        let mut bao_best = 0.0;
        for seed in 0..3 {
            let opts = TuneOptions { seed, ..TuneOptions::smoke() };
            rand_best += tune_task(&t, &m, Method::Random, &opts).best_gflops;
            bao_best += tune_task(&t, &m, Method::BtedBao, &opts).best_gflops;
        }
        assert!(
            bao_best > rand_best * 0.95,
            "bted+bao {bao_best} should not lose badly to random {rand_best}"
        );
    }
}
