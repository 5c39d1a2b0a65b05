//! The two tuning workloads: `aaltune tune --out` driven as a user runs
//! it, and (traced run) the same tuning in-process with every layer
//! probed.

use crate::checks;
use crate::layers::{Probes, SpanSink, TimedBatches, TimedSim, TimedSink};
use crate::proc::{self, Env};
use crate::report::LayerReport;
use crate::stats::{geomean, Summary};
use crate::traced;
use crate::{Args, Outcome};
use active_learning::{RunDir, TuningLog};
use dnn_graph::task::{extract_tasks, TuningTask};
use executor::{run_ordered, Executor, ExecutorConfig};
use gpu_sim::{
    FaultConfig, FaultInjectingMeasurer, GpuDevice, RetryPolicy, RobustMeasurer, SimMeasurer,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One tuning workload: a fixed `aaltune tune` command line.
#[derive(Debug, Clone, Copy)]
pub struct TuneWorkload {
    pub method: &'static str,
    /// Tasks tuned one invocation each, or `None` for the whole model in
    /// one invocation.
    pub tasks: Option<&'static [usize]>,
    pub n_trial: usize,
    pub workers: usize,
}

/// The paper's method on the serial path: 512 trials get past the 64
/// BTED initial points and fill BAO's 384-row fit window.
pub const BAO_SERIAL: TuneWorkload =
    TuneWorkload { method: "bted+bao", tasks: Some(&[0, 1, 2]), n_trial: 512, workers: 1 };

/// The AutoTVM baseline over the whole model, two tasks at a time.
pub const AUTOTVM_MODEL: TuneWorkload =
    TuneWorkload { method: "autotvm", tasks: None, n_trial: 1024, workers: 2 };

const MODEL: &str = "mobilenet_v1";
/// Spawn-to-first-task probes before every invocation, so `setup_s` is a
/// median over many set-ups even when a run holds few invocations. A
/// set-up takes milliseconds and its time drifts with the host's
/// scheduling from one moment to the next: a median over probes spread
/// across the whole run varies less from run to run than the fastest, or
/// than probes taken all at once.
const SETUP_PROBES: usize = 8;
impl TuneWorkload {
    fn invocations(&self) -> Vec<Option<usize>> {
        self.tasks.map_or_else(|| vec![None], |ts| ts.iter().copied().map(Some).collect())
    }

    fn args(&self, task: Option<usize>, seed: u64, out: &Path) -> Vec<String> {
        let mut a: Vec<String> = vec![
            "tune".into(),
            MODEL.into(),
            "--method".into(),
            self.method.into(),
            "--workers".into(),
            self.workers.to_string(),
            "--n-trial".into(),
            self.n_trial.to_string(),
            "--seed".into(),
            seed.to_string(),
            "--out".into(),
            out.display().to_string(),
            "--quiet".into(),
        ];
        if let Some(t) = task {
            a.extend(["--task".to_string(), t.to_string()]);
        }
        a
    }

    fn run_dir(&self, out: &Path, seed: u64) -> PathBuf {
        out.join(format!("{MODEL}-{}-seed{seed}", self.method))
    }
}

/// One repetition of the workload's command lines.
struct Rep {
    logs: BTreeMap<String, Vec<u8>>,
    walls: Vec<f64>,
    dirs: Vec<PathBuf>,
}

#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    peak_kib: u64,
}

fn invoke(
    env: &Env,
    w: &TuneWorkload,
    task: Option<usize>,
    seed: u64,
    out: &Path,
    probe: bool,
    samples: &mut Samples,
) -> Result<proc::Watched, String> {
    let logs = w.run_dir(out, seed).join("logs");
    let watched = proc::run_watched(
        &mut env.aaltune(&w.args(task, seed, out)),
        &|| proc::has_entry(&logs),
        probe,
    )?;
    samples.setup.push(watched.setup_s.ok_or("aaltune tune exited before its first task")?);
    samples.peak_kib = samples.peak_kib.max(watched.peak_rss_kib);
    if !probe && !watched.success {
        return Err(format!("aaltune {} failed", w.args(task, seed, out).join(" ")));
    }
    Ok(watched)
}

fn rep(
    env: &Env,
    w: &TuneWorkload,
    seed: u64,
    name: &str,
    probes: usize,
    samples: &mut Samples,
) -> Result<Rep, String> {
    let mut r = Rep { logs: BTreeMap::new(), walls: Vec::new(), dirs: Vec::new() };
    for task in w.invocations() {
        for _ in 0..probes {
            let dir = env.work.join("probe");
            invoke(env, w, task, seed, &dir, true, samples)?;
            let _ = std::fs::remove_dir_all(&dir);
        }
        let out =
            env.work.join(format!("{name}-{}", task.map_or("all".into(), |t| format!("t{t}"))));
        r.walls.push(invoke(env, w, task, seed, &out, false, samples)?.wall_s);
        let dir = w.run_dir(&out, seed);
        r.logs.extend(checks::read_logs(&dir)?);
        r.dirs.push(dir);
    }
    Ok(r)
}

/// Runs the workload and reports its metrics.
pub fn run(env: &Env, w: &TuneWorkload, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tasks = extract_tasks(&dnn_graph::models::mobilenet_v1(1));
    let mut samples = Samples::default();
    let start = Instant::now();
    let probes = if args.trace { 0 } else { SETUP_PROBES };
    let mut reps = Vec::new();
    loop {
        let name = format!("rep{}", reps.len());
        reps.push(rep(env, w, args.seed, &name, probes, &mut samples)?);
        if args.trace || (reps.len() >= 2 && start.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }

    // Output checks: identical logs across repetitions, and every log of
    // the first one keeps a running maximum and re-measures identically.
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        out.check(checks::same_logs(&format!("repetition {i}"), &first.logs, &r.logs));
    }
    let expected = w.tasks.map_or(tasks.len(), <[usize]>::len);
    if first.logs.len() != expected {
        out.check(Err(format!("{} trial logs, expected {expected}", first.logs.len())));
    }
    let mut logs = Vec::new();
    for (name, bytes) in &first.logs {
        let log = checks::parse_log(name, bytes)?;
        let task = task_named(&tasks, &log.task_name)?;
        out.check(checks::running_max(&log));
        out.check(checks::remeasure(&log, task, GpuDevice::gtx_1080_ti()));
        logs.push(log);
    }
    let trials: usize = logs.iter().map(|l| l.records.len()).sum();
    out.attempted += (reps.len() * w.invocations().len()) as u64;

    if !args.trace {
        // Host contention only ever slows a run down, so each command
        // line's time is its fastest repetition.
        let fastest: Vec<f64> = (0..first.walls.len())
            .map(|i| reps.iter().map(|r| r.walls[i]).fold(f64::INFINITY, f64::min))
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let trials_per_s = trials as f64 / fastest.iter().sum::<f64>();
        let best: Vec<f64> = logs.iter().map(TuningLog::best_gflops).collect();
        out.metric("trials_per_s", trials_per_s, "1/s");
        out.metric("best_gflops_geomean", geomean(&best).unwrap_or(0.0), "GFLOPS");
        out.metric("setup_s", Summary::new(samples.setup).p50(), "s");
        #[allow(clippy::cast_precision_loss)]
        out.metric("peak_rss_mb", samples.peak_kib as f64 / 1024.0, "MB");
        // One tuning job is the workload's command lines run back to back.
        out.metric("job_wall_p50_s", fastest.iter().sum::<f64>(), "s");
        eprintln!("{} repetitions, {trials} trials each", reps.len());
        return Ok(out);
    }

    // Traced run: the same tuning in-process with every layer probed.
    let mut layers =
        LayerReport { untraced_wall_s: first.walls.iter().sum(), ..LayerReport::default() };
    #[allow(clippy::cast_precision_loss)]
    {
        layers.bytes_per_trial =
            first.dirs.iter().map(|d| traced::dir_bytes(d)).sum::<u64>() as f64 / trials as f64;
    }
    let traced_dir = env.work.join("traced");
    let t = Instant::now();
    layers.task_busy_s = traced_tune(w, &first.dirs[0], &traced_dir, &layers.probes)?;
    layers.traced_wall_s = t.elapsed().as_secs_f64();
    out.check(checks::same_logs(
        "traced vs untraced",
        &first.logs,
        &checks::read_logs(&traced_dir)?,
    ));

    eprint!("{}", layers.table());
    for (name, value, unit) in layers.metrics() {
        out.metric(name, value, unit);
    }
    Ok(out)
}

fn task_named<'t>(tasks: &'t [TuningTask], name: &str) -> Result<&'t TuningTask, String> {
    tasks.iter().find(|t| t.name == name).ok_or_else(|| format!("unknown task {name}"))
}

/// Tunes the workload's tasks in-process with the options the CLI run
/// recorded in its manifest, through the CLI's measurement stack, every
/// layer probed. Logs go to `out`. Returns the summed per-task seconds.
fn traced_tune(
    w: &TuneWorkload,
    cli_run: &Path,
    out: &Path,
    probes: &Arc<Probes>,
) -> Result<f64, String> {
    let manifest = RunDir::create(cli_run)
        .and_then(|d| d.read_manifest().map_err(|e| std::io::Error::other(e.to_string())))
        .map_err(|e| format!("cannot read the CLI manifest: {e}"))?;
    let method = traced::method_of(&manifest.method)?;
    let opts = manifest.options;
    let out = RunDir::create(out).map_err(|e| format!("cannot create the traced run dir: {e}"))?;

    // Telemetry as the CLI sets it up for `--out` — a trace file and a
    // live registry — plus the span sink.
    let trace = telemetry::FileSink::create(out.trace_path())
        .map_err(|e| format!("cannot create the traced trace file: {e}"))?;
    let sink = telemetry::TeeSink::new()
        .with(SpanSink(Arc::clone(probes)))
        .with(TimedSink { inner: trace, probes: Arc::clone(probes) });
    let tel =
        telemetry::Telemetry::with_registry(sink, Arc::new(telemetry::MetricsRegistry::new()));
    telemetry::set_global(tel.clone());
    let tasks =
        Probes::time(&probes.extract, 1, || extract_tasks(&dnn_graph::models::mobilenet_v1(1)));
    let selected: Vec<usize> =
        w.tasks.map_or_else(|| (0..tasks.len()).collect(), <[usize]>::to_vec);
    let policy = RetryPolicy {
        max_retries: opts.max_retries_or_default(),
        trial_timeout_ms: opts.trial_timeout_ms.unwrap_or(0.0),
        ..RetryPolicy::default()
    };
    let sim =
        TimedSim { inner: SimMeasurer::new(GpuDevice::gtx_1080_ti()), probes: Arc::clone(probes) };
    let robust = RobustMeasurer::new(FaultInjectingMeasurer::new(sim, FaultConfig::off()), policy);
    let config = ExecutorConfig::for_workers(w.workers).with_devices(w.workers);
    let measurer =
        TimedBatches { inner: Executor::new(robust, config), probes: Arc::clone(probes) };
    let concurrency = w.workers.min(selected.len()).max(1);
    let io = traced::RunIo::default();
    let results = run_ordered(selected, concurrency, |_, i| {
        traced::traced_task(&tasks[i], method, &opts, &measurer, &out, &io, probes)
    });
    drop(measurer);
    tel.flush();
    telemetry::set_global(telemetry::Telemetry::disabled());
    results.into_iter().sum()
}
