//! CLI subcommands.

use crate::opts::Cli;
use active_learning::{
    device_by_name, method_by_name, model_by_name, read_capture, tune_model_parallel, DbPolicy,
    DbProvenance, Run, RunDir, Session, SessionDb, TuneOptions, MANIFEST_SCHEMA_VERSION,
    MODEL_QUALITY_FILE,
};
use dnn_graph::task::extract_tasks;
use executor::{Executor, ExecutorConfig};
use gpu_sim::{FaultConfig, SimMeasurer};
use schedule::template::space_for_task;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;
use telemetry::durable;
use trace_analysis::{
    compare_logs, compare_run_dirs, render_report, CompareOptions, LoadedRun, Registry, RunEntry,
    Verdict,
};
use tuning_db::{LockOptions, TuningDb};

/// Exit code for a gated regression (`compare --fail-on-regress`): distinct
/// from 1, which `main` uses for usage/runtime errors.
pub const EXIT_REGRESSED: u8 = 2;

/// Usage text, carried by the error of a malformed command line.
const USAGE: &str = "\
usage:
  aaltune tasks   <model>
  aaltune dot     <model> [--fused true]
  aaltune devices
  aaltune tune    <model> [--task N] [--method M] [--n-trial N] [--seed S]
                          [--device D] [--log FILE] [--out DIR]
                          [--workers N] [--devices M] [--batch-size K]
                          [--device-ms T]
                          [--fault-rate P] [--fault-seed S] [--max-retries R]
                          [--trial-timeout-ms T] [--max-fail-rate F]
                          [--snapshot-interval-ms T] [--no-capture-model]
                          [--db DIR] [--db-policy serve|warm]
                          [--trace FILE] [--quiet] [--json]
  aaltune tune    --resume RUN_DIR [--workers N] [--devices M] [--quiet] [--json]
  aaltune db      <stats|fsck|export> <DB> [--repair]
  aaltune top     RUN_DIR [--refresh-ms T] [--once] [--check]
  aaltune explain RUN_DIR
  aaltune deploy  <model> [--method M] [--n-trial N] [--runs R] [--seed S]
                          [--workers N] [--device D] [--trace FILE]
                          [--quiet] [--json]
  aaltune trace   <trace.jsonl>
  aaltune runs    [DIR] [--model M] [--method M] [--kind K]
  aaltune compare <BASE_RUN> <CAND_RUN> [--alpha A] [--resamples N]
                          [--min-effect PCT] [--boot-seed S] [--fail-on-regress]
  aaltune report  <RUN> [BASELINE] [--html FILE] [--alpha A] [--resamples N]
                          [--min-effect PCT] [--boot-seed S]
  aaltune serve   [--root DIR] [--addr H:P] [--http-workers N] [--job-workers N]
                          [--devices M] [--exec-workers N] [--device-ms T]
                          [--backlog B] [--tenant-devices Q]
                          [--db DIR] [--snapshot-interval-ms T] [--quiet]
  aaltune client  <submit|status|result|events|best|shutdown> [ID]
                          [--root DIR | --addr H:P] [--tenant T] [--model M]
                          [--task N] [--method M] [--n-trial N] [--seed S]
                          [--device D] [--priority P] [--wait]
models:  alexnet resnet18 resnet34 vgg16 vgg19 mobilenet_v1 squeezenet_v1.1
methods: random autotvm bted bted+bao (default)
devices: gtx1080ti (default) v100 jetson
tracing: --trace writes a JSONL telemetry trace (`aaltune trace` summarizes
         it); --out creates a per-run results dir with manifest, logs, and
         trace, and registers the run in DIR/index.jsonl
faults:  --fault-rate injects deterministic measurement faults (seeded by
         --fault-seed); transient faults are retried up to --max-retries,
         persistent crashers fail on their one attempt (zero GFLOPS, no
         retry), and a task aborts once more than --max-fail-rate of its
         trials fail. Runs with --out are crash-safe: kill the process
         and continue with `tune --resume`
parallel: --workers runs measurements on up to N threads (no more than the
         CPUs in use unless --device-ms is set) over M simulated device
         slots (--devices, default N) with --batch-size proposals per
         round; results are re-sequenced by submission index, so trial logs
         are byte-identical to --workers 1 for the same seed. --device-ms
         emulates per-measurement device occupancy (real time per lease)
analysis: `runs` lists the registry (DIR defaults to ./runs); `compare`
         bootstraps per-task deltas between two run dirs and exits 2 on a
         gated regression; `report` writes a self-contained HTML report
live:    a run with --out publishes metrics.snapshot.json and metrics.prom
         into its run dir every --snapshot-interval-ms (default 1000; 0
         disables) — `top` renders them as a refreshing dashboard (--once
         for a single plain frame, --check to validate the files in CI).
         Snapshots never change trial logs: byte-identical on or off
database: --db opens a crash-safe on-disk store of the best configurations
         per task (keyed by op, shapes, knob space, and device). An exact
         hit is served with one verifying measurement (--db-policy serve,
         default) or warm-starts the initial set (warm); a miss warm-starts
         from nearest-neighbor tasks. Completed tasks are folded back in.
         `db stats` summarizes a store, `db fsck` checks every record
         (exit 1 when committed data is unreadable; --repair quarantines
         corrupt lines and rebuilds the index), `db export` dumps records
         as JSONL
insight: `tune` records the surrogate's per-proposal predictions into
         RUN_DIR/model_quality.jsonl (off with --no-capture-model; capture
         never changes trial logs). `explain RUN_DIR` prints per-round rank
         correlation, top-k recall, calibration error, and regret, with a
         trust verdict; `report` adds a Model quality panel; `compare
         --fail-on-regress` also gates on rank-correlation drops when both
         runs captured
serving: `serve` runs a long-lived tuning server: POST /jobs queues tuning
         jobs per tenant (fair-share scheduling, per-tenant --backlog and
         --tenant-devices quotas), GET /best answers from the tuning
         database without touching the tuning loop, and GET /jobs/ID/events
         streams progress. Jobs and their progress are journaled: kill the
         server and restart it on the same --root, and the queue resumes
         with byte-identical trial logs. `top ROOT` watches a live server;
         `client` is the matching command-line client (--root reads the
         published address from ROOT/serve.addr; submit --wait follows the
         job's event stream to its end and prints its result)";

/// Parses and runs one invocation, returning the process exit code
/// (0 = success, [`EXIT_REGRESSED`] = gated regression).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, names, or values.
/// Only a command line that does not parse, or names no known command,
/// carries the usage text; a failing command reports its error alone.
pub fn dispatch(args: &[String]) -> Result<u8, String> {
    let usage = |e: String| format!("{e}\n\n{USAGE}");
    let cli = Cli::parse(args).map_err(usage)?;
    match cli.positional.first().map(String::as_str) {
        Some("tasks") => tasks(&cli).map(|()| 0),
        Some("dot") => dot(&cli).map(|()| 0),
        Some("devices") => devices().map(|()| 0),
        Some("tune") => tune(&cli).map(|()| 0),
        Some("db") => db_cmd(&cli),
        Some("top") => crate::top::top(&cli).map(|()| 0),
        Some("explain") => explain(&cli).map(|()| 0),
        Some("deploy") => deploy(&cli).map(|()| 0),
        Some("trace") => trace(&cli).map(|()| 0),
        Some("runs") => runs(&cli).map(|()| 0),
        Some("compare") => compare(&cli),
        Some("report") => report(&cli).map(|()| 0),
        Some("serve") => serve_cmd(&cli).map(|()| 0),
        Some("client") => client_cmd(&cli),
        Some(other) => Err(usage(format!("unknown command `{other}`"))),
        None => Err(usage("no command given".to_string())),
    }
}

/// Installs the global telemetry pipeline from `--trace`/`--quiet`/`--json`.
fn install_telemetry(cli: &Cli) -> Result<telemetry::Telemetry, String> {
    telemetry::install_pipeline(
        cli.flag_str("trace").map(Path::new),
        cli.flag_present("quiet"),
        cli.flag_present("json"),
        false,
    )
    .map_err(|e| format!("cannot create trace file: {e}"))
}

/// The installed pipeline, flushed into its trace and uninstalled when
/// dropped. The global handle lives in a static and is never dropped
/// itself, so without this a command's early return would lose the final
/// counter snapshot and the buffered tail of the trace.
struct TelemetryGuard {
    tel: telemetry::Telemetry,
    /// Whether [`TelemetryGuard::flush`] already wrote the final snapshot.
    flushed: bool,
}

impl TelemetryGuard {
    fn new(tel: telemetry::Telemetry) -> Self {
        TelemetryGuard { tel, flushed: false }
    }

    /// Writes the final counter and histogram snapshot into the trace now,
    /// for a reader that needs it before the command returns. The drop then
    /// flushes only the records written since, so the snapshot appears once.
    fn flush(&mut self) {
        self.tel.flush();
        self.flushed = true;
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if self.flushed {
            self.tel.flush_sink();
        } else {
            self.tel.flush();
        }
        telemetry::set_global(telemetry::Telemetry::disabled());
    }
}

fn model_arg(cli: &Cli) -> Result<dnn_graph::Graph, String> {
    let name = cli.positional.get(1).ok_or("missing <model> argument")?;
    model_by_name(name)
}

/// Optional typed flag: absent flags stay `None` instead of defaulting.
fn opt_flag<T: std::str::FromStr>(cli: &Cli, name: &str) -> Result<Option<T>, String> {
    cli.flag_str(name)
        .map(|v| v.parse().map_err(|_| format!("invalid value for --{name}: `{v}`")))
        .transpose()
}

/// `base` with the option flags the command line names applied.
fn options(cli: &Cli, base: TuneOptions) -> Result<TuneOptions, String> {
    Ok(TuneOptions {
        batch_size: cli.flag("batch-size", base.batch_size)?,
        max_retries: opt_flag(cli, "max-retries")?,
        trial_timeout_ms: opt_flag(cli, "trial-timeout-ms")?,
        fail_rate_cap: opt_flag(cli, "max-fail-rate")?,
        ..base
    })
}

fn measurer(cli: &Cli) -> Result<SimMeasurer, String> {
    let device = device_by_name(cli.flag_str("device").unwrap_or("gtx1080ti"))?;
    Ok(SimMeasurer::new(device))
}

fn tasks(cli: &Cli) -> Result<(), String> {
    let model = model_arg(cli)?;
    let tasks = extract_tasks(&model);
    outln!("{}: {} tuning tasks", model.name, tasks.len())?;
    for t in &tasks {
        let space = space_for_task(t);
        outln!("  {:<18} {:>14} configs   {}", t.name, space.len(), t.workload)?;
    }
    Ok(())
}

fn dot(cli: &Cli) -> Result<(), String> {
    let model = model_arg(cli)?;
    let fused: bool = cli.flag("fused", false)?;
    if fused {
        let groups = dnn_graph::fusion::fuse(&model);
        out!("{}", dnn_graph::dot::to_dot_fused(&model, &groups))?;
    } else {
        out!("{}", dnn_graph::dot::to_dot(&model))?;
    }
    Ok(())
}

fn devices() -> Result<(), String> {
    for d in [
        gpu_sim::GpuDevice::gtx_1080_ti(),
        gpu_sim::GpuDevice::tesla_v100(),
        gpu_sim::GpuDevice::jetson_tx2(),
    ] {
        outln!(
            "{:<14} {:>3} SMs  {:>6.1} GB/s  {:>5.1} TFLOPS",
            d.name,
            d.num_sms,
            d.dram_bw_gbps,
            d.peak_flops() / 1e12
        )?;
    }
    Ok(())
}

/// Everything `tune` needs to run: the run its manifest describes, fresh
/// from the command line or read back from a run directory (`--resume`).
struct TunePlan {
    run: Run,
    run_dir: Option<RunDir>,
    /// Where the run registry lives (the parent of the run directory).
    registry_base: Option<PathBuf>,
    resume: bool,
    /// Tasks `progress.jsonl` lists as complete (none when fresh).
    completed: Vec<String>,
}

impl TunePlan {
    /// The shared fresh run, with what the command line's flags name set
    /// on its manifest.
    fn fresh(cli: &Cli) -> Result<TunePlan, String> {
        let mut run = Run::fresh(
            cli.positional.get(1).ok_or("missing <model> argument")?,
            cli.flag_str("method").unwrap_or("bted+bao"),
            opt_flag(cli, "task")?,
            cli.flag("n-trial", 512)?,
            cli.flag("seed", 0)?,
        )?;
        let m = &mut run.manifest;
        m.options = options(cli, m.options)?;
        if cli.flag_present("no-capture-model") {
            m.options.capture_model = Some(false);
        }
        if let Some(device) = cli.flag_str("device") {
            m.device = Some(device.to_string());
        }
        let fault =
            FaultConfig { rate: cli.flag("fault-rate", 0.0)?, seed: cli.flag("fault-seed", 0)? };
        if !(0.0..=1.0).contains(&fault.rate) {
            return Err(format!("--fault-rate {} out of range [0, 1]", fault.rate));
        }
        m.fault = (!fault.is_off()).then_some(fault);
        m.db = match cli.flag_str("db") {
            Some(path) => Some(DbProvenance {
                path: path.to_string(),
                policy: DbPolicy::parse(cli.flag_str("db-policy").unwrap_or("serve"))?
                    .label()
                    .to_string(),
            }),
            None if cli.flag_str("db-policy").is_some() => {
                return Err("--db-policy requires --db".to_string())
            }
            None => None,
        };
        let run_dir = cli
            .flag_str("out")
            .map(|base| {
                let name = format!("{}-{}-seed{}", m.model, run.method, m.seed);
                RunDir::create(Path::new(base).join(name))
                    .map_err(|e| format!("cannot create run directory: {e}"))
            })
            .transpose()?;
        Ok(TunePlan {
            run,
            run_dir,
            registry_base: cli.flag_str("out").map(PathBuf::from),
            resume: false,
            completed: Vec::new(),
        })
    }

    /// The plan of a killed run: model, method, options, device, fault
    /// stream and database all come from its manifest, so the continued
    /// run is the same experiment.
    fn resume(path: &Path) -> Result<TunePlan, String> {
        let dir = RunDir::open(path).map_err(|e| format!("cannot resume: {e}"))?;
        let run = Run::open(&dir).map_err(|e| format!("cannot resume {}: {e}", path.display()))?;
        let completed = dir
            .recover_progress()
            .map_err(|e| format!("bad progress journal in {}: {e}", path.display()))?
            .unwrap_or_default();
        Ok(TunePlan {
            run,
            registry_base: path.parent().map(Path::to_path_buf),
            run_dir: Some(dir),
            resume: true,
            completed,
        })
    }
}

fn tune(cli: &Cli) -> Result<(), String> {
    // aal-lint: allow(wall-clock, reason = "elapsed time reported to the user and run registry; not a tuning input")
    let started = std::time::Instant::now();
    let mut plan = match cli.flag_str("resume") {
        Some(p) => TunePlan::resume(Path::new(p))?,
        None => TunePlan::fresh(cli)?,
    };
    // Worker and device counts never change results, only wall time, so
    // they are free to change on resume.
    let manifest = &mut plan.run.manifest;
    let workers = opt_flag(cli, "workers")?.or(manifest.workers).unwrap_or(1);
    let devices = match opt_flag(cli, "devices")? {
        Some(d) => d,
        None if plan.resume => manifest.devices.unwrap_or(1),
        None => workers.max(1),
    };
    if workers == 0 || devices == 0 {
        return Err("--workers and --devices must be at least 1".to_string());
    }
    (manifest.workers, manifest.devices) = (Some(workers), Some(devices));
    let device_ms: f64 = cli.flag("device-ms", 0.0)?;
    if device_ms < 0.0 {
        return Err(format!("--device-ms {device_ms} must be non-negative"));
    }
    // The manifest's measurement stack, each batch fanned out by the
    // executor over up to --workers threads (a plain loop on this thread
    // at --workers 1).
    let m = Executor::new(
        plan.run.measurer()?,
        ExecutorConfig::for_workers(workers)
            .with_devices(devices)
            .with_device_hold(Duration::from_secs_f64(device_ms / 1000.0)),
    );

    // A resumed process appends to the existing trace; its fresh schema
    // header marks the segment boundary for counter summing.
    let trace: Option<PathBuf> = cli
        .flag_str("trace")
        .map(PathBuf::from)
        .or_else(|| plan.run_dir.as_ref().map(RunDir::trace_path));
    let tel = telemetry::install_pipeline(
        trace.as_deref(),
        cli.flag_present("quiet"),
        cli.flag_present("json"),
        plan.resume,
    )
    .map_err(|e| format!("cannot create trace file: {e}"))?;
    // Declared before everything that reports into the pipeline, so it
    // drops last: every return below leaves a complete trace.
    let mut finish = TelemetryGuard::new(tel.clone());
    // Live observability: with a run dir and a non-zero interval, snapshot
    // the handle's metrics registry into the run dir periodically. The
    // snapshot thread only writes side files (metrics.snapshot.json /
    // metrics.prom) and appends heartbeat events to the trace — trial logs
    // stay byte-identical whether or not snapshots are enabled.
    let snapshot_ms: u64 = cli.flag("snapshot-interval-ms", 1000)?;
    let mut snapshot_writer = plan.run_dir.as_ref().filter(|_| snapshot_ms > 0).map(|dir| {
        telemetry::SnapshotWriter::start(
            dir.path().to_path_buf(),
            Duration::from_millis(snapshot_ms),
            tel.clone(),
        )
    });

    // Crash-safety contract: the manifest exists from the first moment a
    // trial can be lost, so a killed run is always resumable.
    if let Some(dir) = &plan.run_dir {
        if !plan.resume {
            dir.write_manifest(&plan.run.manifest)
                .map_err(|e| format!("cannot write manifest: {e}"))?;
        }
        // Register the run up front (no wall time yet), so `aaltune runs`
        // lists it as live/stale while it executes; the completion append
        // below shadows this entry (the registry keeps the last per id).
        // Best-effort: a killed run's logs can be torn mid-line until the
        // resume repairs them, and observability must never block tuning.
        if let Some(base) = &plan.registry_base {
            if let Ok(entry) = RunEntry::from_run_dir(dir.path()) {
                let _ = Registry::at(base).append(&entry);
            }
        }
    }

    // The tuning database opens after the telemetry pipeline so its
    // lock-takeover counter and task gauge land in this run's trace. The
    // advisory writer lock is held for the whole run; a concurrent live
    // writer makes this open back off and fail cleanly. On resume the
    // manifest's provenance names it, so the continued run consults the
    // same store under the same policy.
    let db = plan
        .run
        .manifest
        .db
        .as_ref()
        .map(|p| {
            let store = TuningDb::open(Path::new(&p.path), &LockOptions::default())
                .map_err(|e| format!("cannot open tuning database {}: {e}", p.path))?;
            Ok::<_, String>((Mutex::new(store), DbPolicy::parse(&p.policy)?))
        })
        .transpose()?;
    let session = Session {
        measurer: &m,
        method: plan.run.method,
        opts: plan.run.manifest.options,
        device: plan.run.device(),
        dir: plan.run_dir.as_ref(),
        resume: plan.resume,
        completed: plan.completed.clone(),
        task_workers: workers,
        db: db.as_ref().map(|(store, policy)| SessionDb { store, consult: Some(*policy) }),
        tel: &tel,
        on_trial: &|_, _| {},
        // An aborted task is reported but keeps its truncated log.
        on_abort: &|task, diag| {
            tel.report(|| format!("{:<18} ABORTED: {diag}", task.name));
            Ok(())
        },
    };
    let logs = session.run(&plan.run.tasks)?;

    if let Some(dir) = &plan.run_dir {
        // Stop the snapshot thread first: its final publish lands before
        // the manifest gains a wall time, so `top` never sees a "done" run
        // with a half-stale snapshot.
        if let Some(writer) = snapshot_writer.take() {
            writer.finish();
        }
        // Rewrite the manifest, in this binary's format, with the final
        // wall time, the resumed marker and `git describe` (a subprocess
        // the start manifest goes without) now that the run is complete.
        let manifest = &mut plan.run.manifest;
        manifest.schema_version = Some(MANIFEST_SCHEMA_VERSION);
        manifest.wall_time_s = Some(started.elapsed().as_secs_f64());
        manifest.git_describe = trace_analysis::git_describe(Path::new("."));
        if plan.resume {
            manifest.resumed = Some(true);
        }
        dir.write_manifest(manifest).map_err(|e| format!("cannot write manifest: {e}"))?;
        // Flush counters into the trace before the registry reads it for
        // the health columns.
        finish.flush();
        if let Some(base) = &plan.registry_base {
            let entry = RunEntry::from_run_dir(dir.path())?;
            Registry::at(base)
                .append(&entry)
                .map_err(|e| format!("cannot update run registry: {e}"))?;
        }
        tel.report(|| format!("wrote run artifacts to {}", dir.path().display()));
    }
    if let Some(path) = cli.flag_str("log") {
        durable::replace(Path::new(path), |w| {
            logs.iter().try_for_each(|log| log.write_jsonl(&mut *w))
        })
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        tel.report(|| format!("wrote {} logs to {path}", logs.len()));
    }
    Ok(())
}

/// `aaltune db <stats|fsck|export> <DB> [--repair]` — inspect, check, or
/// dump a tuning database. `fsck` exits 1 when committed data is
/// unreadable (and was not repaired), so CI can gate on store health.
fn db_cmd(cli: &Cli) -> Result<u8, String> {
    let sub = cli
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("missing db subcommand (stats, fsck, export)")?;
    let root = PathBuf::from(cli.positional.get(2).ok_or("missing <DB> directory")?);
    match sub {
        "stats" => {
            let store = TuningDb::open(&root, &LockOptions::default())
                .map_err(|e| format!("cannot open {}: {e}", root.display()))?;
            let s = store.stats();
            outln!("tasks:         {}", s.tasks)?;
            outln!("configs:       {}", s.configs)?;
            outln!("segments:      {}", s.segments)?;
            outln!("covered seq:   {}", s.covered_seq)?;
            outln!("corrupt lines: {}", s.corrupt_lines)?;
            outln!("best:          {:.1} GFLOPS", s.best_gflops)?;
            Ok(0)
        }
        "fsck" => {
            let repair = cli.flag_present("repair");
            let report = TuningDb::fsck(&root, repair, &LockOptions::default())
                .map_err(|e| format!("cannot fsck {}: {e}", root.display()))?;
            outln!("segments:      {}", report.segments)?;
            outln!("records:       {}", report.records)?;
            outln!("corrupt lines: {}", report.corrupt_lines)?;
            outln!("torn tails:    {}", report.torn_tails)?;
            outln!("index damaged: {}", report.index_damaged)?;
            if repair {
                outln!("quarantined:   {}", report.quarantined)?;
            }
            if report.healthy() {
                outln!("status:        healthy")?;
                Ok(0)
            } else {
                outln!("status:        UNHEALTHY (run fsck --repair to quarantine and rebuild)")?;
                Ok(1)
            }
        }
        "export" => {
            let store = TuningDb::open(&root, &LockOptions::default())
                .map_err(|e| format!("cannot open {}: {e}", root.display()))?;
            for rec in store.records() {
                let line =
                    serde_json::to_string(&rec).map_err(|e| format!("serialize failed: {e}"))?;
                outln!("{line}")?;
            }
            Ok(0)
        }
        other => Err(format!("unknown db subcommand `{other}` (stats, fsck, export)")),
    }
}

fn deploy(cli: &Cli) -> Result<(), String> {
    let model = model_arg(cli)?;
    let method = method_by_name(cli.flag_str("method").unwrap_or("bted+bao"))?;
    let opts = options(cli, TuneOptions::paper(cli.flag("n-trial", 512)?, cli.flag("seed", 0)?))?;
    let runs: usize = cli.flag("runs", 600)?;
    let workers: usize = cli.flag("workers", 1)?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    let m = measurer(cli)?;
    let tel = install_telemetry(cli)?;
    let _finish = TelemetryGuard::new(tel.clone());
    let r = tune_model_parallel(&model, &m, method, &opts, runs, workers);
    tel.report(|| {
        format!(
            "{} ({method}): latency {:.4} ms  variance {:.4}  min {:.4}  max {:.4}  \
             ({} measurements)",
            r.model_name,
            r.latency.mean_ms,
            r.latency.variance,
            r.latency.min_ms,
            r.latency.max_ms,
            r.total_measurements
        )
    });
    Ok(())
}

fn trace(cli: &Cli) -> Result<(), String> {
    let path = cli.positional.get(1).ok_or("missing <trace.jsonl> argument")?;
    let f = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let summary = telemetry::TraceSummary::from_reader(std::io::BufReader::new(f))
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    out!("{}", summary.render())?;
    Ok(())
}

fn runs(cli: &Cli) -> Result<(), String> {
    let root = cli.positional.get(1).map_or("runs", String::as_str);
    let reg = Registry::at(root);
    let idx = reg.load().map_err(|e| format!("cannot read {}: {e}", reg.index_path().display()))?;
    let filtered =
        idx.filtered(cli.flag_str("model"), cli.flag_str("method"), cli.flag_str("kind"));
    if filtered.is_empty() {
        outln!("no matching runs in {}", reg.index_path().display())?;
    } else {
        out!("{}", idx.render(&filtered))?;
    }
    Ok(())
}

fn compare_options(cli: &Cli) -> Result<CompareOptions, String> {
    let defaults = CompareOptions::default();
    Ok(CompareOptions {
        alpha: cli.flag("alpha", defaults.alpha)?,
        resamples: cli.flag("resamples", defaults.resamples)?,
        min_effect_pct: cli.flag("min-effect", defaults.min_effect_pct)?,
        seed: cli.flag("boot-seed", defaults.seed)?,
    })
}

fn compare(cli: &Cli) -> Result<u8, String> {
    let base = cli.positional.get(1).ok_or("missing <BASE_RUN> directory")?;
    let cand = cli.positional.get(2).ok_or("missing <CAND_RUN> directory")?;
    let cmp = compare_run_dirs(Path::new(base), Path::new(cand), compare_options(cli)?)?;
    out!("{}", cmp.render())?;
    if cli.flag_present("fail-on-regress") && cmp.has_regressions() {
        let model = cmp.model_quality.iter().filter(|m| m.regressed).count();
        eprintln!(
            "FAIL: {} task(s) regressed, {model} model rank-correlation drop(s)",
            cmp.count(Verdict::Regressed)
        );
        return Ok(EXIT_REGRESSED);
    }
    Ok(0)
}

fn report(cli: &Cli) -> Result<(), String> {
    let run_path = cli.positional.get(1).ok_or("missing <RUN> directory")?;
    let run = LoadedRun::load(Path::new(run_path))?;
    let baseline = cli.positional.get(2).map(|p| LoadedRun::load(Path::new(p))).transpose()?;
    let comparison = baseline
        .as_ref()
        .map(|b| -> Result<_, String> {
            Ok(compare_logs(
                b.id.clone(),
                run.id.clone(),
                &b.logs,
                &run.logs,
                compare_options(cli)?,
                Vec::new(),
            ))
        })
        .transpose()?;
    let html = render_report(&run, baseline.as_ref(), comparison.as_ref());
    let out =
        cli.flag_str("html").map_or_else(|| Path::new(run_path).join("report.html"), PathBuf::from);
    durable::replace(&out, |w| w.write_all(html.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    outln!("wrote {}", out.display())?;
    Ok(())
}

fn explain(cli: &Cli) -> Result<(), String> {
    let path = Path::new(cli.positional.get(1).ok_or("missing RUN_DIR argument")?);
    let dir = RunDir::open(path)?;
    // A killed run is explained from the parts of its completed tasks.
    let Some(records) = read_capture(&dir)? else {
        return Err(format!(
            "{} has no {MODEL_QUALITY_FILE} — the run was tuned without model capture \
             (capture is on by default; drop --no-capture-model and re-tune to record \
             the surrogate's predictions)",
            path.display()
        ));
    };
    out!("{}", trace_analysis::render_explain(&trace_analysis::analyze(&records)))?;
    Ok(())
}

/// `aaltune serve` — run the tuning server until `POST /shutdown` (or a
/// signal; queued jobs resume on the next start from the same --root).
fn serve_cmd(cli: &Cli) -> Result<(), String> {
    let quiet = cli.flag_present("quiet");
    let cfg = serve::ServeConfig {
        root: PathBuf::from(cli.flag_str("root").unwrap_or("serve-root")),
        addr: cli.flag_str("addr").unwrap_or("127.0.0.1:7411").to_string(),
        http_workers: cli.flag("http-workers", 4)?,
        job_workers: cli.flag("job-workers", 2)?,
        devices: cli.flag("devices", 4)?,
        exec_workers: cli.flag("exec-workers", 2)?,
        device_hold: Duration::from_millis(cli.flag("device-ms", 0)?),
        backlog: cli.flag("backlog", 16)?,
        tenant_devices: cli.flag_str("tenant-devices").map(str::parse).transpose().map_err(
            |_| "invalid value for --tenant-devices (expected a device count)".to_string(),
        )?,
        db: cli.flag_str("db").map(PathBuf::from),
        snapshot_interval: Duration::from_millis(cli.flag("snapshot-interval-ms", 1000)?),
        quiet,
    };
    let root = cfg.root.clone();
    let server = serve::Server::start(cfg)?;
    if !quiet {
        eprintln!(
            "serving on {} (root {}; POST /shutdown to drain)",
            server.addr(),
            root.display()
        );
    }
    server.wait();
    Ok(())
}

/// Resolves the server address for `aaltune client`: explicit `--addr`,
/// else the address the server published into `<--root>/serve.addr`.
fn client_addr(cli: &Cli) -> Result<String, String> {
    if let Some(addr) = cli.flag_str("addr") {
        return Ok(addr.to_string());
    }
    let root = cli.flag_str("root").unwrap_or("serve-root");
    let path = Path::new(root).join("serve.addr");
    std::fs::read_to_string(&path).map(|s| s.trim().to_string()).map_err(|e| {
        format!("no --addr and cannot read {} ({e}); is the server running?", path.display())
    })
}

/// `aaltune client <submit|status|result|events|best|shutdown>`.
fn client_cmd(cli: &Cli) -> Result<u8, String> {
    let addr = client_addr(cli)?;
    let sub = cli
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("missing client subcommand (submit, status, result, events, best, shutdown)")?;
    let job_id = || -> Result<&str, String> {
        cli.positional.get(2).map(String::as_str).ok_or_else(|| "missing job id".to_string())
    };
    match sub {
        "submit" => {
            let mut body = serde_json::json!({
                "model": cli.flag_str("model").ok_or("submit requires --model")?,
                "tenant": cli.flag_str("tenant").unwrap_or("default"),
                "method": cli.flag_str("method").unwrap_or("bted+bao"),
                "device": cli.flag_str("device").unwrap_or("gtx1080ti"),
                "n_trial": cli.flag("n-trial", 64u64)?,
                "seed": cli.flag("seed", 0u64)?,
                "priority": cli.flag("priority", 0u64)?,
            });
            if let (serde_json::Value::Object(obj), Some(task)) = (&mut body, cli.flag_str("task"))
            {
                let task: u64 = task
                    .parse()
                    .map_err(|_| "invalid value for --task (expected an index)".to_string())?;
                obj.insert("task".into(), serde_json::Value::from(task));
            }
            let (code, resp) = serve::client::request(&addr, "POST", "/jobs", Some(&body))?;
            outln!("{resp}")?;
            if code != 202 {
                return Ok(1);
            }
            if !cli.flag_present("wait") {
                return Ok(0);
            }
            let id = resp["id"].as_str().ok_or("server response has no job id")?;
            let last =
                serve::client::follow_job(&addr, id, serve::client::READ_TIMEOUT, |_| Ok(()))
                    .map_err(|e| format!("following {id}: {e}"))?;
            let (path, code) = if last["event"].as_str() == Some("job.done") {
                (format!("/jobs/{id}/result"), 0)
            } else {
                (format!("/jobs/{id}"), 1)
            };
            let (_, body) = serve::client::request(&addr, "GET", &path, None)?;
            outln!("{body}")?;
            Ok(code)
        }
        "status" => {
            let (code, resp) =
                serve::client::request(&addr, "GET", &format!("/jobs/{}", job_id()?), None)?;
            outln!("{resp}")?;
            Ok(u8::from(code != 200))
        }
        "result" => {
            let (code, resp) =
                serve::client::request(&addr, "GET", &format!("/jobs/{}/result", job_id()?), None)?;
            outln!("{resp}")?;
            Ok(u8::from(code != 200))
        }
        "events" => {
            serve::client::follow_job(&addr, job_id()?, serve::client::READ_TIMEOUT, |v| {
                outln!("{v}")
            })?;
            Ok(0)
        }
        "best" => {
            let model = cli.flag_str("model").ok_or("best requires --model")?;
            let task: u64 = cli.flag("task", 0)?;
            let device = cli.flag_str("device").unwrap_or("gtx1080ti");
            let (code, resp) = serve::client::request(
                &addr,
                "GET",
                &format!("/best?model={model}&task={task}&device={device}"),
                None,
            )?;
            outln!("{resp}")?;
            Ok(u8::from(code != 200))
        }
        "shutdown" => {
            let (code, resp) = serve::client::request(&addr, "POST", "/shutdown", None)?;
            outln!("{resp}")?;
            Ok(u8::from(code != 202))
        }
        other => Err(format!(
            "unknown client subcommand `{other}` (submit, status, result, events, best, shutdown)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use active_learning::TuningLog;

    /// `dispatch`, one at a time: `tune` installs the process-global
    /// telemetry pipeline that library layers (the tuning database, the
    /// tuning loop) count through, so runs overlapping in one test process
    /// would swap or disable each other's trace mid-run.
    fn dispatch(args: &[String]) -> Result<u8, String> {
        static GLOBAL_TELEMETRY: Mutex<()> = Mutex::new(());
        let _serial = GLOBAL_TELEMETRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        super::dispatch(args)
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&sv(&["frobnicate"])).is_err());
        assert!(dispatch(&sv(&[])).is_err());
    }

    #[test]
    fn only_usage_errors_carry_the_usage_text() {
        // A port that was free a moment ago: nothing listens on it.
        let addr = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let e =
            dispatch(&sv(&["client", "status", "j1", "--addr", &addr.to_string()])).unwrap_err();
        assert!(!e.contains("usage:"), "a connection error is not a usage error: {e}");
        for args in [&["frobnicate"][..], &[], &["tune", "--seed"]] {
            let e = dispatch(&sv(args)).unwrap_err();
            assert!(e.contains(USAGE), "{args:?} is a usage error: {e}");
        }
    }

    #[test]
    fn tasks_lists_mobilenet() {
        dispatch(&sv(&["tasks", "mobilenet_v1"])).unwrap();
    }

    #[test]
    fn dot_export_runs() {
        dispatch(&sv(&["dot", "alexnet"])).unwrap();
        dispatch(&sv(&["dot", "resnet18", "--fused", "true"])).unwrap();
    }

    #[test]
    fn devices_prints() {
        dispatch(&sv(&["devices"])).unwrap();
    }

    #[test]
    fn tune_single_task_smoke() {
        dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "40",
            "--method",
            "autotvm",
        ]))
        .unwrap();
    }

    #[test]
    fn tune_task_out_of_range_errors() {
        let e = dispatch(&sv(&["tune", "alexnet", "--task", "99"])).unwrap_err();
        assert!(e.contains("out of range"));
    }

    #[test]
    fn tune_writes_run_dir_and_trace_summarizes() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-run-{}", std::process::id()));
        dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "40",
            "--method",
            "autotvm",
            "--quiet",
            "--out",
            base.to_str().unwrap(),
        ]))
        .unwrap();
        let run = base.join("squeezenet_v1.1-autotvm-seed0");
        assert!(run.join("manifest.json").is_file());
        assert!(run.join("trace.jsonl").is_file());
        assert!(base.join("index.jsonl").is_file(), "tune --out must register the run");
        let logs: Vec<_> = std::fs::read_dir(run.join("logs")).unwrap().collect();
        assert_eq!(logs.len(), 1);
        // The recorded trace must summarize via the `trace` subcommand.
        dispatch(&sv(&["trace", run.join("trace.jsonl").to_str().unwrap()])).unwrap();
        // The registry must list it.
        dispatch(&sv(&["runs", base.to_str().unwrap()])).unwrap();
        dispatch(&sv(&["runs", base.to_str().unwrap(), "--model", "squeezenet"])).unwrap();
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn only_the_completed_manifest_runs_git_describe() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-git-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let args = sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "16",
            "--method",
            "random",
            "--quiet",
            "--out",
            base.to_str().unwrap(),
        ]);
        let plan = TunePlan::fresh(&Cli::parse(&args).unwrap()).unwrap();
        assert_eq!(plan.run.manifest.git_describe, None, "start manifest");
        dispatch(&args).unwrap();
        let dir = RunDir::open(base.join("squeezenet_v1.1-random-seed0")).unwrap();
        let done = dir.read_manifest().unwrap();
        assert!(done.wall_time_s.is_some());
        assert_eq!(done.git_describe, trace_analysis::git_describe(Path::new(".")));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn a_tune_out_trace_snapshots_each_metric_once() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "24",
            "--method",
            "autotvm",
            "--quiet",
            "--snapshot-interval-ms",
            "0",
            "--out",
            base.to_str().unwrap(),
        ]))
        .unwrap();
        let trace = std::fs::read_to_string(base.join("squeezenet_v1.1-autotvm-seed0/trace.jsonl"))
            .unwrap();
        let names = |kind: &str| -> Vec<String> {
            trace
                .lines()
                .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
                .filter_map(|r| r.get(kind)?.get("name")?.as_str().map(str::to_string))
                .collect()
        };
        for kind in ["Counter", "Histogram"] {
            let all = names(kind);
            assert!(!all.is_empty(), "no {kind} records");
            let distinct: std::collections::BTreeSet<&String> = all.iter().collect();
            assert_eq!(all.len(), distinct.len(), "a {kind} was snapshotted twice: {all:?}");
        }
        // The snapshot precedes the report written after it.
        assert!(trace.lines().last().is_some_and(|l| l.contains("wrote run artifacts")));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn truncated_chaos_run_resumes_to_the_identical_log() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let args = |out: &Path| {
            sv(&[
                "tune",
                "squeezenet",
                "--task",
                "0",
                "--n-trial",
                "40",
                "--method",
                "autotvm",
                "--quiet",
                "--fault-rate",
                "0.15",
                "--fault-seed",
                "7",
                "--out",
                out.to_str().unwrap(),
            ])
        };
        dispatch(&args(&base.join("full"))).unwrap();
        dispatch(&args(&base.join("cut"))).unwrap();
        let run = "squeezenet_v1.1-autotvm-seed0";
        let log_of = |sub: &str| {
            std::fs::read_dir(base.join(sub).join(run).join("logs"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .expect("task log exists")
        };
        let full = std::fs::read(log_of("full")).unwrap();
        assert_eq!(full, std::fs::read(log_of("cut")).unwrap(), "same seed ⇒ same log");

        // Simulate a mid-task kill: keep the header plus 12 trials and a
        // half-written 13th line, and cut the task's `Complete` line from
        // the progress journal.
        let cut_path = log_of("cut");
        let keep = full
            .split_inclusive(|&b| b == b'\n')
            .take(13)
            .flatten()
            .copied()
            .chain(*br#"{"trial":12,"config_ind"#)
            .collect::<Vec<u8>>();
        assert!(keep.len() < full.len(), "the cut must drop real trials");
        std::fs::write(&cut_path, keep).unwrap();
        let cut_run = base.join("cut").join(run);
        let journal = cut_run.join("progress.jsonl");
        let lines = std::fs::read_to_string(&journal).unwrap();
        let last = lines.trim_end().rfind('\n').map_or(0, |nl| nl + 1);
        assert!(lines[last..].starts_with("{\"Complete\""), "{lines}");
        std::fs::write(&journal, &lines[..last]).unwrap();

        dispatch(&sv(&["tune", "--resume", cut_run.to_str().unwrap(), "--quiet"])).unwrap();
        assert_eq!(
            full,
            std::fs::read(log_of("cut")).unwrap(),
            "resumed log must be byte-identical to the uninterrupted run"
        );
        // The replay recomputes the model's opinions, so the capture file
        // also converges to the uninterrupted run's bytes.
        let mq = |sub: &str| {
            std::fs::read(base.join(sub).join(run).join(MODEL_QUALITY_FILE)).expect("capture file")
        };
        assert_eq!(mq("full"), mq("cut"), "resumed capture must match the uninterrupted run");
        let manifest = std::fs::read_to_string(cut_run.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"resumed\""), "{manifest}");

        // The two run dirs must also read as statistically identical.
        let code = dispatch(&sv(&[
            "compare",
            base.join("full").join(run).to_str().unwrap(),
            cut_run.to_str().unwrap(),
            "--fail-on-regress",
            "--resamples",
            "200",
        ]))
        .unwrap();
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn tune_publishes_snapshots_and_top_reads_them() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-top-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "40",
            "--method",
            "autotvm",
            "--quiet",
            "--snapshot-interval-ms",
            "50",
            "--out",
            base.to_str().unwrap(),
        ]))
        .unwrap();
        let run = base.join("squeezenet_v1.1-autotvm-seed0");
        // The final snapshot reflects the completed run.
        let snap: telemetry::MetricsSnapshot = serde_json::from_str(
            &std::fs::read_to_string(run.join(telemetry::SNAPSHOT_FILE)).unwrap(),
        )
        .unwrap();
        assert_eq!(snap.counter(telemetry::stream::TRIALS_COUNTER), 40);
        assert_eq!(snap.counter(telemetry::stream::TASKS_DONE_COUNTER), 1);
        assert!(snap.counter("measure.attempts") >= 40);
        assert!(snap.gauges.keys().any(|k| k.ends_with(".best_gflops")), "{:?}", snap.gauges);
        let prom = std::fs::read_to_string(run.join(telemetry::PROM_FILE)).unwrap();
        assert!(!telemetry::parse_prometheus(&prom).unwrap().is_empty());
        // Both `top` probe modes accept the finished run.
        dispatch(&sv(&["top", run.to_str().unwrap(), "--once"])).unwrap();
        dispatch(&sv(&["top", run.to_str().unwrap(), "--check"])).unwrap();
        // The registry was appended at start and at completion; the load
        // dedupes to one (done) entry.
        let idx = Registry::at(&base).load().unwrap();
        assert_eq!(idx.entries.len(), 1);
        assert!(idx.entries[0].wall_time_s.is_some());
        assert!(idx.entries[0].last_heartbeat_unix_ms.is_some());
        // --check rejects a corrupted snapshot.
        std::fs::write(run.join(telemetry::SNAPSHOT_FILE), "not json").unwrap();
        let e = dispatch(&sv(&["top", run.to_str().unwrap(), "--check"])).unwrap_err();
        assert!(e.contains("malformed"), "{e}");
        assert!(dispatch(&sv(&["top", "/nonexistent/run"])).is_err());
        assert!(dispatch(&sv(&["top"])).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn snapshots_never_change_trial_logs() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let args = |out: &Path, interval: &str| {
            sv(&[
                "tune",
                "squeezenet",
                "--task",
                "0",
                "--n-trial",
                "30",
                "--method",
                "autotvm",
                "--quiet",
                "--workers",
                "2",
                "--snapshot-interval-ms",
                interval,
                "--out",
                out.to_str().unwrap(),
            ])
        };
        dispatch(&args(&base.join("on"), "25")).unwrap();
        dispatch(&args(&base.join("off"), "0")).unwrap();
        let run = "squeezenet_v1.1-autotvm-seed0";
        let log_of = |sub: &str| {
            std::fs::read_dir(base.join(sub).join(run).join("logs"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .expect("task log exists")
        };
        assert_eq!(
            std::fs::read(log_of("on")).unwrap(),
            std::fs::read(log_of("off")).unwrap(),
            "trial logs must be byte-identical with snapshots on or off"
        );
        // Interval 0 disables the live layer entirely: no side files.
        assert!(base.join("on").join(run).join(telemetry::SNAPSHOT_FILE).is_file());
        assert!(!base.join("off").join(run).join(telemetry::SNAPSHOT_FILE).exists());
        assert!(!base.join("off").join(run).join(telemetry::PROM_FILE).exists());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn resume_on_a_directory_without_manifest_errors() {
        let base =
            std::env::temp_dir().join(format!("aaltune-cli-nomanifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let e = dispatch(&sv(&["tune", "--resume", base.to_str().unwrap()])).unwrap_err();
        assert!(e.contains("cannot resume"), "{e}");
        assert!(dispatch(&sv(&["tune", "--resume", "/nonexistent/run"])).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn fault_flags_parse_and_gate() {
        let e =
            dispatch(&sv(&["tune", "alexnet", "--task", "0", "--fault-rate", "1.5"])).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        // A high fault rate with a tight cap aborts the task but exits 0
        // (the diagnostic is reported, not fatal).
        dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "80",
            "--method",
            "random",
            "--quiet",
            "--fault-rate",
            "0.9",
            "--max-retries",
            "0",
            "--max-fail-rate",
            "0.5",
        ]))
        .unwrap();
    }

    #[test]
    fn a_failed_log_write_still_flushes_the_trace() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-logfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let trace = base.join("trace.jsonl");
        let log = base.join("missing").join("log.jsonl");
        let e = dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "32",
            "--method",
            "random",
            "--quiet",
            "--trace",
            trace.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(e.contains("cannot write"), "{e}");
        let f = std::fs::File::open(&trace).unwrap();
        let summary = telemetry::TraceSummary::from_reader(std::io::BufReader::new(f)).unwrap();
        assert_eq!(summary.malformed_lines, 0, "no torn tail");
        assert_eq!(summary.unclosed_spans, 0);
        assert_eq!(summary.counters.get("tune.trials"), Some(&32), "final counters flushed");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn trace_on_missing_file_errors() {
        assert!(dispatch(&sv(&["trace", "/nonexistent/trace.jsonl"])).is_err());
    }

    #[test]
    fn compare_and_report_on_identical_seeds_pass_the_gate() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        for sub in ["a", "b"] {
            dispatch(&sv(&[
                "tune",
                "squeezenet",
                "--task",
                "0",
                "--n-trial",
                "30",
                "--method",
                "autotvm",
                "--quiet",
                "--out",
                base.join(sub).to_str().unwrap(),
            ]))
            .unwrap();
        }
        let run_a = base.join("a/squeezenet_v1.1-autotvm-seed0");
        let run_b = base.join("b/squeezenet_v1.1-autotvm-seed0");
        // Same seed + same config ⇒ identical trials ⇒ noise everywhere,
        // and the gate must not fire.
        let code = dispatch(&sv(&[
            "compare",
            run_a.to_str().unwrap(),
            run_b.to_str().unwrap(),
            "--fail-on-regress",
            "--resamples",
            "300",
        ]))
        .unwrap();
        assert_eq!(code, 0, "identical runs must not be flagged as regressions");
        // The report (with baseline) must land as one self-contained file.
        dispatch(&sv(&[
            "report",
            run_b.to_str().unwrap(),
            run_a.to_str().unwrap(),
            "--resamples",
            "300",
        ]))
        .unwrap();
        let html = std::fs::read_to_string(run_b.join("report.html")).unwrap();
        assert!(html.contains("<svg"));
        assert!(!html.contains("http://") && !html.contains("https://"));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn compare_on_missing_dirs_errors() {
        assert!(dispatch(&sv(&["compare", "/nonexistent/a"])).is_err());
        assert!(dispatch(&sv(&["report"])).is_err());
    }

    #[test]
    fn readers_leave_a_non_run_directory_untouched() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-not-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let empty = base.join("empty");
        let stray = base.join("stray");
        std::fs::create_dir_all(&empty).unwrap();
        std::fs::create_dir_all(stray.join("notes")).unwrap();
        std::fs::write(stray.join("notes/a.txt"), "not a run").unwrap();
        // Every path under the tree, with file contents.
        fn snapshot(dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
            let mut entries: Vec<PathBuf> =
                std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
            entries.sort();
            for path in entries {
                if path.is_dir() {
                    out.push((path.clone(), Vec::new()));
                    snapshot(&path, out);
                } else {
                    out.push((path.clone(), std::fs::read(&path).unwrap()));
                }
            }
        }
        let mut before = Vec::new();
        snapshot(&base, &mut before);
        for dir in [&empty, &stray] {
            let d = dir.to_str().unwrap();
            for args in [vec!["report", d], vec!["compare", d, d], vec!["explain", d]] {
                let e = dispatch(&sv(&args)).unwrap_err();
                assert!(e.contains("is not a run directory"), "{args:?}: {e}");
            }
        }
        let mut after = Vec::new();
        snapshot(&base, &mut after);
        assert_eq!(before, after, "a failed read must create nothing");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn tune_captures_model_quality_and_explain_renders() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-explain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let args = |out: &Path, extra: &[&str]| {
            let mut v = sv(&[
                "tune",
                "squeezenet",
                "--task",
                "0",
                "--n-trial",
                "80",
                "--method",
                "bted+bao",
                "--quiet",
                "--out",
                out.to_str().unwrap(),
            ]);
            v.extend(extra.iter().map(|s| (*s).to_string()));
            v
        };
        dispatch(&args(&base.join("cap"), &[])).unwrap();
        let run_name = "squeezenet_v1.1-bted+bao-seed0";
        let cap_run = base.join("cap").join(run_name);
        let records = active_learning::read_model_quality(&cap_run.join(MODEL_QUALITY_FILE))
            .expect("capture is on by default and must leave a model_quality.jsonl");
        assert!(!records.is_empty());
        assert!(
            records.iter().any(|r| r.predicted_mean.is_some()),
            "the surrogate must have scored at least one proposal"
        );
        dispatch(&sv(&["explain", cap_run.to_str().unwrap()])).unwrap();

        // Opting out leaves no file, and `explain` says why.
        dispatch(&args(&base.join("blind"), &["--no-capture-model"])).unwrap();
        let blind_run = base.join("blind").join(run_name);
        assert!(!blind_run.join(MODEL_QUALITY_FILE).exists());
        let e = dispatch(&sv(&["explain", blind_run.to_str().unwrap()])).unwrap_err();
        assert!(e.contains(MODEL_QUALITY_FILE), "{e}");
        assert!(dispatch(&sv(&["explain", "/nonexistent/run"])).is_err());
        assert!(dispatch(&sv(&["explain"])).is_err());

        // Capture never perturbs the tuning loop: trial logs byte-identical.
        let log_of = |run: &Path| {
            std::fs::read_dir(run.join("logs"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .expect("task log exists")
        };
        assert_eq!(
            std::fs::read(log_of(&cap_run)).unwrap(),
            std::fs::read(log_of(&blind_run)).unwrap(),
            "trial logs must be byte-identical with capture on or off"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn model_rank_corr_regression_gates_with_exit_code_2() {
        let fixtures =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../trace-analysis/tests/fixtures");
        // Identical trial logs, inverted model capture: only the
        // rank-correlation gate can flag this pair.
        let gated = dispatch(&sv(&[
            "compare",
            fixtures.join("base").to_str().unwrap(),
            fixtures.join("model_regressed").to_str().unwrap(),
            "--fail-on-regress",
            "--resamples",
            "500",
        ]))
        .unwrap();
        assert_eq!(gated, EXIT_REGRESSED);
    }

    #[test]
    fn fail_on_regress_gates_with_exit_code_2() {
        // Pinned against the committed golden fixtures (regenerate with
        // `cargo run -p trace-analysis --example gen_fixtures`).
        let fixtures =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../trace-analysis/tests/fixtures");
        let base = fixtures.join("base");
        let regressed = fixtures.join("regressed");
        let gated = dispatch(&sv(&[
            "compare",
            base.to_str().unwrap(),
            regressed.to_str().unwrap(),
            "--fail-on-regress",
            "--resamples",
            "500",
        ]))
        .unwrap();
        assert_eq!(gated, EXIT_REGRESSED);
        // Without the gate the regression is still reported, but exits 0.
        let ungated = dispatch(&sv(&[
            "compare",
            base.to_str().unwrap(),
            regressed.to_str().unwrap(),
            "--resamples",
            "500",
        ]))
        .unwrap();
        assert_eq!(ungated, 0);
    }

    /// Reads back the single task log of a run directory.
    fn only_log(run: &Path) -> TuningLog {
        let mut entries: Vec<_> =
            std::fs::read_dir(run.join("logs")).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(entries.len(), 1);
        let f = std::fs::File::open(entries.remove(0)).unwrap();
        TuningLog::read_jsonl(std::io::BufReader::new(f)).unwrap()
    }

    fn tune_with_db(base: &Path, db: &Path, extra: &[&str]) {
        let mut args = sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "40",
            "--method",
            "autotvm",
            "--quiet",
            "--out",
            base.to_str().unwrap(),
            "--db",
            db.to_str().unwrap(),
        ]);
        args.extend(sv(extra));
        assert_eq!(dispatch(&args).unwrap(), 0);
    }

    #[test]
    fn db_warm_reruns_reach_the_cold_best_in_at_most_half_the_trials() {
        let root = std::env::temp_dir().join(format!("aaltune-cli-db-{}", std::process::id()));
        let db = root.join("db");
        let cold_base = root.join("cold");
        tune_with_db(&cold_base, &db, &[]);
        let cold = only_log(&cold_base.join("squeezenet_v1.1-autotvm-seed0"));
        let cold_best = cold.best_gflops();
        assert!(cold.records.len() >= 2 && cold_best > 0.0);

        // Serve policy (default): an exact hit is one verifying measurement
        // that reproduces the cold best exactly (the simulator is
        // deterministic per config).
        let serve_base = root.join("serve");
        tune_with_db(&serve_base, &db, &[]);
        let serve_run = serve_base.join("squeezenet_v1.1-autotvm-seed0");
        let served = only_log(&serve_run);
        assert_eq!(served.records.len(), 1, "serve = one verifying measurement");
        assert!((served.best_gflops() - cold_best).abs() < 1e-9);
        assert!(served.records.len() <= cold.records.len() / 2);
        // The hit and warm-start counters land in the run's trace.
        let trace = std::fs::read_to_string(serve_run.join("trace.jsonl")).unwrap();
        assert!(trace.contains("db.hit"), "db.hit counter must be flushed into the trace");
        assert!(trace.contains("db.warm_start"));

        // Warm policy: the cached best joins the initial set, so the rerun
        // reaches the cold best within far fewer trials than the cold run.
        let warm_base = root.join("warm");
        tune_with_db(&warm_base, &db, &["--db-policy", "warm"]);
        let warm = only_log(&warm_base.join("squeezenet_v1.1-autotvm-seed0"));
        let to_best = warm
            .records
            .iter()
            .position(|r| r.best_gflops >= cold_best - 1e-9)
            .expect("warm rerun must reach the cold best")
            + 1;
        assert!(
            to_best <= cold.records.len() / 2,
            "warm rerun took {to_best} trials to reach the cold best; cold took {}",
            cold.records.len()
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn db_subcommands_stats_fsck_export_and_repair_cycle() {
        let root = std::env::temp_dir().join(format!("aaltune-cli-dbcmd-{}", std::process::id()));
        let db = root.join("db");
        tune_with_db(&root.join("run"), &db, &[]);
        let db_s = db.to_str().unwrap();
        assert_eq!(dispatch(&sv(&["db", "stats", db_s])).unwrap(), 0);
        assert_eq!(dispatch(&sv(&["db", "export", db_s])).unwrap(), 0);
        assert_eq!(dispatch(&sv(&["db", "fsck", db_s])).unwrap(), 0);

        // A corrupt committed line makes fsck exit 1; --repair quarantines
        // it and rebuilds, after which the store checks healthy again.
        let seg = std::fs::read_dir(db.join("segments")).unwrap().next().unwrap().unwrap().path();
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(b"deadbeef {\"not\":\"a record\"}\n");
        bytes.extend_from_slice(b"00000000 {\"torn\"");
        std::fs::write(&seg, &bytes).unwrap();
        assert_eq!(dispatch(&sv(&["db", "fsck", db_s])).unwrap(), 1);
        assert_eq!(dispatch(&sv(&["db", "fsck", db_s, "--repair"])).unwrap(), 0);
        assert_eq!(dispatch(&sv(&["db", "fsck", db_s])).unwrap(), 0);
        assert!(db.join("quarantine.jsonl").is_file());

        assert!(dispatch(&sv(&["db", "vacuum", db_s])).is_err());
        assert!(dispatch(&sv(&["db", "stats"])).is_err(), "missing path is a usage error");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn db_policy_without_db_is_a_usage_error() {
        let e = dispatch(&sv(&["tune", "squeezenet", "--db-policy", "warm"])).unwrap_err();
        assert!(e.contains("--db-policy requires --db"), "{e}");
        let bad = dispatch(&sv(&["tune", "squeezenet", "--db", "/tmp/x", "--db-policy", "nope"]))
            .unwrap_err();
        assert!(bad.contains("unknown --db-policy"), "{bad}");
    }
}
