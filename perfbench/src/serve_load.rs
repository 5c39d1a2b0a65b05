//! The `serve-mixed` workload: `aaltune serve` over a tuning database the
//! benchmark seeds, read on an open loop while two tenants' device-bound
//! jobs re-tune seeded keys, then read at capacity.

use crate::checks;
use crate::layers::{Probes, SpanSink, TimedBatches, TimedSim};
use crate::openloop::OpenLoop;
use crate::proc::{Env, ServeProc};
use crate::reads::{self, Expect, Query, ReadStats};
use crate::report::LayerReport;
use crate::stats::{geomean, Summary};
use crate::traced;
use crate::{Args, Outcome};
use active_learning::RunDir;
use dnn_graph::task::{extract_tasks, TuningTask};
use dnn_graph::Graph;
use executor::{Executor, ExecutorConfig};
use gpu_sim::{GpuDevice, Measurer, SimMeasurer};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use schedule::template::space_for_task;
use serde_json::{json, Value};
use serve::client::ClientConn;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tuning_db::{DbRecord, TaskSpec, TopConfig};

type ModelFn = fn(usize) -> Graph;
type DeviceFn = fn() -> GpuDevice;

/// Every model `/best` knows, under the names the server accepts.
const MODELS: [(&str, ModelFn); 7] = [
    ("alexnet", dnn_graph::models::alexnet),
    ("resnet18", dnn_graph::models::resnet18),
    ("resnet34", dnn_graph::models::resnet34),
    ("vgg16", dnn_graph::models::vgg16),
    ("vgg19", dnn_graph::models::vgg19),
    ("mobilenet_v1", dnn_graph::models::mobilenet_v1),
    ("squeezenet", dnn_graph::models::squeezenet_v1_1),
];
/// Every device. Only the first two get records, so every key on the
/// third misses; on the first two half the keys are stored (exact)
/// and the rest resolve to their nearest stored neighbour.
const DEVICES: [(&str, DeviceFn); 3] = [
    ("gtx1080ti", GpuDevice::gtx_1080_ti),
    ("v100", GpuDevice::tesla_v100),
    ("jetson", GpuDevice::jetson_tx2),
];
const SEEDED_DEVICES: usize = 2;
const SEEDED_SHARE: f64 = 0.5;
/// Configurations measured per seeded record, drawn up to
/// `SEED_DRAWS` times until one is valid.
const SEED_CONFIGS: usize = 8;
const SEED_DRAWS: usize = 64;
/// Open-loop `/best` rate on one connection: far below what one
/// connection sustains, so latency reflects the server, not a backlog.
const READ_RATE: f64 = 1000.0;
const CAPACITY_WINDOW: Duration = Duration::from_millis(2000);
/// The keys the jobs re-tune, in turn: (model, task, device). They are
/// always stored, and fixed so that every seed gets the same job mix —
/// a random task's share of invalid configurations would otherwise set
/// the job times.
const JOB_KEYS: [(&str, usize, usize); 4] =
    [("resnet18", 1, 0), ("vgg16", 2, 1), ("mobilenet_v1", 4, 0), ("squeezenet", 3, 1)];
/// A job a second, alternating between two tenants: jobs run for well
/// under a tenth of the window, so the p90 lookup latency is the read
/// path's own and job interference shows in the tail.
const JOB_PERIOD: Duration = Duration::from_millis(1000);
const JOB_TRIALS: u64 = 128;
const DEVICE_MS: u64 = 5;
const EXEC_WORKERS: usize = 2;
const POOL_DEVICES: usize = 4;
/// Server set-ups per run, half before the load and half after it;
/// `setup_s` is their median.
const SETUPS: usize = 24;

/// One `/best` key: a model task on a device.
struct Key {
    model: &'static str,
    idx: usize,
    task: usize,
    device: usize,
    spec: TaskSpec,
    feature: Vec<f64>,
}

/// All 82 model tasks × 3 devices, with the dnn-graph and schedule
/// layers timed.
fn universe(probes: &Probes) -> (Vec<TuningTask>, Vec<Key>) {
    let mut tasks = Vec::new();
    let mut keys = Vec::new();
    for (model, build) in MODELS {
        let model_tasks = Probes::time(&probes.extract, 1, || extract_tasks(&build(1)));
        for (idx, task) in model_tasks.into_iter().enumerate() {
            let space = Probes::time(&probes.space, 1, || space_for_task(&task));
            for (device, (name, _)) in DEVICES.iter().enumerate() {
                keys.push(Key {
                    model,
                    idx,
                    task: tasks.len(),
                    device,
                    spec: TaskSpec::of(&task, &space, name),
                    feature: TaskSpec::features(&task),
                });
            }
            tasks.push(task);
        }
    }
    (tasks, keys)
}

/// Chooses the stored keys and measures a few configurations for each.
fn seed_records(
    tasks: &[TuningTask],
    keys: &[Key],
    jobs: &[usize],
    rng: &mut ChaCha8Rng,
) -> Result<Vec<DbRecord>, String> {
    let forced: BTreeSet<String> = jobs.iter().map(|&j| keys[j].spec.key()).collect();
    // The distinct keys of the seeded devices in a seed-shuffled order,
    // the jobs' keys first; a fixed share of them is stored, so every
    // seed seeds the same number of records.
    let mut seen = BTreeSet::new();
    let mut distinct: Vec<&Key> =
        keys.iter().filter(|k| k.device < SEEDED_DEVICES && seen.insert(k.spec.key())).collect();
    distinct.shuffle(rng);
    distinct.sort_by_key(|k| !forced.contains(&k.spec.key()));
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
    let n_stored = ((distinct.len() as f64 * SEEDED_SHARE).round() as usize).max(forced.len());
    let mut records: BTreeMap<String, DbRecord> = BTreeMap::new();
    for key in &distinct[..n_stored] {
        let k = key.spec.key();
        let task = &tasks[key.task];
        let space = space_for_task(task);
        let m = SimMeasurer::new((DEVICES[key.device].1)());
        let mut top: Vec<TopConfig> = Vec::new();
        // Most configurations of a space do not launch; draw until
        // some do, so every chosen key really is stored.
        for _ in 0..SEED_DRAWS {
            for cfg in space.sample_distinct(rng, SEED_CONFIGS) {
                let r = m.measure(task, &space, &cfg);
                if r.is_valid() {
                    let (gflops, latency_s) = (r.gflops, r.latency_s);
                    top.push(TopConfig {
                        config_index: cfg.index,
                        choices: cfg.choices,
                        gflops,
                        latency_s,
                    });
                }
            }
            if !top.is_empty() {
                break;
            }
        }
        if top.is_empty() {
            return Err(format!("no valid configuration found for {k}"));
        }
        top.sort_by(|a, b| b.gflops.total_cmp(&a.gflops));
        let curve: Vec<f64> = top.iter().rev().map(|t| t.gflops).collect();
        let rec = traced::db_record(task, &space, DEVICES[key.device].0, "random", top, &curve);
        records.insert(k, rec);
    }
    Ok(records.into_values().collect())
}

fn knob_count(fingerprint: &str) -> usize {
    fingerprint.split(',').filter(|s| !s.is_empty()).count()
}

/// The reference answer for `key`, by brute force over the seeded
/// records: the record with its exact spec, else the closest record of
/// the same operator kind, device and knob count (squared distance of
/// shape features, ties broken by key), else none.
fn reference(key: &Key, stored: &[DbRecord]) -> Expect {
    let k = key.spec.key();
    if stored.iter().any(|r| r.spec.key() == k) {
        return Expect::Exact { key: k };
    }
    stored
        .iter()
        .filter(|r| {
            r.spec.kind == key.spec.kind
                && r.spec.device == key.spec.device
                && knob_count(&r.spec.knob_fingerprint) == knob_count(&key.spec.knob_fingerprint)
                && r.feature.len() == key.feature.len()
        })
        .map(|r| {
            let d: f64 = r.feature.iter().zip(&key.feature).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, r.spec.key())
        })
        .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
        .map_or(Expect::Miss, |(_, key)| Expect::Nearest { key })
}

/// One submitted job, as seen on its event stream.
struct Job {
    id: String,
    /// Which of the [`JOB_KEYS`] jobs this is a repetition of.
    slot: usize,
    device: usize,
    task: usize,
    submitted: f64,
    running: Option<f64>,
    done: Option<f64>,
}

/// What the job control saw.
#[derive(Default)]
struct Control {
    jobs: Vec<Job>,
    submit: Vec<f64>,
    status: Vec<f64>,
    errors: Vec<String>,
}

/// Submits the job plan on schedule, one job at a time: each job is
/// submitted, followed on its `/jobs/:id/events` stream until it ends,
/// and its status read once. One connection is open at a time.
fn control(
    addr: &str,
    keys: &[Key],
    plan: &[(usize, u64)],
    start: Instant,
) -> Result<Control, String> {
    let mut c = Control::default();
    for (n, &(k, seed)) in plan.iter().enumerate() {
        let due = JOB_PERIOD * u32::try_from(n).unwrap_or(u32::MAX);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let key = &keys[k];
        let body = json!({
            "tenant": if n % 2 == 0 { "tenant-a" } else { "tenant-b" },
            "model": key.model,
            "task": key.idx,
            "device": DEVICES[key.device].0,
            "method": "random",
            "n_trial": JOB_TRIALS,
            "seed": seed,
        });
        let mut conn = ClientConn::connect(addr)?;
        let (t, submitted) = (Instant::now(), start.elapsed().as_secs_f64());
        let answer = conn.roundtrip("POST", "/jobs", Some(&body))?;
        c.submit.push(t.elapsed().as_secs_f64());
        drop(conn);
        let mut job = match answer {
            (202, resp) => Job {
                id: resp["id"].as_str().unwrap_or_default().to_string(),
                slot: n % JOB_KEYS.len(),
                device: key.device,
                task: key.task,
                submitted,
                running: None,
                done: None,
            },
            (code, resp) => {
                c.errors.push(format!("submit refused: {code} {resp}"));
                continue;
            }
        };
        let mut failed = None;
        serve::client::stream_events(addr, &format!("/jobs/{}/events", job.id), |event| {
            let at = start.elapsed().as_secs_f64();
            match event["event"].as_str() {
                Some("job.start") => {
                    job.running.get_or_insert(at);
                }
                Some("job.done") => {
                    job.running.get_or_insert(at);
                    job.done = Some(at);
                }
                Some("job.failed") => failed = Some(event.to_string()),
                _ => {}
            }
            true
        })?;
        // The server publishes `job.done` just before its status says
        // so; a status read right after the event may still see it
        // running.
        let mut conn = ClientConn::connect(addr)?;
        let (code, status) = loop {
            let t = Instant::now();
            let (code, status) = conn.roundtrip("GET", &format!("/jobs/{}", job.id), None)?;
            c.status.push(t.elapsed().as_secs_f64());
            let settled = failed.is_some() || status["state"].as_str() != Some("running");
            if settled || start.elapsed().as_secs_f64() > job.done.unwrap_or(0.0) + 1.0 {
                break (code, status);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        match (failed, job.done, code, status["state"].as_str()) {
            (None, Some(_), 200, Some("done")) => c.jobs.push(job),
            (failed, ..) => {
                c.errors.push(format!("job {}: {failed:?}, status {code} {status}", job.id));
            }
        }
    }
    Ok(c)
}

/// Runs the workload and reports its metrics.
#[allow(clippy::too_many_lines)]
pub fn run(env: &Env, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = LayerReport::default();
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let (tasks, keys) = universe(&layers.probes);
    let job_keys: Vec<usize> = JOB_KEYS
        .iter()
        .map(|&(m, i, d)| keys.iter().position(|k| k.model == m && k.idx == i && k.device == d))
        .collect::<Option<_>>()
        .ok_or("a job key names no task")?;
    let records = seed_records(&tasks, &keys, &job_keys, &mut rng)?;
    let queries: Vec<Query> = keys
        .iter()
        .map(|k| Query {
            path: format!("/best?model={}&task={}&device={}", k.model, k.idx, DEVICES[k.device].0),
            expect: reference(k, &records),
            spec: k.spec.clone(),
            feature: k.feature.clone(),
        })
        .collect();
    let window = Duration::from_secs_f64(args.seconds);
    let plan = OpenLoop::new(READ_RATE, window);
    let order: Vec<usize> = (0..plan.len()).map(|_| rng.gen_range(0..keys.len())).collect();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n_jobs = ((window.as_secs_f64() / JOB_PERIOD.as_secs_f64()) as usize).max(2);
    // The jobs are the same side load for every workload seed (which
    // varies the stored keys and the lookup order): each of the four is
    // repeated with a fixed seed.
    let job_plan: Vec<(usize, u64)> =
        (0..n_jobs).map(|j| (job_keys[j % job_keys.len()], (j % job_keys.len()) as u64)).collect();
    let share = |f: fn(&Expect) -> bool| {
        #[allow(clippy::cast_precision_loss)]
        let s = order.iter().filter(|&&q| f(&queries[q].expect)).count() as f64
            / order.len().max(1) as f64;
        s
    };
    eprintln!(
        "{} keys, {} stored records; lookup mix exact {:.2} / nearest {:.2} / miss {:.2}; {n_jobs} jobs",
        keys.len(),
        records.len(),
        share(|e| matches!(e, Expect::Exact { .. })),
        share(|e| matches!(e, Expect::Nearest { .. })),
        share(|e| matches!(e, Expect::Miss)),
    );

    // Set-up, several times before the load and again after it: seed the
    // database, start the server, wait for /healthz. The last server
    // before the load carries it.
    let mut setup = Vec::new();
    let mut set_up = |s: usize| -> Result<(PathBuf, ServeProc), String> {
        let root = env.work.join(format!("serve{s}"));
        let seeding = traced::write_db(&root.join("db"), records.clone())?;
        let dms = DEVICE_MS.to_string();
        let (workers, devices) = (EXEC_WORKERS.to_string(), POOL_DEVICES.to_string());
        let flags = ["--device-ms", &dms, "--exec-workers", &workers, "--devices", &devices];
        let proc = ServeProc::start(env, &root, &flags)?;
        setup.push((seeding, proc.setup_s));
        Ok((root, proc))
    };
    let mut server = None;
    for s in 0..SETUPS / 2 {
        if let Some((_, previous)) = server.take() {
            ServeProc::shutdown(previous)?;
        }
        server = Some(set_up(s)?);
    }
    let (root, server) = server.expect("at least one set-up");
    let addr = server.addr.clone();

    let mut errors = reads::warm_up(&addr, &queries)?;
    let start = Instant::now();
    let (open, ctl) = std::thread::scope(|s| {
        let ctl = s.spawn(|| control(&addr, &keys, &job_plan, start));
        let open = reads::open_loop(&addr, &queries, &order, plan, start);
        (open, ctl.join().expect("job control panicked"))
    });
    let (open, ctl) = (open?, ctl?);
    let capacity = if args.trace {
        Some(reads::closed_loop(&addr, &queries, &order, 2, CAPACITY_WINDOW)?)
    } else {
        None
    };

    let mut conn = ClientConn::connect(&addr)?;
    // Per job slot: its (best GFLOPS, trials), which every repetition
    // must reproduce.
    let mut results: BTreeMap<usize, (f64, u64)> = BTreeMap::new();
    let mut trials = 0u64;
    for job in &ctl.jobs {
        let (code, body): (u16, Value) =
            conn.roundtrip("GET", &format!("/jobs/{}/result", job.id), None)?;
        match (code, body["tasks"][0]["best_gflops"].as_f64(), body["tasks"][0]["trials"].as_u64())
        {
            (200, Some(b), Some(n)) => {
                trials += n;
                if *results.entry(job.slot).or_insert((b, n)) != (b, n) {
                    errors.push(format!("job {} differs from its earlier repetition", job.id));
                }
            }
            _ => errors.push(format!("job {} result: {code} {body}", job.id)),
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let peak_mb = server.peak_rss_kib() as f64 / 1024.0;
    drop(conn);
    server.shutdown()?;
    for s in SETUPS / 2..SETUPS {
        set_up(s)?.1.shutdown()?;
    }

    // Output checks: every job's log keeps a running maximum, re-measures
    // identically on the job's device, and matches its repetitions.
    let mut first_logs = BTreeMap::new();
    for job in &ctl.jobs {
        let dir = root.join("jobs").join(&job.id);
        let logs = checks::read_logs(&dir)?;
        match first_logs.get(&job.slot) {
            Some(first) => out.check(checks::same_logs(&format!("job {}", job.id), first, &logs)),
            None => {
                first_logs.insert(job.slot, logs.clone());
            }
        }
        for (name, bytes) in logs {
            let log = checks::parse_log(&name, &bytes)?;
            out.check(checks::running_max(&log));
            out.check(checks::remeasure(&log, &tasks[job.task], (DEVICES[job.device].1)()));
        }
    }
    errors.extend(open.errors.iter().chain(&ctl.errors).cloned());
    out.attempted = (queries.len() + open.samples.len() + job_plan.len()) as u64;
    if let Some((cap, _)) = &capacity {
        errors.extend(cap.errors.iter().cloned());
        out.attempted += cap.completed + cap.errors.len() as u64;
    }
    out.failed = errors.len() as u64;
    out.problems.extend(errors.into_iter().take(5));

    let stats = ReadStats::of(&open, &queries);
    let run_s: Vec<f64> = ctl.jobs.iter().filter_map(|j| Some(j.done? - j.running?)).collect();
    if !args.trace {
        // As for the tuning workloads, each job is timed by its fastest
        // repetition: host contention only ever slows one down.
        let fastest = |f: &dyn Fn(&Job) -> Option<f64>| -> Vec<f64> {
            results
                .keys()
                .map(|&slot| {
                    ctl.jobs
                        .iter()
                        .filter(|j| j.slot == slot)
                        .filter_map(f)
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        };
        let job_wall = fastest(&|j| Some(j.done? - j.submitted));
        let job_run = fastest(&|j| Some(j.done? - j.running?));
        let slot_trials: u64 = results.values().map(|r| r.1).sum();
        let best: Vec<f64> = results.values().map(|r| r.0).collect();
        #[allow(clippy::cast_precision_loss)]
        {
            out.metric("trials_per_s", slot_trials as f64 / job_run.iter().sum::<f64>(), "1/s");
            out.metric("best_gflops_geomean", geomean(&best).unwrap_or(0.0), "GFLOPS");
            out.metric(
                "setup_s",
                Summary::new(setup.iter().map(|(a, b)| a + b).collect()).p50(),
                "s",
            );
            out.metric("peak_rss_mb", peak_mb, "MB");
            out.metric("job_wall_p50_s", Summary::new(job_wall).p50(), "s");
        }
        eprintln!("lookups from due time {}", stats.latency.describe(1e3, "ms"));
        let part = |f: fn(&(f64, f64)) -> f64| Summary::new(setup.iter().map(f).collect());
        eprintln!("set-up: seeding {}", part(|p| p.0).describe(1e3, "ms"));
        eprintln!("set-up: server start {}", part(|p| p.1).describe(1e3, "ms"));
        return Ok(out);
    }

    // Traced run: per-route client timings, job phases, the database
    // replayed in-process, and every job re-run in-process with its layers
    // probed (its log must match the server's byte for byte).
    layers.best_exact = stats.exact;
    layers.best_nearest = stats.nearest;
    layers.lag = stats.lag;
    layers.lookup = stats.latency;
    layers.capacity_qps = capacity.map_or(0.0, |(_, qps)| qps);
    layers.submit = Summary::new(ctl.submit.clone());
    layers.status = Summary::new(ctl.status.clone());
    layers.admission_wait =
        Summary::new(ctl.jobs.iter().filter_map(|j| Some(j.running? - j.submitted)).collect());
    layers.runner_run = Summary::new(run_s.clone());
    let (lookup, nearest, n_records) =
        traced::replay_db(&root.join("db"), &env.work.join("db-replay"), &queries, &order)?;
    (layers.db_lookup, layers.db_nearest) = (lookup, nearest);
    #[allow(clippy::cast_precision_loss)]
    {
        layers.db_records = n_records as f64;
        layers.bytes_per_trial =
            ctl.jobs.iter().map(|j| traced::dir_bytes(&root.join("jobs").join(&j.id))).sum::<u64>()
                as f64
                / trials.max(1) as f64;
    }
    layers.untraced_wall_s = run_s.iter().sum();
    telemetry::set_global(telemetry::Telemetry::new(SpanSink(Arc::clone(&layers.probes))));
    let replayed = replay_jobs(&root, &env.work.join("traced"), &tasks, &ctl.jobs, &layers.probes);
    telemetry::set_global(telemetry::Telemetry::disabled());
    let (busy, diffs) = replayed?;
    layers.task_busy_s = busy;
    layers.traced_wall_s = busy;
    for d in diffs {
        out.check(Err(d));
    }
    eprint!("{}", layers.table());
    for (name, value, unit) in layers.metrics() {
        out.metric(name, value, unit);
    }
    Ok(out)
}

/// Re-runs every job in-process, one after another, through the same
/// executor shape and device hold the server uses, with the layers
/// probed. Returns the summed job seconds and any log that differs.
fn replay_jobs(
    root: &Path,
    traced_root: &Path,
    tasks: &[TuningTask],
    jobs: &[Job],
    probes: &Arc<Probes>,
) -> Result<(f64, Vec<String>), String> {
    let mut busy = 0.0;
    let mut diffs = Vec::new();
    for job in jobs {
        let dir = root.join("jobs").join(&job.id);
        let manifest = RunDir::create(&dir)
            .map_err(|e| e.to_string())
            .and_then(|d| d.read_manifest().map_err(|e| e.to_string()))
            .map_err(|e| format!("job {} manifest: {e}", job.id))?;
        let method = traced::method_of(&manifest.method)?;
        let out_dir = traced_root.join(&job.id);
        let out = RunDir::create(&out_dir).map_err(|e| format!("traced job dir: {e}"))?;
        let sim = TimedSim {
            inner: SimMeasurer::new((DEVICES[job.device].1)()),
            probes: Arc::clone(probes),
        };
        let config = ExecutorConfig::for_workers(EXEC_WORKERS)
            .with_devices(POOL_DEVICES)
            .with_device_hold(Duration::from_millis(DEVICE_MS));
        let measurer =
            TimedBatches { inner: Executor::new(sim, config), probes: Arc::clone(probes) };
        let io = traced::RunIo::default();
        busy += traced::traced_task(
            &tasks[job.task],
            method,
            &manifest.options,
            &measurer,
            &out,
            &io,
            probes,
        )?;
        if let Err(d) = checks::same_logs(
            &format!("job {} traced vs served", job.id),
            &checks::read_logs(&dir)?,
            &checks::read_logs(&out_dir)?,
        ) {
            diffs.push(d);
        }
    }
    Ok((busy, diffs))
}
