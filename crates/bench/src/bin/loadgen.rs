//! Load generator for `aaltune serve`: measures the cached `GET /best`
//! read path (lookups/sec, p50/p99 latency) while two tenants' tuning
//! jobs run concurrently, and checks tenant isolation (each concurrent
//! job within 2x its solo wall-clock).
//!
//! The jobs are device-bound (`--device-ms` emulates per-measurement
//! device occupancy, the same knob `aaltune tune` exposes), which is the
//! regime the server is designed for: tuning holds devices, the read
//! path holds the CPU. Writes `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p bench --bin loadgen -- [--n-trial N] [--readers R]
//!     [--device-ms T] [--window-s S] [--out FILE]
//! ```

use bench::args::Args;
use dnn_graph::task::extract_tasks;
use schedule::template::space_for_task;
use serde_json::{json, Value};
use serve::client::{self, ClientConn};
use serve::{ServeConfig, Server};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace_analysis::stats::percentile;
use tuning_db::{decimate_curve, DbRecord, LockOptions, TaskSpec, TopConfig, TuningDb};

fn submit(addr: &str, tenant: &str, seed: u64, n_trial: u64) -> String {
    let body = json!({
        "tenant": tenant,
        "model": "squeezenet",
        "task": 0u64,
        "method": "random",
        "n_trial": n_trial,
        "seed": seed,
    });
    let (code, resp) = client::request(addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(code, 202, "submit accepted: {resp}");
    resp["id"].as_str().expect("job id").to_string()
}

fn state_of(addr: &str, id: &str) -> String {
    let (_, body) = client::request(addr, "GET", &format!("/jobs/{id}"), None).expect("status");
    body["state"].as_str().unwrap_or("?").to_string()
}

fn wait_done(addr: &str, id: &str) {
    while state_of(addr, id) != "done" {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Seeds the database with one synthetic record per squeezenet task, so
/// the read phase exercises exact hits across many distinct keys.
fn seed_db(root: &Path) -> usize {
    let mut db = TuningDb::open(&root.join("db"), &LockOptions::default()).expect("open db");
    let tasks = extract_tasks(&dnn_graph::models::squeezenet_v1_1(1));
    for task in &tasks {
        let space = space_for_task(task);
        let top_k: Vec<TopConfig> = (0..8u64.min(space.len()))
            .map(|i| {
                let cfg = space.config(i).expect("seed config");
                #[allow(clippy::cast_precision_loss)]
                let gflops = 100.0 - i as f64;
                TopConfig { config_index: i, choices: cfg.choices, gflops, latency_s: 1e-3 }
            })
            .collect();
        db.upsert(DbRecord {
            schema_version: tuning_db::DB_SCHEMA_VERSION,
            spec: TaskSpec::of(task, &space, "gtx1080ti"),
            feature: TaskSpec::features(task),
            method: "random".to_string(),
            seed: 0,
            n_trials: 64,
            best_gflops: 100.0,
            top_k,
            curve: decimate_curve(&[50.0, 75.0, 100.0], 64),
        })
        .expect("seed upsert");
    }
    tasks.len()
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let args = Args::from_env();
    let n_trial: u64 = args.get("n-trial", 2048);
    let readers: usize = args.get("readers", 3);
    let device_ms: u64 = args.get("device-ms", 2);
    let window_s: f64 = args.get("window-s", 2.0);
    let out = args.get_str("out", "BENCH_serve.json");

    let root = std::env::temp_dir().join(format!("aaltune-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create root");
    let n_tasks = seed_db(&root);

    let server = Server::start(ServeConfig {
        root: root.clone(),
        addr: "127.0.0.1:0".to_string(),
        http_workers: readers + 2,
        job_workers: 2,
        devices: 8,
        exec_workers: 4,
        device_hold: Duration::from_millis(device_ms),
        quiet: true,
        snapshot_interval: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .expect("server");
    let addr = server.addr().to_string();
    eprintln!("loadgen: server on {addr}, {n_tasks} seeded tasks");

    // Phase 1: solo job baseline (no read load, no other tenants).
    // aal-lint: allow(wall-clock, reason = "benchmark wall-clock measurement; not a tuning input")
    let t0 = Instant::now();
    let solo = submit(&addr, "solo", 1, n_trial);
    wait_done(&addr, &solo);
    let solo_s = t0.elapsed().as_secs_f64();
    eprintln!("loadgen: solo job {solo} in {solo_s:.3}s");

    // Phase 2: two tenants tune concurrently while readers hammer /best.
    let stop = Arc::new(AtomicBool::new(false));
    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            // aal-lint: allow(thread-spawn, reason = "benchmark load-generator threads, joined before reporting")
            std::thread::spawn(move || {
                let mut conn = ClientConn::connect(&addr).expect("reader connect");
                let mut lat_us: Vec<u64> = Vec::with_capacity(1 << 16);
                let mut task = r;
                while !stop.load(Ordering::Acquire) {
                    task = (task + 1) % n_tasks;
                    let path = format!("/best?model=squeezenet&task={task}");
                    // aal-lint: allow(wall-clock, reason = "benchmark latency measurement; not a tuning input")
                    let t = Instant::now();
                    let (code, body) = conn.roundtrip("GET", &path, None).expect("lookup");
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    lat_us.push(t.elapsed().as_micros() as u64);
                    assert_eq!(code, 200, "seeded task lookup: {body}");
                    assert_eq!(body["source"].as_str(), Some("exact"));
                }
                lat_us
            })
        })
        .collect();

    // aal-lint: allow(wall-clock, reason = "benchmark wall-clock measurement; not a tuning input")
    let read_start = Instant::now();
    // aal-lint: allow(wall-clock, reason = "benchmark wall-clock measurement; not a tuning input")
    let ta = Instant::now();
    let ja = submit(&addr, "tenant-a", 2, n_trial);
    // aal-lint: allow(wall-clock, reason = "benchmark wall-clock measurement; not a tuning input")
    let tb = Instant::now();
    let jb = submit(&addr, "tenant-b", 3, n_trial);
    let (mut wall_a, mut wall_b) = (None, None);
    while wall_a.is_none() || wall_b.is_none() {
        if wall_a.is_none() && state_of(&addr, &ja) == "done" {
            wall_a = Some(ta.elapsed().as_secs_f64());
        }
        if wall_b.is_none() && state_of(&addr, &jb) == "done" {
            wall_b = Some(tb.elapsed().as_secs_f64());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (wall_a, wall_b) = (wall_a.expect("wall a"), wall_b.expect("wall b"));
    // Keep the read window honest even if the jobs finish early.
    while read_start.elapsed().as_secs_f64() < window_s {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Release);
    let window = read_start.elapsed().as_secs_f64();
    let mut lat_us: Vec<u64> =
        reader_handles.into_iter().flat_map(|h| h.join().expect("reader")).collect();
    lat_us.sort_unstable();

    let lookups = lat_us.len();
    let qps = lookups as f64 / window;
    let p50 = percentile(&lat_us, 0.50);
    let p99 = percentile(&lat_us, 0.99);
    let (ratio_a, ratio_b) = (wall_a / solo_s, wall_b / solo_s);
    eprintln!(
        "loadgen: {lookups} lookups in {window:.2}s = {qps:.0}/s, p50 {p50}us p99 {p99}us; \
         jobs solo {solo_s:.3}s, concurrent {wall_a:.3}s/{wall_b:.3}s \
         (x{ratio_a:.2}/x{ratio_b:.2})"
    );

    let (code, _) = client::request(&addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(code, 202);
    server.wait();

    let report: Value = json!({
        "schema_version": 1u64,
        "bench": "serve_loadgen",
        "config": json!({
            "model": "squeezenet",
            "method": "random",
            "n_trial": n_trial,
            "readers": readers as u64,
            "devices": 8u64,
            "job_workers": 2u64,
            "exec_workers": 4u64,
            "device_ms": device_ms,
            "seeded_tasks": n_tasks as u64,
        }),
        "read": json!({
            "lookups": lookups as u64,
            "window_s": window,
            "qps": qps,
            "p50_us": p50,
            "p99_us": p99,
        }),
        "jobs": json!({
            "solo_s": solo_s,
            "tenant_a_s": wall_a,
            "tenant_b_s": wall_b,
            "ratio_a": ratio_a,
            "ratio_b": ratio_b,
        }),
        "gates": json!({
            "qps_min": 10_000.0,
            "p99_max_us": 5_000u64,
            "ratio_max": 2.0,
        }),
    });
    let pretty = serde_json::to_string_pretty(&report).expect("encode report");
    telemetry::durable::replace(Path::new(&out), |w| writeln!(w, "{pretty}"))
        .expect("write report");
    eprintln!("loadgen: wrote {out}");
    let _ = std::fs::remove_dir_all(&root);

    assert!(qps >= 10_000.0, "read path must sustain >=10k lookups/s (got {qps:.0})");
    assert!(p99 < 5_000, "read p99 must stay under 5ms (got {p99}us)");
    assert!(
        ratio_a <= 2.0 && ratio_b <= 2.0,
        "concurrent jobs must finish within 2x solo (got x{ratio_a:.2}/x{ratio_b:.2})"
    );
    println!("loadgen: PASS");
}
