//! End-to-end server tests: the full job lifecycle over real sockets,
//! the cached read path, event streaming, and crash-recovery resume
//! with byte-identical trial logs.

use serde_json::{json, Value};
use serve::client;
use serve::{ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("aaltune-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn config(root: &Path) -> ServeConfig {
    ServeConfig {
        root: root.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        http_workers: 2,
        job_workers: 2,
        devices: 2,
        quiet: true,
        snapshot_interval: Duration::from_millis(200),
        ..ServeConfig::default()
    }
}

fn submit(addr: &str, body: &Value) -> String {
    let (code, resp) = client::request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert_eq!(code, 202, "submit should be accepted: {resp}");
    resp["id"].as_str().expect("job id").to_string()
}

fn wait_done(addr: &str, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) =
            client::request(addr, "GET", &format!("/jobs/{id}"), None).expect("status");
        assert_eq!(code, 200, "status of a known job: {body}");
        match body["state"].as_str() {
            Some("done") => return body,
            Some("failed") => panic!("job {id} failed: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "timeout waiting for {id}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn spec(tenant: &str, seed: u64, n_trial: u64) -> Value {
    json!({
        "tenant": tenant,
        "model": "squeezenet",
        "task": 0u64,
        "method": "random",
        "n_trial": n_trial,
        "seed": seed,
    })
}

#[test]
fn full_job_lifecycle_read_path_and_event_stream() {
    let root = temp_root("lifecycle");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr().to_string();

    // The bound address is published for `aaltune client --root`.
    let published = std::fs::read_to_string(root.join("serve.addr")).expect("serve.addr");
    assert_eq!(published, addr);

    // Garbage in → typed errors out, before anything is journaled.
    let (code, body) =
        client::request(&addr, "POST", "/jobs", Some(&json!({"model": "nope"}))).unwrap();
    assert_eq!(code, 400, "unknown model: {body}");
    let (code, _) = client::request(&addr, "GET", "/jobs/j99", None).unwrap();
    assert_eq!(code, 404);
    let (code, _) = client::request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(code, 404);
    let (code, _) = client::request(&addr, "DELETE", "/jobs", None).unwrap();
    assert_eq!(code, 405);

    // Two tenants, two jobs.
    let j1 = submit(&addr, &spec("alpha", 3, 24));
    let j2 = submit(&addr, &spec("beta", 9, 16));
    assert_eq!((j1.as_str(), j2.as_str()), ("j1", "j2"));

    // A result query before completion is a typed 409, not a hang.
    let (code, body) = client::request(&addr, "GET", "/jobs/j1/result", None).unwrap();
    assert!(code == 409 || code == 200, "premature result is 409 (or the job already won): {body}");

    let s1 = wait_done(&addr, &j1);
    assert_eq!(s1["tenant"].as_str(), Some("alpha"));
    wait_done(&addr, &j2);

    let (code, result) = client::request(&addr, "GET", "/jobs/j1/result", None).unwrap();
    assert_eq!(code, 200, "finished job has a result: {result}");
    assert_eq!(result["job"].as_str(), Some("j1"));
    assert_eq!(result["tasks"][0]["trials"].as_u64(), Some(24));
    assert!(result["tasks"][0]["best_gflops"].as_f64().unwrap() > 0.0);

    // The read path answers from the database the jobs populated.
    let (code, best) =
        client::request(&addr, "GET", "/best?model=squeezenet&task=0&device=gtx1080ti", None)
            .unwrap();
    assert_eq!(code, 200, "tuned task has a db record: {best}");
    assert_eq!(best["source"].as_str(), Some("exact"));
    assert!(best["record"]["best_gflops"].as_f64().unwrap() > 0.0);
    // An untuned task of the same model still gets a nearest-neighbor hint.
    let (code, near) =
        client::request(&addr, "GET", "/best?model=squeezenet&task=5", None).unwrap();
    assert_eq!(code, 200, "nearest fallback: {near}");
    assert_eq!(near["source"].as_str(), Some("nearest"));
    // A bad query is a 400, not a panic — and an unknown device is
    // rejected before it can mint a spec-cache entry.
    let (code, _) = client::request(&addr, "GET", "/best?task=0", None).unwrap();
    assert_eq!(code, 400);
    let (code, body) =
        client::request(&addr, "GET", "/best?model=squeezenet&device=tpu", None).unwrap();
    assert_eq!(code, 400, "unknown device: {body}");

    // The event stream replays the ring and terminates at the terminal
    // event even for a long-finished job.
    let mut events: Vec<Value> = Vec::new();
    client::stream_events(&addr, &format!("/jobs/{j1}/events"), |v| {
        events.push(v.clone());
        true
    })
    .expect("event stream");
    assert_eq!(events.first().and_then(|v| v["event"].as_str()), Some("job.start"));
    assert_eq!(events.last().and_then(|v| v["event"].as_str()), Some("job.done"));
    assert!(
        events.iter().filter(|v| v["event"].as_str() == Some("job.trial")).count() >= 24,
        "every live trial is streamed"
    );
    let seqs: Vec<u64> = events.iter().filter_map(|v| v["seq"].as_u64()).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "events arrive in seq order");

    // Metrics snapshots land in the serve root (what `aaltune top` tails).
    assert!(root.join(telemetry::SNAPSHOT_FILE).exists(), "live snapshot published");

    // Graceful shutdown over HTTP; wait() must return.
    let (code, _) = client::request(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(code, 202);
    server.wait();

    // After the drain, the journal holds both terminal lines.
    let journal = std::fs::read_to_string(root.join("journal.jsonl")).expect("journal");
    assert_eq!(journal.matches("\"submitted\"").count(), 2);
    assert_eq!(journal.matches("\"done\"").count(), 2);
    let _ = std::fs::remove_dir_all(&root);
}

/// Runs a twin server to completion, then reconstructs a "crashed" root
/// (journal acknowledges both jobs; one run dir torn mid-task, the other
/// never started) and requires the restarted server to finish both with
/// trial logs byte-identical to the twin's.
#[test]
fn restart_resumes_queue_with_byte_identical_logs() {
    let twin_root = temp_root("twin");
    let twin = Server::start(config(&twin_root)).expect("twin starts");
    let addr = twin.addr().to_string();
    let j1 = submit(&addr, &spec("alpha", 3, 40));
    let j2 = submit(&addr, &spec("beta", 9, 24));
    wait_done(&addr, &j1);
    wait_done(&addr, &j2);
    twin.shutdown();
    twin.wait();

    // Build the crashed root: journal as of the 202 acks (no terminal
    // lines — the "crash" predates both completions)...
    let crash_root = temp_root("crash");
    std::fs::create_dir_all(crash_root.join("jobs")).unwrap();
    let submitted: String = std::fs::read_to_string(twin_root.join("journal.jsonl"))
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"submitted\""))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(crash_root.join("journal.jsonl"), submitted).unwrap();

    // ...j1's run dir torn mid-task: log truncated on a line boundary
    // after 11 lines (header + 10 trials), no task complete in its
    // progress journal...
    let twin_j1 = twin_root.join("jobs").join(&j1);
    let log_name = std::fs::read_dir(twin_j1.join("logs"))
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .find(|n| n.to_string_lossy().ends_with(".jsonl"))
        .expect("twin j1 task log");
    let crash_j1 = active_learning::records::RunDir::create(crash_root.join("jobs").join(&j1))
        .expect("crashed run dir");
    std::fs::copy(twin_j1.join("manifest.json"), crash_j1.path().join("manifest.json")).unwrap();
    let full_log = std::fs::read_to_string(twin_j1.join("logs").join(&log_name)).unwrap();
    let torn: String = full_log.lines().take(11).map(|l| format!("{l}\n")).collect();
    assert!(full_log.len() > torn.len(), "the twin log must extend past the tear");
    std::fs::write(twin_j1.join("logs").join(&log_name), &full_log).unwrap();
    std::fs::write(crash_j1.path().join("logs").join(&log_name), &torn).unwrap();
    std::fs::write(crash_j1.path().join("progress.jsonl"), "").unwrap();
    // ...and j2 not started at all (journaled, no run dir).

    let server = Server::start(config(&crash_root)).expect("restarted server");
    let addr = server.addr().to_string();
    wait_done(&addr, &j1);
    wait_done(&addr, &j2);
    server.shutdown();
    server.wait();

    for id in [&j1, &j2] {
        let twin_logs = twin_root.join("jobs").join(id).join("logs");
        for entry in std::fs::read_dir(&twin_logs).unwrap() {
            let name = entry.unwrap().file_name();
            let twin_bytes = std::fs::read(twin_logs.join(&name)).unwrap();
            let crash_bytes =
                std::fs::read(crash_root.join("jobs").join(id).join("logs").join(&name))
                    .unwrap_or_else(|_| panic!("{id} log {name:?} missing after resume"));
            assert_eq!(
                twin_bytes, crash_bytes,
                "{id} log {name:?} must be byte-identical after crash + resume"
            );
        }
        let twin_result = std::fs::read(twin_root.join("jobs").join(id).join("result.json"));
        let crash_result = std::fs::read(crash_root.join("jobs").join(id).join("result.json"));
        assert_eq!(twin_result.unwrap(), crash_result.unwrap(), "{id} result matches");
    }
    // A fresh server on the now-complete journal restores both jobs as
    // terminal with empty event rings; the stream must synthesize the
    // terminal line and finish instead of polling until shutdown.
    let server = Server::start(config(&crash_root)).expect("post-resume restart");
    let addr = server.addr().to_string();
    let mut events: Vec<Value> = Vec::new();
    client::stream_events(&addr, &format!("/jobs/{j1}/events"), |v| {
        events.push(v.clone());
        true
    })
    .expect("replayed job streams");
    assert_eq!(events.last().and_then(|v| v["event"].as_str()), Some("job.done"));
    assert_eq!(events.last().and_then(|v| v["replayed"].as_bool()), Some(true));
    server.shutdown();
    server.wait();

    let _ = std::fs::remove_dir_all(&twin_root);
    let _ = std::fs::remove_dir_all(&crash_root);
}

/// A journal whose final `submitted` line lost its newline (a crash
/// mid-append, before the 202) must not swallow the next acknowledged
/// job: that line is uncommitted, so it is dropped, never glued to.
#[test]
fn a_torn_final_journal_line_never_loses_an_acknowledged_job() {
    let root = temp_root("torn-journal");
    std::fs::create_dir_all(&root).unwrap();
    let torn = serve::JournalLine {
        entry: "submitted".to_string(),
        id: "j1".to_string(),
        spec: Some(serve::JobSpec::from_value(&spec("alpha", 5, 8)).unwrap()),
        error: None,
    };
    std::fs::write(root.join("journal.jsonl"), serde_json::to_string(&torn).unwrap()).unwrap();

    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr().to_string();
    let acked = submit(&addr, &spec("beta", 7, 8));
    wait_done(&addr, &acked);
    server.shutdown();
    server.wait();

    let server = Server::start(config(&root)).expect("restarted server");
    let addr = server.addr().to_string();
    let (code, body) =
        client::request(&addr, "GET", &format!("/jobs/{acked}"), None).expect("status");
    assert_eq!(code, 200, "acknowledged job {acked} must survive the restart: {body}");
    assert_eq!(body["state"].as_str(), Some("done"), "{acked}: {body}");
    server.shutdown();
    server.wait();
    let journal = std::fs::read_to_string(root.join("journal.jsonl")).unwrap();
    assert!(journal.ends_with('\n'), "every journal line is committed: {journal:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A client that sends request headers and then stalls must not pin an
/// HTTP worker past shutdown: even with every worker mid-read, the
/// drain completes within the idle-poll tick.
#[test]
fn stalled_clients_do_not_block_shutdown() {
    use std::io::Write;

    let root = temp_root("stall");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr();

    // More stalled connections than http_workers (2), each promising a
    // body that never arrives.
    let mut stalled = Vec::new();
    for _ in 0..3 {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n").expect("partial write");
        stalled.push(s);
    }
    // Let the workers pick the connections up and enter the body read.
    std::thread::sleep(Duration::from_millis(200));

    server.shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10)).expect("shutdown must drain despite stalled clients");
    drop(stalled);
    let _ = std::fs::remove_dir_all(&root);
}

/// A job is marked terminal before its terminal event is published: a
/// status read issued the moment a follower sees `job.done` already says
/// `done`, and the stream carries the terminal line exactly once.
#[test]
fn status_read_right_after_the_terminal_event_is_terminal() {
    let root = temp_root("terminal");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr().to_string();
    for seed in 0..4 {
        let id = submit(&addr, &spec("alpha", seed, 8));
        let mut states = Vec::new();
        client::stream_events(&addr, &format!("/jobs/{id}/events"), |v| {
            if matches!(v["event"].as_str(), Some("job.done" | "job.failed")) {
                let (code, body) =
                    client::request(&addr, "GET", &format!("/jobs/{id}"), None).expect("status");
                assert_eq!(code, 200, "status of a known job: {body}");
                states.push(body["state"].as_str().unwrap_or_default().to_string());
            }
            true
        })
        .expect("event stream");
        assert_eq!(states, vec!["done".to_string()], "{id}: one terminal line, read as done");
    }
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// Whether the serve root's metrics snapshot holds counter `name`.
fn snapshot_has(root: &Path, name: &str) -> bool {
    std::fs::read_to_string(root.join(telemetry::SNAPSHOT_FILE))
        .ok()
        .and_then(|body| serde_json::from_str::<Value>(&body).ok())
        .is_some_and(|snap| snap["counters"].get(name).is_some())
}

#[test]
fn finished_jobs_and_first_reads_reach_the_snapshot_without_waiting_the_interval() {
    let root = temp_root("snapshot-now");
    let cfg = ServeConfig { snapshot_interval: Duration::from_secs(600), ..config(&root) };
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr().to_string();

    let id = submit(&addr, &spec("alpha", 3, 8));
    wait_done(&addr, &id);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !snapshot_has(&root, "serve.jobs.completed") && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(snapshot_has(&root, "serve.jobs.completed"), "job end publishes a snapshot");
    let (code, _) =
        client::request(&addr, "GET", "/best?model=squeezenet&task=0", None).expect("best");
    assert_eq!(code, 200);
    assert!(snapshot_has(&root, "serve.read.hit"), "published before the first exact answer");

    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// A follower that stops reading stalls the server's writes to it. On one
/// connection it asks for the event streams of three whole-model jobs
/// that run one after another, about 6 MB of events in all: more than
/// the socket buffers between them hold, so the server's writes block
/// while a followed job runs on, far past its 512-event ring, to its end.
/// Once the follower reads again, it must still get each job's events,
/// in order, up to the `job.done` whose `seq` follows the job's last
/// trial, and each stream must end.
#[test]
fn a_stalled_follower_still_gets_its_jobs_terminal_event() {
    use std::io::{Read, Write};

    let root = temp_root("stalled-follower");
    let server =
        Server::start(ServeConfig { job_workers: 1, ..config(&root) }).expect("server starts");
    let addr = server.addr().to_string();
    // About 15,000 trials each, of ~140 bytes of event line.
    let jobs: Vec<String> = (3..6u64)
        .map(|seed| {
            submit(
                &addr,
                &json!({
                    "tenant": "alpha",
                    "model": "mobilenet_v1",
                    "method": "random",
                    "n_trial": 40_000u64,
                    "seed": seed,
                }),
            )
        })
        .collect();
    // The requests are pipelined, and the write half is closed so the
    // server drops the connection after the last stream.
    let mut follower = std::net::TcpStream::connect(&addr).expect("connect");
    for id in &jobs {
        write!(follower, "GET /jobs/{id}/events HTTP/1.1\r\nHost: aaltune\r\n\r\n")
            .expect("request");
    }
    follower.shutdown(std::net::Shutdown::Write).expect("half-close");
    let terminal_seqs: Vec<u64> = jobs
        .iter()
        .map(|id| {
            wait_done(&addr, id);
            let (code, result) =
                client::request(&addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
            assert_eq!(code, 200, "{result}");
            let trials: u64 = result["tasks"]
                .as_array()
                .expect("per-task summaries")
                .iter()
                .map(|t| t["trials"].as_u64().expect("trial count"))
                .sum();
            trials + 1
        })
        .collect();

    follower.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut body = Vec::new();
    follower.read_to_end(&mut body).expect("the streams end once the terminal lines are sent");
    let body = String::from_utf8(body).expect("UTF-8 stream");
    assert_eq!(body.matches("HTTP/1.1 200").count(), jobs.len(), "one response per request");
    assert!(body.ends_with("0\r\n\r\n"), "chunked stream terminated");
    // Each chunk is one JSON line; chunk-size lines never start with `{`.
    let events: Vec<Value> = body
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("JSON event line"))
        .collect();
    let mut rest = events.as_slice();
    for (id, terminal_seq) in jobs.iter().zip(terminal_seqs) {
        let n = rest.iter().take_while(|v| v["job"].as_str() == Some(id.as_str())).count();
        let (stream, tail) = rest.split_at(n);
        rest = tail;
        let seqs: Vec<u64> = stream.iter().filter_map(|v| v["seq"].as_u64()).collect();
        assert_eq!(seqs.len(), stream.len(), "every line of {id} is seq-stamped");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{id}'s events arrive in seq order");
        assert_eq!(stream.last().and_then(|v| v["event"].as_str()), Some("job.done"));
        assert_eq!(seqs.last(), Some(&terminal_seq), "{id}'s terminal line is its last event");
    }
    assert!(rest.is_empty(), "each stream carries its own job's events only");

    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// Followers of queued jobs, one per HTTP worker, each with a read
/// timeout shorter than its job's wait in the queue: `/healthz` still
/// answers at once while they follow, and each still gets its job's
/// `job.done`.
#[test]
fn followers_of_queued_jobs_outlast_their_read_timeout_and_hold_no_http_worker() {
    let root = temp_root("queued-followers");
    let cfg =
        ServeConfig { job_workers: 1, device_hold: Duration::from_millis(20), ..config(&root) };
    let server = Server::start(cfg.clone()).expect("server starts");
    let addr = server.addr().to_string();
    let read_timeout = Duration::from_secs(1);
    // Its valid configs hold one of two devices 20 ms each: about 3 s
    // ahead of the followed jobs.
    let blocker = submit(&addr, &spec("beta", 1, 1_200));
    let started = Instant::now();
    let followers: Vec<_> = (0..cfg.http_workers as u64)
        .map(|seed| {
            let (addr, id) = (addr.clone(), submit(&addr, &spec("alpha", seed, 8)));
            std::thread::spawn(move || {
                let mut first = None;
                let last = client::follow_job(&addr, &id, read_timeout, |_| {
                    first.get_or_insert_with(Instant::now);
                    Ok(())
                })
                .expect("a queued job is followed past the read timeout");
                (last, first)
            })
        })
        .collect();

    std::thread::sleep(read_timeout / 2);
    let asked = Instant::now();
    let (code, _) = client::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(code, 200);
    assert!(asked.elapsed() < read_timeout, "/healthz waited {:?}", asked.elapsed());
    let (_, status) = client::request(&addr, "GET", &format!("/jobs/{blocker}"), None).unwrap();
    assert_eq!(status["state"].as_str(), Some("running"), "the followed jobs are still queued");
    let (code, _) = client::request(&addr, "GET", &format!("/jobs/{blocker}/events?after=x"), None)
        .expect("bad cursor");
    assert_eq!(code, 400, "a cursor that is not a seq");

    for follower in followers {
        let (last, first) = follower.join().expect("follower thread");
        assert_eq!(last["event"].as_str(), Some("job.done"));
        let queued_for = first.expect("job.start arrived") - started;
        assert!(queued_for > read_timeout, "queued for only {queued_for:?}");
    }
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&root);
}
