//! `GET /best` load against a running server: an open-loop phase on one
//! connection and a closed-loop capacity phase, with every answer checked
//! against the answer the benchmark expects.

use crate::openloop::{OpenLoop, Timing};
use crate::stats::Summary;
use serde_json::Value;
use serve::client::ClientConn;
use std::time::{Duration, Instant};
use tuning_db::TaskSpec;

/// What a lookup must answer, worked out by the benchmark itself.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// The record stored under exactly this key.
    Exact { key: String },
    /// The nearest stored record, which has this key.
    Nearest { key: String },
    /// No record at all (404).
    Miss,
}

/// One lookup the load draws from.
#[derive(Debug, Clone)]
pub struct Query {
    pub path: String,
    pub expect: Expect,
    /// The key's spec and shape features, for replaying it in-process.
    pub spec: TaskSpec,
    pub feature: Vec<f64>,
}

impl Expect {
    fn check(&self, code: u16, body: &Value) -> Result<(), String> {
        let (source, key) = match self {
            Expect::Miss if code == 404 => return Ok(()),
            Expect::Miss => return Err(format!("expected a miss, got {code} {}", body["source"])),
            Expect::Exact { key } => ("exact", key),
            Expect::Nearest { key } => ("nearest", key),
        };
        if code != 200 || body["source"].as_str() != Some(source) {
            return Err(format!("expected {source} {key}, got {code} {}", body["source"]));
        }
        let got = serde_json::from_value::<TaskSpec>(&body["record"]["spec"])
            .map_err(|e| format!("answer without a record spec: {e}"))?
            .key();
        if got == *key {
            Ok(())
        } else {
            Err(format!("{source} answer {got}, reference {key}"))
        }
    }
}

/// One answered lookup of the open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub query: usize,
    pub timing: Timing,
}

/// Outcome of a load phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    pub completed: u64,
    pub errors: Vec<String>,
}

fn lookup(conn: &mut ClientConn, q: &Query) -> Result<(), String> {
    let (code, body) = conn.roundtrip("GET", &q.path, None)?;
    q.expect.check(code, &body).map_err(|e| format!("{}: {e}", q.path))
}

/// Sends `order[i]`-th queries on the open-loop `plan`, starting at
/// `start`, on one fresh connection.
pub fn open_loop(
    addr: &str,
    queries: &[Query],
    order: &[usize],
    plan: OpenLoop,
    start: Instant,
) -> Result<PhaseResult, String> {
    let mut conn = ClientConn::connect(addr)?;
    let mut out = PhaseResult::default();
    let mut prev_free = Duration::ZERO;
    for i in 0..plan.len() {
        let send_at = plan.send_at(i, prev_free);
        let now = start.elapsed();
        if send_at > now {
            std::thread::sleep(send_at - now);
        }
        let query = order[i % order.len()];
        let sent = start.elapsed();
        let result = lookup(&mut conn, &queries[query]);
        let timing = Timing { due: plan.due(i), send_at, sent, done: start.elapsed() };
        prev_free = timing.free_on_time();
        out.samples.push(Sample { query, timing });
        match result {
            Ok(()) => out.completed += 1,
            Err(e) => out.errors.push(e),
        }
    }
    Ok(out)
}

/// Asks for every query once, so that caches the server fills lazily are
/// warm before anything is timed. Returns the wrong answers.
pub fn warm_up(addr: &str, queries: &[Query]) -> Result<Vec<String>, String> {
    let mut conn = ClientConn::connect(addr)?;
    Ok(queries.iter().filter_map(|q| lookup(&mut conn, q).err()).collect())
}

/// Closed loop: `conns` connections each send their next lookup as soon
/// as the previous one is answered, for `window`. Capacity is the
/// answered lookups per second of the phase.
pub fn closed_loop(
    addr: &str,
    queries: &[Query],
    order: &[usize],
    conns: usize,
    window: Duration,
) -> Result<(PhaseResult, f64), String> {
    let start = Instant::now();
    let parts: Vec<Result<PhaseResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = ClientConn::connect(addr)?;
                    let mut out = PhaseResult::default();
                    let mut i = c * order.len() / conns.max(1);
                    while start.elapsed() < window {
                        match lookup(&mut conn, &queries[order[i % order.len()]]) {
                            Ok(()) => out.completed += 1,
                            Err(e) => out.errors.push(e),
                        }
                        i += 1;
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut total = PhaseResult::default();
    for part in parts {
        let part = part?;
        total.completed += part.completed;
        total.errors.extend(part.errors);
    }
    #[allow(clippy::cast_precision_loss)]
    let qps = total.completed as f64 / elapsed;
    Ok((total, qps))
}

/// Timing summaries of an open-loop phase, in seconds.
pub struct ReadStats {
    /// Due time to answer, every lookup.
    pub latency: Summary,
    /// How late each lookup was sent.
    pub lag: Summary,
    /// Round trips of exact and nearest answers.
    pub exact: Summary,
    pub nearest: Summary,
}

impl ReadStats {
    pub fn of(open: &PhaseResult, queries: &[Query]) -> ReadStats {
        let secs = |f: &dyn Fn(&Sample) -> Option<Duration>| {
            Summary::new(open.samples.iter().filter_map(f).map(|d| d.as_secs_f64()).collect())
        };
        let route = |want: fn(&Expect) -> bool| {
            secs(&|s: &Sample| want(&queries[s.query].expect).then(|| s.timing.service()))
        };
        ReadStats {
            latency: secs(&|s| Some(s.timing.latency())),
            lag: secs(&|s| Some(s.timing.lag())),
            exact: route(|e| matches!(e, Expect::Exact { .. })),
            nearest: route(|e| matches!(e, Expect::Nearest { .. })),
        }
    }
}
