//! Multi-tenant admission: bounded per-tenant backlogs, fair-share
//! scheduling, and the drain protocol.
//!
//! Scheduling picks, among queued jobs, the one whose tenant currently
//! runs the fewest jobs (fair share), breaking ties by priority (higher
//! first) then submission order (FIFO). Each tenant's *queued* backlog
//! is bounded; beyond it, submissions get a typed rejection the HTTP
//! layer turns into a 429 — backpressure belongs at admission, not in
//! an unbounded queue.
//!
//! Draining (graceful shutdown): no new submissions, workers finish
//! their in-flight job and then exit; queued jobs stay journaled and
//! are re-enqueued by the next start. A kill -9 skips the protocol
//! entirely and relies on the same journal + log replay.
//!
//! Each job's progress events live here too, in a seq-stamped ring of
//! its last [`EVENT_RING`] events: the one source `/jobs/:id/events`
//! reads, through [`Admission::events_after`].

use crate::job::{JobSpec, JobState};
use serde_json::{json, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;
use telemetry::sync::lock_or_recover;

/// Per-job progress events kept for `/events` followers.
const EVENT_RING: usize = 512;

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// The tenant's queued backlog is full. Fields: queued, backlog.
    BacklogFull(usize, usize),
    /// The server is draining for shutdown.
    Draining,
}

impl Reject {
    /// HTTP status + JSON body for this rejection.
    #[must_use]
    pub fn to_http(&self, tenant: &str) -> (u16, Value) {
        match self {
            Reject::BacklogFull(queued, backlog) => (
                429,
                json!({
                    "error": "backlog_full",
                    "tenant": tenant,
                    "queued": *queued as u64,
                    "backlog": *backlog as u64,
                }),
            ),
            Reject::Draining => (503, json!({ "error": "draining" })),
        }
    }
}

/// Why [`Admission::submit`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission refused the job (backpressure or drain).
    Rejected(Reject),
    /// The journal append failed; the job was never acknowledged.
    Persist(String),
}

/// Everything the server remembers about one job.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    error: Option<String>,
    /// Recent progress events (ending with the terminal event once the
    /// job is done), seq-stamped so a follower resumes where it left off.
    events: VecDeque<Value>,
    next_event_seq: u64,
    /// Notified on every stamp; this job's `/events` followers wait on
    /// it, so a stamp wakes no follower of another job.
    stamped: Arc<Condvar>,
}

impl JobRecord {
    fn new(spec: JobSpec, state: JobState, error: Option<String>) -> JobRecord {
        JobRecord {
            spec,
            state,
            error,
            events: VecDeque::new(),
            next_event_seq: 0,
            stamped: Arc::default(),
        }
    }

    /// Stamps `job`/`seq` into `fields`, appends it to the ring, and
    /// wakes the job's followers.
    fn stamp(&mut self, id: &str, mut fields: Value) -> Value {
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        if let Value::Object(obj) = &mut fields {
            obj.insert("job".into(), Value::String(id.to_string()));
            obj.insert("seq".into(), Value::from(seq));
        }
        if self.events.len() >= EVENT_RING {
            self.events.pop_front();
        }
        self.events.push_back(fields.clone());
        self.stamped.notify_all();
        fields
    }
}

#[derive(Debug, Default)]
struct AdmState {
    jobs: BTreeMap<String, JobRecord>,
    /// Queued job ids in submission order.
    queue: Vec<String>,
    /// Running jobs per tenant.
    running: BTreeMap<String, usize>,
    draining: bool,
    next_id: u64,
}

/// The admission controller; shared between HTTP and job workers.
#[derive(Debug, Default)]
pub struct Admission {
    state: Mutex<AdmState>,
    work: Condvar,
    backlog: usize,
}

impl Admission {
    /// A controller admitting at most `backlog` queued jobs per tenant.
    #[must_use]
    pub fn new(backlog: usize) -> Admission {
        Admission {
            state: Mutex::new(AdmState::default()),
            work: Condvar::new(),
            backlog: backlog.max(1),
        }
    }

    /// Admits `spec`, assigning the next sequential id. `persist` runs
    /// under the admission lock *before* the job becomes visible, so the
    /// journal's submission order always matches id order — the property
    /// the kill -9 twin test pins.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] when draining or over the tenant's
    /// backlog; [`SubmitError::Persist`] when journaling fails (the job
    /// is then dropped).
    pub fn submit(
        &self,
        spec: JobSpec,
        persist: impl FnOnce(&str, &JobSpec) -> Result<(), String>,
    ) -> Result<String, SubmitError> {
        let mut st = lock_or_recover(&self.state);
        if st.draining {
            return Err(SubmitError::Rejected(Reject::Draining));
        }
        let queued = st.queue.iter().filter(|id| st.jobs[*id].spec.tenant == spec.tenant).count();
        if queued >= self.backlog {
            return Err(SubmitError::Rejected(Reject::BacklogFull(queued, self.backlog)));
        }
        st.next_id += 1;
        let id = format!("j{}", st.next_id);
        persist(&id, &spec).map_err(SubmitError::Persist)?;
        st.jobs.insert(id.clone(), JobRecord::new(spec, JobState::Queued, None));
        st.queue.push(id.clone());
        drop(st);
        self.work.notify_one();
        Ok(id)
    }

    /// Re-installs a journaled job during startup replay. Terminal jobs
    /// are recorded for status queries; incomplete ones re-enter the
    /// queue in replay (= original submission) order.
    pub fn restore(&self, id: &str, spec: JobSpec, state: JobState, error: Option<String>) {
        let mut st = lock_or_recover(&self.state);
        let seq: u64 = id.strip_prefix('j').and_then(|s| s.parse().ok()).unwrap_or(0);
        st.next_id = st.next_id.max(seq);
        st.jobs.insert(id.to_string(), JobRecord::new(spec, state, error));
        if state == JobState::Queued {
            st.queue.push(id.to_string());
        }
        drop(st);
        self.work.notify_one();
    }

    /// Blocks until a job is schedulable, returning `(id, spec)` with the
    /// job marked running — or `None` once draining (workers then exit).
    pub fn next_job(&self) -> Option<(String, JobSpec)> {
        let mut st = lock_or_recover(&self.state);
        loop {
            if st.draining {
                return None;
            }
            if let Some(pos) = pick(&st) {
                let id = st.queue.remove(pos);
                // aal-lint: allow(unwrap, reason = "queue ids always have a job record; enforced by submit/restore")
                let job = st.jobs.get_mut(&id).expect("queued id has a record");
                job.state = JobState::Running;
                let spec = job.spec.clone();
                *st.running.entry(spec.tenant.clone()).or_insert(0) += 1;
                return Some((id, spec));
            }
            st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks a running job terminal, releases its tenant slot, and
    /// appends `event` (its `job.done`/`job.failed` event) to the ring in
    /// the same critical section, waking the job's followers. So a status
    /// read issued after the terminal event says `done` or `failed`, and
    /// no event is stamped for the job after this one. Returns the
    /// stamped event (for the trace).
    pub fn complete(&self, id: &str, outcome: Result<(), String>, event: Value) -> Option<Value> {
        let mut st = lock_or_recover(&self.state);
        let job = st.jobs.get_mut(id)?;
        let tenant = job.spec.tenant.clone();
        match outcome {
            Ok(()) => job.state = JobState::Done,
            Err(e) => {
                job.state = JobState::Failed;
                job.error = Some(e);
            }
        }
        let stamped = job.stamp(id, event);
        if let Some(n) = st.running.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
        drop(st);
        self.work.notify_all();
        Some(stamped)
    }

    /// Appends a seq-stamped progress event to the job's ring and wakes
    /// its followers, returning the stamped payload (for the trace).
    pub fn push_event(&self, id: &str, fields: Value) -> Option<Value> {
        let mut st = lock_or_recover(&self.state);
        Some(st.jobs.get_mut(id)?.stamp(id, fields))
    }

    /// Snapshot for `/jobs/:id`: `(status body, state)`.
    #[must_use]
    pub fn status(&self, id: &str) -> Option<(Value, JobState)> {
        let st = lock_or_recover(&self.state);
        let job = st.jobs.get(id)?;
        let mut body = json!({
            "id": id,
            "state": job.state.as_str(),
            "tenant": job.spec.tenant.clone(),
            "model": job.spec.model.clone(),
        });
        if let (Value::Object(obj), Some(e)) = (&mut body, &job.error) {
            obj.insert("error".into(), Value::String(e.clone()));
        }
        Some((body, job.state))
    }

    /// The job's ring entries with `seq >= next`, plus its state. While
    /// there are none and the job is not terminal, waits up to `timeout`
    /// for a stamp. A follower that fell more than [`EVENT_RING`] events
    /// behind gets the oldest retained ones. A terminal state means the
    /// entries end with the terminal event, or, for a job restored
    /// terminal from the journal, that the ring is empty.
    #[must_use]
    pub fn events_after(
        &self,
        id: &str,
        next: u64,
        timeout: Duration,
    ) -> Option<(Vec<Value>, JobState)> {
        let st = lock_or_recover(&self.state);
        let stamped = Arc::clone(&st.jobs.get(id)?.stamped);
        let (st, _) = stamped
            .wait_timeout_while(st, timeout, |st| {
                st.jobs.get(id).is_some_and(|j| {
                    j.next_event_seq <= next
                        && matches!(j.state, JobState::Queued | JobState::Running)
                })
            })
            .unwrap_or_else(PoisonError::into_inner);
        let job = st.jobs.get(id)?;
        let oldest = job.next_event_seq - job.events.len() as u64;
        let skip = usize::try_from(next.saturating_sub(oldest)).unwrap_or(usize::MAX);
        Some((job.events.iter().skip(skip).cloned().collect(), job.state))
    }

    /// Queued jobs right now (all tenants).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        lock_or_recover(&self.state).queue.len()
    }

    /// Starts the drain: refuse new jobs, stop handing out queued ones.
    pub fn drain(&self) {
        lock_or_recover(&self.state).draining = true;
        self.work.notify_all();
    }

    /// True once draining has started.
    #[must_use]
    pub fn draining(&self) -> bool {
        lock_or_recover(&self.state).draining
    }
}

/// The scheduling decision: index into the queue of the job to run next.
fn pick(st: &AdmState) -> Option<usize> {
    st.queue
        .iter()
        .enumerate()
        .min_by_key(|(i, id)| {
            let job = &st.jobs[*id];
            let running = st.running.get(&job.spec.tenant).copied().unwrap_or(0);
            // Fewest running, then highest priority, then FIFO.
            (running, std::cmp::Reverse(job.spec.priority), *i)
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn spec(tenant: &str, priority: u8) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            model: "squeezenet".into(),
            task: Some(0),
            method: "random".into(),
            n_trial: 8,
            seed: 0,
            device: "gtx1080ti".into(),
            priority,
        }
    }

    fn ok_persist(_: &str, _: &JobSpec) -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn ids_are_sequential_and_backlog_binds_per_tenant() {
        let adm = Admission::new(2);
        assert_eq!(adm.submit(spec("a", 0), ok_persist).unwrap(), "j1");
        assert_eq!(adm.submit(spec("a", 0), ok_persist).unwrap(), "j2");
        assert!(matches!(
            adm.submit(spec("a", 0), ok_persist),
            Err(SubmitError::Rejected(Reject::BacklogFull(2, 2)))
        ));
        // Another tenant still has room.
        assert_eq!(adm.submit(spec("b", 0), ok_persist).unwrap(), "j3");
        assert_eq!(adm.queue_depth(), 3);
    }

    #[test]
    fn failed_persist_drops_the_job_but_not_the_id() {
        let adm = Admission::new(4);
        assert!(adm.submit(spec("a", 0), |_, _| Err("disk full".into())).is_err());
        // The id was consumed; the next submission is j2 and the journal
        // (which never got j1) replays consistently because j1 has no
        // acknowledged existence.
        assert_eq!(adm.submit(spec("a", 0), ok_persist).unwrap(), "j2");
        assert_eq!(adm.queue_depth(), 1);
    }

    #[test]
    fn scheduling_favors_idle_tenants_then_priority_then_fifo() {
        let adm = Admission::new(8);
        let a1 = adm.submit(spec("a", 0), ok_persist).unwrap();
        let a2 = adm.submit(spec("a", 5), ok_persist).unwrap();
        let b1 = adm.submit(spec("b", 0), ok_persist).unwrap();
        // First pick: both tenants idle → priority wins within the tie.
        let (first, _) = adm.next_job().unwrap();
        assert_eq!(first, a2, "priority beats FIFO when tenants tie");
        // Tenant a now runs a job → b gets the next slot (fair share).
        let (second, _) = adm.next_job().unwrap();
        assert_eq!(second, b1);
        let (third, _) = adm.next_job().unwrap();
        assert_eq!(third, a1);
        adm.complete(&first, Ok(()), json!({}));
        adm.complete(&second, Ok(()), json!({}));
        adm.complete(&third, Err("boom".into()), json!({}));
        assert_eq!(adm.status(&third).unwrap().1, JobState::Failed);
        assert_eq!(adm.status(&first).unwrap().1, JobState::Done);
    }

    #[test]
    fn drain_refuses_new_jobs_and_wakes_waiting_workers() {
        let adm = std::sync::Arc::new(Admission::new(4));
        let waiter = {
            let adm = std::sync::Arc::clone(&adm);
            std::thread::spawn(move || adm.next_job())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        adm.drain();
        assert_eq!(waiter.join().unwrap(), None, "blocked worker wakes on drain");
        assert!(matches!(
            adm.submit(spec("a", 0), ok_persist),
            Err(SubmitError::Rejected(Reject::Draining))
        ));
    }

    /// A wait no passing test reaches: a call that returns sooner either
    /// found its events at once or was woken by a stamp.
    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn event_ring_is_bounded_and_seq_stamped() {
        let adm = Admission::new(4);
        let id = adm.submit(spec("a", 0), ok_persist).unwrap();
        for i in 0..(EVENT_RING + 5) {
            let stamped = adm.push_event(&id, json!({"trial": i as u64})).unwrap();
            assert_eq!(stamped["seq"].as_u64().unwrap(), i as u64);
            assert_eq!(stamped["job"].as_str().unwrap(), id);
        }
        let (ring, _) = adm.events_after(&id, 0, Duration::ZERO).unwrap();
        assert_eq!(ring.len(), EVENT_RING);
        assert_eq!(ring[0]["seq"].as_u64().unwrap(), 5, "oldest entries evicted");
        let (tail, _) = adm.events_after(&id, EVENT_RING as u64, Duration::ZERO).unwrap();
        let seqs: Vec<u64> = tail.iter().filter_map(|v| v["seq"].as_u64()).collect();
        assert_eq!(seqs, (EVENT_RING as u64..EVENT_RING as u64 + 5).collect::<Vec<_>>());
        assert!(adm.events_after(&id, 10_000, Duration::ZERO).unwrap().0.is_empty());
        assert!(adm.events_after("j99", 0, Duration::ZERO).is_none(), "unknown job");
    }

    #[test]
    fn terminal_event_is_stamped_with_the_terminal_state() {
        let adm = Admission::new(4);
        let id = adm.submit(spec("a", 0), ok_persist).unwrap();
        adm.next_job().unwrap();
        adm.push_event(&id, json!({"event": "job.trial"})).unwrap();
        let stamped = adm.complete(&id, Ok(()), json!({"event": "job.done"})).unwrap();
        assert_eq!(stamped["seq"].as_u64(), Some(1));
        // By the time anyone can see the event, the job is done and the
        // ring holds it exactly once, last.
        let (ring, state) = adm.events_after(&id, 0, Duration::ZERO).unwrap();
        assert_eq!(state, JobState::Done);
        assert_eq!(adm.status(&id).unwrap().0["state"].as_str(), Some("done"));
        assert_eq!(ring.iter().filter(|v| v["event"].as_str() == Some("job.done")).count(), 1);
        assert_eq!(ring.last(), Some(&stamped));
        assert!(adm.complete("j99", Ok(()), json!({})).is_none(), "unknown job");
    }

    #[test]
    fn a_waiting_follower_wakes_on_each_stamp_and_ends_on_the_terminal_event() {
        let adm = std::sync::Arc::new(Admission::new(4));
        let id = adm.submit(spec("a", 0), ok_persist).unwrap();
        adm.next_job().unwrap();
        adm.push_event(&id, json!({"event": "job.start"})).unwrap();
        // The sleep before each stamp lets the waiter block first; if it
        // has not, it finds the event at once, which the test accepts too.
        let follow = |next: u64| {
            let (adm, id) = (std::sync::Arc::clone(&adm), id.clone());
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                let got = adm.events_after(&id, next, LONG).unwrap();
                assert!(started.elapsed() < LONG, "woken by the stamp, not the timeout");
                got
            })
        };
        let waiter = follow(1);
        std::thread::sleep(Duration::from_millis(20));
        adm.push_event(&id, json!({"event": "job.trial"})).unwrap();
        let (got, state) = waiter.join().unwrap();
        assert_eq!(state, JobState::Running);
        assert_eq!(got.len(), 1, "only what lies past the follower's seq: {got:?}");
        assert_eq!(
            (got[0]["seq"].as_u64(), got[0]["event"].as_str()),
            (Some(1), Some("job.trial"))
        );

        let waiter = follow(2);
        std::thread::sleep(Duration::from_millis(20));
        let done = adm.complete(&id, Ok(()), json!({"event": "job.done"})).unwrap();
        let (got, state) = waiter.join().unwrap();
        assert_eq!(state, JobState::Done);
        assert_eq!(got, vec![done.clone()]);
        // Past the terminal event a follower does not wait: it has it all.
        let (all, _) = adm.events_after(&id, 0, LONG).unwrap();
        assert_eq!(all.last(), Some(&done));
        assert!(adm.events_after(&id, 3, LONG).unwrap().0.is_empty());
    }

    #[test]
    fn a_follower_past_the_ring_resumes_at_the_oldest_retained_event() {
        let adm = Admission::new(4);
        let id = adm.submit(spec("a", 0), ok_persist).unwrap();
        adm.next_job().unwrap();
        let trials = EVENT_RING as u64 + 40;
        for trial in 0..trials {
            adm.push_event(&id, json!({"event": "job.trial", "trial": trial})).unwrap();
        }
        adm.complete(&id, Ok(()), json!({"event": "job.done"})).unwrap();
        // The follower last saw seq 2, far behind the ring.
        let (got, state) = adm.events_after(&id, 3, LONG).unwrap();
        assert_eq!(state, JobState::Done);
        assert_eq!(got.len(), EVENT_RING);
        let seqs: Vec<u64> = got.iter().filter_map(|v| v["seq"].as_u64()).collect();
        assert_eq!(seqs, (trials + 1 - EVENT_RING as u64..=trials).collect::<Vec<_>>());
        assert_eq!(got.last().and_then(|v| v["event"].as_str()), Some("job.done"));
    }
}
