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
//! entirely and relies on the same journal + checkpoint replay.

use crate::job::{JobSpec, JobState};
use serde_json::{json, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};
use telemetry::sync::lock_or_recover;

/// Per-job telemetry events kept for replay to late `/events` readers.
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
    /// Recent progress events (with terminal event), for `/events`
    /// replay; seq-stamped so a streamer can dedup against live ones.
    events: VecDeque<Value>,
    next_event_seq: u64,
}

impl JobRecord {
    /// Stamps `job`/`seq` into `fields` and appends it to the ring.
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
        st.jobs.insert(
            id.clone(),
            JobRecord {
                spec,
                state: JobState::Queued,
                error: None,
                events: VecDeque::new(),
                next_event_seq: 0,
            },
        );
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
        st.jobs.insert(
            id.to_string(),
            JobRecord { spec, state, error, events: VecDeque::new(), next_event_seq: 0 },
        );
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
    /// appends `event` (its `job.done`/`job.failed` event) to the replay
    /// ring in the same critical section. Returns the stamped event for
    /// the live bus, which the caller publishes only after this returns.
    /// So a status read issued after the terminal event says `done` or
    /// `failed`, and an `/events` reader finds the event either in its
    /// ring snapshot or live on the bus, never in both and never in
    /// neither.
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

    /// Appends a seq-stamped progress event to the job's replay ring,
    /// returning the stamped payload (for the live bus).
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

    /// Snapshot for `/jobs/:id/events` replay: the ring plus the job's
    /// current state (terminal ⇒ the ring already holds the last event).
    #[must_use]
    pub fn events_snapshot(&self, id: &str) -> Option<(Vec<Value>, JobState)> {
        let st = lock_or_recover(&self.state);
        let job = st.jobs.get(id)?;
        Some((job.events.iter().cloned().collect(), job.state))
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

    #[test]
    fn event_ring_is_bounded_and_seq_stamped() {
        let adm = Admission::new(4);
        let id = adm.submit(spec("a", 0), ok_persist).unwrap();
        for i in 0..(EVENT_RING + 5) {
            let stamped = adm.push_event(&id, json!({"trial": i as u64})).unwrap();
            assert_eq!(stamped["seq"].as_u64().unwrap(), i as u64);
            assert_eq!(stamped["job"].as_str().unwrap(), id);
        }
        let (ring, _) = adm.events_snapshot(&id).unwrap();
        assert_eq!(ring.len(), EVENT_RING);
        assert_eq!(ring[0]["seq"].as_u64().unwrap(), 5, "oldest entries evicted");
    }

    #[test]
    fn terminal_event_is_stamped_with_the_terminal_state() {
        let adm = Admission::new(4);
        let id = adm.submit(spec("a", 0), ok_persist).unwrap();
        adm.next_job().unwrap();
        adm.push_event(&id, json!({"event": "job.trial"})).unwrap();
        let stamped = adm.complete(&id, Ok(()), json!({"event": "job.done"})).unwrap();
        assert_eq!(stamped["seq"].as_u64(), Some(1));
        // By the time the caller can publish the event, the job is done
        // and the ring already holds it exactly once.
        let (ring, state) = adm.events_snapshot(&id).unwrap();
        assert_eq!(state, JobState::Done);
        assert_eq!(adm.status(&id).unwrap().0["state"].as_str(), Some("done"));
        assert_eq!(ring.iter().filter(|v| v["event"].as_str() == Some("job.done")).count(), 1);
        assert_eq!(ring.last(), Some(&stamped));
        assert!(adm.complete("j99", Ok(()), json!({})).is_none(), "unknown job");
    }
}
