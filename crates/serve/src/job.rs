//! The job table: durable per-job records, in-memory handles with an
//! event log, and the per-tenant artifact layout.
//!
//! Every job owns one directory,
//! `{data}/tenants/{tenant}/jobs/{id}/`, holding:
//!
//! * `job.json` — the durable [`JobRecord`] (spec + lifecycle state),
//!   written at every state transition with the CRC-trailer
//!   write-then-rename discipline of [`qdi_obs::durable`] so a `kill -9`
//!   can never leave a torn record;
//! * `checkpoint.json` — the campaign's [`qdi_dpa::StoreCheckpoint`]
//!   (DPA jobs only), the one durable record of progress: handed to a
//!   per-lease saver thread after every chunk, and the source of
//!   `completed` and `quarantined` when the server recovers the job;
//! * `traces.qtrs` — the trace store;
//! * `report.json` — the final artifact of a completed job.
//!
//! On restart the server rebuilds its entire job table from these
//! files alone (see [`crate::server`]): the in-memory side is pure
//! cache.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::spec::JobSpec;

/// Lifecycle of a job. Terminal states are `Completed`, `Failed`,
/// `Canceled`; everything else is re-queued on server restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting for a worker (also the parked state between fair-share
    /// leases and after a drain or crash).
    Queued,
    /// A worker is executing a lease right now.
    Running,
    /// All work done; `report.json` exists.
    Completed,
    /// Execution failed; see the record's `error`.
    Failed,
    /// Canceled by the tenant; artifacts produced so far are kept.
    Canceled,
}

impl JobState {
    /// Whether the job will never run again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Canceled
        )
    }
}

/// Distributed-trace context persisted alongside the job so a
/// restarted server can keep emitting spans under the trace that
/// submitted it. Ids are the hex strings of
/// [`qdi_obs::span::TraceContext`]; `last_lease_span` is the most
/// recent lease span, which the next lease links to with a `resume`
/// span-link (causality across process death, without pretending the
/// dead span is a parent).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceMeta {
    /// 032x hex trace id shared by every span of this job's story.
    pub trace_id: String,
    /// 016x hex span id of the span that submitted the job (the
    /// parent of every lease span).
    pub root_span: String,
    /// 016x hex span id of the latest lease span, if any lease ran.
    #[serde(default)]
    pub last_lease_span: Option<String>,
}

/// The durable record — everything needed to resurrect the job after
/// a crash. Progress counters are saved with state transitions, not
/// per chunk; between them the checkpoint is the durable progress, and
/// recovery takes `completed` and `quarantined` from it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Server-assigned id, unique across tenants (`j000042`).
    pub id: String,
    /// The submitted spec, verbatim.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Work units finished (traces for DPA, faults for FI, seeds for
    /// P&R).
    pub completed: u64,
    /// Work units in total.
    pub total: u64,
    /// Failure detail for `Failed` jobs.
    pub error: Option<String>,
    /// Campaign indices currently quarantined by the supervisor.
    pub quarantined: Vec<u64>,
    /// Times this job was recovered from disk by a restarting server.
    pub resumes: u64,
    /// Monotonic submission sequence (FIFO tie-break within a tenant).
    pub submit_seq: u64,
    /// Distributed-trace context, if the submitter sent (or the server
    /// minted) one. `default` keeps pre-tracing records loadable.
    #[serde(default)]
    pub trace: Option<TraceMeta>,
}

/// File names inside a job directory.
pub const JOB_FILE: &str = "job.json";
/// Campaign checkpoint (DPA jobs).
pub const CHECKPOINT_FILE: &str = "checkpoint.json";
/// Trace store (DPA jobs).
pub const STORE_FILE: &str = "traces.qtrs";
/// Final report artifact.
pub const REPORT_FILE: &str = "report.json";

impl JobRecord {
    /// Saves the record durably (write-then-rename + CRC trailer).
    ///
    /// # Errors
    ///
    /// Serialization or filesystem failure, as text.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| format!("{e:?}"))?;
        qdi_obs::durable::save(
            &dir.join(JOB_FILE),
            json.as_bytes(),
            qdi_obs::durable::Durability::Checkpoint,
        )
        .map_err(|e| e.to_string())
    }

    /// Loads a record written by [`JobRecord::save`], falling back to
    /// the `.bak` generation when the primary is torn.
    ///
    /// # Errors
    ///
    /// Filesystem or parse failure, as text.
    pub fn load(dir: &Path) -> Result<JobRecord, String> {
        let recovered =
            qdi_obs::durable::recover(&dir.join(JOB_FILE)).map_err(|e| e.to_string())?;
        let json = String::from_utf8(recovered.payload).map_err(|e| e.to_string())?;
        serde_json::from_str(&json).map_err(|e| format!("{e:?}"))
    }
}

/// One entry of a job's event log, replayable over SSE. `data` is a
/// pre-serialized single-line JSON document: [`JobStatus`] for
/// `state` events, a [`qdi_obs::progress::ProgressSnapshot`] for
/// `progress` events.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobEvent {
    /// Monotonic per-job sequence number (SSE `id:`).
    pub seq: u64,
    /// Event name (`state` | `progress`).
    pub event: String,
    /// Single-line JSON payload.
    pub data: String,
}

/// Wire status of a job (`GET /v1/jobs/{id}` and `state` events).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id.
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Display name, if any.
    pub name: Option<String>,
    /// Job kind label (`dpa` | `fi` | `pnr`).
    pub kind: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Work units finished.
    pub completed: u64,
    /// Work units in total.
    pub total: u64,
    /// Failure detail for `Failed` jobs.
    pub error: Option<String>,
    /// Currently quarantined campaign indices.
    pub quarantined: Vec<u64>,
    /// Crash-recovery count.
    pub resumes: u64,
    /// Sequence number of the latest event (long-poll cursor).
    pub last_seq: u64,
}

/// How many events a job retains for SSE replay. Older events are
/// dropped from the front; sequence numbers stay monotonic.
const EVENT_CAPACITY: usize = 512;

/// Minimum spacing of a running job's `progress` events. The first and
/// the last chunk always emit one; the chunks between are coalesced, so
/// long-polls and SSE streams wake at most this often per job.
const PROGRESS_EVENT_INTERVAL: Duration = Duration::from_millis(100);

struct JobInner {
    record: JobRecord,
    events: VecDeque<JobEvent>,
    next_seq: u64,
    /// When the job first entered `Running`, and its `completed` then.
    started: Option<(Instant, u64)>,
    ewma_rate: f64,
    last_progress: Option<(Instant, u64)>,
    last_progress_event: Option<Instant>,
}

/// In-memory handle: the record plus the event log, condvar-signaled
/// for long-poll and SSE waiters, plus the cooperative cancel flag the
/// runner checks between chunks.
pub struct JobHandle {
    /// Job directory (owns all artifacts).
    pub dir: PathBuf,
    inner: Mutex<JobInner>,
    cv: Condvar,
    cancel: AtomicBool,
}

impl JobHandle {
    /// Wraps a record whose directory is `dir`.
    #[must_use]
    pub fn new(record: JobRecord, dir: PathBuf) -> JobHandle {
        JobHandle {
            dir,
            inner: Mutex::new(JobInner {
                record,
                events: VecDeque::new(),
                next_seq: 0,
                started: None,
                ewma_rate: 0.0,
                last_progress: None,
                last_progress_event: None,
            }),
            cv: Condvar::new(),
            cancel: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobInner> {
        self.inner.lock().expect("job lock poisoned")
    }

    /// The current durable record (cloned).
    #[must_use]
    pub fn record(&self) -> JobRecord {
        self.lock().record.clone()
    }

    /// Owning tenant.
    #[must_use]
    pub fn tenant(&self) -> String {
        self.lock().record.spec.tenant.clone()
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> JobState {
        self.lock().record.state
    }

    /// The persisted trace context, if any.
    #[must_use]
    pub fn trace(&self) -> Option<TraceMeta> {
        self.lock().record.trace.clone()
    }

    /// Records the span id of the lease that just started and persists
    /// it, so the next lease (possibly in a different process, after a
    /// crash) can link back to it. A no-op for untraced jobs.
    pub fn set_lease_span(&self, span_id: &str) -> Result<(), String> {
        let mut inner = self.lock();
        let Some(trace) = inner.record.trace.as_mut() else {
            return Ok(());
        };
        trace.last_lease_span = Some(span_id.to_owned());
        inner.record.save(&self.dir)
    }

    /// Requests cooperative cancellation (checked between chunks).
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Whether cancellation was requested.
    #[must_use]
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// The wire status.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        let inner = self.lock();
        status_of(&inner)
    }

    /// Transitions the state, persists the record, and emits a `state`
    /// event. Persistence failures are returned (the caller decides
    /// whether they are fatal) but the in-memory transition always
    /// lands so the API stays coherent. The job's clock (the progress
    /// events' `elapsed_s`) starts when it first enters `Running`, at the
    /// record's `completed`, from which the overall rate counts. Each
    /// entry into `Running` also starts a rate sample at the record's
    /// `completed` (the recovered count after a restart), so the lease's
    /// first `progress` event already carries a rate and an ETA.
    pub fn set_state(&self, state: JobState, error: Option<String>) -> Result<(), String> {
        let mut inner = self.lock();
        if state == JobState::Running {
            let now = Instant::now();
            let completed = inner.record.completed;
            inner.started.get_or_insert((now, completed));
            inner.last_progress = Some((now, completed));
        }
        inner.record.state = state;
        inner.record.error = error;
        let saved = inner.record.save(&self.dir);
        let status = status_of(&inner);
        let data = serde_json::to_string(&status).unwrap_or_else(|_| "{}".into());
        push_event(&mut inner, "state", data);
        drop(inner);
        self.cv.notify_all();
        saved
    }

    /// Records chunk progress in memory: [`JobHandle::status`] and the
    /// rate estimate follow every call. The first call, a call that
    /// reaches `total`, and otherwise at most one call per 100 ms
    /// (`PROGRESS_EVENT_INTERVAL`) also emit a `progress` event whose
    /// payload is a single-task [`qdi_obs::progress::ProgressSnapshot`]
    /// — the exact shape `qdi-mon watch` renders. Nothing is persisted:
    /// the campaign checkpoint is the durable progress, and the next
    /// [`JobHandle::set_state`] saves these counters with the record.
    pub fn advance(&self, completed: u64, total: u64, quarantined: Vec<u64>) {
        let now = Instant::now();
        let mut inner = self.lock();
        if let Some((at, prev)) = inner.last_progress {
            if completed >= prev {
                inner.ewma_rate = qdi_obs::progress::ewma_step(
                    inner.ewma_rate,
                    completed - prev,
                    now.duration_since(at).as_secs_f64(),
                );
            }
        }
        inner.last_progress = Some((now, completed));
        inner.record.completed = completed;
        inner.record.total = total;
        inner.record.quarantined = quarantined;
        let due = inner
            .last_progress_event
            .is_none_or(|at| now.duration_since(at) >= PROGRESS_EVENT_INTERVAL);
        if !due && completed < total {
            return;
        }
        inner.last_progress_event = Some(now);
        let snapshot = progress_of(&inner);
        let data = serde_json::to_string(&snapshot).unwrap_or_else(|_| "{}".into());
        push_event(&mut inner, "progress", data);
        drop(inner);
        self.cv.notify_all();
    }

    /// Marks a crash recovery: back to `Queued`, bumps `resumes`.
    pub fn mark_resumed(&self) -> Result<(), String> {
        {
            let mut inner = self.lock();
            inner.record.resumes += 1;
        }
        self.set_state(JobState::Queued, None)
    }

    /// The job as a one-task progress snapshot (task name
    /// `{tenant}/{id}`), for `/v1/progress` aggregation and `progress`
    /// events.
    #[must_use]
    pub fn progress_snapshot(&self) -> qdi_obs::progress::TaskSnapshot {
        let inner = self.lock();
        task_of(&inner)
    }

    /// Events with `seq >= from`, oldest first (SSE replay cursor).
    #[must_use]
    pub fn events_from(&self, from: u64) -> Vec<JobEvent> {
        self.lock()
            .events
            .iter()
            .filter(|e| e.seq >= from)
            .cloned()
            .collect()
    }

    /// Blocks until an event with `seq > after` exists, the job reaches
    /// a terminal state, or `timeout` elapses. Returns the latest
    /// sequence number.
    #[must_use]
    pub fn wait_event(&self, after: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            let last = inner.next_seq.saturating_sub(1);
            if inner.next_seq > 0 && last > after {
                return last;
            }
            if inner.record.state.is_terminal() {
                return last;
            }
            let now = Instant::now();
            if now >= deadline {
                return last;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, deadline - now)
                .expect("job lock poisoned");
            inner = guard;
        }
    }
}

fn push_event(inner: &mut JobInner, event: &str, data: String) {
    let seq = inner.next_seq;
    inner.next_seq += 1;
    inner.events.push_back(JobEvent {
        seq,
        event: event.to_owned(),
        data,
    });
    while inner.events.len() > EVENT_CAPACITY {
        inner.events.pop_front();
    }
}

fn status_of(inner: &JobInner) -> JobStatus {
    JobStatus {
        id: inner.record.id.clone(),
        tenant: inner.record.spec.tenant.clone(),
        name: inner.record.spec.name.clone(),
        kind: inner.record.spec.kind.label().to_owned(),
        state: inner.record.state,
        completed: inner.record.completed,
        total: inner.record.total,
        error: inner.record.error.clone(),
        quarantined: inner.record.quarantined.clone(),
        resumes: inner.record.resumes,
        last_seq: inner.next_seq.saturating_sub(1),
    }
}

fn task_of(inner: &JobInner) -> qdi_obs::progress::TaskSnapshot {
    let (elapsed_s, started_at) = inner.started.map_or((0.0, 0), |(at, completed)| {
        (at.elapsed().as_secs_f64(), completed)
    });
    qdi_obs::progress::TaskSnapshot::new(
        format!("{}/{}", inner.record.spec.tenant, inner.record.id),
        started_at,
        inner.record.completed,
        inner.record.total,
        elapsed_s,
        inner.ewma_rate,
        inner.record.state.is_terminal(),
    )
}

fn progress_of(inner: &JobInner) -> qdi_obs::progress::ProgressSnapshot {
    qdi_obs::progress::ProgressSnapshot {
        ts_us: qdi_obs::now_us(),
        tasks: vec![task_of(inner)],
        pool: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DpaJobSpec, JobKind};

    fn record(id: &str) -> JobRecord {
        JobRecord {
            id: id.to_owned(),
            spec: JobSpec {
                tenant: "t".into(),
                name: None,
                priority: None,
                kind: JobKind::Dpa(DpaJobSpec {
                    stage: "xor".into(),
                    campaign: qdi_dpa::CampaignConfig::new(1),
                    resilience: None,
                    exec_workers: None,
                    attack: None,
                }),
            },
            state: JobState::Queued,
            completed: 0,
            total: 256,
            error: None,
            quarantined: Vec::new(),
            resumes: 0,
            submit_seq: 0,
            trace: None,
        }
    }

    #[test]
    fn record_survives_save_load() {
        let dir = std::env::temp_dir().join(format!("qdi_serve_job_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let rec = record("j000001");
        rec.save(&dir).expect("saves");
        let back = JobRecord::load(&dir).expect("loads");
        assert_eq!(back.id, "j000001");
        assert_eq!(back.state, JobState::Queued);
        assert_eq!(back.total, 256);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_meta_round_trips_and_defaults_for_old_records() {
        let dir = std::env::temp_dir().join(format!("qdi_serve_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut rec = record("j000009");
        rec.trace = Some(TraceMeta {
            trace_id: "4bf92f3577b34da6a3ce929d0e0e4736".into(),
            root_span: "00f067aa0ba902b7".into(),
            last_lease_span: None,
        });
        rec.save(&dir).expect("saves");
        let handle = JobHandle::new(JobRecord::load(&dir).expect("loads"), dir.clone());
        handle.set_lease_span("b7ad6b7169203331").expect("persists");
        let back = JobRecord::load(&dir).expect("reloads");
        let trace = back.trace.expect("trace survives");
        assert_eq!(trace.trace_id, "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(trace.last_lease_span.as_deref(), Some("b7ad6b7169203331"));
        // A record serialized before tracing existed still loads.
        let old: JobRecord =
            serde_json::from_str(&serde_json::to_string(&record("j000010")).expect("serializes"))
                .expect("parses");
        assert!(old.trace.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_replay_from_cursor_and_wait_returns() {
        let dir = std::env::temp_dir().join(format!("qdi_serve_ev_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let handle = JobHandle::new(record("j000002"), dir.clone());
        // Events that always fire: the first chunk's progress (seq 0)
        // and a state transition (seq 1).
        handle.advance(4, 256, Vec::new());
        handle.set_state(JobState::Running, None).expect("state");
        let all = handle.events_from(1);
        assert_eq!(all.len(), 1, "seq 0 is excluded by a from=1 cursor");
        assert_eq!(handle.events_from(u64::MAX).len(), 0);
        assert_eq!(handle.wait_event(0, Duration::from_millis(10)), 1);
        handle.set_state(JobState::Completed, None).expect("state");
        // Terminal state: waiters return immediately even with no new
        // events past the cursor.
        assert_eq!(handle.wait_event(100, Duration::from_secs(5)), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_events_are_coalesced_but_status_follows_every_chunk() {
        let dir = std::env::temp_dir().join(format!("qdi_serve_cadence_{}", std::process::id()));
        let handle = JobHandle::new(record("j000003"), dir);
        let total = 1_000;
        let started = Instant::now();
        for completed in 1..=total {
            handle.advance(completed, total, Vec::new());
            assert_eq!(handle.status().completed, completed);
        }
        let elapsed = started.elapsed();
        let events = handle.events_from(0);
        assert!(events.iter().all(|e| e.event == "progress"));
        let bound = 2 + elapsed.as_millis() / PROGRESS_EVENT_INTERVAL.as_millis();
        assert!(
            events.len() as u128 <= bound,
            "{} progress events in {elapsed:?} (at most {bound})",
            events.len()
        );
        let last: qdi_obs::progress::ProgressSnapshot =
            serde_json::from_str(&events.last().expect("the first chunk emits").data)
                .expect("progress payload parses");
        assert_eq!(last.tasks[0].completed, total);
    }

    #[test]
    fn the_clock_starts_when_the_job_starts_running() {
        let dir = std::env::temp_dir().join(format!("qdi_serve_clock_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let handle = JobHandle::new(record("j000004"), dir.clone());
        handle.set_state(JobState::Running, None).expect("state");
        std::thread::sleep(Duration::from_millis(50));
        handle.advance(64, 1_024, Vec::new());
        let progress = handle
            .events_from(0)
            .into_iter()
            .find(|e| e.event == "progress")
            .expect("the first chunk emits");
        let snapshot: qdi_obs::progress::ProgressSnapshot =
            serde_json::from_str(&progress.data).expect("progress payload parses");
        let task = &snapshot.tasks[0];
        assert!(task.elapsed_s >= 0.05, "elapsed {} s", task.elapsed_s);
        assert!(task.rate <= 1_280.0, "rate {}/s", task.rate);
        // The first chunk's sample runs from `Running`: the event has a
        // rate estimate and an ETA.
        assert!(task.ewma_rate > 0.0, "ewma {}/s", task.ewma_rate);
        assert!(task.eta_s >= 0.0, "eta {} s", task.eta_s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_recovered_job_rates_only_the_traces_it_runs() {
        let dir = std::env::temp_dir().join(format!("qdi_serve_resumed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        // What recovery leaves: 60,000 of 65,536 traces checkpointed.
        let mut recovered = record("j000005");
        (recovered.completed, recovered.total) = (60_000, 65_536);
        let handle = JobHandle::new(recovered, dir.clone());
        handle.set_state(JobState::Running, None).expect("state");
        // One 64-trace chunk in at least 50 ms: at most 1,280 traces/s.
        std::thread::sleep(Duration::from_millis(50));
        handle.advance(60_064, 65_536, Vec::new());
        let task = handle.progress_snapshot();
        assert_eq!(task.completed, 60_064);
        assert!(
            task.rate > 0.0 && task.rate <= 1_280.0,
            "rate {}/s",
            task.rate
        );
        assert!(
            task.ewma_rate > 0.0 && task.ewma_rate <= 1_280.0,
            "ewma {}/s",
            task.ewma_rate
        );
        assert!(task.eta_s >= 5_472.0 / 1_280.0, "eta {} s", task.eta_s);
        std::fs::remove_dir_all(&dir).ok();
    }
}
