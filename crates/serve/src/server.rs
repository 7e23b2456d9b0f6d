//! The daemon: accept loop, request routing, the worker fleet, crash
//! recovery and drain-style shutdown.
//!
//! ## Endpoints
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | `GET`  | `/healthz` | liveness + queue/service summary |
//! | `GET`  | `/metrics` | Prometheus text exposition |
//! | `POST` | `/v1/jobs` | submit a [`crate::spec::JobSpec`] |
//! | `GET`  | `/v1/jobs?tenant=` | list job statuses |
//! | `GET`  | `/v1/jobs/{id}` | status; `?after=N&wait_ms=M` long-polls |
//! | `POST` | `/v1/jobs/{id}/cancel` (or `DELETE` the job) | cancel |
//! | `GET`  | `/v1/jobs/{id}/events?after=N` | SSE progress stream |
//! | `GET`  | `/v1/jobs/{id}/report` | final artifact JSON |
//! | `GET`  | `/v1/jobs/{id}/trace-store` | raw `.qtrs` bytes |
//! | `GET`  | `/v1/jobs/{id}/checkpoint` | durable campaign checkpoint |
//! | `GET`  | `/v1/progress` | all jobs as one `ProgressSnapshot` |
//! | `POST` | `/v1/shutdown` | request a graceful drain |
//!
//! ## Accept model
//!
//! The accept loop blocks in `accept` and hands every connection to its
//! own thread. [`Server::shutdown`] wakes it with a connection of its
//! own to the bound address (loopback when bound to an unspecified
//! address), so no request waits on a poll period.
//!
//! ## Crash recovery
//!
//! The job table is rebuilt at startup purely from the per-tenant
//! files ([`crate::job`]): `job.json` gives each job's lifecycle state,
//! and a DPA job's `checkpoint.json` its progress. Non-terminal jobs are
//! re-queued and their campaigns resume from that checkpoint. No state
//! lives only in memory, so `kill -9` costs at most the chunks acquired
//! since the last checkpoint landed: the one in flight and the few whose
//! checkpoints were still queued or being saved.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qdi_obs::Span;

use crate::http::{
    read_request, write_sse_event, write_sse_preamble, HttpError, Limits, Request, Response,
};
use crate::job::{
    JobHandle, JobRecord, JobState, TraceMeta, CHECKPOINT_FILE, REPORT_FILE, STORE_FILE,
};
use crate::runner::{run_lease, Disposition};
use crate::scheduler::Scheduler;
use crate::spec::{JobKind, JobSpec};
use crate::telemetry::{route_label, RedRegistry};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Root of the per-tenant artifact tree.
    pub data_dir: PathBuf,
    /// Campaign worker threads (concurrent leases).
    pub workers: usize,
    /// HTTP parser limits.
    pub limits: Limits,
    /// Socket read/write timeout, ms.
    pub io_timeout_ms: u64,
    /// Maximum concurrent connections before responding 503.
    pub max_connections: usize,
}

impl ServeConfig {
    /// Defaults: ephemeral port, `data_dir`, 2 workers.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: data_dir.into(),
            workers: 2,
            limits: Limits::default(),
            io_timeout_ms: 10_000,
            max_connections: 64,
        }
    }
}

struct ServerState {
    cfg: ServeConfig,
    jobs: Mutex<BTreeMap<String, Arc<JobHandle>>>,
    sched: Scheduler,
    drain: AtomicBool,
    shutdown_requested: AtomicBool,
    next_id: AtomicU64,
    connections: AtomicUsize,
    red: RedRegistry,
}

impl ServerState {
    fn new(cfg: ServeConfig) -> ServerState {
        ServerState {
            sched: Scheduler::new(cfg.workers.max(1)),
            cfg,
            jobs: Mutex::new(BTreeMap::new()),
            drain: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            connections: AtomicUsize::new(0),
            red: RedRegistry::new(),
        }
    }

    fn job(&self, id: &str) -> Option<Arc<JobHandle>> {
        self.jobs
            .lock()
            .expect("jobs lock poisoned")
            .get(id)
            .cloned()
    }
}

/// A running server. Dropping without [`Server::shutdown`] aborts
/// threads ungracefully (tests for crash recovery rely on `kill -9`
/// instead).
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers persisted jobs, and spawns the accept loop and
    /// worker fleet.
    ///
    /// # Errors
    ///
    /// Bind/IO failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.data_dir)?;
        let mut cfg = cfg;
        // Checkpoints store absolute paths; canonicalize so a restart
        // from a different working directory still resolves them.
        cfg.data_dir = cfg.data_dir.canonicalize()?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // Span records live next to the tenant tree so a restarted
        // server keeps appending to the same file and cross-restart
        // traces stay in one place. The writer is process-global: the
        // most recently started server in a process owns it.
        qdi_obs::span::set_file(cfg.data_dir.join("trace").join("spans.jsonl"));

        let state = Arc::new(ServerState::new(cfg));
        recover_jobs(&state);

        let workers = (0..state.cfg.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("qdi-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("qdi-serve-accept".into())
                .spawn(move || accept_loop(&state, &listener))
                .expect("spawn accept loop")
        };
        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Where this server appends its span records (JSON Lines).
    #[must_use]
    pub fn trace_path(&self) -> PathBuf {
        self.state.cfg.data_dir.join("trace").join("spans.jsonl")
    }

    /// Whether `POST /v1/shutdown` (or a signal relayed by the binary)
    /// asked the server to stop.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop accepting, let every worker finish (and
    /// durably checkpoint) its current chunk, park running jobs as
    /// `Queued`, flush pending roll-ups, and join all threads.
    pub fn shutdown(mut self) {
        self.state.drain.store(true, Ordering::SeqCst);
        self.state.sched.drain();
        if let Some(accept) = self.accept.take() {
            wake_accept(self.addr);
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Give in-flight connection threads (e.g. SSE streams noticing
        // the drain) a moment to finish writing.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while self.state.connections.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        qdi_obs::progress::write_now();
        qdi_obs::flush();
    }
}

/// Unblocks the accept loop after `drain` is set: connect to the bound
/// address, or to loopback on its port when it is unspecified
/// (`0.0.0.0`, `::`), which is not a portable connect target.
fn wake_accept(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// Takes a DPA job's progress from its campaign checkpoint, the durable
/// record of progress (`job.json` is not saved per chunk).
/// A checkpoint that does not load, or whose counters do not fit the
/// record's `total`, leaves the record as it is.
fn progress_from_checkpoint(record: &mut JobRecord, dir: &Path) {
    let Ok(checkpoint) = qdi_dpa::StoreCheckpoint::load(&dir.join(CHECKPOINT_FILE)) else {
        return;
    };
    let completed = checkpoint.completed as u64;
    let in_range = completed <= record.total
        && checkpoint
            .quarantined
            .iter()
            .all(|&i| i < checkpoint.completed);
    if in_range {
        record.completed = completed;
        record.quarantined = checkpoint.quarantined.iter().map(|&i| i as u64).collect();
    }
}

fn recover_jobs(state: &Arc<ServerState>) {
    let tenants_dir = state.cfg.data_dir.join("tenants");
    let mut max_id = 0u64;
    let mut recovered: Vec<Arc<JobHandle>> = Vec::new();
    let tenants = match std::fs::read_dir(&tenants_dir) {
        Ok(entries) => entries,
        Err(_) => return,
    };
    for tenant in tenants.flatten() {
        let jobs_dir = tenant.path().join("jobs");
        let Ok(jobs) = std::fs::read_dir(&jobs_dir) else {
            continue;
        };
        for job_dir in jobs.flatten() {
            let dir = job_dir.path();
            match JobRecord::load(&dir) {
                Ok(mut record) => {
                    if let Some(n) = record
                        .id
                        .strip_prefix('j')
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        max_id = max_id.max(n);
                    }
                    let terminal = record.state.is_terminal();
                    // A record edited on disk (or written by an older
                    // version) is as untrusted as a POST body: it runs
                    // only if the edge would have accepted it.
                    let invalid = if terminal {
                        None
                    } else {
                        record.spec.validate().err()
                    };
                    if !terminal && invalid.is_none() {
                        progress_from_checkpoint(&mut record, &dir);
                    }
                    let id = record.id.clone();
                    let handle = Arc::new(JobHandle::new(record, dir));
                    state
                        .jobs
                        .lock()
                        .expect("jobs lock poisoned")
                        .insert(id, Arc::clone(&handle));
                    if let Some(reason) = invalid {
                        let _ = handle.set_state(JobState::Failed, Some(reason));
                        qdi_obs::metrics::counter("serve.recover.invalid").inc();
                    } else if !terminal {
                        recovered.push(handle);
                    }
                }
                Err(_) => {
                    qdi_obs::metrics::counter("serve.recover.corrupt").inc();
                }
            }
        }
    }
    // Re-queue in original submission order so recovery preserves FIFO.
    recovered.sort_by_key(|h| h.record().submit_seq);
    for handle in recovered {
        let _ = handle.mark_resumed();
        qdi_obs::metrics::counter("serve.jobs.resumed").inc();
        state.sched.enqueue(handle);
    }
    state.next_id.store(max_id + 1, Ordering::SeqCst);
}

fn worker_loop(state: &Arc<ServerState>) {
    // A lease that panics unwinds past its roll-ups; flush on the way
    // out of the loop (normal drain or not) and after each caught
    // panic so the observability trail ends at the crash, not at the
    // last happenstance flush.
    let _flush = qdi_obs::flush_on_drop();
    while let Some(job) = state.sched.take_next() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_lease(&state.sched, &job)
        }));
        match outcome {
            Ok(Disposition::Requeue) => state.sched.enqueue(job),
            Ok(Disposition::Done) => {}
            Err(_) => {
                let _ = job.set_state(JobState::Failed, Some("worker panicked".into()));
                qdi_obs::metrics::counter("serve.jobs.failed").inc();
                qdi_obs::flush();
            }
        }
    }
}

/// One counted connection: taken before the handler thread is spawned,
/// moved into its closure, and released when dropped — at the end of
/// the thread, or with the closure when the spawn fails.
struct ConnectionSlot(Arc<ServerState>);

impl ConnectionSlot {
    fn take(state: &Arc<ServerState>) -> ConnectionSlot {
        state.connections.fetch_add(1, Ordering::SeqCst);
        ConnectionSlot(Arc::clone(state))
    }

    fn state(&self) -> &Arc<ServerState> {
        &self.0
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Pause after a failed `accept`; successful accepts never wait.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Blocks in `accept` until [`Server::shutdown`] sets `drain` and wakes
/// it ([`wake_accept`]).
fn accept_loop(state: &Arc<ServerState>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if state.drain.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else {
            // An aborted handshake or a full fd table: back off briefly
            // rather than spin on an error that repeats until an fd frees.
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        if state.connections.load(Ordering::SeqCst) >= state.cfg.max_connections {
            let _ = Response::from_error(&HttpError::new(503, "connection limit"))
                .write_to(&mut stream);
            continue;
        }
        let slot = ConnectionSlot::take(state);
        let _ = std::thread::Builder::new()
            .name("qdi-serve-conn".into())
            .spawn(move || handle_connection(slot.state(), stream));
    }
}

/// The tenant a request concerns, for RED labels: the spec's tenant on
/// submit, the `?tenant=` filter on list, the job's owner on
/// `/v1/jobs/{id}` routes, empty otherwise.
fn tenant_label(state: &Arc<ServerState>, request: &Request) -> String {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["v1", "jobs"] if request.method == "POST" => std::str::from_utf8(&request.body)
            .ok()
            .and_then(|body| serde_json::parse_value_str(body).ok())
            .and_then(|value| {
                value
                    .get("tenant")
                    .and_then(serde::Value::as_str)
                    .map(str::to_owned)
            })
            .unwrap_or_default(),
        ["v1", "jobs"] => request.query_param("tenant").unwrap_or_default().to_owned(),
        ["v1", "jobs", id, ..] => state.job(id).map(|j| j.tenant()).unwrap_or_default(),
        _ => String::new(),
    }
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    qdi_obs::metrics::counter("serve.http.requests").inc();
    let timeout = Duration::from_millis(state.cfg.io_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let request = match read_request(&mut reader, &state.cfg.limits) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(err) => {
            qdi_obs::metrics::counter("serve.http.errors").inc();
            state.red.observe("malformed", "", err.status, 0.0);
            let _ = Response::from_error(&err).write_to(&mut writer);
            return;
        }
    };
    let started = std::time::Instant::now();
    let route_name = route_label(&request.method, &request.path);
    let tenant = tenant_label(state, &request);
    // One span per request: a child of the caller's traceparent when
    // one was sent, a fresh root otherwise (so server-side work is
    // traceable even from untraced clients).
    let mut span = qdi_obs::span("qdi-serve", route_name.clone());
    if let Some(ctx) = request.trace_context() {
        span = span.child_of(&ctx);
    }
    span.set_attr("http.method", request.method.clone());
    span.set_attr("http.path", request.path.clone());
    if !tenant.is_empty() {
        span.set_attr("tenant", tenant.clone());
    }
    // SSE never returns: stream events until the job ends.
    if request.method == "GET"
        && request.path.starts_with("/v1/jobs/")
        && request.path.ends_with("/events")
    {
        sse_stream(state, &mut writer, &request);
        span.set_attr("http.status", "200");
        state.red.observe(
            &route_name,
            &tenant,
            200,
            started.elapsed().as_secs_f64() * 1e3,
        );
        return;
    }
    let response = match route(state, &request, &mut span) {
        Ok(response) => response,
        Err(err) => {
            qdi_obs::metrics::counter("serve.http.errors").inc();
            Response::from_error(&err)
        }
    };
    span.set_attr("http.status", response.status.to_string());
    state.red.observe(
        &route_name,
        &tenant,
        response.status,
        started.elapsed().as_secs_f64() * 1e3,
    );
    let _ = response.write_to(&mut writer);
}

fn json_ok<T: serde::Serialize>(value: &T) -> Result<Response, HttpError> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| HttpError::new(500, format!("serialize: {e:?}")))?;
    Ok(Response::json(200, json))
}

fn route(
    state: &Arc<ServerState>,
    request: &Request,
    span: &mut Span,
) -> Result<Response, HttpError> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(healthz(state)),
        ("GET", ["metrics"]) => {
            let snapshot = qdi_obs::metrics::MetricsSnapshot::capture();
            let mut body = qdi_obs::prometheus::render(&snapshot);
            body.push_str(&state.red.render_prometheus());
            Ok(Response::text(200, body))
        }
        ("GET", ["v1", "progress"]) => json_ok(&progress_snapshot(state)),
        ("POST", ["v1", "shutdown"]) => {
            state.shutdown_requested.store(true, Ordering::SeqCst);
            Ok(Response::json(202, "{\"status\":\"draining\"}"))
        }
        ("POST", ["v1", "jobs"]) => submit(state, request, span),
        ("GET", ["v1", "jobs"]) => list_jobs(state, request),
        ("GET", ["v1", "jobs", id]) => status(state, id, request),
        ("POST", ["v1", "jobs", id, "cancel"]) | ("DELETE", ["v1", "jobs", id]) => {
            cancel(state, id)
        }
        ("GET", ["v1", "jobs", id, "report"]) => artifact(state, id, REPORT_FILE),
        ("GET", ["v1", "jobs", id, "checkpoint"]) => artifact(state, id, CHECKPOINT_FILE),
        ("GET", ["v1", "jobs", id, "trace-store"]) => trace_store(state, id),
        _ => Err(HttpError::new(
            404,
            format!("no route for {} {}", request.method, request.path),
        )),
    }
}

fn healthz(state: &Arc<ServerState>) -> Response {
    let jobs = state.jobs.lock().expect("jobs lock poisoned");
    let total = jobs.len();
    let active = jobs.values().filter(|j| !j.state().is_terminal()).count();
    drop(jobs);
    let service: Vec<String> = state
        .sched
        .service_snapshot()
        .into_iter()
        .map(|(tenant, units)| format!("[{},{units}]", quoted(&tenant)))
        .collect();
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"draining\":{},\"jobs\":{total},\"active\":{active},\"service\":[{}]}}",
            state.drain.load(Ordering::SeqCst),
            service.join(",")
        ),
    )
}

fn quoted(raw: &str) -> String {
    serde_json::to_string(&raw).unwrap_or_else(|_| "\"?\"".into())
}

fn progress_snapshot(state: &Arc<ServerState>) -> qdi_obs::progress::ProgressSnapshot {
    let tasks = state
        .jobs
        .lock()
        .expect("jobs lock poisoned")
        .values()
        .map(|j| j.progress_snapshot())
        .collect();
    qdi_obs::progress::ProgressSnapshot::from_tasks(qdi_obs::now_us(), tasks)
}

fn submit(
    state: &Arc<ServerState>,
    request: &Request,
    span: &mut Span,
) -> Result<Response, HttpError> {
    if state.drain.load(Ordering::SeqCst) {
        return Err(HttpError::new(503, "server is draining"));
    }
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| HttpError::bad_request("body is not UTF-8"))?;
    let spec: JobSpec = serde_json::from_str(body)
        .map_err(|e| HttpError::bad_request(format!("malformed job spec: {e:?}")))?;
    spec.validate().map_err(|m| HttpError::new(422, m))?;

    let seq = state.next_id.fetch_add(1, Ordering::SeqCst);
    let id = format!("j{seq:06}");
    let dir = state
        .cfg
        .data_dir
        .join("tenants")
        .join(&spec.tenant)
        .join("jobs")
        .join(&id);
    std::fs::create_dir_all(&dir)
        .map_err(|e| HttpError::new(500, format!("create {}: {e}", dir.display())))?;
    let total = match &spec.kind {
        JobKind::Dpa(dpa) => dpa.campaign.traces as u64,
        JobKind::Fi(_) => 0,
        JobKind::Pnr(pnr) => pnr.seeds.len() as u64,
    };
    // The job's durable trace anchor is this request's span: it is in
    // the submitter's trace (when a traceparent came in) and already
    // recorded, so every future lease span — including ones emitted by
    // a different server process after a crash — parents under it.
    let ctx = span.context().unwrap_or_else(qdi_obs::span::mint);
    span.set_attr("job", id.clone());
    let record = JobRecord {
        id: id.clone(),
        spec,
        state: JobState::Queued,
        completed: 0,
        total,
        error: None,
        quarantined: Vec::new(),
        resumes: 0,
        submit_seq: seq,
        trace: Some(TraceMeta {
            trace_id: ctx.trace_id.to_string(),
            root_span: ctx.span_id.to_string(),
            last_lease_span: None,
        }),
    };
    record
        .save(&dir)
        .map_err(|m| HttpError::new(500, format!("persist job: {m}")))?;
    let handle = Arc::new(JobHandle::new(record, dir));
    state
        .jobs
        .lock()
        .expect("jobs lock poisoned")
        .insert(id.clone(), Arc::clone(&handle));
    state.sched.enqueue(handle);
    qdi_obs::metrics::counter("serve.jobs.submitted").inc();
    Ok(Response::json(200, format!("{{\"id\":{}}}", quoted(&id))))
}

fn list_jobs(state: &Arc<ServerState>, request: &Request) -> Result<Response, HttpError> {
    let tenant = request.query_param("tenant");
    let jobs = state.jobs.lock().expect("jobs lock poisoned");
    let statuses: Vec<crate::job::JobStatus> = jobs
        .values()
        .filter(|j| tenant.is_none_or(|t| j.tenant() == t))
        .map(|j| j.status())
        .collect();
    drop(jobs);
    json_ok(&statuses)
}

fn status(state: &Arc<ServerState>, id: &str, request: &Request) -> Result<Response, HttpError> {
    let job = state
        .job(id)
        .ok_or_else(|| HttpError::new(404, format!("no job {id}")))?;
    if let Some(wait_ms) = request.query_param("wait_ms") {
        let wait_ms: u64 = wait_ms
            .parse()
            .map_err(|_| HttpError::bad_request("malformed wait_ms"))?;
        let after: u64 = match request.query_param("after") {
            Some(raw) => raw
                .parse()
                .map_err(|_| HttpError::bad_request("malformed after"))?,
            None => job.status().last_seq,
        };
        let _ = job.wait_event(after, Duration::from_millis(wait_ms.min(60_000)));
    }
    json_ok(&job.status())
}

fn cancel(state: &Arc<ServerState>, id: &str) -> Result<Response, HttpError> {
    let job = state
        .job(id)
        .ok_or_else(|| HttpError::new(404, format!("no job {id}")))?;
    job.request_cancel();
    // A queued job cancels immediately; a running one at its next
    // chunk boundary.
    if state.sched.remove(id) && !job.state().is_terminal() {
        let _ = job.set_state(JobState::Canceled, None);
        qdi_obs::metrics::counter("serve.jobs.canceled").inc();
    }
    json_ok(&job.status())
}

fn artifact(state: &Arc<ServerState>, id: &str, file: &str) -> Result<Response, HttpError> {
    let job = state
        .job(id)
        .ok_or_else(|| HttpError::new(404, format!("no job {id}")))?;
    let path = job.dir.join(file);
    let bytes = std::fs::read(&path)
        .map_err(|_| HttpError::new(404, format!("{file} not available for {id}")))?;
    Ok(Response::bytes(200, "application/json", bytes))
}

fn trace_store(state: &Arc<ServerState>, id: &str) -> Result<Response, HttpError> {
    let job = state
        .job(id)
        .ok_or_else(|| HttpError::new(404, format!("no job {id}")))?;
    let path = job.dir.join(STORE_FILE);
    let bytes = std::fs::read(&path)
        .map_err(|_| HttpError::new(404, format!("trace store not available for {id}")))?;
    Ok(Response::bytes(200, "application/octet-stream", bytes))
}

fn sse_stream(state: &Arc<ServerState>, writer: &mut TcpStream, request: &Request) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let id = match segments.as_slice() {
        ["v1", "jobs", id, "events"] => *id,
        _ => {
            let _ = Response::from_error(&HttpError::new(404, "bad events path")).write_to(writer);
            return;
        }
    };
    let Some(job) = state.job(id) else {
        let _ = Response::from_error(&HttpError::new(404, format!("no job {id}"))).write_to(writer);
        return;
    };
    // Cursor: the next sequence number to send. `?after=N` (or a
    // `Last-Event-ID` header) resumes past N; the default replays the
    // whole retained log.
    let mut next: u64 = request
        .query_param("after")
        .or_else(|| request.header("last-event-id"))
        .and_then(|raw| raw.parse::<u64>().ok())
        .map(|after| after + 1)
        .unwrap_or(0);
    if write_sse_preamble(writer).is_err() {
        return;
    }
    loop {
        let events = job.events_from(next);
        let wrote = !events.is_empty();
        for event in &events {
            if write_sse_event(writer, event.seq, &event.event, &event.data).is_err() {
                return;
            }
            next = event.seq + 1;
        }
        if job.state().is_terminal() && !wrote {
            let _ = write_sse_event(
                writer,
                next,
                "done",
                &format!("{{\"state\":\"{:?}\"}}", job.state()),
            );
            return;
        }
        if state.drain.load(Ordering::SeqCst) {
            let _ = write_sse_event(writer, next, "drain", "{\"reason\":\"server draining\"}");
            return;
        }
        if !wrote {
            // Heartbeat comment keeps half-open detection cheap.
            if writer.write_all(b": ping\r\n\r\n").is_err() || writer.flush().is_err() {
                return;
            }
            let _ = job.wait_event(next.saturating_sub(1), Duration::from_millis(250));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DpaJobSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qdi_serve_server_{tag}_{}", std::process::id()))
    }

    #[test]
    fn a_connection_slot_is_released_when_its_thread_never_runs() {
        let state = Arc::new(ServerState::new(ServeConfig::new(tmp_dir("slot"))));
        let slot = ConnectionSlot::take(&state);
        assert_eq!(state.connections.load(Ordering::SeqCst), 1);
        // What a failed `Builder::spawn` does with the handler: drops it
        // without running it.
        let handler = move || slot.state().connections.load(Ordering::SeqCst);
        drop(handler);
        assert_eq!(state.connections.load(Ordering::SeqCst), 0);
    }

    fn running_dpa_record(id: &str, traces: usize) -> JobRecord {
        let mut campaign = qdi_dpa::CampaignConfig::new(0x3C);
        campaign.traces = traces;
        JobRecord {
            id: id.into(),
            spec: JobSpec {
                tenant: "t".into(),
                name: None,
                priority: None,
                kind: JobKind::Dpa(DpaJobSpec {
                    stage: "xor".into(),
                    campaign,
                    resilience: None,
                    exec_workers: None,
                    attack: None,
                }),
            },
            state: JobState::Running,
            completed: 0,
            total: traces as u64,
            error: None,
            quarantined: Vec::new(),
            resumes: 0,
            submit_seq: 0,
            trace: None,
        }
    }

    #[test]
    fn recovery_takes_progress_from_a_checkpoint_that_fits() {
        let data = tmp_dir("recover");
        std::fs::remove_dir_all(&data).ok();
        let jobs = data.join("tenants").join("t").join("jobs");
        // j000001's checkpoint is sound, j000002's is torn and
        // j000003's counts past the job's total.
        for (id, completed) in [("j000001", 512), ("j000002", 512), ("j000003", 1025)] {
            let dir = jobs.join(id);
            std::fs::create_dir_all(&dir).expect("mkdir");
            running_dpa_record(id, 1024)
                .save(&dir)
                .expect("record saves");
            qdi_dpa::StoreCheckpoint {
                fingerprint: String::new(),
                completed,
                store_path: dir.join(STORE_FILE).display().to_string(),
                store_offset: 0,
                quarantined: vec![17],
            }
            .save(&dir.join(CHECKPOINT_FILE))
            .expect("checkpoint saves");
        }
        let torn = jobs.join("j000002").join(CHECKPOINT_FILE);
        let bytes = std::fs::read(&torn).expect("reads");
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("tears");

        // No worker runs, so no lease touches the recovered jobs.
        let state = Arc::new(ServerState::new(ServeConfig::new(&data)));
        recover_jobs(&state);
        let status = |id: &str| state.job(id).expect("recovered").status();
        let sound = status("j000001");
        assert_eq!(sound.state, JobState::Queued);
        assert_eq!((sound.completed, sound.quarantined), (512, vec![17]));
        for id in ["j000002", "j000003"] {
            let kept = status(id);
            assert_eq!(kept.state, JobState::Queued, "{id}");
            assert_eq!((kept.completed, kept.quarantined), (0, vec![]), "{id}");
        }
        std::fs::remove_dir_all(&data).ok();
    }
}
