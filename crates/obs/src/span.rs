//! The one span model: every timed scope in the workspace — flow steps,
//! HTTP requests, job leases, simulator kernels — is a [`Span`].
//!
//! Each span carries a W3C trace id and span id, its parent, `key =
//! value` attributes, point events, causal [`SpanLink`]s, a start time,
//! a duration and the emitting thread. Open spans live on one
//! thread-local stack, so nesting is implicit; [`Span::child_of`]
//! continues a trace that arrived from another process (a `traceparent`
//! header or a persisted job record), and [`handoff`] / [`Handoff::adopt`]
//! carry the current span to worker threads.
//!
//! A closed span becomes one [`SpanRecord`]. That record is all any
//! consumer reads: the log sinks of the crate root and the run record
//! ([`set_file`], read back by [`read_records`]), from which
//! [`crate::prof::ProfReport::from_records`] rebuilds the profile.
//!
//! # Ordinary and hot spans
//!
//! [`crate::span()`] opens an *ordinary* span: it writes one record when it
//! closes. [`hot`] opens a *hot* span for kernels that run thousands of
//! times per second (`sim.run`, `dpa.acquire`, `qtrs.encode`). A hot span
//! never writes a record per call. It folds its wall time into a
//! roll-up node (count, total, self, min, max) under its nearest
//! ordinary ancestor, keyed by its path of hot names below that
//! ancestor. When the ancestor closes, every node becomes one record
//! whose [`SpanRecord::rollup`] carries the statistics. Once its node
//! exists, a hot span allocates nothing per call. Hot spans with no
//! ordinary ancestor fold into a per-thread root table that
//! [`crate::flush`] drains.
//!
//! # One switch
//!
//! Spans record when `QDI_LOG` enables any level or when the run record
//! is installed. One relaxed atomic load decides it: a disabled span is
//! an inert guard, pinned at ~4 ns by the `prof_overhead` bench.
//!
//! Timestamps are UNIX-epoch microseconds ([`crate::unix_us`]) so spans
//! from different processes — client, server, restarted server — line up
//! on one axis. Ids come from a SplitMix64 finalizer over a per-process
//! salt and a counter: distinct within a process, unpredictable across
//! processes, never zero (the W3C invalid value).

use std::cell::RefCell;
use std::io::Write as _;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Instant, SystemTime};

use serde::{Deserialize, Serialize};

use crate::level::Level;
use crate::record::{FieldValue, Record};

/// Trace flags: the context was sampled (always set by [`mint`]).
pub const FLAG_SAMPLED: u8 = 0x01;

/// Link kind connecting a resumed job's lease span to the lease span
/// that was interrupted (crash, drain or fair-share requeue).
pub const LINK_RESUME: &str = "resume";

/// Service name of roll-ups drained from a thread root (hot spans that
/// ran with no ordinary ancestor).
const ROOT_SERVICE: &str = "qdi";

// ---------------------------------------------------------------------------
// Ids and context
// ---------------------------------------------------------------------------

/// A 128-bit trace id, never zero. Renders as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

/// A 64-bit span id, never zero. Renders as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for TraceId {
    type Err = String;

    fn from_str(s: &str) -> Result<TraceId, String> {
        if s.len() != 32 {
            return Err(format!("trace id must be 32 hex digits, got `{s}`"));
        }
        let v = u128::from_str_radix(s, 16).map_err(|e| format!("bad trace id `{s}`: {e}"))?;
        if v == 0 {
            return Err("trace id must not be zero".to_string());
        }
        Ok(TraceId(v))
    }
}

impl std::str::FromStr for SpanId {
    type Err = String;

    fn from_str(s: &str) -> Result<SpanId, String> {
        if s.len() != 16 {
            return Err(format!("span id must be 16 hex digits, got `{s}`"));
        }
        let v = u64::from_str_radix(s, 16).map_err(|e| format!("bad span id `{s}`: {e}"))?;
        if v == 0 {
            return Err("span id must not be zero".to_string());
        }
        Ok(SpanId(v))
    }
}

/// The propagated slice of a trace: which trace, which span is the
/// current parent, and the option flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span in this request chain shares.
    pub trace_id: TraceId,
    /// The caller's span: the parent of whatever span is opened next.
    pub span_id: SpanId,
    /// W3C trace flags ([`FLAG_SAMPLED`] is bit 0).
    pub flags: u8,
}

impl TraceContext {
    /// Renders the context in the W3C `traceparent` header format,
    /// version 00: `00-<trace id>-<span id>-<flags>`.
    #[must_use]
    pub fn to_traceparent(&self) -> String {
        format!("00-{}-{}-{:02x}", self.trace_id, self.span_id, self.flags)
    }

    /// Parses a `traceparent` header value. Only version `00` is
    /// accepted; all-zero ids are rejected per the W3C spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn parse_traceparent(header: &str) -> Result<TraceContext, String> {
        let mut parts = header.trim().split('-');
        let version = parts.next().unwrap_or("");
        if version != "00" {
            return Err(format!("unsupported traceparent version `{version}`"));
        }
        let trace_id: TraceId = parts
            .next()
            .ok_or("traceparent missing trace id")?
            .parse()?;
        let span_id: SpanId = parts.next().ok_or("traceparent missing span id")?.parse()?;
        let flags_hex = parts.next().ok_or("traceparent missing flags")?;
        if flags_hex.len() != 2 {
            return Err(format!(
                "trace flags must be 2 hex digits, got `{flags_hex}`"
            ));
        }
        let flags =
            u8::from_str_radix(flags_hex, 16).map_err(|e| format!("bad trace flags: {e}"))?;
        if parts.next().is_some() {
            return Err("trailing fields after trace flags".to_string());
        }
        Ok(TraceContext {
            trace_id,
            span_id,
            flags,
        })
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh id word: the mixed sum of a per-process salt (wall clock and
/// pid) and a counter, so ids never repeat within a process.
fn id_word() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let salt = *SALT.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        mix64(nanos ^ u64::from(std::process::id()).rotate_left(32))
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    mix64(salt.wrapping_add(n.wrapping_mul(0xa076_1d64_78bd_642f)))
}

/// Mints a fresh non-zero span id.
#[must_use]
pub fn new_span_id() -> SpanId {
    loop {
        let v = id_word();
        if v != 0 {
            return SpanId(v);
        }
    }
}

/// Mints a fresh non-zero 128-bit trace id.
#[must_use]
pub fn new_trace_id() -> TraceId {
    loop {
        let v = (u128::from(id_word()) << 64) | u128::from(id_word());
        if v != 0 {
            return TraceId(v);
        }
    }
}

/// Mints a brand-new sampled context (fresh trace, fresh span).
#[must_use]
pub fn mint() -> TraceContext {
    TraceContext {
        trace_id: new_trace_id(),
        span_id: new_span_id(),
        flags: FLAG_SAMPLED,
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A causal link to a span in the same or another trace. Unlike a
/// parent, a link does not imply the linked span encloses this one —
/// it records "continues the work of" (see [`LINK_RESUME`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanLink {
    /// Linked trace id, 32 hex digits.
    pub trace_id: String,
    /// Linked span id, 16 hex digits.
    pub span_id: String,
    /// Why the link exists, e.g. [`LINK_RESUME`].
    pub kind: String,
}

/// A point-in-time event on a span (chunk completed, yield, requeue).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// UNIX-epoch microseconds of the event.
    pub ts_us: u64,
    /// Event name, e.g. `sched.yield`.
    pub name: String,
    /// `key = value` attachments.
    pub attrs: Vec<(String, String)>,
}

/// The statistics of one hot-span roll-up node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rollup {
    /// Visits folded into the node.
    pub count: u64,
    /// Wall time summed over the visits, ns.
    pub total_ns: u64,
    /// Total minus the time of child spans on the same thread, ns.
    pub self_ns: u64,
    /// Shortest visit, ns.
    pub min_ns: u64,
    /// Longest visit, ns.
    pub max_ns: u64,
}

/// One finished span, as every consumer sees it and as the run record
/// stores it (one `{"Span": ...}` line). Ids are hex strings so records
/// stay greppable and schema-stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace id, 32 hex digits.
    pub trace_id: String,
    /// This span's id, 16 hex digits.
    pub span_id: String,
    /// Enclosing span id within the same trace, when there is one.
    pub parent_id: Option<String>,
    /// Causal links ([`SpanLink`]) to spans this one continues.
    pub links: Vec<SpanLink>,
    /// Emitting service or module target, e.g. `qdi-serve`,
    /// `qdi_core::flow`.
    pub service: String,
    /// Span name, e.g. `POST /v1/jobs`, `lease` or `sim.run`.
    pub name: String,
    /// UNIX-epoch microseconds at span start (for a roll-up: the first
    /// visit's start).
    pub start_unix_us: u64,
    /// Wall-clock duration in microseconds (for a roll-up: from the
    /// first visit's start to the last visit's end).
    pub dur_us: u64,
    /// `key = value` attachments.
    pub attrs: Vec<(String, String)>,
    /// Point events that happened inside the span.
    pub events: Vec<SpanEvent>,
    /// Dense id of the emitting thread ([`crate::thread_id`]).
    pub thread: Option<u64>,
    /// Set on the records of hot spans: the folded visit statistics.
    pub rollup: Option<Rollup>,
}

impl SpanRecord {
    /// The span's context, for propagating onward or linking back.
    ///
    /// # Errors
    ///
    /// Returns a description when the stored hex ids are malformed.
    pub fn context(&self) -> Result<TraceContext, String> {
        Ok(TraceContext {
            trace_id: self.trace_id.parse()?,
            span_id: self.span_id.parse()?,
            flags: FLAG_SAMPLED,
        })
    }

    /// A record with no timing, attributes, events or links yet.
    fn blank(
        trace_id: TraceId,
        span_id: SpanId,
        parent: Option<SpanId>,
        service: &str,
        name: String,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: trace_id.to_string(),
            span_id: span_id.to_string(),
            parent_id: parent.map(|p| p.to_string()),
            links: Vec::new(),
            service: service.to_string(),
            name,
            start_unix_us: 0,
            dur_us: 0,
            attrs: Vec::new(),
            events: Vec::new(),
            thread: Some(crate::thread_id()),
            rollup: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Roll-up tables
// ---------------------------------------------------------------------------

/// Sentinel parent index of a table's top-level nodes.
const NO_PARENT: usize = usize::MAX;

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    parent: usize,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    min_ns: u64,
    max_ns: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Node {
    fn new(name: &'static str, parent: usize) -> Node {
        Node {
            name,
            parent,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            first: None,
            last: None,
        }
    }

    fn absorb(&mut self, other: &Node) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.first = self.first.into_iter().chain(other.first).min();
        self.last = self.last.max(other.last);
    }
}

/// The hot-span call tree under one ordinary span (or one adopted
/// hand-off, or a thread root). Parents always precede children.
#[derive(Debug, Default)]
struct Rollups {
    nodes: Vec<Node>,
}

impl Rollups {
    /// The node `name` under `parent`, created on first use.
    fn node(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(i) = self
            .nodes
            .iter()
            .position(|n| n.parent == parent && n.name == name)
        {
            return i;
        }
        self.nodes.push(Node::new(name, parent));
        self.nodes.len() - 1
    }

    /// The node at the end of `path` from the top, created on demand.
    fn path(&mut self, path: &[&'static str]) -> usize {
        path.iter()
            .fold(NO_PARENT, |parent, name| self.node(parent, name))
    }

    /// The names from the top down to `node`.
    fn names(&self, mut node: usize) -> Vec<&'static str> {
        let mut names = Vec::new();
        while let Some(n) = self.nodes.get(node) {
            names.push(n.name);
            node = n.parent;
        }
        names.reverse();
        names
    }

    fn add(&mut self, node: usize, start: Instant, end: Instant, child_ns: u64) {
        let dur_ns = nanos(end.saturating_duration_since(start));
        let n = &mut self.nodes[node];
        n.count += 1;
        n.total_ns = n.total_ns.saturating_add(dur_ns);
        n.self_ns = n.self_ns.saturating_add(dur_ns.saturating_sub(child_ns));
        n.min_ns = n.min_ns.min(dur_ns);
        n.max_ns = n.max_ns.max(dur_ns);
        n.first.get_or_insert(start);
        n.last = Some(end);
    }

    /// Folds `other` in, matching nodes by path.
    fn merge(&mut self, other: &Rollups) {
        let mut map = Vec::with_capacity(other.nodes.len());
        for n in &other.nodes {
            let parent = if n.parent == NO_PARENT {
                NO_PARENT
            } else {
                map[n.parent]
            };
            let i = self.node(parent, n.name);
            self.nodes[i].absorb(n);
            map.push(i);
        }
    }

    fn is_empty(&self) -> bool {
        self.nodes.iter().all(|n| n.count == 0)
    }

    /// One record per visited node, parented under `ids` (a fresh trace
    /// for a thread root). Unvisited nodes are skipped and their
    /// children parent to the nearest visited ancestor.
    fn records(&self, ids: Option<(TraceId, SpanId)>, service: &str) -> Vec<Record> {
        let trace_id = ids.map_or_else(new_trace_id, |(t, _)| t);
        let mut record_ids: Vec<Option<SpanId>> = Vec::with_capacity(self.nodes.len());
        let mut out = Vec::new();
        for n in &self.nodes {
            let parent = if n.parent == NO_PARENT {
                ids.map(|(_, s)| s)
            } else {
                record_ids[n.parent]
            };
            let (Some(first), Some(last), true) = (n.first, n.last, n.count > 0) else {
                record_ids.push(parent);
                continue;
            };
            let span_id = new_span_id();
            record_ids.push(Some(span_id));
            let mut record =
                SpanRecord::blank(trace_id, span_id, parent, service, n.name.to_string());
            record.start_unix_us = crate::unix_us_at(first);
            record.dur_us = nanos(last.saturating_duration_since(first)) / 1000;
            record.rollup = Some(Rollup {
                count: n.count,
                total_ns: n.total_ns,
                self_ns: n.self_ns,
                min_ns: n.min_ns,
                max_ns: n.max_ns,
            });
            out.push(Record::Span(record));
        }
        out
    }

    /// Zeroes the statistics, keeping the node structure (open hot
    /// frames hold node indices into it).
    fn reset(&mut self) {
        for n in &mut self.nodes {
            *n = Node::new(n.name, n.parent);
        }
    }
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// The thread-local stack
// ---------------------------------------------------------------------------

/// A scope hot spans fold into: an ordinary span, an adopted hand-off,
/// or the thread root.
#[derive(Debug)]
struct Scope {
    /// Identifies the scope for its guard (the span id for ordinary
    /// spans).
    key: u64,
    /// Trace and span id children parent under; `None` at a thread root.
    ids: Option<(TraceId, SpanId)>,
    service: &'static str,
    /// The node top-level hot spans nest under.
    base: usize,
    rollups: Rollups,
    /// Where worker threads merge the roll-ups of a [`Handoff`].
    inbox: Option<Arc<Mutex<Rollups>>>,
    /// For an adopted scope: the inbox it merges into when it ends.
    merge_into: Option<Arc<Mutex<Rollups>>>,
}

impl Scope {
    fn new(key: u64, ids: Option<(TraceId, SpanId)>, service: &'static str) -> Scope {
        Scope {
            key,
            ids,
            service,
            base: NO_PARENT,
            rollups: Rollups::default(),
            inbox: None,
            merge_into: None,
        }
    }

    fn absorb_inbox(&mut self) {
        if let Some(inbox) = self.inbox.take() {
            self.rollups.merge(&locked(&inbox));
        }
    }
}

#[derive(Debug)]
enum Frame {
    Hot {
        node: usize,
        start: Instant,
        child_ns: u64,
    },
    Scope(Box<Scope>),
}

/// Open frames of one thread; `frames[0]` is the thread root.
struct Stack {
    frames: Vec<Frame>,
}

impl Stack {
    fn nearest_scope(&mut self) -> &mut Scope {
        self.frames
            .iter_mut()
            .rev()
            .find_map(|f| match f {
                Frame::Scope(scope) => Some(scope.as_mut()),
                Frame::Hot { .. } => None,
            })
            .expect("the thread root is always on the stack")
    }

    /// The node a hot span opened now nests under.
    fn top_node(&self) -> usize {
        match self.frames.last() {
            Some(Frame::Hot { node, .. }) => *node,
            Some(Frame::Scope(scope)) => scope.base,
            None => NO_PARENT,
        }
    }

    fn remove_scope(&mut self, key: u64) -> Option<Box<Scope>> {
        let pos = self
            .frames
            .iter()
            .rposition(|f| matches!(f, Frame::Scope(s) if s.key == key))?;
        match self.frames.remove(pos) {
            Frame::Scope(scope) => Some(scope),
            Frame::Hot { .. } => None,
        }
    }

    fn scope_mut(&mut self, key: u64) -> Option<&mut Scope> {
        self.frames.iter_mut().rev().find_map(|f| match f {
            Frame::Scope(s) if s.key == key => Some(s.as_mut()),
            _ => None,
        })
    }
}

impl Drop for Stack {
    /// A finished thread hands its root roll-ups to the process-wide
    /// orphan table, which the next drain emits.
    fn drop(&mut self) {
        if let Some(Frame::Scope(root)) = self.frames.first_mut() {
            root.absorb_inbox();
            if !root.rollups.is_empty() {
                locked(orphans()).merge(&root.rollups);
            }
        }
    }
}

thread_local! {
    static STACK: RefCell<Stack> = RefCell::new(Stack {
        frames: vec![Frame::Scope(Box::new(Scope::new(0, None, ROOT_SERVICE)))],
    });
}

fn orphans() -> &'static Mutex<Rollups> {
    static ORPHANS: OnceLock<Mutex<Rollups>> = OnceLock::new();
    ORPHANS.get_or_init(Mutex::default)
}

/// The id of the innermost span on this thread and the number of spans
/// open above the thread root (the indent of log events).
pub(crate) fn current_id() -> (Option<u64>, usize) {
    STACK
        .try_with(|s| {
            s.borrow()
                .frames
                .iter()
                .filter_map(|f| match f {
                    Frame::Scope(scope) => scope.ids,
                    Frame::Hot { .. } => None,
                })
                .fold((None, 0), |(_, depth), (_, id)| (Some(id.0), depth + 1))
        })
        .unwrap_or((None, 0))
}

/// Emits the roll-ups of hot spans that ran with no ordinary ancestor:
/// this thread's root table plus those of finished threads.
pub(crate) fn drain_roots() {
    let mut table = std::mem::take(&mut *locked(orphans()));
    let _ = STACK.try_with(|s| {
        let mut s = s.borrow_mut();
        if let Some(Frame::Scope(root)) = s.frames.first_mut() {
            root.absorb_inbox();
            table.merge(&root.rollups);
            root.rollups.reset();
        }
    });
    if !table.is_empty() {
        let logged = crate::switch() & crate::SWITCH_LOG != 0;
        crate::emit_spans(table.records(None, ROOT_SERVICE), logged);
    }
}

// ---------------------------------------------------------------------------
// The span guard
// ---------------------------------------------------------------------------

/// An open span; dropping it closes the span. Created by
/// [`crate::span()`], [`crate::span_at`], [`hot`] or [`Handoff::adopt`].
/// While spans are off it is an inert guard.
///
/// Spans must close on the thread that opened them (the type is not
/// `Send`).
#[must_use = "dropping the span immediately closes it"]
pub struct Span {
    state: State,
    _not_send: PhantomData<*const ()>,
}

enum State {
    Off,
    Hot,
    Open(Box<Open>),
    Adopted(u64),
}

/// An open ordinary span: its record-to-be and the key of its frame.
struct Open {
    record: SpanRecord,
    key: u64,
    start: Instant,
    logged: bool,
}

impl Span {
    #[inline]
    fn with(state: State) -> Span {
        Span {
            state,
            _not_send: PhantomData,
        }
    }

    /// Whether the span is recording (spans are on).
    #[must_use]
    pub fn is_recording(&self) -> bool {
        !matches!(self.state, State::Off)
    }

    /// Attaches a `key = value` attribute (chaining form).
    pub fn attr(mut self, key: &str, value: impl Into<FieldValue>) -> Span {
        self.set_attr(key, value);
        self
    }

    /// Attaches a `key = value` attribute, e.g. a result computed inside
    /// the span; the record keeps the value's display form. No-op unless
    /// the span is an open ordinary span.
    pub fn set_attr(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let State::Open(open) = &mut self.state {
            let value = value.into().to_string();
            open.record.attrs.push((key.to_string(), value));
        }
    }

    /// Re-parents the span under a context that arrived from elsewhere
    /// (a `traceparent` header, a persisted job record). Call it right
    /// after opening, before any child span.
    pub fn child_of(mut self, ctx: &TraceContext) -> Span {
        if let State::Open(open) = &mut self.state {
            open.record.trace_id = ctx.trace_id.to_string();
            open.record.parent_id = Some(ctx.span_id.to_string());
            let ids = (ctx.trace_id, SpanId(open.key));
            let _ = STACK.try_with(|s| {
                if let Some(scope) = s.borrow_mut().scope_mut(open.key) {
                    scope.ids = Some(ids);
                }
            });
        }
        self
    }

    /// Adds a causal link (see [`SpanLink`]).
    pub fn link(&mut self, ctx: &TraceContext, kind: &str) {
        if let State::Open(open) = &mut self.state {
            open.record.links.push(SpanLink {
                trace_id: ctx.trace_id.to_string(),
                span_id: ctx.span_id.to_string(),
                kind: kind.to_string(),
            });
        }
    }

    /// Records a point event with attributes.
    pub fn event(&mut self, name: &str, attrs: &[(&str, String)]) {
        if let State::Open(open) = &mut self.state {
            open.record.events.push(SpanEvent {
                ts_us: crate::unix_us(),
                name: name.to_string(),
                attrs: attrs
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// The context to propagate to children of this span, when it is an
    /// open ordinary span.
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        match &self.state {
            State::Open(open) => open.record.context().ok(),
            _ => None,
        }
    }
}

/// Opens an ordinary span at `level` under the innermost span of this
/// thread (or as the root of a new trace). `target` names the emitting
/// service or module (`qdi-serve`, `qdi_pnr::place`); `QDI_LOG` filters
/// on it. Disabled spans cost one atomic load and allocate nothing.
pub fn span_at(level: Level, target: &'static str, name: impl Into<String>) -> Span {
    let switch = crate::switch();
    if switch == 0 {
        return Span::with(State::Off);
    }
    let logged = switch & crate::SWITCH_LOG != 0 && crate::enabled(level, target);
    if !logged && switch & crate::SWITCH_FILE == 0 {
        return Span::with(State::Off);
    }
    let span_id = new_span_id();
    let opened = STACK.try_with(|s| {
        let mut s = s.borrow_mut();
        let (trace_id, parent) = match s.nearest_scope().ids {
            Some((trace_id, parent)) => (trace_id, Some(parent)),
            None => (new_trace_id(), None),
        };
        s.frames.push(Frame::Scope(Box::new(Scope::new(
            span_id.0,
            Some((trace_id, span_id)),
            target,
        ))));
        (trace_id, parent)
    });
    let Ok((trace_id, parent)) = opened else {
        return Span::with(State::Off);
    };
    let mut record = SpanRecord::blank(trace_id, span_id, parent, target, name.into());
    record.start_unix_us = crate::unix_us();
    Span::with(State::Open(Box::new(Open {
        record,
        key: span_id.0,
        start: Instant::now(),
        logged,
    })))
}

/// Opens a hot span: one relaxed load while spans are off; otherwise a
/// visit of the roll-up node `name` under the innermost open span, which
/// allocates nothing once the node exists. Names are short dotted
/// identifiers (`"sim.run"`, `"qtrs.encode"`): they become the frames
/// of the profile's folded-stack paths.
#[inline]
pub fn hot(name: &'static str) -> Span {
    if crate::switch() == 0 {
        return Span::with(State::Off);
    }
    open_hot(name)
}

fn open_hot(name: &'static str) -> Span {
    let pushed = STACK.try_with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.top_node();
        let node = s.nearest_scope().rollups.node(parent, name);
        s.frames.push(Frame::Hot {
            node,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    Span::with(if pushed.is_ok() {
        State::Hot
    } else {
        State::Off
    })
}

fn close_hot() {
    let end = Instant::now();
    let _ = STACK.try_with(|s| {
        let mut s = s.borrow_mut();
        let Some(pos) = s
            .frames
            .iter()
            .rposition(|f| matches!(f, Frame::Hot { .. }))
        else {
            return;
        };
        let Frame::Hot {
            node,
            start,
            child_ns,
        } = s.frames.remove(pos)
        else {
            return;
        };
        if let Some(Frame::Hot { child_ns: up, .. }) = s.frames.get_mut(pos.wrapping_sub(1)) {
            *up = up.saturating_add(nanos(end.saturating_duration_since(start)));
        }
        let scope = s.frames[..pos].iter_mut().rev().find_map(|f| match f {
            Frame::Scope(scope) => Some(scope),
            Frame::Hot { .. } => None,
        });
        if let Some(scope) = scope {
            scope.rollups.add(node, start, end, child_ns);
        }
    });
}

fn close_open(mut open: Open) {
    // An ordinary span inside a hot one does not reduce the hot span's
    // self time: the profile's call tree holds hot spans only, so that
    // time would otherwise vanish from it.
    let scope = STACK
        .try_with(|s| s.borrow_mut().remove_scope(open.key))
        .ok()
        .flatten();
    let mut batch = match scope {
        Some(mut scope) => {
            scope.absorb_inbox();
            scope.rollups.records(scope.ids, scope.service)
        }
        None => Vec::new(),
    };
    open.record.dur_us = nanos(open.start.elapsed()) / 1000;
    batch.push(Record::Span(open.record));
    crate::emit_spans(batch, open.logged);
}

fn close_adopted(key: u64) {
    let _ = STACK.try_with(|s| {
        let Some(mut scope) = s.borrow_mut().remove_scope(key) else {
            return;
        };
        scope.absorb_inbox();
        if let Some(target) = &scope.merge_into {
            locked(target).merge(&scope.rollups);
        }
    });
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if !matches!(self.state, State::Off) {
            self.close();
        }
    }
}

impl Span {
    fn close(&mut self) {
        match std::mem::replace(&mut self.state, State::Off) {
            State::Off => {}
            State::Hot => close_hot(),
            State::Open(open) => close_open(*open),
            State::Adopted(key) => close_adopted(key),
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-off to worker threads
// ---------------------------------------------------------------------------

/// The innermost span of one thread, packaged for worker threads: spans
/// and hot roll-ups on a worker that [adopted](Handoff::adopt) it nest
/// under the span exactly as on the original thread, and the roll-ups
/// are emitted with it.
#[derive(Debug, Clone)]
pub struct Handoff {
    ids: Option<(TraceId, SpanId)>,
    /// Hot names from the span down to the innermost open hot span.
    base: Vec<&'static str>,
    inbox: Arc<Mutex<Rollups>>,
}

/// Packages this thread's innermost span for worker threads; `None`
/// while spans are off.
#[must_use]
pub fn handoff() -> Option<Handoff> {
    if crate::switch() == 0 {
        return None;
    }
    STACK
        .try_with(|s| {
            let mut s = s.borrow_mut();
            let top = s.top_node();
            let scope = s.nearest_scope();
            let inbox = Arc::clone(scope.inbox.get_or_insert_with(Arc::default));
            Handoff {
                ids: scope.ids,
                base: scope.rollups.names(top),
                inbox,
            }
        })
        .ok()
}

impl Handoff {
    /// Continues the handed-off span on this thread until the returned
    /// guard drops; its hot roll-ups then merge back into the span.
    pub fn adopt(&self) -> Span {
        let key = new_span_id().0;
        // An adopted scope emits nothing itself: its roll-ups merge back
        // into the handed-off span, which names the service.
        let mut scope = Scope::new(key, self.ids, ROOT_SERVICE);
        scope.base = scope.rollups.path(&self.base);
        scope.merge_into = Some(Arc::clone(&self.inbox));
        let pushed = STACK.try_with(|s| s.borrow_mut().frames.push(Frame::Scope(Box::new(scope))));
        Span::with(if pushed.is_ok() {
            State::Adopted(key)
        } else {
            State::Off
        })
    }
}

// ---------------------------------------------------------------------------
// The run record
// ---------------------------------------------------------------------------

struct SpanFile {
    path: PathBuf,
    file: std::fs::File,
}

fn file_slot() -> &'static Mutex<Option<SpanFile>> {
    static FILE: OnceLock<Mutex<Option<SpanFile>>> = OnceLock::new();
    FILE.get_or_init(|| Mutex::new(None))
}

/// Installs the run record: appends every [`Record`] to `path` as JSON
/// Lines (creating the parent directory) and turns spans on. The file
/// gets every closed span, every event the filter enables and, where
/// they are produced, pool runs (while [`crate::prof::install`] arms
/// them) and metrics snapshots ([`crate::record_metrics`]). One
/// `O_APPEND` handle is kept per installed path and every record is one
/// `write`, so a crashed process tears at most the final line
/// ([`read_records`] skips it). The file is process-global: the last
/// installed path wins.
pub fn set_file(path: impl Into<PathBuf>) {
    let path = path.into();
    let mut slot = locked(file_slot());
    if slot
        .as_ref()
        .is_some_and(|f| f.path == path && path.exists())
    {
        return;
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(file) => {
            *slot = Some(SpanFile { path, file });
            crate::set_switch(crate::SWITCH_FILE, true);
        }
        Err(e) => eprintln!("qdi-obs: cannot open span file {}: {e}", path.display()),
    }
}

/// Stops writing the run record.
pub fn close_file() {
    *locked(file_slot()) = None;
    crate::set_switch(crate::SWITCH_FILE, false);
}

/// Appends records to the installed run record. IO errors are
/// swallowed: tracing must never take down the traced service.
pub(crate) fn write_file(records: &[Record]) {
    let mut slot = locked(file_slot());
    let Some(out) = slot.as_mut() else {
        return;
    };
    for record in records {
        if let Ok(mut line) = serde_json::to_string(record) {
            line.push('\n');
            let _ = out.file.write_all(line.as_bytes());
        }
    }
}

/// The records of one run record, in file order.
#[derive(Debug, Default)]
pub struct Records {
    /// The lines that parsed.
    pub records: Vec<Record>,
    /// Lines that were not UTF-8 or did not parse.
    pub skipped: usize,
}

/// Reads a run record back. A line that is not UTF-8 or does not parse
/// is skipped and counted: a `kill -9` can tear the final line
/// mid-write, even inside a multi-byte character, and that must not
/// hide every record written before it.
///
/// # Errors
///
/// Returns a description when the file itself cannot be read.
pub fn read_records(path: &Path) -> Result<Records, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = Records::default();
    for line in bytes.split(|&b| b == b'\n') {
        match std::str::from_utf8(line).map(str::trim) {
            Ok("") => {}
            Ok(text) => match serde_json::from_str(text) {
                Ok(record) => out.records.push(record),
                Err(_) => out.skipped += 1,
            },
            Err(_) => out.skipped += 1,
        }
    }
    Ok(out)
}

/// The span records of a run record (see [`read_records`]).
///
/// # Errors
///
/// Returns a description when the file itself cannot be read.
pub fn read_spans(path: &Path) -> Result<Vec<SpanRecord>, String> {
    Ok(read_records(path)?
        .records
        .into_iter()
        .filter_map(|record| match record {
            Record::Span(span) => Some(span),
            _ => None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trips() {
        let ctx = mint();
        let header = ctx.to_traceparent();
        assert_eq!(header.len(), 2 + 1 + 32 + 1 + 16 + 1 + 2);
        let parsed = TraceContext::parse_traceparent(&header).unwrap();
        assert_eq!(parsed, ctx);
    }

    #[test]
    fn traceparent_accepts_the_w3c_example() {
        let ctx = TraceContext::parse_traceparent(
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        )
        .unwrap();
        assert_eq!(ctx.trace_id.to_string(), "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(ctx.span_id.to_string(), "00f067aa0ba902b7");
        assert_eq!(ctx.flags, FLAG_SAMPLED);
    }

    #[test]
    fn traceparent_rejects_malformed_headers() {
        for bad in [
            "",
            "00",
            "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
            "00-short-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-short-01",
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0z",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
        ] {
            assert!(
                TraceContext::parse_traceparent(bad).is_err(),
                "must reject `{bad}`"
            );
        }
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = mint();
        let b = mint();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
        assert_ne!(a.trace_id.0, 0);
        assert_ne!(a.span_id.0, 0);
    }

    fn node_stats(table: &Rollups, path: &[&'static str]) -> (u64, u64, u64) {
        let mut probe = Rollups {
            nodes: table.nodes.clone(),
        };
        let before = probe.nodes.len();
        let i = probe.path(path);
        assert_eq!(probe.nodes.len(), before, "path {path:?} missing");
        let n = &table.nodes[i];
        (n.count, n.total_ns, n.self_ns)
    }

    #[test]
    fn tables_fold_nested_visits_and_merge_by_path() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + std::time::Duration::from_millis(n);
        let mut a = Rollups::default();
        let outer = a.node(NO_PARENT, "outer");
        let inner = a.node(outer, "inner");
        a.add(inner, ms(1), ms(3), 0);
        a.add(outer, ms(0), ms(4), 2_000_000);
        assert_eq!(node_stats(&a, &["outer"]), (1, 4_000_000, 2_000_000));

        // A worker table seeded with the base path merges under it.
        let mut b = Rollups::default();
        let base = b.path(&["outer"]);
        let leaf = b.node(base, "inner");
        b.add(leaf, ms(5), ms(6), 0);
        a.merge(&b);
        assert_eq!(node_stats(&a, &["outer", "inner"]).0, 2);
        assert_eq!(node_stats(&a, &["outer"]).0, 1, "seeded base adds no visit");

        let parent = (new_trace_id(), new_span_id());
        let records: Vec<SpanRecord> = a
            .records(Some(parent), "svc")
            .into_iter()
            .filter_map(|r| match r {
                Record::Span(span) => Some(span),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].parent_id.as_deref(),
            Some(parent.1.to_string().as_str())
        );
        assert_eq!(records[1].parent_id, Some(records[0].span_id.clone()));
        assert_eq!(records[1].rollup.map(|r| r.count), Some(2));
        assert_eq!(
            records[1].dur_us, 5_000,
            "envelope from first start to last end"
        );

        a.reset();
        assert!(a.is_empty());
        assert_eq!(a.nodes.len(), 2, "structure survives a reset");
    }

    #[test]
    fn span_file_round_trips_and_skips_a_torn_final_line() {
        let _gate = crate::test_gate();
        let dir = std::env::temp_dir().join(format!("qdi_obs_span_file_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("spans.jsonl");
        set_file(&path);

        let mut child = SpanRecord::blank(
            new_trace_id(),
            new_span_id(),
            Some(new_span_id()),
            "qdi-serve",
            "POST /v1/jobs".into(),
        );
        child.attrs.push(("tenant".into(), "alice".into()));
        child.events.push(SpanEvent {
            ts_us: 7,
            name: "sched.enqueue".into(),
            attrs: vec![("tenant".into(), "alice".into())],
        });
        child.links.push(SpanLink {
            trace_id: child.trace_id.clone(),
            span_id: new_span_id().to_string(),
            kind: LINK_RESUME.into(),
        });
        let mut rolled =
            SpanRecord::blank(new_trace_id(), new_span_id(), None, "qdi", "sim.run".into());
        rolled.rollup = Some(Rollup {
            count: 3,
            total_ns: 30,
            self_ns: 20,
            min_ns: 5,
            max_ns: 15,
        });
        write_file(&[Record::Span(child.clone()), Record::Span(rolled.clone())]);

        // Other tests may write spans into the same global file; judge
        // only ours.
        let ours = |spans: &[SpanRecord]| -> usize {
            spans
                .iter()
                .filter(|s| s.span_id == child.span_id || s.span_id == rolled.span_id)
                .count()
        };
        let read = read_spans(&path).unwrap();
        assert!(read.contains(&child));
        assert!(read.contains(&rolled));

        // A torn final line (kill -9 mid-append) hides only itself.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"Span\":{\"trace_id\":\"torn").unwrap();
        drop(f);
        assert_eq!(ours(&read_spans(&path).unwrap()), 2);
        assert!(read_records(&path).unwrap().skipped >= 1);

        close_file();
        std::fs::remove_dir_all(&dir).ok();
    }
}
