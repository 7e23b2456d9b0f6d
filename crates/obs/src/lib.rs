//! `qdi-obs`: structured tracing, metrics and profiling for the QDI
//! secure design flow.
//!
//! The crate provides three cooperating facilities, all dependency-free
//! beyond `std` and the workspace `serde` data model:
//!
//! * **Spans and events** — one span model ([`span`](mod@span)): ordinary
//!   [`span()`]s for flow steps, requests and leases, and [`span::hot`]
//!   spans for kernels, which fold into roll-ups instead of writing a
//!   record per call. Every span carries W3C trace and span ids, so the
//!   same records feed logs and the run record, from which [`prof`]
//!   rebuilds the profile. Leveled [`event!`]s attach to the enclosing
//!   span and are filtered by `QDI_LOG` (same syntax as `RUST_LOG`; see
//!   [`filter::Filter`]).
//! * **Metrics** — process-wide [`metrics::counter`]s,
//!   [`metrics::gauge`]s and fixed-bucket [`metrics::histogram`]s with
//!   cheap `Arc`-backed handles, snapshotted via
//!   [`metrics::MetricsSnapshot`].
//! * **Records** — every span, event, pool run and metrics snapshot is
//!   one [`Record`]. The run record ([`span::set_file`]) stores them one
//!   JSON line each and [`span::read_records`] reads them back; the log
//!   sinks ([`MemorySink`] for tests, [`StderrSink`] for
//!   human-readable lines) receive the spans and events the filter
//!   enables.
//!
//! Spans have one switch: they record when `QDI_LOG` enables any level
//! or when the run record is installed. While off, every span and
//! event check-point costs one relaxed atomic load, so instrumented hot
//! paths cost effectively nothing in production runs.
//!
//! ```
//! use qdi_obs::{metrics, Level};
//!
//! qdi_obs::set_filter(qdi_obs::filter::Filter::at(Level::Debug));
//! let traces = metrics::counter("dpa.traces");
//! {
//!     let mut span = qdi_obs::span("qdi_dpa::campaign", "acquire");
//!     traces.add(1000);
//!     span.set_attr("traces", 1000u64);
//! }
//! qdi_obs::event!(Level::Info, target: "qdi_dpa::campaign", "campaign done");
//! ```

#![forbid(unsafe_code)]

pub mod durable;
pub mod filter;
pub mod json;
pub mod level;
pub mod metrics;
pub mod prof;
pub mod progress;
pub mod prometheus;
pub mod record;
pub mod sink;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use durable::{Durability, DurableError, Recovered};
pub use filter::Filter;
pub use level::Level;
pub use prof::{ProfReport, RegionProfile};
pub use progress::{ProgressSnapshot, ProgressTask};
pub use record::{FieldValue, Fields, Record};
pub use sink::{MemorySink, Sink, StderrSink};
pub use slo::{SloConfig, SloReport, SloVerdict};
pub use span::{span_at, Span, SpanLink, SpanRecord, TraceContext};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Once, OnceLock, RwLock};
use std::time::{Instant, SystemTime};

// ---------------------------------------------------------------------------
// Global filter state
// ---------------------------------------------------------------------------

/// Fast-path ceiling: 0 = everything off, else `Level::as_u8` of the
/// most verbose enabled level. One relaxed load decides the common
/// "tracing disabled" case.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
static INIT: Once = Once::new();

fn filter_slot() -> &'static RwLock<Filter> {
    static FILTER: OnceLock<RwLock<Filter>> = OnceLock::new();
    FILTER.get_or_init(|| RwLock::new(Filter::off()))
}

fn install_filter(filter: Filter) {
    let max = filter.max_level().map_or(0, Level::as_u8);
    *filter_slot().write().expect("filter lock poisoned") = filter;
    MAX_LEVEL.store(max, Ordering::Relaxed);
    flip(SWITCH_LOG, max > 0);
}

/// Parses `QDI_LOG` on first call; later calls are a no-op. Invoked
/// automatically by every [`enabled`] check and by the first span, so
/// instrumented libraries need no explicit initialization.
pub fn init_from_env() {
    INIT.call_once(|| {
        SWITCH.fetch_and(!SWITCH_UNINIT, Ordering::Relaxed);
        if let Ok(spec) = std::env::var("QDI_LOG") {
            match Filter::parse(&spec) {
                Ok(filter) => install_filter(filter),
                Err(err) => eprintln!("qdi-obs: ignoring invalid QDI_LOG: {err}"),
            }
        }
    });
}

// ---------------------------------------------------------------------------
// The span switch
// ---------------------------------------------------------------------------

/// `QDI_LOG` enables at least one level.
pub(crate) const SWITCH_LOG: u8 = 1;
/// The run record is installed ([`span::set_file`]): spans record
/// regardless of the log filter.
pub(crate) const SWITCH_FILE: u8 = 2;
/// `QDI_LOG` not read yet: forces the first check down the slow path.
const SWITCH_UNINIT: u8 = 0x80;

/// The one switch spans consult: zero means every span is inert.
static SWITCH: AtomicU8 = AtomicU8::new(SWITCH_UNINIT);

/// The switch bits; one relaxed load once `QDI_LOG` has been read.
#[inline]
pub(crate) fn switch() -> u8 {
    let bits = SWITCH.load(Ordering::Relaxed);
    if bits & SWITCH_UNINIT == 0 {
        return bits;
    }
    init_from_env();
    SWITCH.load(Ordering::Relaxed)
}

/// Sets or clears switch bits (after reading `QDI_LOG`, so a later
/// lazy read cannot clobber them).
pub(crate) fn set_switch(bit: u8, on: bool) {
    init_from_env();
    flip(bit, on);
}

fn flip(bit: u8, on: bool) {
    if on {
        SWITCH.fetch_or(bit, Ordering::Relaxed);
    } else {
        SWITCH.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Serializes the unit tests that install process-global state (the
/// run record, the profile).
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Replaces the active filter programmatically (tests, embedding
/// applications), overriding whatever `QDI_LOG` said.
pub fn set_filter(filter: Filter) {
    INIT.call_once(|| {
        SWITCH.fetch_and(!SWITCH_UNINIT, Ordering::Relaxed);
    });
    install_filter(filter);
}

/// Whether a record at `level` from `target` would currently be emitted.
#[must_use]
pub fn enabled(level: Level, target: &str) -> bool {
    init_from_env();
    if level.as_u8() > MAX_LEVEL.load(Ordering::Relaxed) {
        return false;
    }
    filter_slot()
        .read()
        .expect("filter lock poisoned")
        .enabled(level, target)
}

// ---------------------------------------------------------------------------
// Clock and thread identity
// ---------------------------------------------------------------------------

/// The process clock: a monotonic anchor and the UNIX time it was read
/// at (the first observability call in the process).
fn epoch() -> &'static (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    EPOCH.get_or_init(|| {
        let unix = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        (Instant::now(), unix)
    })
}

/// Microseconds elapsed on the process-wide monotonic clock (anchored
/// at the first observability call in the process).
#[must_use]
pub fn now_us() -> u64 {
    u64::try_from(epoch().0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// UNIX-epoch microseconds, advancing with the monotonic process clock
/// (the time axis of span records).
#[must_use]
pub fn unix_us() -> u64 {
    epoch().1.saturating_add(now_us())
}

/// The UNIX-epoch microseconds of an instant on the process clock.
pub(crate) fn unix_us_at(t: Instant) -> u64 {
    let (anchor, unix) = *epoch();
    let since = t.saturating_duration_since(anchor).as_micros();
    unix.saturating_add(u64::try_from(since).unwrap_or(u64::MAX))
}

/// The UNIX-epoch microseconds of process-clock zero: subtract it from
/// a span's `start_unix_us` to put it on the [`now_us`] axis.
#[must_use]
pub fn epoch_unix_us() -> u64 {
    epoch().1
}

/// Dense per-thread id (first observed thread = 0), used as `tid` in
/// trace profiles.
#[must_use]
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

fn sinks() -> &'static RwLock<Vec<Arc<dyn Sink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Installs an additional sink.
pub fn add_sink(sink: Arc<dyn Sink>) {
    sinks().write().expect("sink lock poisoned").push(sink);
}

/// Replaces the whole sink set (use `vec![]` to restore the default
/// stderr fallback, which applies while no run record is installed).
pub fn set_sinks(new: Vec<Arc<dyn Sink>>) {
    *sinks().write().expect("sink lock poisoned") = new;
}

/// Emits pending thread-root roll-ups (see [`span`](mod@span)) to
/// every consumer.
pub fn flush() {
    span::drain_roots();
}

/// Emits pending roll-ups and writes any streamed progress file when
/// dropped — including on early `?` returns and panics, which a
/// trailing [`flush`] call at the end of `main` misses. Binaries that
/// install the run record should take one of these right after:
///
/// ```no_run
/// fn main() -> Result<(), String> {
///     // ... qdi_obs::span::set_file(...) ...
///     let _flush = qdi_obs::flush_on_drop();
///     // every exit path below now flushes
///     Ok(())
/// }
/// ```
#[derive(Debug)]
#[must_use = "the guard flushes when dropped; binding it to `_` drops it immediately"]
pub struct FlushGuard(());

impl Drop for FlushGuard {
    fn drop(&mut self) {
        progress::write_now();
        flush();
    }
}

/// Returns a [`FlushGuard`] that flushes on scope exit.
pub fn flush_on_drop() -> FlushGuard {
    FlushGuard(())
}

/// Hands a record the filter enabled to every sink. With no sink and
/// no run record installed it falls back to stderr, so `QDI_LOG=debug
/// <any binary>` is always visible.
fn dispatch(record: &Record) {
    let installed = sinks().read().expect("sink lock poisoned");
    if installed.is_empty() {
        if switch() & SWITCH_FILE == 0 {
            static FALLBACK: StderrSink = StderrSink;
            FALLBACK.record(record);
        }
        return;
    }
    for sink in installed.iter() {
        sink.record(record);
    }
}

/// Hands the records of one closed span (its hot roll-ups, then the
/// span itself) to the run record and — when the filter enabled the
/// span — the log sinks.
pub(crate) fn emit_spans(batch: Vec<Record>, logged: bool) {
    if switch() & SWITCH_FILE != 0 {
        span::write_file(&batch);
    }
    if logged {
        batch.iter().for_each(dispatch);
    }
}

/// Appends a [`Record::Metrics`] of `snapshot` to the run record, when
/// one is installed. The secure flow calls it at every step boundary.
pub fn record_metrics(snapshot: &metrics::MetricsSnapshot) {
    if switch() & SWITCH_FILE != 0 {
        span::write_file(&[Record::Metrics {
            ts_us: unix_us(),
            snapshot: snapshot.clone(),
        }]);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Opens an [`Level::Info`] span (see [`span_at`] and the
/// [`span`](mod@span) module).
pub fn span(target: &'static str, name: impl Into<String>) -> Span {
    span_at(Level::Info, target, name)
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Emits a leveled event to the run record and the log sinks. Prefer
/// the [`event!`] / [`warn!`] macros, which check [`enabled`] before
/// building the message and fields.
pub fn emit_event(level: Level, target: &str, message: String, fields: Fields) {
    let (span, depth) = span::current_id();
    let record = Record::Event {
        level,
        target: target.to_string(),
        message,
        fields,
        span,
        depth,
        ts_us: unix_us(),
        thread: thread_id(),
    };
    if switch() & SWITCH_FILE != 0 {
        span::write_file(std::slice::from_ref(&record));
    }
    dispatch(&record);
}

/// Emits a leveled, structured event when the filter enables it:
///
/// ```
/// use qdi_obs::Level;
/// qdi_obs::event!(Level::Warn, target: "qdi_sim::hazard",
///                 glitches = 3usize, "hazard check flagged glitches");
/// ```
///
/// Fields (`key = value,`*) come first, then a format string with
/// optional arguments, as in `tracing`.
#[macro_export]
macro_rules! event {
    ($level:expr, target: $target:expr, $($key:ident = $value:expr),+ , $fmt:literal $(, $arg:expr)* $(,)?) => {{
        let __level = $level;
        let __target = $target;
        if $crate::enabled(__level, __target) {
            $crate::emit_event(
                __level,
                __target,
                format!($fmt $(, $arg)*),
                vec![$((stringify!($key).to_string(), $crate::FieldValue::from($value))),+],
            );
        }
    }};
    ($level:expr, target: $target:expr, $fmt:literal $(, $arg:expr)* $(,)?) => {{
        let __level = $level;
        let __target = $target;
        if $crate::enabled(__level, __target) {
            $crate::emit_event(__level, __target, format!($fmt $(, $arg)*), vec![]);
        }
    }};
}

/// [`event!`] at [`Level::Error`].
#[macro_export]
macro_rules! error {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Error, target: $target, $($rest)*)
    };
}

/// [`event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Warn, target: $target, $($rest)*)
    };
}

/// [`event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Info, target: $target, $($rest)*)
    };
}

/// [`event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Debug, target: $target, $($rest)*)
    };
}

/// [`event!`] at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Trace, target: $target, $($rest)*)
    };
}
