//! The benchmark's own in-memory spans, recorded around each public call
//! into a layer.
//!
//! A span is `(id, parent, name, start, duration, thread, work)`, where
//! `work` counts what the call processed (transitions, samples, bytes,
//! traces) so rates are measured where the work happens. Spans are
//! buffered per thread and moved to one shared list whenever a thread's
//! outermost span closes, so recording takes no lock per span. Recording
//! is off unless [`enable`] was called; a disabled [`span`] costs one
//! atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub thread: u64,
    pub work: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static CLOSED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static BUFFER: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns recording on or off for every thread.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// The innermost open span on this thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An open span; it closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    work: u64,
}

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    child_of(current(), name)
}

/// Opens a span under an explicit parent, e.g. a pool job under the span
/// of the thread that started the pool.
pub fn child_of(parent: Option<u64>, name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        open: Some(Open {
            id,
            parent,
            name,
            start: Instant::now(),
            work: 0,
        }),
    }
}

impl Guard {
    /// Adds to the amount of work this span accounts for.
    pub fn work(&mut self, n: usize) {
        if let Some(open) = &mut self.open {
            open.work += n as u64;
        }
    }

    /// This span's id (`None` when recording is off).
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: nanos(open.start.saturating_duration_since(epoch())),
            dur_ns: nanos(end.saturating_duration_since(open.start)),
            thread: THREAD.with(|t| *t),
            work: open.work,
        };
        let outermost = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.pop();
            stack.is_empty()
        });
        BUFFER.with(|b| {
            let mut buffer = b.borrow_mut();
            buffer.push(span);
            if outermost {
                // Never panic in drop: a poisoned list still takes spans.
                let mut closed = CLOSED.lock().unwrap_or_else(|e| e.into_inner());
                closed.append(&mut buffer);
            }
        });
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Takes every span closed so far. Spans still open are not included.
pub fn take() -> Vec<Span> {
    let mut closed = CLOSED.lock().unwrap_or_else(|e| e.into_inner());
    let mut spans = std::mem::take(&mut *closed);
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub dur_ns: u64,
    pub work: u64,
}

impl Totals {
    /// Mean duration per span, in µs (0 without spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Work per second of span time (0 without spans).
    pub fn rate(&self) -> f64 {
        if self.dur_ns == 0 {
            0.0
        } else {
            self.work as f64 / (self.dur_ns as f64 / 1e9)
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may run on other threads and overlap,
/// so the covered part is the union of their intervals.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = lo;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(hi));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur_ns - covered.min(s.dur_ns))
        })
        .collect()
}

/// Whether `id` is `root` or lies under it.
pub fn descends_from(spans_by_id: &HashMap<u64, &Span>, mut id: u64, root: u64) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans_by_id.get(&id).and_then(|s| s.parent) {
            Some(parent) => id = parent,
            None => return false,
        }
    }
}

/// Per-name totals.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns;
        t.work += s.work;
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"thread\":{},\"work\":{}}}",
            s.id, s.name, s.start_ns, s.dur_ns, s.thread, s.work
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            dur_ns,
            thread: 0,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children on different threads cover [10, 70)
        // of the parent's [0, 100).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 40),
            span(4, Some(2), 10, 5),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 45);
        assert_eq!(selfs[&3], 40);
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        assert!(descends_from(&by_id, 4, 1));
        assert!(!descends_from(&by_id, 1, 4));
    }
}
