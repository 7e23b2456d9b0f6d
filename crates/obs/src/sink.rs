//! Pluggable log sinks: memory and stderr.

use std::sync::Mutex;

use crate::record::Record;

/// A consumer of the [`Record::Span`]s and [`Record::Event`]s the
/// active filter enables.
///
/// Sinks must be cheap and non-blocking-ish: they are invoked inline
/// from instrumented code (only when the active filter enables the
/// record, so the disabled path never reaches a sink).
pub trait Sink: Send + Sync {
    /// Consumes one record.
    fn record(&self, record: &Record);
}

/// Collects records in memory; the backbone of tests and of report
/// post-processing.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Drains and returns everything recorded so far.
    #[must_use]
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut *self.records.lock().expect("memory sink poisoned"))
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.lock().expect("memory sink poisoned").len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, record: &Record) {
        self.records
            .lock()
            .expect("memory sink poisoned")
            .push(record.clone());
    }
}

/// Human-readable logger on stderr.
///
/// Spans print one line when they close, with their wall time (hot
/// roll-ups with their visit count); events print at their span's depth
/// with level and fields:
///
/// ```text
///   14.552ms WARN  qdi_pnr::criterion | criterion alert net=ack.1 d_a=0.2100
///   89.120ms SPAN  qdi_core::flow < place_and_route (76.819ms) strategy=flat
///   89.200ms SPAN  qdi_core::flow < sim.run (12.070ms) x256 self 11.900ms
/// ```
#[derive(Debug, Default)]
pub struct StderrSink;

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

/// Milliseconds from process-clock zero to a UNIX-epoch µs instant.
fn ms(unix_us: u64) -> f64 {
    unix_us.saturating_sub(crate::epoch_unix_us()) as f64 / 1e3
}

impl Sink for StderrSink {
    fn record(&self, record: &Record) {
        let line = match record {
            Record::Span(span) => {
                let end_us = span.start_unix_us.saturating_add(span.dur_us);
                let rollup = span.rollup.map_or(String::new(), |r| {
                    format!(" x{} self {:.3}ms", r.count, r.self_ns as f64 / 1e6)
                });
                format!(
                    "{:>10.3}ms {:5} {} < {} ({:.3}ms){}{}",
                    ms(end_us),
                    "SPAN",
                    span.service,
                    span.name,
                    span.dur_us as f64 / 1e3,
                    rollup,
                    Record::fields_pretty(&span.attrs),
                )
            }
            Record::Event {
                level,
                target,
                message,
                fields,
                depth,
                ts_us,
                ..
            } => format!(
                "{:>10.3}ms {:5} {} {}| {}{}",
                ms(*ts_us),
                level.label(),
                target,
                indent(*depth),
                message,
                Record::fields_pretty(fields),
            ),
            Record::PoolRun { .. } | Record::Metrics { .. } => return,
        };
        eprintln!("{line}");
    }
}
