//! End-to-end tests of the span/event pipeline through real sinks.
//!
//! The filter, sink registry and span switch are process-global, so
//! every test takes `PIPELINE` to serialize against the others and
//! restores the globals before releasing it.

use std::sync::{Arc, Mutex};

use qdi_obs::span::{hot, Handoff, SpanRecord};
use qdi_obs::{Filter, Level, MemorySink, Record};

static PIPELINE: Mutex<()> = Mutex::new(());

/// Installs a fresh memory sink + trace-everything filter, runs `f`,
/// restores the globals, and returns what the sink saw.
fn capture(f: impl FnOnce()) -> Vec<Record> {
    let _guard = PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    let sink = Arc::new(MemorySink::new());
    qdi_obs::set_filter(Filter::parse("trace").expect("valid filter"));
    qdi_obs::set_sinks(vec![sink.clone()]);
    f();
    qdi_obs::set_sinks(Vec::new());
    qdi_obs::set_filter(Filter::off());
    sink.take()
}

fn spans(records: &[Record]) -> Vec<&SpanRecord> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Span(span) => Some(span),
            Record::Event { .. } => None,
        })
        .collect()
}

fn named<'a>(spans: &[&'a SpanRecord], name: &str) -> &'a SpanRecord {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no span `{name}` in {spans:?}"))
}

#[test]
fn nested_spans_close_inner_first_under_one_trace() {
    let records = capture(|| {
        let mut outer = qdi_obs::span("obs_it::outer", "outer").attr("k", 1u64);
        {
            let _inner = qdi_obs::span_at(Level::Debug, "obs_it::inner", "inner");
            qdi_obs::info!(target: "obs_it::inner", n = 7u64, "inside inner");
        }
        outer.set_attr("done", true);
    });

    assert_eq!(records.len(), 3, "event, inner, outer: {records:?}");
    let all = spans(&records);
    let (outer, inner) = (named(&all, "outer"), named(&all, "inner"));
    assert_eq!(outer.parent_id, None);
    assert_eq!(inner.parent_id.as_deref(), Some(outer.span_id.as_str()));
    assert_eq!(inner.trace_id, outer.trace_id, "one trace per root span");
    assert_eq!(inner.service, "obs_it::inner");
    assert!(
        outer.attrs.iter().any(|(k, _)| k == "done"),
        "set_attr fields must reach the record"
    );
    match &records[0] {
        Record::Event {
            level,
            span,
            message,
            fields,
            depth,
            ..
        } => {
            assert_eq!(*level, Level::Info);
            let inner_id = u64::from_str_radix(&inner.span_id, 16).unwrap();
            assert_eq!(
                *span,
                Some(inner_id),
                "event attaches to the innermost span"
            );
            assert_eq!(*depth, 2);
            assert_eq!(message, "inside inner");
            assert!(fields.iter().any(|(k, _)| k == "n"));
        }
        other => panic!("expected the event first, got {other:?}"),
    }
    assert!(matches!(&records[1], Record::Span(s) if s.name == "inner"));
    assert!(matches!(&records[2], Record::Span(s) if s.name == "outer"));
}

#[test]
fn filter_downgrades_suppress_span_and_event() {
    let records = capture(|| {
        qdi_obs::set_filter(Filter::parse("warn,obs_it::loud=trace").expect("valid"));
        let quiet = qdi_obs::span_at(Level::Debug, "obs_it::quiet", "quiet");
        assert!(!quiet.is_recording());
        qdi_obs::debug!(target: "obs_it::quiet", "dropped");
        qdi_obs::debug!(target: "obs_it::loud", "kept");
        qdi_obs::warn!(target: "obs_it::quiet", "kept too");
    });
    let messages: Vec<&str> = records
        .iter()
        .filter_map(|r| match r {
            Record::Event { message, .. } => Some(message.as_str()),
            Record::Span(_) => None,
        })
        .collect();
    assert_eq!(messages, vec!["kept", "kept too"]);
    assert!(
        spans(&records).is_empty(),
        "disabled span must not emit records: {records:?}"
    );
}

#[test]
fn jsonl_round_trips_every_record_kind() {
    let records = capture(|| {
        let mut span = qdi_obs::span("obs_it::rt", "round_trip")
            .attr("count", 3u64)
            .attr("ratio", 0.25f64)
            .attr("label", "x")
            .attr("ok", true);
        qdi_obs::warn!(target: "obs_it::rt", net = "ack.1", d_a = 0.5f64, "alert fired");
        span.set_attr("signed", -4i64);
        span.event("mark", &[("why", "test".to_string())]);
    });
    assert_eq!(records.len(), 2);
    for record in &records {
        let line = qdi_obs::json::record_to_json(record);
        assert!(!line.contains('\n'), "JSONL must be one line: {line}");
        let back: Record = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("reparse failed for {line}: {e:?}"));
        assert_eq!(&back, record, "JSONL round-trip must be lossless");
    }
}

#[test]
fn hot_spans_roll_up_under_their_ordinary_ancestor() {
    let records = capture(|| {
        let _lease = qdi_obs::span("obs_it::serve", "lease");
        for _ in 0..100 {
            let _acquire = hot("obs_it.acquire");
            let _sim = hot("obs_it.sim");
        }
    });
    let all = spans(&records);
    assert_eq!(
        all.len(),
        3,
        "two roll-ups and the lease, not one per visit"
    );
    let (lease, acquire, sim) = (
        named(&all, "lease"),
        named(&all, "obs_it.acquire"),
        named(&all, "obs_it.sim"),
    );
    assert_eq!(acquire.parent_id.as_deref(), Some(lease.span_id.as_str()));
    assert_eq!(sim.parent_id.as_deref(), Some(acquire.span_id.as_str()));
    assert_eq!(sim.service, "obs_it::serve", "roll-ups inherit the service");
    let (a, s) = (acquire.rollup.unwrap(), sim.rollup.unwrap());
    assert_eq!((a.count, s.count), (100, 100));
    assert!(a.total_ns >= s.total_ns && a.self_ns <= a.total_ns - s.total_ns);
    assert!(s.min_ns <= s.max_ns);
    assert_eq!(lease.rollup, None);
}

#[test]
fn handed_off_spans_fold_worker_roll_ups_into_the_caller() {
    let records = capture(|| {
        let _run = qdi_obs::span("obs_it::pool", "run");
        let _bag = hot("obs_it.bag");
        let handoff: Handoff = qdi_obs::span::handoff().expect("spans are on");
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _adopted = handoff.adopt();
                    for _ in 0..5 {
                        let _job = hot("obs_it.job");
                    }
                    let _child = qdi_obs::span("obs_it::pool", "worker step");
                });
            }
        });
    });
    let all = spans(&records);
    let run = named(&all, "run");
    let bag = named(&all, "obs_it.bag");
    let job = named(&all, "obs_it.job");
    assert_eq!(bag.parent_id.as_deref(), Some(run.span_id.as_str()));
    assert_eq!(
        job.parent_id.as_deref(),
        Some(bag.span_id.as_str()),
        "worker visits nest under the caller's open hot span"
    );
    assert_eq!(job.rollup.unwrap().count, 10);
    let steps: Vec<_> = all.iter().filter(|s| s.name == "worker step").collect();
    assert_eq!(steps.len(), 2);
    for step in steps {
        assert_eq!(step.parent_id.as_deref(), Some(run.span_id.as_str()));
        assert_eq!(step.trace_id, run.trace_id);
    }
}

#[test]
fn spans_continue_a_remote_context_and_carry_links() {
    let remote = qdi_obs::span::mint();
    let prior = qdi_obs::span::mint();
    let records = capture(|| {
        let mut lease = qdi_obs::span("obs_it::serve", "lease").child_of(&remote);
        lease.link(&prior, qdi_obs::span::LINK_RESUME);
        let ctx = lease.context().expect("recording");
        assert_eq!(ctx.trace_id, remote.trace_id);
        let _child = qdi_obs::span("obs_it::serve", "step");
    });
    let all = spans(&records);
    let (lease, step) = (named(&all, "lease"), named(&all, "step"));
    assert_eq!(lease.trace_id, remote.trace_id.to_string());
    assert_eq!(
        lease.parent_id.as_deref(),
        Some(remote.span_id.to_string().as_str())
    );
    assert_eq!(lease.links[0].kind, qdi_obs::span::LINK_RESUME);
    assert_eq!(
        step.trace_id, lease.trace_id,
        "children follow the re-parent"
    );
    assert_eq!(step.parent_id.as_deref(), Some(lease.span_id.as_str()));
}
