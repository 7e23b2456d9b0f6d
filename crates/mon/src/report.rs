//! Assembling HTML reports from a run record.
//!
//! A run leaves one run record (`secure_flow.run.jsonl`, see
//! [`qdi_obs::span::set_file`]): its spans, events, pool runs and the
//! metrics snapshot the flow takes at every step boundary. [`build`]
//! draws one self-contained HTML page from it: a sparkline per metric
//! across the `Metrics` records, the last of them as the final
//! readings, and the slowest spans. Unreadable lines are skipped (and
//! counted) rather than failing the report, so a truncated run still
//! renders.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use qdi_obs::metrics::{HistogramSnapshot, MetricsSnapshot};
use qdi_obs::record::Record;
use qdi_obs::timeseries::{rollup, Point};

use crate::html::{self, ReportInputs, Series};

/// The sidecar path `<base>.<suffix>` where `<base>` is the file name
/// up to its first dot (`secure_flow.run.jsonl` →
/// `secure_flow.report.html` for suffix `report.html`).
#[must_use]
pub fn sidecar(path: &Path, suffix: &str) -> PathBuf {
    let stem = path
        .file_name()
        .and_then(|n| n.to_str())
        .map_or("run", |n| n.split('.').next().unwrap_or("run"));
    path.with_file_name(format!("{stem}.{suffix}"))
}

/// One series per metric across the `Metrics` records, sorted by name.
#[must_use]
fn series(records: &[Record]) -> Vec<Series> {
    let mut by_name: BTreeMap<&str, Vec<Point>> = BTreeMap::new();
    for record in records {
        if let Record::Metrics { ts_us, snapshot } = record {
            for sample in &snapshot.samples {
                by_name.entry(&sample.name).or_default().push(Point {
                    ts_us: *ts_us,
                    value: sample.value,
                });
            }
        }
    }
    by_name
        .into_iter()
        .map(|(name, points)| {
            let values: Vec<f64> = points.iter().map(|p| p.value).collect();
            Series {
                name: name.to_owned(),
                rollup: rollup(&values),
                points,
            }
        })
        .collect()
}

/// The snapshot of the last `Metrics` record: the run's final readings.
#[must_use]
fn last_metrics(records: &[Record]) -> Option<&MetricsSnapshot> {
    records.iter().rev().find_map(|r| match r {
        Record::Metrics { snapshot, .. } => Some(snapshot),
        _ => None,
    })
}

/// The Prometheus exposition of the run's final readings (the last
/// `Metrics` record).
///
/// # Errors
///
/// Returns a description when the records hold no `Metrics` record, or
/// when its histogram is not one the exposition renders: finite,
/// strictly increasing bounds, one more count than bounds (the last
/// bucket is `+Inf`) and a bucket total that fits in a `u64`.
pub fn exposition(records: &[Record]) -> Result<String, String> {
    let snapshot = last_metrics(records).ok_or("no metrics record")?;
    let renderable = |h: &HistogramSnapshot| {
        h.bounds.iter().all(|b| b.is_finite())
            && h.bounds.windows(2).all(|w| w[0] < w[1])
            && h.counts.len() == h.bounds.len() + 1
            && h.counts
                .iter()
                .try_fold(0u64, |total, &c| total.checked_add(c))
                .is_some()
    };
    if let Some(bad) = snapshot.histograms.iter().find(|h| !renderable(h)) {
        return Err(format!(
            "bad metrics record: histogram `{}` needs finite, strictly increasing bounds, \
             one more count than bounds and a total that fits u64",
            bad.name
        ));
    }
    let mut snapshot = snapshot.clone();
    snapshot.normalize();
    Ok(qdi_obs::prometheus::render(&snapshot))
}

/// Builds the self-contained HTML report for a run record.
///
/// # Errors
///
/// Returns a description when the run record is unreadable.
pub fn build(run: &Path, top: usize, title: &str) -> Result<String, String> {
    let read = qdi_obs::span::read_records(run)?;
    let records = &read.records;
    // Spans, events, pool runs and metrics snapshots, in that order.
    let mut kinds = [0usize; 4];
    for record in records {
        kinds[match record {
            Record::Span(_) => 0,
            Record::Event { .. } => 1,
            Record::PoolRun { .. } => 2,
            Record::Metrics { .. } => 3,
        }] += 1;
    }
    let mut summary = vec![
        ("run record".to_string(), run.display().to_string()),
        ("records".to_string(), records.len().to_string()),
    ];
    for (kind, n) in ["spans", "events", "pool runs", "metrics records"]
        .into_iter()
        .zip(kinds)
    {
        summary.push((kind.to_string(), n.to_string()));
    }
    if read.skipped > 0 {
        summary.push(("skipped lines".to_string(), read.skipped.to_string()));
    }
    let metrics = last_metrics(records).map(|snapshot| {
        // External JSON carries no ordering guarantee; restore the invariant.
        let mut snapshot = snapshot.clone();
        snapshot.normalize();
        snapshot
    });

    Ok(html::render(&ReportInputs {
        title,
        summary: &summary,
        snapshots: kinds[3],
        series: &series(records),
        metrics: metrics.as_ref(),
        spans: &html::slowest_spans(records, top),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    use qdi_obs::metrics::MetricSample;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    fn metrics(ts_us: u64, traces: f64) -> Record {
        Record::Metrics {
            ts_us,
            snapshot: MetricsSnapshot {
                samples: vec![MetricSample {
                    name: "dpa.traces".into(),
                    value: traces,
                }],
                histograms: Vec::new(),
            },
        }
    }

    #[test]
    fn sidecar_replaces_everything_after_the_first_dot() {
        let p = Path::new("/tmp/secure_flow.run.jsonl");
        assert_eq!(
            sidecar(p, "report.html"),
            Path::new("/tmp/secure_flow.report.html")
        );
        assert_eq!(
            sidecar(Path::new("run"), "flame.svg"),
            Path::new("run.flame.svg")
        );
    }

    #[test]
    fn series_follow_the_metrics_records_in_order() {
        let records = [metrics(10, 1.0), metrics(20, 5.0), metrics(30, 3.0)];
        let series = series(&records);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].name, "dpa.traces");
        assert_eq!(series[0].points.len(), 3);
        assert_eq!(series[0].rollup.max, 5.0);
        assert_eq!(series[0].rollup.last, 3.0);
        assert_eq!(
            last_metrics(&records).and_then(|m| m.get("dpa.traces")),
            Some(3.0)
        );
    }

    #[test]
    fn report_builds_from_jsonl_with_bad_lines_skipped() {
        let path = temp("qdi_mon_report_test.run.jsonl");
        let mut f = std::fs::File::create(&path).unwrap();
        let record = Record::Span(qdi_obs::SpanRecord {
            trace_id: "4bf92f3577b34da6a3ce929d0e0e4736".into(),
            span_id: "00f067aa0ba902b7".into(),
            parent_id: None,
            links: vec![],
            service: "t".into(),
            name: "campaign".into(),
            start_unix_us: 0,
            dur_us: 1234,
            attrs: vec![],
            events: vec![],
            thread: Some(0),
            rollup: None,
        });
        for record in [record, metrics(10, 1.0), metrics(20, 2.0)] {
            writeln!(f, "{}", qdi_obs::json::to_json(&record)).unwrap();
        }
        writeln!(f, "this line is torn garba").unwrap();
        drop(f);

        let html = build(&path, 5, "test run").unwrap();
        assert!(html.contains("test run"));
        assert!(html.contains("campaign"));
        assert!(html.contains("skipped lines"));
        assert!(html.contains("Time series (2 metrics records)"));
        assert!(html.contains("Final metrics"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_telemetry_is_an_error() {
        assert!(build(Path::new("/nonexistent/x.jsonl"), 5, "t").is_err());
    }
}
