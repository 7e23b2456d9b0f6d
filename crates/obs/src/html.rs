//! Self-contained HTML run reports: inline-SVG sparklines of the
//! time-series rings, the top-N slowest spans, and metric/summary
//! tables. No external assets, scripts or fonts — the file is a single
//! artifact that renders anywhere, which is what CI archives.

use crate::metrics::MetricsSnapshot;
use crate::record::Record;
use crate::span::SpanRecord;
use crate::timeseries::{Point, TimeseriesSnapshot};

/// Escapes `&<>"` for safe interpolation into HTML text and attributes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// The `top` longest spans among the records, longest first.
#[must_use]
pub fn slowest_spans(records: &[Record], top: usize) -> Vec<SpanRecord> {
    let mut rows: Vec<SpanRecord> = records
        .iter()
        .filter_map(|r| match r {
            Record::Span(span) => Some(span.clone()),
            Record::Event { .. } => None,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.dur_us
            .cmp(&a.dur_us)
            .then(a.start_unix_us.cmp(&b.start_unix_us))
    });
    rows.truncate(top);
    rows
}

/// Everything a report can show; optional parts render as empty
/// sections when absent.
#[derive(Debug, Default)]
pub struct ReportInputs<'a> {
    /// Page title.
    pub title: &'a str,
    /// Key/value summary rows (campaign config, totals, outcome).
    pub summary: &'a [(String, String)],
    /// Ring-buffer history to draw sparklines from.
    pub timeseries: Option<&'a TimeseriesSnapshot>,
    /// Final metric readings.
    pub metrics: Option<&'a MetricsSnapshot>,
    /// Slowest spans (already ranked, e.g. via [`slowest_spans`]).
    pub spans: &'a [SpanRecord],
}

const SPARK_W: f64 = 260.0;
const SPARK_H: f64 = 36.0;
const SPARK_PAD: f64 = 2.0;

/// An inline SVG sparkline of the points (empty series render a flat
/// placeholder line).
#[must_use]
pub fn sparkline_svg(points: &[Point]) -> String {
    let mut path = String::new();
    if points.len() >= 2 {
        let t0 = points[0].ts_us as f64;
        let t1 = points[points.len() - 1].ts_us as f64;
        let dt = (t1 - t0).max(1.0);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in points {
            lo = lo.min(p.value);
            hi = hi.max(p.value);
        }
        let dv = (hi - lo).max(f64::MIN_POSITIVE);
        for p in points {
            let x = SPARK_PAD + (p.ts_us as f64 - t0) / dt * (SPARK_W - 2.0 * SPARK_PAD);
            let y = if hi == lo {
                SPARK_H / 2.0
            } else {
                SPARK_H - SPARK_PAD - (p.value - lo) / dv * (SPARK_H - 2.0 * SPARK_PAD)
            };
            if !path.is_empty() {
                path.push(' ');
            }
            path.push_str(&format!("{x:.1},{y:.1}"));
        }
    } else {
        let y = SPARK_H / 2.0;
        path = format!("{SPARK_PAD},{y} {},{y}", SPARK_W - SPARK_PAD);
    }
    format!(
        "<svg class=\"spark\" width=\"{SPARK_W}\" height=\"{SPARK_H}\" \
         viewBox=\"0 0 {SPARK_W} {SPARK_H}\" xmlns=\"http://www.w3.org/2000/svg\">\
         <polyline points=\"{path}\" fill=\"none\" stroke=\"#2a6fdb\" stroke-width=\"1.5\"/>\
         </svg>"
    )
}

fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn fmt_dur_us(us: u64) -> String {
    let s = us as f64 / 1e6;
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if us >= 1000 {
        format!("{:.3} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

/// Renders the full self-contained report page.
#[must_use]
pub fn render(inputs: &ReportInputs<'_>) -> String {
    let mut body = String::new();
    body.push_str(&format!("<h1>{}</h1>\n", escape(inputs.title)));

    if !inputs.summary.is_empty() {
        body.push_str("<h2>Summary</h2>\n<table>\n");
        for (k, v) in inputs.summary {
            body.push_str(&format!(
                "<tr><th>{}</th><td>{}</td></tr>\n",
                escape(k),
                escape(v)
            ));
        }
        body.push_str("</table>\n");
    }

    if let Some(ts) = inputs.timeseries {
        body.push_str(&format!(
            "<h2>Time series ({} ticks)</h2>\n<table>\n\
             <tr><th>metric</th><th>history</th><th>min</th><th>mean</th>\
             <th>p90</th><th>p99</th><th>max</th><th>last</th></tr>\n",
            ts.ticks
        ));
        for series in &ts.series {
            let r = &series.rollup;
            body.push_str(&format!(
                "<tr><td class=\"name\">{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                escape(&series.name),
                sparkline_svg(&series.points),
                fmt_num(r.min),
                fmt_num(r.mean),
                fmt_num(r.p90),
                fmt_num(r.p99),
                fmt_num(r.max),
                fmt_num(r.last),
            ));
        }
        body.push_str("</table>\n");
    }

    if !inputs.spans.is_empty() {
        body.push_str(
            "<h2>Slowest spans</h2>\n<table>\n\
             <tr><th>#</th><th>target</th><th>span</th><th>start</th><th>duration</th></tr>\n",
        );
        let t0 = inputs
            .spans
            .iter()
            .map(|r| r.start_unix_us)
            .min()
            .unwrap_or(0);
        for (i, row) in inputs.spans.iter().enumerate() {
            body.push_str(&format!(
                "<tr><td>{}</td><td class=\"name\">{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                i + 1,
                escape(&row.service),
                escape(&row.name),
                fmt_dur_us(row.start_unix_us - t0),
                fmt_dur_us(row.dur_us),
            ));
        }
        body.push_str("</table>\n");
    }

    if let Some(metrics) = inputs.metrics {
        body.push_str("<h2>Final metrics</h2>\n<table>\n<tr><th>metric</th><th>value</th></tr>\n");
        for sample in &metrics.samples {
            body.push_str(&format!(
                "<tr><td class=\"name\">{}</td><td>{}</td></tr>\n",
                escape(&sample.name),
                fmt_num(sample.value),
            ));
        }
        body.push_str("</table>\n");
    }

    format!(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>{}</title>\n<style>\n\
         body {{ font: 14px/1.5 -apple-system, system-ui, sans-serif; margin: 2rem auto; \
                 max-width: 72rem; color: #1c2733; padding: 0 1rem; }}\n\
         h1 {{ border-bottom: 2px solid #2a6fdb; padding-bottom: .3rem; }}\n\
         h2 {{ margin-top: 2rem; }}\n\
         table {{ border-collapse: collapse; width: 100%; }}\n\
         th, td {{ border: 1px solid #d5dde5; padding: .25rem .6rem; text-align: left; \
                   font-variant-numeric: tabular-nums; }}\n\
         th {{ background: #f0f4f8; }}\n\
         td.name {{ font-family: ui-monospace, monospace; font-size: 12px; }}\n\
         svg.spark {{ display: block; }}\n\
         </style>\n</head>\n<body>\n{}</body>\n</html>\n",
        escape(inputs.title),
        body
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricSample;
    use crate::timeseries::Recorder;

    #[test]
    fn escapes_html_specials() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }

    #[test]
    fn slowest_spans_rank_and_truncate() {
        let records = vec![
            span_close("fast", 0, 10),
            Record::Event {
                level: crate::Level::Info,
                target: "t".into(),
                message: "m".into(),
                fields: vec![],
                span: None,
                depth: 0,
                ts_us: 1,
                thread: 0,
            },
            span_close("slow", 5, 900),
        ];
        let rows = slowest_spans(&records, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "slow");
    }

    fn span(name: &str, ts_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            trace_id: "4bf92f3577b34da6a3ce929d0e0e4736".into(),
            span_id: format!("{:016x}", ts_us + 1),
            parent_id: None,
            links: vec![],
            service: "t".into(),
            name: name.into(),
            start_unix_us: ts_us,
            dur_us,
            attrs: vec![],
            events: vec![],
            thread: Some(0),
            rollup: None,
        }
    }

    fn span_close(name: &str, ts_us: u64, dur_us: u64) -> Record {
        Record::Span(span(name, ts_us, dur_us))
    }

    #[test]
    fn slowest_spans_break_duration_ties_by_start_time() {
        // Three spans share the top duration; ranking within the tie
        // must follow start time so the cut at `top` is deterministic.
        let records = vec![
            span_close("late", 30, 500),
            span_close("early", 10, 500),
            span_close("mid", 20, 500),
            span_close("short", 0, 100),
        ];
        let rows = slowest_spans(&records, 10);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["early", "mid", "late", "short"]);

        // Truncation keeps the earliest of the tied spans.
        let cut = slowest_spans(&records, 2);
        assert_eq!(cut.len(), 2);
        assert_eq!(cut[0].name, "early");
        assert_eq!(cut[1].name, "mid");
    }

    #[test]
    fn slowest_spans_truncation_edges() {
        let records = vec![span_close("only", 0, 5)];
        assert!(slowest_spans(&records, 0).is_empty());
        assert_eq!(slowest_spans(&records, 100).len(), 1, "top > len is fine");
        assert!(slowest_spans(&[], 3).is_empty());
    }

    #[test]
    fn sparkline_handles_flat_and_sparse_series() {
        let flat = sparkline_svg(&[
            Point {
                ts_us: 0,
                value: 3.0,
            },
            Point {
                ts_us: 10,
                value: 3.0,
            },
        ]);
        assert!(flat.starts_with("<svg"));
        assert!(flat.contains("polyline"));
        let single = sparkline_svg(&[Point {
            ts_us: 0,
            value: 1.0,
        }]);
        assert!(single.contains("polyline"), "placeholder line still drawn");
    }

    #[test]
    fn render_is_self_contained_and_escaped() {
        let rec = Recorder::new(8);
        for i in 0..5u64 {
            rec.ingest(
                i * 1000,
                &MetricsSnapshot {
                    samples: vec![MetricSample {
                        name: "dpa.traces".into(),
                        value: i as f64,
                    }],
                    histograms: Vec::new(),
                },
            );
        }
        let ts = rec.snapshot();
        let metrics = MetricsSnapshot {
            samples: vec![MetricSample {
                name: "x<y".into(),
                value: 2.0,
            }],
            histograms: Vec::new(),
        };
        let summary = vec![("traces".to_string(), "5".to_string())];
        let spans = vec![span("campaign & attack", 0, 1_500_000)];
        let html = render(&ReportInputs {
            title: "run <1>",
            summary: &summary,
            timeseries: Some(&ts),
            metrics: Some(&metrics),
            spans: &spans,
        });
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("run &lt;1&gt;"));
        assert!(html.contains("<svg"), "sparkline embedded");
        assert!(html.contains("campaign &amp; attack"));
        assert!(html.contains("x&lt;y"));
        assert!(html.contains("1.500 s"));
        assert!(!html.contains("<script"), "no scripts, fully static");
    }
}
