//! Distributed-trace waterfall: one self-contained SVG per trace id.
//!
//! Input is the span JSONL written by [`qdi_obs::span`](mod@qdi_obs::span) — possibly
//! the concatenation of several files (client + server), since every
//! process in a trace appends to its own writer. Spans are laid out on
//! one wall-clock axis (their `start_unix_us` is UNIX-epoch, so
//! cross-process records align), one row per span, indented by parent
//! depth and colored by emitting service.
//!
//! `resume` span-links render as dashed edges from the interrupted
//! lease to the lease that continued it. A link whose target record
//! never made it to disk — the exact signature of `kill -9`, which
//! runs no destructors — renders as a dashed stub labeled `lost`, so
//! a crash is visible in the picture rather than silently absent.

use std::collections::BTreeMap;

use qdi_obs::span::{SpanRecord, LINK_RESUME};

const ROW_H: u64 = 22;
const ROW_GAP: u64 = 4;
const HEADER_H: u64 = 46;
const FOOTER_H: u64 = 26;
const WIDTH: u64 = 1100;
const PAD: u64 = 10;
const INDENT: u64 = 14;

/// Service color palette (fill, darker border).
const PALETTE: [(&str, &str); 5] = [
    ("#7eb2dd", "#44708f"), // blue
    ("#8fd18f", "#4f8a4f"), // green
    ("#e7b86f", "#9c7434"), // amber
    ("#c79fd9", "#7e5a91"), // violet
    ("#e58f8f", "#9c4a4a"), // red
];

/// Escapes `&<>"` for SVG text and attributes.
pub(crate) fn xml_escape(raw: &str) -> String {
    raw.chars()
        .map(|c| match c {
            '&' => "&amp;".to_string(),
            '<' => "&lt;".to_string(),
            '>' => "&gt;".to_string(),
            '"' => "&quot;".to_string(),
            other => other.to_string(),
        })
        .collect()
}

fn service_color(service: &str, order: &[String]) -> (&'static str, &'static str) {
    let idx = order.iter().position(|s| s == service).unwrap_or(0);
    PALETTE[idx % PALETTE.len()]
}

/// Parent-chain depth of `span` within `by_id`, cycle- and
/// missing-parent-tolerant (a missing parent contributes no depth: the
/// span simply roots its own subtree, which is what a torn file or a
/// span from an untraced hop should look like).
fn depth_of(span: &SpanRecord, by_id: &BTreeMap<&str, &SpanRecord>) -> u64 {
    let mut depth = 0;
    let mut cursor = span.parent_id.as_deref();
    while let Some(parent_id) = cursor {
        let Some(parent) = by_id.get(parent_id) else {
            break;
        };
        depth += 1;
        if depth > 64 {
            break; // defensive: a corrupt file must not loop forever
        }
        cursor = parent.parent_id.as_deref();
    }
    depth
}

fn fmt_duration_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Renders the waterfall for `trace_id` from `spans` (records of other
/// traces are ignored).
///
/// # Errors
///
/// Returns a description when no span carries `trace_id`.
pub fn render(spans: &[SpanRecord], trace_id: &str, title: &str) -> Result<String, String> {
    let mut ours: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
    if ours.is_empty() {
        return Err(format!("no spans for trace {trace_id}"));
    }
    ours.sort_by(|a, b| {
        a.start_unix_us
            .cmp(&b.start_unix_us)
            .then_with(|| a.span_id.cmp(&b.span_id))
    });
    let by_id: BTreeMap<&str, &SpanRecord> =
        ours.iter().map(|s| (s.span_id.as_str(), *s)).collect();

    // Deterministic service order: first appearance on the time axis.
    let mut services: Vec<String> = Vec::new();
    for span in &ours {
        if !services.contains(&span.service) {
            services.push(span.service.clone());
        }
    }

    let t0 = ours.iter().map(|s| s.start_unix_us).min().unwrap_or(0);
    let t1 = ours
        .iter()
        .map(|s| s.start_unix_us.saturating_add(s.dur_us))
        .max()
        .unwrap_or(t0);
    let total_us = (t1 - t0).max(1);
    let plot_w = (WIDTH - 2 * PAD) as f64;
    let x_of =
        |us: u64| -> f64 { PAD as f64 + (us.saturating_sub(t0) as f64 / total_us as f64) * plot_w };

    let height = HEADER_H + ours.len() as u64 * (ROW_H + ROW_GAP) + FOOTER_H;
    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"11\">\n"
    ));
    svg.push_str(&format!(
        "<rect width=\"{WIDTH}\" height=\"{height}\" fill=\"#fdfdf8\"/>\n"
    ));
    svg.push_str(&format!(
        "<text x=\"{PAD}\" y=\"16\" font-size=\"14\" fill=\"#222\">{}</text>\n",
        xml_escape(title)
    ));
    svg.push_str(&format!(
        "<text x=\"{PAD}\" y=\"32\" fill=\"#555\">trace {} · {} spans · {}</text>\n",
        xml_escape(trace_id),
        ours.len(),
        fmt_duration_us(total_us)
    ));
    // Service legend, right-aligned in the header.
    let mut legend_x = WIDTH.saturating_sub(PAD + services.len() as u64 * 150);
    for service in &services {
        let (fill, border) = service_color(service, &services);
        svg.push_str(&format!(
            "<rect x=\"{legend_x}\" y=\"8\" width=\"10\" height=\"10\" fill=\"{fill}\" stroke=\"{border}\"/>\n\
             <text x=\"{}\" y=\"17\" fill=\"#333\">{}</text>\n",
            legend_x + 14,
            xml_escape(service)
        ));
        legend_x += 150;
    }

    // Row geometry, keyed by span id, for the link edges drawn after.
    let mut geometry: BTreeMap<&str, (f64, f64, f64)> = BTreeMap::new(); // (x0, x1, y_mid)
    for (row, span) in ours.iter().enumerate() {
        let depth = depth_of(span, &by_id);
        let y = HEADER_H + row as u64 * (ROW_H + ROW_GAP);
        let y_mid = y as f64 + ROW_H as f64 / 2.0;
        // Bars sit at their true time position; depth shows in the
        // label indent so causality stays readable without bending
        // the time axis.
        let x0 = x_of(span.start_unix_us);
        let end_us = span.start_unix_us.saturating_add(span.dur_us);
        let x1 = x_of(end_us).max(x0 + 2.0);
        geometry.insert(span.span_id.as_str(), (x0, x1, y_mid));
        let (fill, border) = service_color(&span.service, &services);
        svg.push_str(&format!(
            "<g><title>{} {} · start +{} · {} · span {}</title>\n",
            xml_escape(&span.service),
            xml_escape(&span.name),
            fmt_duration_us(span.start_unix_us - t0),
            fmt_duration_us(span.dur_us),
            span.span_id
        ));
        svg.push_str(&format!(
            "<rect x=\"{x0:.1}\" y=\"{y}\" width=\"{:.1}\" height=\"{ROW_H}\" rx=\"3\" \
             fill=\"{fill}\" stroke=\"{border}\"/>\n",
            x1 - x0
        ));
        // Event ticks inside the bar.
        for event in &span.events {
            let ex = x_of(event.ts_us.clamp(span.start_unix_us, end_us));
            svg.push_str(&format!(
                "<line x1=\"{ex:.1}\" y1=\"{}\" x2=\"{ex:.1}\" y2=\"{}\" stroke=\"{border}\" \
                 stroke-width=\"2\"><title>{}</title></line>\n",
                y + 3,
                y + ROW_H - 3,
                xml_escape(&event.name)
            ));
        }
        // Label: indent by depth; place after the bar when it is short.
        let label = format!("{} [{}]", span.name, fmt_duration_us(span.dur_us));
        let label_x = x1 + 6.0 + (depth * INDENT) as f64;
        svg.push_str(&format!(
            "<text x=\"{label_x:.1}\" y=\"{:.1}\" fill=\"#222\">{}</text>\n",
            y_mid + 4.0,
            xml_escape(&label)
        ));
        svg.push_str("</g>\n");
    }

    // Resume links: dashed edges from the interrupted span to its
    // continuation; dashed stubs when the target record is lost.
    for span in &ours {
        for link in span.links.iter().filter(|l| l.kind == LINK_RESUME) {
            let Some(&(sx0, _, sy)) = geometry.get(span.span_id.as_str()) else {
                continue;
            };
            if let Some(&(_, tx1, ty)) = geometry.get(link.span_id.as_str()) {
                svg.push_str(&format!(
                    "<path d=\"M {tx1:.1} {ty:.1} L {sx0:.1} {sy:.1}\" fill=\"none\" \
                     stroke=\"#a33\" stroke-width=\"1.5\" stroke-dasharray=\"5,3\">\
                     <title>resume link</title></path>\n"
                ));
            } else {
                svg.push_str(&format!(
                    "<path d=\"M {:.1} {sy:.1} L {sx0:.1} {sy:.1}\" fill=\"none\" \
                     stroke=\"#a33\" stroke-width=\"1.5\" stroke-dasharray=\"5,3\"/>\n\
                     <text x=\"{:.1}\" y=\"{:.1}\" fill=\"#a33\">lost {}</text>\n",
                    (sx0 - 40.0).max(PAD as f64),
                    (sx0 - 40.0).max(PAD as f64),
                    sy - 4.0,
                    link.span_id
                ));
            }
        }
    }

    svg.push_str(&format!(
        "<text x=\"{PAD}\" y=\"{}\" fill=\"#777\">dashed red = resume link (fair-share requeue, drain or crash recovery)</text>\n",
        height - 8
    ));
    svg.push_str("</svg>\n");
    Ok(svg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_obs::span::{SpanEvent, SpanLink};

    fn span(
        trace: &str,
        id: &str,
        parent: Option<&str>,
        service: &str,
        name: &str,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: trace.into(),
            span_id: id.into(),
            parent_id: parent.map(str::to_owned),
            links: Vec::new(),
            service: service.into(),
            name: name.into(),
            start_unix_us: start,
            dur_us: dur,
            attrs: Vec::new(),
            events: Vec::new(),
            thread: None,
            rollup: None,
        }
    }

    #[test]
    fn renders_cross_process_rows_links_and_lost_targets() {
        let t = "4bf92f3577b34da6a3ce929d0e0e4736";
        let client = span(
            t,
            "00000000000000a1",
            None,
            "qdi-client",
            "submit",
            1000,
            5000,
        );
        let mut edge = span(
            t,
            "00000000000000b2",
            Some("00000000000000a1"),
            "qdi-serve",
            "POST /v1/jobs",
            1500,
            800,
        );
        edge.events.push(SpanEvent {
            ts_us: 1900,
            name: "sched.enqueue".into(),
            attrs: Vec::new(),
        });
        let lease1 = span(
            t,
            "00000000000000c3",
            Some("00000000000000b2"),
            "qdi-serve",
            "lease",
            2500,
            2000,
        );
        let mut lease2 = span(
            t,
            "00000000000000d4",
            Some("00000000000000b2"),
            "qdi-serve",
            "lease",
            5000,
            1500,
        );
        lease2.links.push(SpanLink {
            trace_id: t.into(),
            span_id: "00000000000000c3".into(),
            kind: LINK_RESUME.into(),
        });
        let mut lease3 = span(
            t,
            "00000000000000e5",
            Some("00000000000000b2"),
            "qdi-serve",
            "lease",
            7000,
            900,
        );
        lease3.links.push(SpanLink {
            trace_id: t.into(),
            span_id: "00000000000000ff".into(), // record lost to kill -9
            kind: LINK_RESUME.into(),
        });
        let other = span(
            "deadbeef".repeat(4).as_str(),
            "0000000000000099",
            None,
            "x",
            "y",
            0,
            1,
        );

        let all = vec![client, edge, lease1, lease2, lease3, other];
        let svg = render(&all, t, "demo").expect("renders");
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("qdi-client"));
        assert!(svg.contains("POST /v1/jobs"));
        assert!(svg.contains("5 spans"), "foreign trace excluded");
        assert!(svg.contains("stroke-dasharray"), "resume edges are dashed");
        assert!(
            svg.contains("lost 00000000000000ff"),
            "dangling target marked"
        );
        assert!(svg.contains("sched.enqueue"), "events render as ticks");
    }

    #[test]
    fn unknown_trace_is_an_error() {
        let t = "4bf92f3577b34da6a3ce929d0e0e4736";
        let all = vec![span(t, "00000000000000a1", None, "s", "n", 0, 1)];
        assert!(render(&all, "0000000000000000deadbeefdeadbeef", "t").is_err());
    }

    #[test]
    fn names_are_xml_escaped() {
        let t = "4bf92f3577b34da6a3ce929d0e0e4736";
        let all = vec![span(t, "00000000000000a1", None, "s", "a<b>&\"c\"", 0, 1)];
        let svg = render(&all, t, "<title>").expect("renders");
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
        assert!(svg.contains("&lt;title&gt;"));
        assert!(!svg.contains("a<b>"));
    }
}
