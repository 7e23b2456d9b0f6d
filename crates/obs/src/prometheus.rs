//! Prometheus text-format 0.0.4 exposition of a [`MetricsSnapshot`].
//!
//! Scalar samples render as gauges (the snapshot has already widened
//! counters to `f64`) with the original dotted metric name sanitized
//! into the Prometheus grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`) under a
//! `qdi_` namespace:
//!
//! ```text
//! # HELP qdi_dpa_traces qdi metric `dpa.traces`
//! # TYPE qdi_dpa_traces gauge
//! qdi_dpa_traces 10000
//! ```
//!
//! Histograms render the standard triplet — cumulative `_bucket` series
//! with `le` labels ending in `+Inf`, plus `_sum` and `_count` — in
//! place of their flattened `<name>.count` / `<name>.sum` samples:
//!
//! ```text
//! # HELP qdi_serve_http_latency_ms qdi histogram `serve.http.latency.ms`
//! # TYPE qdi_serve_http_latency_ms histogram
//! qdi_serve_http_latency_ms_bucket{le="5"} 40
//! qdi_serve_http_latency_ms_bucket{le="+Inf"} 41
//! qdi_serve_http_latency_ms_sum 220.5
//! qdi_serve_http_latency_ms_count 41
//! ```
//!
//! [`parse`] reads the same format back (comments skipped) and
//! [`parse_histograms`] regroups `_bucket`/`_sum`/`_count` series into
//! [`ParsedHistogram`]s, which the format round-trip test, `qdi-mon
//! export` and the SLO evaluator rely on.

use std::collections::BTreeMap;

use crate::metrics::{MetricSample, MetricsSnapshot};

/// Maps a dotted qdi metric name into the Prometheus name grammar,
/// prefixing `qdi_` unless the name already carries it.
#[must_use]
pub fn metric_name(raw: &str) -> String {
    let sanitized: String = raw
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if sanitized.starts_with("qdi_") {
        sanitized
    } else {
        format!("qdi_{sanitized}")
    }
}

/// Escapes a label value per the text-format 0.0.4 grammar: backslash,
/// double quote and newline become `\\`, `\"` and `\n`. Everything else
/// passes through untouched.
#[must_use]
pub fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape_label_value`].
///
/// # Errors
///
/// Returns a description on a dangling backslash or an escape sequence
/// the format does not define.
pub fn unescape_label_value(escaped: &str) -> Result<String, String> {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => return Err(format!("unknown escape `\\{other}` in label value")),
            None => return Err("dangling backslash in label value".to_string()),
        }
    }
    Ok(out)
}

/// Renders one labeled sample line, `name{k="v",...} value`, escaping
/// every label value. With no labels the brace block is omitted.
#[must_use]
pub fn render_labeled(name: &str, labels: &[(&str, &str)], value: f64) -> String {
    let name = metric_name(name);
    if labels.is_empty() {
        return format!("{name} {}\n", render_value(value));
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{name}{{{}}} {}\n", body.join(","), render_value(value))
}

/// Splits a sample's name token into its base name and unescaped
/// `(key, value)` labels. A token without a brace block has no labels.
///
/// # Errors
///
/// Returns a description on unbalanced braces, unquoted values, or bad
/// escapes.
pub fn parse_labels(token: &str) -> Result<(String, Vec<(String, String)>), String> {
    let Some(open) = token.find('{') else {
        return Ok((token.to_string(), Vec::new()));
    };
    let base = token[..open].to_string();
    let body = token[open + 1..]
        .strip_suffix('}')
        .ok_or_else(|| format!("unbalanced label braces in `{token}`"))?;
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without `=` in `{token}`"))?;
        let key = rest[..eq].to_string();
        let after = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label `{key}` value is not quoted"))?;
        // Find the closing quote, skipping escaped characters.
        let mut close = None;
        let mut skip = false;
        for (i, c) in after.char_indices() {
            if skip {
                skip = false;
            } else if c == '\\' {
                skip = true;
            } else if c == '"' {
                close = Some(i);
                break;
            }
        }
        let close = close.ok_or_else(|| format!("label `{key}` value is unterminated"))?;
        labels.push((key, unescape_label_value(&after[..close])?));
        rest = &after[close + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("expected `,` between labels in `{token}`"));
        }
    }
    Ok((base, labels))
}

fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Appends one histogram's cumulative `_bucket`/`_sum`/`_count` sample
/// lines (no `# HELP`/`# TYPE` header) for the given label set.
/// `counts` are non-cumulative per-bound counts with a trailing
/// overflow bucket, exactly as [`crate::metrics::Histogram`] reports
/// them.
pub fn render_histogram_samples(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    bounds: &[f64],
    counts: &[u64],
    sum: f64,
) {
    let mut cumulative = 0u64;
    let mut bucket_labels: Vec<(&str, String)> =
        labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
    bucket_labels.push(("le", String::new()));
    for (i, count) in counts.iter().enumerate() {
        cumulative += count;
        let le = bounds
            .get(i)
            .map_or_else(|| "+Inf".to_string(), |b| render_value(*b));
        bucket_labels.last_mut().expect("le slot").1 = le;
        let borrowed: Vec<(&str, &str)> = bucket_labels
            .iter()
            .map(|(k, v)| (*k, v.as_str()))
            .collect();
        out.push_str(&render_labeled(
            &format!("{name}.bucket"),
            &borrowed,
            cumulative as f64,
        ));
    }
    out.push_str(&render_labeled(&format!("{name}.sum"), labels, sum));
    out.push_str(&render_labeled(
        &format!("{name}.count"),
        labels,
        cumulative as f64,
    ));
}

/// Renders a snapshot in Prometheus text format 0.0.4. Scalar samples
/// keep the snapshot's deterministic name ordering; histograms render
/// as the standard `_bucket`/`_sum`/`_count` triplet after them (their
/// flattened `<name>.count` / `<name>.sum` samples are elided so the
/// series do not collide).
#[must_use]
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let elide: Vec<String> = snapshot
        .histograms
        .iter()
        .flat_map(|h| [format!("{}.count", h.name), format!("{}.sum", h.name)])
        .collect();
    let mut out = String::new();
    for sample in &snapshot.samples {
        if elide.contains(&sample.name) {
            continue;
        }
        let name = metric_name(&sample.name);
        out.push_str(&format!("# HELP {name} qdi metric `{}`\n", sample.name));
        out.push_str(&format!("# TYPE {name} gauge\n"));
        out.push_str(&format!("{name} {}\n", render_value(sample.value)));
    }
    for h in &snapshot.histograms {
        let name = metric_name(&h.name);
        out.push_str(&format!("# HELP {name} qdi histogram `{}`\n", h.name));
        out.push_str(&format!("# TYPE {name} histogram\n"));
        render_histogram_samples(&mut out, &h.name, &[], &h.bounds, &h.counts, h.sum);
    }
    out
}

/// Finds where a sample line's name token (which may carry a quoted
/// label block containing spaces) ends, or `None` when no `{` opens one.
fn label_block_end(line: &str) -> Option<Result<usize, String>> {
    let open = line.find('{')?;
    let mut in_quotes = false;
    let mut skip = false;
    for (i, c) in line[open..].char_indices() {
        if skip {
            skip = false;
        } else if in_quotes && c == '\\' {
            skip = true;
        } else if c == '"' {
            in_quotes = !in_quotes;
        } else if c == '}' && !in_quotes {
            return Some(Ok(open + i + 1));
        }
    }
    Some(Err("unbalanced label braces".to_string()))
}

/// Parses text-format 0.0.4 exposition back into `(name, value)`
/// samples (comment and blank lines skipped). A label block is kept
/// verbatim in the sample name; use [`parse_labels`] to split it out.
///
/// # Errors
///
/// Returns a description naming the first malformed line.
pub fn parse(text: &str) -> Result<Vec<MetricSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, rest) = match label_block_end(line) {
            Some(Ok(end)) => line.split_at(end),
            Some(Err(e)) => return Err(format!("line {}: {e}", lineno + 1)),
            None => {
                let cut = line.find(char::is_whitespace).unwrap_or(line.len());
                line.split_at(cut)
            }
        };
        let mut parts = rest.split_whitespace();
        let Some(value) = parts.next() else {
            return Err(format!("line {}: expected `name value`", lineno + 1));
        };
        if parts.next().is_some() {
            return Err(format!("line {}: trailing tokens", lineno + 1));
        }
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            other => other
                .parse::<f64>()
                .map_err(|e| format!("line {}: bad value `{other}`: {e}", lineno + 1))?,
        };
        samples.push(MetricSample {
            name: name.to_string(),
            value,
        });
    }
    Ok(samples)
}

/// One histogram series reconstructed from parsed exposition lines:
/// the family name, its identifying labels (minus `le`), and the
/// cumulative bucket counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedHistogram {
    /// Prometheus family name (the `_bucket` suffix stripped).
    pub name: String,
    /// Identifying labels, sorted by key, `le` excluded.
    pub labels: Vec<(String, String)>,
    /// Finite bucket upper bounds, ascending (`+Inf` excluded).
    pub bounds: Vec<f64>,
    /// Cumulative counts per bound plus the final `+Inf` entry, so
    /// `cumulative.len() == bounds.len() + 1`.
    pub cumulative: Vec<u64>,
    /// Sum of observations (from the `_sum` series, 0 when absent).
    pub sum: f64,
    /// Total observations (the `+Inf` bucket).
    pub count: u64,
}

impl ParsedHistogram {
    /// The label value for `key`, when present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Non-cumulative per-bucket counts (last entry is the `+Inf`
    /// overflow), the inverse of the exposition's running totals.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut prev = 0u64;
        self.cumulative
            .iter()
            .map(|&c| {
                let d = c.saturating_sub(prev);
                prev = c;
                d
            })
            .collect()
    }

    /// Nearest-rank quantile upper estimate: the bound of the first
    /// bucket whose cumulative count reaches rank `ceil(q * count)`.
    /// Observations above the last finite bound report `+Inf`. `None`
    /// when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        for (i, &c) in self.cumulative.iter().enumerate() {
            if c >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        Some(f64::INFINITY)
    }

    /// Merges another series into this one (same bounds required):
    /// used to aggregate per-tenant series under a wildcard SLO.
    ///
    /// # Errors
    ///
    /// Returns a description when the bucket layouts differ.
    pub fn merge(&mut self, other: &ParsedHistogram) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "cannot merge histogram `{}`: bucket layouts differ",
                self.name
            ));
        }
        // Counts come from scraped text: saturate rather than overflow.
        for (mine, theirs) in self.cumulative.iter_mut().zip(&other.cumulative) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum += other.sum;
        self.count = self.count.saturating_add(other.count);
        Ok(())
    }
}

/// Regroups parsed exposition samples into histogram series: every
/// `<family>_bucket{...,le="..."}` line joins the series keyed by
/// `(family, labels − le)`, picking up the matching `_sum` and
/// `_count` lines. Samples that are not part of a histogram triplet
/// are ignored, as are `_sum`/`_count` lines with no sibling buckets.
///
/// # Errors
///
/// Returns a description on malformed label blocks, duplicate or
/// non-monotonic buckets, or a missing `+Inf` bucket.
pub fn parse_histograms(samples: &[MetricSample]) -> Result<Vec<ParsedHistogram>, String> {
    type Key = (String, Vec<(String, String)>);
    #[derive(Default)]
    struct Partial {
        buckets: Vec<(f64, u64)>, // (le, cumulative); +Inf stored as INFINITY
        sum: f64,
        count: Option<u64>,
    }
    fn slot(
        groups: &mut BTreeMap<String, (Key, Partial)>,
        family: String,
        mut labels: Vec<(String, String)>,
    ) -> &mut Partial {
        labels.sort();
        let ordering_key = format!("{family}\u{0}{labels:?}");
        &mut groups
            .entry(ordering_key)
            .or_insert_with(|| ((family, labels), Partial::default()))
            .1
    }
    let mut groups: BTreeMap<String, (Key, Partial)> = BTreeMap::new();
    for sample in samples {
        let (base, labels) = parse_labels(&sample.name)?;
        if let Some(family) = base.strip_suffix("_bucket") {
            let Some(le) = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
            else {
                continue;
            };
            let bound = match le.as_str() {
                "+Inf" => f64::INFINITY,
                other => match other.parse::<f64>() {
                    Ok(bound) if bound.is_finite() => bound,
                    Ok(_) => {
                        return Err(format!(
                            "bad le `{other}` on `{}`: only `+Inf` may be non-finite",
                            sample.name
                        ))
                    }
                    Err(e) => return Err(format!("bad le `{other}` on `{}`: {e}", sample.name)),
                },
            };
            let rest: Vec<(String, String)> =
                labels.into_iter().filter(|(k, _)| k != "le").collect();
            slot(&mut groups, family.to_string(), rest)
                .buckets
                .push((bound, sample.value as u64));
        } else if let Some(family) = base.strip_suffix("_sum") {
            slot(&mut groups, family.to_string(), labels).sum = sample.value;
        } else if let Some(family) = base.strip_suffix("_count") {
            slot(&mut groups, family.to_string(), labels).count = Some(sample.value as u64);
        }
    }
    let mut out = Vec::new();
    for ((family, labels), mut partial) in groups.into_values() {
        if partial.buckets.is_empty() {
            continue; // `_sum`/`_count` of something that is not a histogram
        }
        // Every bound is finite or `+Inf` (checked above), so `total_cmp`
        // is the numeric order.
        partial.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (last, finite) = partial.buckets.split_last().expect("non-empty bucket list");
        if last.0 != f64::INFINITY {
            return Err(format!("histogram `{family}` has no `+Inf` bucket"));
        }
        let mut bounds = Vec::with_capacity(finite.len());
        let mut cumulative = Vec::with_capacity(partial.buckets.len());
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_count = 0u64;
        for &(bound, count) in partial.buckets.iter() {
            if bound == prev_bound {
                return Err(format!("histogram `{family}` has duplicate le `{bound}`"));
            }
            if count < prev_count {
                return Err(format!(
                    "histogram `{family}` bucket counts are not cumulative at le `{bound}`"
                ));
            }
            if bound != f64::INFINITY {
                bounds.push(bound);
            }
            cumulative.push(count);
            prev_bound = bound;
            prev_count = count;
        }
        let count = partial.count.unwrap_or(last.1);
        out.push(ParsedHistogram {
            name: family,
            labels,
            bounds,
            cumulative,
            sum: partial.sum,
            count,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn snap(pairs: &[(&str, f64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            samples: pairs
                .iter()
                .map(|(n, v)| MetricSample {
                    name: (*n).to_string(),
                    value: *v,
                })
                .collect(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn sanitizes_names_into_prometheus_grammar() {
        assert_eq!(metric_name("dpa.traces"), "qdi_dpa_traces");
        assert_eq!(
            metric_name("exec.pool.worker.0.jobs"),
            "qdi_exec_pool_worker_0_jobs"
        );
        assert_eq!(metric_name("qdi_already"), "qdi_already");
        assert_eq!(metric_name("weird-name!x"), "qdi_weird_name_x");
    }

    #[test]
    fn renders_help_type_and_sample_lines() {
        let text = render(&snap(&[("dpa.traces", 10000.0), ("sim.queue.max", 42.0)]));
        assert!(text.contains("# HELP qdi_dpa_traces qdi metric `dpa.traces`\n"));
        assert!(text.contains("# TYPE qdi_dpa_traces gauge\n"));
        assert!(text.contains("qdi_dpa_traces 10000\n"));
        assert!(text.contains("qdi_sim_queue_max 42\n"));
    }

    #[test]
    fn round_trips_through_parse() {
        let original = snap(&[("a.x", 1.5), ("b.y", -3.0), ("c.z", 0.0)]);
        let parsed = parse(&render(&original)).unwrap();
        assert_eq!(parsed.len(), original.samples.len());
        for (p, o) in parsed.iter().zip(&original.samples) {
            assert_eq!(p.name, metric_name(&o.name));
            assert_eq!(p.value, o.value);
        }
    }

    #[test]
    fn label_value_escaping_round_trips_every_special() {
        for raw in [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "line\nbreak",
            "\\n is literal backslash-n",
            "all \\ of \" them\nat once",
            "",
        ] {
            let escaped = escape_label_value(raw);
            assert!(!escaped.contains('\n'), "escaped form must be one line");
            assert_eq!(unescape_label_value(&escaped).unwrap(), raw, "{raw:?}");
        }
        // The escaped forms themselves are what the spec mandates.
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn unescape_rejects_undefined_escapes() {
        assert!(unescape_label_value("dangling\\").is_err());
        assert!(unescape_label_value("bad\\t").is_err());
    }

    #[test]
    fn labeled_samples_round_trip_through_parse() {
        let labels = [
            ("flow", "secure \"fast\" path"),
            ("dir", "C:\\traces"),
            ("note", "two\nlines"),
        ];
        let line = render_labeled("dpa.traces", &labels, 7.0);
        let parsed = parse(&line).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].value, 7.0);
        let (base, got) = parse_labels(&parsed[0].name).unwrap();
        assert_eq!(base, "qdi_dpa_traces");
        let want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn render_labeled_without_labels_matches_plain_form() {
        assert_eq!(render_labeled("a.x", &[], 1.5), "qdi_a_x 1.5\n");
        let (base, labels) = parse_labels("qdi_a_x").unwrap();
        assert_eq!(base, "qdi_a_x");
        assert!(labels.is_empty());
    }

    #[test]
    fn parse_labels_rejects_malformed_blocks() {
        assert!(parse_labels("m{k=\"v\"").is_err(), "unbalanced braces");
        assert!(parse_labels("m{k}").is_err(), "no equals");
        assert!(parse_labels("m{k=v}").is_err(), "unquoted value");
        assert!(parse_labels("m{k=\"v}").is_err(), "unterminated value");
        assert!(
            parse_labels("m{k=\"a\" b=\"c\"}").is_err(),
            "space separator"
        );
        assert!(parse("m{k=\"open 1\n").is_err(), "unbalanced in parse");
    }

    fn latency_snapshot() -> MetricsSnapshot {
        let mut s = snap(&[
            ("serve.http.latency.ms.count", 41.0),
            ("serve.http.latency.ms.sum", 220.5),
            ("serve.jobs.completed", 2.0),
        ]);
        s.histograms.push(HistogramSnapshot {
            name: "serve.http.latency.ms".into(),
            bounds: vec![5.0, 50.0, 500.0],
            counts: vec![40, 0, 0, 1],
            sum: 220.5,
        });
        s
    }

    #[test]
    fn histograms_render_the_bucket_sum_count_triplet() {
        let text = render(&latency_snapshot());
        assert!(text.contains("# TYPE qdi_serve_http_latency_ms histogram\n"));
        assert!(text.contains("qdi_serve_http_latency_ms_bucket{le=\"5\"} 40\n"));
        assert!(text.contains("qdi_serve_http_latency_ms_bucket{le=\"50\"} 40\n"));
        assert!(text.contains("qdi_serve_http_latency_ms_bucket{le=\"500\"} 40\n"));
        assert!(text.contains("qdi_serve_http_latency_ms_bucket{le=\"+Inf\"} 41\n"));
        assert!(text.contains("qdi_serve_http_latency_ms_sum 220.5\n"));
        assert!(text.contains("qdi_serve_http_latency_ms_count 41\n"));
        // The flattened scalar forms are elided: `_count` appears only
        // as the histogram series, never as a duplicate gauge.
        assert!(!text.contains("# TYPE qdi_serve_http_latency_ms_count gauge"));
        // Unrelated scalars still render.
        assert!(text.contains("qdi_serve_jobs_completed 2\n"));
    }

    #[test]
    fn histograms_round_trip_through_parse_and_parse_histograms() {
        let original = latency_snapshot();
        let samples = parse(&render(&original)).unwrap();
        let parsed = parse_histograms(&samples).unwrap();
        assert_eq!(parsed.len(), 1);
        let h = &parsed[0];
        assert_eq!(h.name, "qdi_serve_http_latency_ms");
        assert!(h.labels.is_empty());
        assert_eq!(h.bounds, original.histograms[0].bounds);
        assert_eq!(h.bucket_counts(), original.histograms[0].counts);
        assert_eq!(h.count, 41);
        assert!((h.sum - 220.5).abs() < 1e-9);
    }

    #[test]
    fn labeled_histograms_group_by_their_label_sets() {
        let mut text = String::new();
        for tenant in ["alice", "bob"] {
            render_histogram_samples(
                &mut text,
                "serve.http.latency.ms",
                &[("route", "/v1/jobs"), ("tenant", tenant)],
                &[10.0, 100.0],
                &[3, 1, if tenant == "bob" { 1 } else { 0 }],
                42.0,
            );
        }
        let parsed = parse_histograms(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.len(), 2);
        for h in &parsed {
            assert_eq!(h.label("route"), Some("/v1/jobs"));
            assert!(h.label("le").is_none(), "le is not an identity label");
        }
        let bob = parsed
            .iter()
            .find(|h| h.label("tenant") == Some("bob"))
            .unwrap();
        assert_eq!(bob.count, 5);
        assert_eq!(bob.quantile(0.99), Some(f64::INFINITY), "overflow hit");
        let alice = parsed
            .iter()
            .find(|h| h.label("tenant") == Some("alice"))
            .unwrap();
        assert_eq!(alice.count, 4);
        assert_eq!(alice.quantile(0.5), Some(10.0));
        assert_eq!(alice.quantile(0.99), Some(100.0));
    }

    #[test]
    fn quantiles_use_nearest_rank_on_cumulative_counts() {
        let h = ParsedHistogram {
            name: "lat".into(),
            labels: vec![],
            bounds: vec![1.0, 10.0, 100.0],
            cumulative: vec![50, 90, 99, 100],
            sum: 0.0,
            count: 100,
        };
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.9), Some(10.0));
        assert_eq!(h.quantile(0.99), Some(100.0));
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(h.quantile(0.0), Some(1.0), "rank clamps to 1");
        let empty = ParsedHistogram {
            name: "lat".into(),
            labels: vec![],
            bounds: vec![1.0],
            cumulative: vec![0, 0],
            sum: 0.0,
            count: 0,
        };
        assert_eq!(empty.quantile(0.99), None);
    }

    #[test]
    fn histogram_merge_requires_identical_layouts() {
        let mut a = ParsedHistogram {
            name: "lat".into(),
            labels: vec![],
            bounds: vec![1.0, 10.0],
            cumulative: vec![1, 2, 3],
            sum: 5.0,
            count: 3,
        };
        let b = ParsedHistogram {
            cumulative: vec![0, 1, 2],
            sum: 11.0,
            count: 2,
            ..a.clone()
        };
        a.merge(&b).unwrap();
        assert_eq!(a.cumulative, vec![1, 3, 5]);
        assert_eq!(a.count, 5);
        assert!((a.sum - 16.0).abs() < 1e-9);
        let other = ParsedHistogram {
            bounds: vec![2.0, 10.0],
            ..b.clone()
        };
        assert!(a.merge(&other).is_err());
    }

    #[test]
    fn parse_histograms_rejects_inconsistent_series() {
        // No +Inf bucket.
        let text = "qdi_l_bucket{le=\"1\"} 3\nqdi_l_sum 1\nqdi_l_count 3\n";
        assert!(parse_histograms(&parse(text).unwrap()).is_err());
        // Non-cumulative counts.
        let text = "qdi_l_bucket{le=\"1\"} 3\nqdi_l_bucket{le=\"+Inf\"} 2\n";
        assert!(parse_histograms(&parse(text).unwrap()).is_err());
        // Duplicate le.
        let text =
            "qdi_l_bucket{le=\"1\"} 1\nqdi_l_bucket{le=\"1\"} 1\nqdi_l_bucket{le=\"+Inf\"} 2\n";
        assert!(parse_histograms(&parse(text).unwrap()).is_err());
        // Non-finite bounds other than `+Inf`: classified, never a panic
        // in the bucket sort.
        for le in ["NaN", "nan", "-Inf", "inf", "Infinity"] {
            let text = format!("qdi_l_bucket{{le=\"{le}\"}} 1\nqdi_l_bucket{{le=\"+Inf\"}} 2\n");
            let err = parse_histograms(&parse(&text).unwrap()).expect_err(le);
            assert!(err.contains(le), "{err}");
        }
        // A bare counter that merely ends in _count is not a histogram.
        let text = "qdi_requests_count 9\n";
        assert!(parse_histograms(&parse(text).unwrap()).unwrap().is_empty());
    }

    #[test]
    fn parse_handles_specials_and_rejects_garbage() {
        let parsed = parse("# c\nqdi_a +Inf\nqdi_b -Inf\n\nqdi_c 2e3\n").unwrap();
        assert_eq!(parsed[0].value, f64::INFINITY);
        assert_eq!(parsed[1].value, f64::NEG_INFINITY);
        assert_eq!(parsed[2].value, 2000.0);
        assert!(parse("qdi_a\n").is_err());
        assert!(parse("qdi_a 1 2\n").is_err());
        assert!(parse("qdi_a nope\n").is_err());
    }
}
