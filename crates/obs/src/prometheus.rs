//! Prometheus text-format 0.0.4 exposition of a [`MetricsSnapshot`],
//! and the parser that reads it back.
//!
//! Scalar samples render as gauges (the snapshot has already widened
//! counters to `f64`) with the original dotted metric name sanitized
//! into the Prometheus grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`) under a
//! `qdi_` namespace. A labeled series ([`crate::metrics::series`]) keeps
//! its label block, and each family gets one `# HELP`/`# TYPE` header:
//!
//! ```text
//! # HELP qdi_serve_http_route_requests qdi metric `serve.http.route.requests`
//! # TYPE qdi_serve_http_route_requests gauge
//! qdi_serve_http_route_requests{route="GET /healthz",tenant=""} 3
//! qdi_serve_http_route_requests{route="POST /v1/jobs",tenant="alice"} 1
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
//! [`parse`] reads the format back into the [`MetricsSnapshot`] that
//! [`render`] consumes, with every name in wire form: `_bucket` lines
//! regroup into [`HistogramSnapshot`]s, every other line is a sample.
//! So a snapshot survives a render and a parse, which the format tests,
//! `qdi-mon slo` and the serve tests rely on.

use std::collections::{BTreeMap, BTreeSet};

use crate::metrics::{
    series, split_series, with_suffix, HistogramSnapshot, MetricSample, MetricsSnapshot,
};

/// Maps a dotted qdi series name into the Prometheus name grammar,
/// prefixing `qdi_` unless the name already carries it. A label block
/// (`{…}`) passes through untouched.
#[must_use]
pub fn metric_name(raw: &str) -> String {
    let (name, labels) = split_series(raw);
    let sanitized: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if sanitized.starts_with("qdi_") {
        format!("{sanitized}{labels}")
    } else {
        format!("qdi_{sanitized}{labels}")
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

/// Unescaped `(key, value)` label pairs, in the order they were read.
type Labels = Vec<(String, String)>;

/// Splits a sample's name token into its base name and unescaped
/// `(key, value)` labels. A token without a brace block has no labels.
///
/// # Errors
///
/// Returns a description on unbalanced braces, unquoted values, bad
/// escapes, or text after the label block.
pub fn parse_labels(token: &str) -> Result<(String, Labels), String> {
    match read_series(token)? {
        (base, labels, "") => Ok((base.to_string(), labels)),
        _ => Err(format!("text after the labels in `{token}`")),
    }
}

/// Whether `key` is a label name: `[a-zA-Z0-9_]+`.
fn is_label_name(key: &str) -> bool {
    !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Reads a series, `name` or `name{k="v",…}`, off the front of `text`:
/// its name, its unescaped labels and the rest of `text`.
fn read_series(text: &str) -> Result<(&str, Labels, &str), String> {
    let end = text
        .find(|c: char| c == '{' || c.is_whitespace())
        .unwrap_or(text.len());
    let (name, rest) = text.split_at(end);
    let mut labels = Vec::new();
    let Some(mut rest) = rest.strip_prefix('{') else {
        return Ok((name, labels, rest));
    };
    loop {
        if let Some(after) = rest.strip_prefix('}') {
            return Ok((name, labels, after));
        }
        let (key, value) = rest
            .split_once('=')
            .filter(|(key, _)| is_label_name(key))
            .ok_or_else(|| format!("expected `name=\"value\"` in the labels of `{text}`"))?;
        let value = value
            .strip_prefix('"')
            .ok_or_else(|| format!("label `{key}` value is not quoted"))?;
        // The closing quote is the first one no backslash escapes.
        let mut escaped = false;
        let close = value
            .char_indices()
            .find(|&(_, c)| {
                let close = !escaped && c == '"';
                escaped = !escaped && c == '\\';
                close
            })
            .ok_or_else(|| format!("label `{key}` value is unterminated"))?
            .0;
        labels.push((key.to_string(), unescape_label_value(&value[..close])?));
        rest = &value[close + 1..];
        if let Some(after) = rest.strip_prefix(',') {
            rest = after;
        } else if !rest.starts_with('}') {
            return Err(format!("expected `,` or `}}` between labels in `{text}`"));
        }
    }
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

/// Renders one sample line, `name{k="v",...} value`, of a series name
/// as [`crate::metrics::series`] builds it.
fn render_labeled(series: &str, value: f64) -> String {
    format!("{} {}\n", metric_name(series), render_value(value))
}

/// One histogram's cumulative `_bucket` lines, `le` last among its
/// labels, then its `_sum` and `_count` lines.
fn render_histogram_samples(out: &mut String, h: &HistogramSnapshot) {
    let (name, labels) = split_series(&h.name);
    let wire = metric_name(name);
    let open = match labels.strip_suffix('}') {
        Some(labels) => format!("{labels},"),
        None => "{".to_string(),
    };
    let mut cumulative = 0u64;
    for (i, count) in h.counts.iter().enumerate() {
        cumulative = cumulative.saturating_add(*count);
        let le = h
            .bounds
            .get(i)
            .map_or_else(|| "+Inf".to_string(), |b| render_value(*b));
        out.push_str(&format!("{wire}_bucket{open}le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&render_labeled(&with_suffix(&h.name, ".sum"), h.sum));
    out.push_str(&format!("{wire}_count{labels} {cumulative}\n"));
}

/// The lines of the family `name` (a metric name, no labels), opened
/// with its `# HELP`/`# TYPE` header on first use.
fn family<'f>(
    families: &'f mut BTreeMap<String, String>,
    name: &str,
    kind: &str,
) -> &'f mut String {
    let wire = metric_name(name);
    families.entry(wire.clone()).or_insert_with(|| {
        let what = if kind == "histogram" { kind } else { "metric" };
        format!("# HELP {wire} qdi {what} `{name}`\n# TYPE {wire} {kind}\n")
    })
}

/// Renders a snapshot in Prometheus text format 0.0.4: one `# HELP`/
/// `# TYPE` header per family, families in wire-name order, each
/// followed by all of its series. Histograms render as the standard
/// `_bucket`/`_sum`/`_count` triplet; their flattened `<name>.count` /
/// `<name>.sum` samples are elided so the series do not collide.
#[must_use]
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let elide: BTreeSet<String> = snapshot
        .histograms
        .iter()
        .flat_map(|h| [with_suffix(&h.name, ".count"), with_suffix(&h.name, ".sum")])
        .collect();
    let mut families = BTreeMap::new();
    for sample in &snapshot.samples {
        if !elide.contains(&sample.name) {
            let lines = family(&mut families, split_series(&sample.name).0, "gauge");
            lines.push_str(&render_labeled(&sample.name, sample.value));
        }
    }
    for h in &snapshot.histograms {
        render_histogram_samples(
            family(&mut families, split_series(&h.name).0, "histogram"),
            h,
        );
    }
    families.into_values().collect()
}

/// Parses text-format 0.0.4 exposition (comment and blank lines
/// skipped) back into the snapshot [`render`] consumes, every name in
/// wire form and every label block in [`crate::metrics::series`] form
/// (keys sorted, values escaped). Each `<family>_bucket{…,le="…"}` line
/// joins the histogram series keyed by its labels minus `le`, which
/// takes its sum from the matching `_sum` line (0 when absent); every
/// other line, `_sum` and `_count` included, is a sample.
///
/// # Errors
///
/// Returns a description naming the first malformed line or label
/// block, or the first histogram with a non-finite bound other than
/// `+Inf`, a duplicate or non-cumulative bucket, or no `+Inf` bucket.
pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
    let mut samples = Vec::new();
    // Histogram series name -> its (bound, cumulative count) buckets.
    let mut buckets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (base, mut labels, rest) = read_series(line).map_err(at)?;
        let mut parts = rest.split_whitespace();
        let Some(value) = parts.next() else {
            return Err(at("expected `name value`".to_string()));
        };
        if parts.next().is_some() {
            return Err(at("trailing tokens".to_string()));
        }
        let value: f64 = value
            .parse()
            .map_err(|e| at(format!("bad value `{value}`: {e}")))?;
        let le = labels.iter().position(|(k, _)| k == "le");
        if let (Some(family), Some(le)) = (base.strip_suffix("_bucket"), le) {
            let (_, le) = labels.remove(le);
            let bound = match le.as_str() {
                "+Inf" => f64::INFINITY,
                other => match other.parse::<f64>() {
                    Ok(bound) if bound.is_finite() => bound,
                    Ok(_) => {
                        return Err(at(format!(
                            "bad le `{other}` on `{base}`: only `+Inf` may be non-finite"
                        )))
                    }
                    Err(e) => return Err(at(format!("bad le `{other}` on `{base}`: {e}"))),
                },
            };
            buckets
                .entry(series(family, &labels))
                .or_default()
                .push((bound, value as u64));
        } else {
            samples.push(MetricSample {
                name: series(base, &labels),
                value,
            });
        }
    }
    let mut snapshot = MetricsSnapshot {
        samples,
        histograms: Vec::with_capacity(buckets.len()),
    };
    snapshot.normalize();
    for (name, mut buckets) in buckets {
        // Every bound is finite or `+Inf` (checked above), so `total_cmp`
        // is the numeric order.
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        if buckets.last().is_some_and(|last| last.0 != f64::INFINITY) {
            return Err(format!("histogram `{name}` has no `+Inf` bucket"));
        }
        let mut bounds = Vec::with_capacity(buckets.len() - 1);
        let mut counts = Vec::with_capacity(buckets.len());
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_count = 0u64;
        for (bound, count) in buckets {
            if bound == prev_bound {
                return Err(format!("histogram `{name}` has duplicate le `{bound}`"));
            }
            if count < prev_count {
                return Err(format!(
                    "histogram `{name}` bucket counts are not cumulative at le `{bound}`"
                ));
            }
            if bound != f64::INFINITY {
                bounds.push(bound);
            }
            counts.push(count - prev_count);
            prev_bound = bound;
            prev_count = count;
        }
        let sum_name = with_suffix(&name, "_sum");
        let sum = snapshot
            .samples
            .binary_search_by(|s| s.name.as_str().cmp(&sum_name))
            .map_or(0.0, |i| snapshot.samples[i].value);
        snapshot.histograms.push(HistogramSnapshot {
            name,
            bounds,
            counts,
            sum,
        });
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

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

    /// `snapshot` with every name in wire form, as [`parse`] reads it.
    fn wire(mut snapshot: MetricsSnapshot) -> MetricsSnapshot {
        for s in &mut snapshot.samples {
            s.name = metric_name(&s.name);
        }
        for h in &mut snapshot.histograms {
            h.name = metric_name(&h.name);
        }
        snapshot.normalize();
        snapshot
    }

    /// The registered series whose names start with `prefix`.
    fn captured(prefix: &str) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::capture();
        snapshot.samples.retain(|s| s.name.starts_with(prefix));
        snapshot.histograms.retain(|h| h.name.starts_with(prefix));
        snapshot
    }

    /// `n` label values drawn from the seed `label`. Value `i` holds the
    /// character a label block must escape (`"`, `\`, newline) or must
    /// not split on (`,`, `=`, `}`) numbered `i % 6`, among random ones.
    fn seeded_values(label: &str, n: usize) -> Vec<String> {
        const SPECIAL: [char; 6] = ['"', '\\', '\n', ',', '=', '}'];
        const ANY: [char; 10] = ['"', '\\', '\n', ',', '=', '}', '{', ' ', 'a', '/'];
        let mut rng = proptest::TestRng::deterministic(label);
        (0..n)
            .map(|i| {
                let mut value: Vec<char> = (0..rng.below(6))
                    .map(|_| ANY[rng.below(ANY.len() as u64) as usize])
                    .collect();
                let at = rng.below(value.len() as u64 + 1) as usize;
                value.insert(at, SPECIAL[i % SPECIAL.len()]);
                value.into_iter().collect()
            })
            .collect()
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
        assert_eq!(
            metric_name("serve.x{route=\"GET /v1.x\"}"),
            "qdi_serve_x{route=\"GET /v1.x\"}",
            "a label block passes through"
        );
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
        assert_eq!(parsed.samples.len(), original.samples.len());
        assert_eq!(parsed, wire(original));
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
        let values = seeded_values("labeled_samples_round_trip_through_parse", 12);
        for (i, pair) in values.chunks(2).enumerate() {
            let labels = [("tenant", pair[1].as_str()), ("route", pair[0].as_str())];
            metrics::counter(&metrics::series("obs.test.labeled.requests", &labels))
                .add(i as u64 + 1);
        }
        metrics::gauge(&metrics::series(
            "obs.test.labeled.depth",
            &[("queue", values[0].as_str())],
        ))
        .set(-7);
        let original = captured("obs.test.labeled.");
        assert_eq!(
            original.samples.len(),
            6 + 2,
            "six counters, a gauge and its max"
        );
        let text = render(&original);
        assert_eq!(
            text.matches("# TYPE qdi_obs_test_labeled_requests gauge\n")
                .count(),
            1,
            "one header per family"
        );
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, wire(original));
        // Each value comes back as it was registered, whatever it holds.
        let first = metrics::series(
            "obs.test.labeled.requests",
            &[("route", &values[0]), ("tenant", &values[1])],
        );
        assert_eq!(parsed.get(&metric_name(&first)), Some(1.0));
        let (_, labels) = parse_labels(&first).unwrap();
        let want = [("route", &values[0]), ("tenant", &values[1])];
        assert!(labels.iter().map(|(k, v)| (k.as_str(), v)).eq(want));
    }

    #[test]
    fn render_labeled_without_labels_matches_plain_form() {
        assert_eq!(metrics::series::<&str, &str>("a.x", &[]), "a.x");
        assert_eq!(render_labeled("a.x", 1.5), "qdi_a_x 1.5\n");
        let (base, labels) = parse_labels("qdi_a_x").unwrap();
        assert_eq!(base, "qdi_a_x");
        assert!(labels.is_empty());
    }

    #[test]
    fn parse_labels_rejects_malformed_blocks() {
        assert!(parse_labels("m{k=\"v\"").is_err(), "unbalanced braces");
        assert!(parse_labels("m{k}").is_err(), "no equals");
        assert!(parse_labels("m{a}b=\"c\"}").is_err(), "brace in a name");
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
    fn histograms_round_trip_through_parse() {
        let original = latency_snapshot();
        let parsed = parse(&render(&original)).unwrap();
        assert_eq!(parsed.histograms.len(), 1);
        let h = &parsed.histograms[0];
        assert_eq!(h.name, "qdi_serve_http_latency_ms");
        assert_eq!(h.bounds, original.histograms[0].bounds);
        assert_eq!(h.counts, original.histograms[0].counts);
        assert_eq!(h.count(), 41);
        assert!((h.sum - 220.5).abs() < 1e-9);
        assert_eq!(parsed, wire(original));

        // Labeled histograms registered through the registry, with
        // seeded label values and observations.
        let values = seeded_values("histograms_round_trip_through_parse", 12);
        let mut rng = proptest::TestRng::deterministic("observations");
        for pair in values.chunks(2) {
            let labels = [("route", pair[0].as_str()), ("tenant", pair[1].as_str())];
            let h = metrics::histogram(
                &metrics::series("obs.test.hist.latency.ms", &labels),
                &[1.0, 10.0, 100.0],
            );
            for _ in 0..rng.below(40) {
                h.observe(rng.unit_f64() * 200.0);
            }
        }
        let original = captured("obs.test.hist.");
        assert_eq!(original.histograms.len(), 6);
        let text = render(&original);
        assert_eq!(
            text.matches("# TYPE qdi_obs_test_hist_latency_ms histogram\n")
                .count(),
            1,
            "one header per family"
        );
        assert_eq!(parse(&text).unwrap(), wire(original));
    }

    #[test]
    fn labeled_histograms_group_by_their_label_sets() {
        let mut snapshot = MetricsSnapshot::default();
        for tenant in ["alice", "bob"] {
            snapshot.histograms.push(HistogramSnapshot {
                name: metrics::series(
                    "serve.http.latency.ms",
                    &[("route", "/v1/jobs"), ("tenant", tenant)],
                ),
                bounds: vec![10.0, 100.0],
                counts: vec![3, 1, if tenant == "bob" { 1 } else { 0 }],
                sum: 42.0,
            });
        }
        let parsed = parse(&render(&snapshot)).unwrap().histograms;
        assert_eq!(parsed.len(), 2);
        let label = |h: &HistogramSnapshot, key: &str| {
            let (_, labels) = parse_labels(&h.name).unwrap();
            labels.into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
        };
        for h in &parsed {
            assert_eq!(label(h, "route").as_deref(), Some("/v1/jobs"));
            assert!(label(h, "le").is_none(), "le is not an identity label");
        }
        let tenant = |name: &str| {
            parsed
                .iter()
                .find(|h| label(h, "tenant").as_deref() == Some(name))
                .unwrap()
        };
        let bob = tenant("bob");
        assert_eq!(bob.count(), 5);
        assert_eq!(bob.quantile(0.99), Some(f64::INFINITY), "overflow hit");
        let alice = tenant("alice");
        assert_eq!(alice.count(), 4);
        assert_eq!(alice.quantile(0.5), Some(10.0));
        assert_eq!(alice.quantile(0.99), Some(100.0));
    }

    #[test]
    fn quantiles_use_nearest_rank_on_cumulative_counts() {
        // Cumulative 50, 90, 99, 100.
        let h = HistogramSnapshot {
            name: "lat".into(),
            bounds: vec![1.0, 10.0, 100.0],
            counts: vec![50, 40, 9, 1],
            sum: 0.0,
        };
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.9), Some(10.0));
        assert_eq!(h.quantile(0.99), Some(100.0));
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(h.quantile(0.0), Some(1.0), "rank clamps to 1");
        let empty = HistogramSnapshot {
            name: "lat".into(),
            bounds: vec![1.0],
            counts: vec![0, 0],
            sum: 0.0,
        };
        assert_eq!(empty.quantile(0.99), None);
    }

    #[test]
    fn histogram_merge_requires_identical_layouts() {
        let mut a = HistogramSnapshot {
            name: "lat".into(),
            bounds: vec![1.0, 10.0],
            counts: vec![1, 1, 1],
            sum: 5.0,
        };
        let b = HistogramSnapshot {
            counts: vec![0, 1, 1],
            sum: 11.0,
            ..a.clone()
        };
        a.merge(&b).unwrap();
        assert_eq!(a.counts, vec![1, 2, 2]);
        assert_eq!(a.count(), 5);
        assert!((a.sum - 16.0).abs() < 1e-9);
        let other = HistogramSnapshot {
            bounds: vec![2.0, 10.0],
            ..b.clone()
        };
        assert!(a.merge(&other).is_err());
        // Scraped counts are untrusted: merging saturates.
        let mut full = HistogramSnapshot {
            counts: vec![u64::MAX, 1, 0],
            ..b.clone()
        };
        full.merge(&full.clone()).unwrap();
        assert_eq!(full.count(), u64::MAX);
    }

    #[test]
    fn parse_histograms_rejects_inconsistent_series() {
        // No +Inf bucket.
        let text = "qdi_l_bucket{le=\"1\"} 3\nqdi_l_sum 1\nqdi_l_count 3\n";
        assert!(parse(text).is_err());
        // Non-cumulative counts.
        let text = "qdi_l_bucket{le=\"1\"} 3\nqdi_l_bucket{le=\"+Inf\"} 2\n";
        assert!(parse(text).is_err());
        // Duplicate le.
        let text =
            "qdi_l_bucket{le=\"1\"} 1\nqdi_l_bucket{le=\"1\"} 1\nqdi_l_bucket{le=\"+Inf\"} 2\n";
        assert!(parse(text).is_err());
        // Non-finite bounds other than `+Inf`: classified, never a panic
        // in the bucket sort.
        for le in ["NaN", "nan", "-Inf", "inf", "Infinity"] {
            let text = format!("qdi_l_bucket{{le=\"{le}\"}} 1\nqdi_l_bucket{{le=\"+Inf\"}} 2\n");
            let err = parse(&text).expect_err(le);
            assert!(err.contains(le), "{err}");
        }
        // A bare counter that merely ends in _count is not a histogram.
        let text = "qdi_requests_count 9\n";
        let parsed = parse(text).unwrap();
        assert!(parsed.histograms.is_empty());
        assert_eq!(parsed.get("qdi_requests_count"), Some(9.0));
    }

    #[test]
    fn parse_handles_specials_and_rejects_garbage() {
        let parsed = parse("# c\nqdi_a +Inf\nqdi_b -Inf\n\nqdi_c 2e3\n")
            .unwrap()
            .samples;
        assert_eq!(parsed[0].value, f64::INFINITY);
        assert_eq!(parsed[1].value, f64::NEG_INFINITY);
        assert_eq!(parsed[2].value, 2000.0);
        assert!(parse("qdi_a\n").is_err());
        assert!(parse("qdi_a 1 2\n").is_err());
        assert!(parse("qdi_a nope\n").is_err());
    }
}
