//! Seeded corruption fuzz of the two formats `qdi-mon` reads from disk:
//! the run record behind `report`, `export`, `analyze`, `flame`,
//! `timeline` and `trace`, and the Prometheus exposition behind `slo`.
//! Whatever a lying disk serves, each case must yield records or a
//! classified error, never a panic.

use std::path::{Path, PathBuf};
use std::process::Command;

use qdi_exec::chaos::Corruption;
use qdi_exec::job_rng;
use qdi_mon::{analyze, flame, report, waterfall};
use qdi_obs::metrics::{HistogramSnapshot, MetricSample, MetricsSnapshot};
use qdi_obs::prof::{PoolRun, ProfReport, Segment, WorkerLane};
use qdi_obs::prometheus::{render_histogram_samples, render_labeled};
use qdi_obs::slo::{self, SloConfig, ROUTE_ERRORS, ROUTE_LATENCY_MS, ROUTE_REQUESTS};
use qdi_obs::span::{Records, Rollup, SpanEvent, SpanLink, SpanRecord, LINK_RESUME};
use qdi_obs::{FieldValue, Level, Record};

const SEED: u64 = 0x5EED_F022;
const CASES: u64 = 200;
/// Every this many cases also runs the `qdi-mon` binary on the input.
const CLI_EVERY: u64 = 25;
const TRACE_ID: &str = "4bf92f3577b34da6a3ce929d0e0e4736";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qdi_mon_fuzz_{}_{name}", std::process::id()))
}

fn span(id: &str, parent: Option<&str>, name: &str, start: u64, dur: u64) -> SpanRecord {
    SpanRecord {
        trace_id: TRACE_ID.into(),
        span_id: id.into(),
        parent_id: parent.map(str::to_owned),
        links: Vec::new(),
        service: "qdi-serve".into(),
        name: name.into(),
        start_unix_us: start,
        dur_us: dur,
        attrs: vec![
            ("tenant".into(), "ci".into()),
            ("traces".into(), "256".into()),
        ],
        events: Vec::new(),
        thread: Some(1),
        rollup: None,
    }
}

fn rolled(id: &str, parent: &str, name: &str, count: u64, self_ns: u64) -> SpanRecord {
    let mut record = span(id, Some(parent), name, 3_100, 3_800);
    record.rollup = Some(Rollup {
        count,
        total_ns: 3_000_000,
        self_ns,
        min_ns: 9_000,
        max_ns: 40_000,
    });
    record
}

/// A run record with all four kinds: spans with roll-ups, events and
/// links; a leveled event; a pool run; metrics with a histogram.
fn run_record() -> Vec<Record> {
    let mut lease = span(
        "00000000000000b2",
        Some("00000000000000a1"),
        "lease",
        3_000,
        4_000,
    );
    lease.events.push(SpanEvent {
        ts_us: 3_500,
        name: "chunk".into(),
        attrs: vec![("completed".into(), "64".into())],
    });
    lease.links.push(SpanLink {
        trace_id: TRACE_ID.into(),
        span_id: "00000000000000ff".into(),
        kind: LINK_RESUME.into(),
    });
    let lane = |worker: usize| WorkerLane {
        worker,
        jobs: 32,
        steals: 1,
        busy_us: 2_750,
        queue_wait_us: 100,
        idle_us: 3_400,
        segments: vec![Segment {
            start_us: 10,
            end_us: 2_760,
            first_job: 0,
            jobs: 32,
        }],
        segments_truncated: false,
    };
    vec![
        Record::Span(rolled(
            "00000000000000c3",
            "00000000000000b2",
            "dpa.acquire",
            256,
            1_000_000,
        )),
        Record::Span(rolled(
            "00000000000000c4",
            "00000000000000c3",
            "sim.run",
            128,
            2_000_000,
        )),
        Record::Span(lease),
        Record::Event {
            level: Level::Warn,
            target: "qdi_pnr::criterion".into(),
            message: "criterion alert".into(),
            fields: vec![("d_a".into(), FieldValue::Float(0.21))],
            span: Some(0xb2),
            depth: 1,
            ts_us: 3_600,
            thread: 1,
        },
        Record::Span(span(
            "00000000000000a1",
            None,
            "POST /v1/jobs",
            1_000,
            9_000,
        )),
        Record::PoolRun {
            ts_us: 3_000,
            run: PoolRun {
                jobs: 64,
                workers: 2,
                wall_us: 6_250,
                steals: 2,
                lanes: vec![lane(0), lane(1)],
            },
        },
        Record::Metrics {
            ts_us: 9_000,
            snapshot: MetricsSnapshot {
                samples: vec![MetricSample {
                    name: "dpa.traces".into(),
                    value: 256.0,
                }],
                histograms: vec![HistogramSnapshot {
                    name: "dpa.guess_ranking_ms".into(),
                    bounds: vec![1.0, 10.0, 100.0],
                    counts: vec![3, 2, 1, 0],
                    sum: 42.0,
                }],
            },
        },
    ]
}

/// Objectives over every route and tenant: both kinds of target, so
/// both the counters and the latency histograms are read.
const SLO_CONFIG: &str = r#"{"slos":[{"name":"all","availability":0.99,"p99_ms":100}]}"#;

/// A `/metrics` scrape of two tenants' request, error and latency series.
fn exposition() -> Vec<u8> {
    let mut text = String::new();
    for (tenant, requests, errors) in [("alice", 60u64, 1u64), ("bob", 40, 0)] {
        let labels = [("route", "/v1/jobs"), ("tenant", tenant)];
        text.push_str(&render_labeled(ROUTE_REQUESTS, &labels, requests as f64));
        text.push_str(&render_labeled(
            ROUTE_ERRORS,
            &[labels[0], labels[1], ("class", "server")],
            errors as f64,
        ));
        render_histogram_samples(
            &mut text,
            ROUTE_LATENCY_MS,
            &labels,
            &[1.0, 10.0, 100.0],
            &[requests / 2, requests / 2 - 1, 1, 0],
            42.0,
        );
    }
    text.into_bytes()
}

/// Exit status of the real binary; a panic would exit 101.
fn cli_status(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_qdi-mon"))
        .args(args)
        .env_remove("QDI_LOG")
        .output()
        .expect("qdi-mon runs");
    out.status.code().expect("exit code")
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf8 temp path")
}

/// Writes `CASES` seeded corruptions of the golden run record to a
/// scratch file and hands each case, the file and what the one reader
/// made of it to `check`.
fn fuzz_run_record(name: &str, seed: u64, mut check: impl FnMut(u64, &Path, Records)) {
    let written = run_record();
    let golden: Vec<u8> = written
        .iter()
        .map(|r| qdi_obs::json::to_json(r) + "\n")
        .collect::<String>()
        .into_bytes();
    let victim = tmp(&format!("{name}.run.jsonl"));
    std::fs::write(&victim, &golden).expect("write golden run record");
    let pristine = qdi_obs::span::read_records(&victim).expect("golden run record reads");
    assert_eq!(pristine.records, written, "the golden file round-trips");

    let mut rng = job_rng(seed, 0);
    for case in 0..CASES {
        let mut bytes = golden.clone();
        Corruption::sample(&mut rng, bytes.len() as u64).apply(&mut bytes);
        std::fs::write(&victim, &bytes).expect("write corrupted run record");
        let read = qdi_obs::span::read_records(&victim).expect("the file itself is readable");
        assert!(
            read.records.len() <= written.len(),
            "case {case}: more records than written"
        );
        check(case, &victim, read);
    }
    std::fs::remove_file(&victim).ok();
}

/// Runs the binary on `args` and checks its exit status is allowed.
fn cli_allows(case: u64, args: &[&str], allowed: &[i32]) {
    let status = cli_status(args);
    assert!(
        allowed.contains(&status),
        "case {case}: qdi-mon {} exited {status}",
        args[0]
    );
}

#[test]
fn corrupted_span_files_render_or_classify() {
    let out = tmp("spans.out");
    let mut exported = 0;
    fuzz_run_record("spans", SEED, |case, victim, read| {
        report::build(victim, 10, "fuzz").expect("a readable run record always renders");
        if report::exposition(&read.records).is_ok() {
            exported += 1;
        }
        let spans: Vec<SpanRecord> = read
            .records
            .into_iter()
            .filter_map(|r| match r {
                Record::Span(span) => Some(span),
                _ => None,
            })
            .collect();
        let mut traces: Vec<&str> = spans.iter().map(|r| r.trace_id.as_str()).collect();
        traces.dedup();
        for trace in traces {
            // Ok or a classified "no spans" error; a panic fails the test.
            let _ = waterfall::render(&spans, trace, "fuzz");
        }
        if case % CLI_EVERY == 0 {
            let (run, out) = (path_str(victim), path_str(&out));
            cli_allows(case, &["report", "--out", out, run], &[0]);
            cli_allows(case, &["export", run], &[0, 2]);
            cli_allows(case, &["trace", "--out", out, TRACE_ID, run], &[0, 1]);
        }
    });
    assert!(
        exported > 0,
        "some corruptions (e.g. a torn span line) still export"
    );
    std::fs::remove_file(&out).ok();
}

#[test]
fn corrupted_profiles_load_render_or_classify() {
    let svg = tmp("profile.svg");
    let mut loaded = 0;
    fuzz_run_record("profile", SEED ^ 0x0000_9F0F, |case, victim, read| {
        let profile = ProfReport::from_records(&read.records);
        if !profile.pool_runs.is_empty() {
            loaded += 1;
        }
        let _ = analyze::analyze(&profile, 10).render();
        let _ = flame::flamegraph_svg(&profile.regions, "fuzz");
        let _ = flame::timeline_svg(&profile.pool_runs, "fuzz");
        if case % CLI_EVERY == 0 {
            let (run, svg) = (path_str(victim), path_str(&svg));
            cli_allows(case, &["analyze", run], &[0, 1, 2]);
            cli_allows(case, &["flame", "--out", svg, run], &[0, 2]);
            cli_allows(case, &["timeline", "--out", svg, run], &[0, 2]);
        }
    });
    assert!(
        loaded > 0,
        "some corruptions (e.g. a flipped span digit) still rebuild the pool run"
    );
    std::fs::remove_file(&svg).ok();
}

#[test]
fn corrupted_expositions_evaluate_or_classify() {
    let cfg = SloConfig::from_json(SLO_CONFIG).expect("valid config");
    let golden = exposition();
    let report = slo::evaluate(&cfg, std::str::from_utf8(&golden).expect("utf8"))
        .expect("the golden exposition evaluates");
    assert_eq!(report.verdicts[0].requests, 100);
    let config = tmp("slo.json");
    std::fs::write(&config, SLO_CONFIG).expect("write slo config");
    let victim = tmp("fuzz.prom");

    // Pinned: a NaN bucket bound next to the `+Inf` bucket is a
    // classified error (exit 2), not a panic in the bucket sort.
    let text = String::from_utf8(golden.clone()).expect("utf8");
    let nan = text.replacen("le=\"10\"", "le=\"NaN\"", 1);
    assert_ne!(nan, text, "the golden exposition has an le=\"10\" bucket");
    let err = slo::evaluate(&cfg, &nan).expect_err("NaN bound");
    assert!(err.contains("NaN"), "{err}");
    std::fs::write(&victim, &nan).expect("write NaN exposition");
    let status = cli_status(&["slo", "--config", path_str(&config), path_str(&victim)]);
    assert_eq!(status, 2, "qdi-mon slo on a NaN bucket bound");

    let mut rng = job_rng(SEED ^ 0x0000_510E, 0);
    let mut evaluated = 0;
    for case in 0..CASES {
        let mut bytes = golden.clone();
        Corruption::sample(&mut rng, bytes.len() as u64).apply(&mut bytes);
        std::fs::write(&victim, &bytes).expect("write corrupted exposition");

        // Ok or a classified error; a panic fails the test.
        if slo::evaluate(&cfg, &String::from_utf8_lossy(&bytes)).is_ok() {
            evaluated += 1;
        }
        if case % CLI_EVERY == 0 {
            let status = cli_status(&["slo", "--config", path_str(&config), path_str(&victim)]);
            assert!(
                [0, 1, 2].contains(&status),
                "case {case}: qdi-mon slo exited {status}"
            );
        }
    }
    assert!(
        evaluated > 0,
        "some corruptions (e.g. a truncated tail) still evaluate"
    );
    std::fs::remove_file(&victim).ok();
    std::fs::remove_file(&config).ok();
}

#[test]
fn hostile_sample_values_evaluate_or_classify() {
    // Every sample's value replaced by each hostile number: counts past
    // `u64::MAX` (which then sum across tenants), negative and
    // non-finite values must evaluate or classify, never overflow.
    let cfg = SloConfig::from_json(SLO_CONFIG).expect("valid config");
    let golden = String::from_utf8(exposition()).expect("utf8");
    let lines: Vec<&str> = golden.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let (series, _) = line.rsplit_once(' ').expect("`series value` line");
        for value in ["1e30", "18446744073709551615", "-1", "NaN", "+Inf", "-Inf"] {
            let mut mutated: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
            mutated[i] = format!("{series} {value}");
            let _ = slo::evaluate(&cfg, &mutated.join("\n"));
        }
    }
}
