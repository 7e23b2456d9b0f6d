//! End-to-end tests of the `qdi-mon` binary: exit-code discipline and
//! output shapes for every subcommand.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output};

use qdi_obs::metrics::{HistogramSnapshot, MetricSample, MetricsSnapshot};
use qdi_obs::prof::{PoolRun, WorkerLane};
use qdi_obs::progress::{ProgressSnapshot, TaskSnapshot};
use qdi_obs::span::{SpanEvent, SpanLink, SpanRecord, LINK_RESUME};
use qdi_obs::Record;

const TRACE_ID: &str = "4bf92f3577b34da6a3ce929d0e0e4736";

fn qdi_mon(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qdi-mon"))
        .args(args)
        .env_remove("QDI_LOG")
        .output()
        .expect("qdi-mon runs")
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("exit code")
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

fn span_record(
    span_id: &str,
    parent_id: Option<&str>,
    service: &str,
    name: &str,
    start_unix_us: u64,
    dur_us: u64,
) -> SpanRecord {
    SpanRecord {
        trace_id: TRACE_ID.into(),
        span_id: span_id.into(),
        parent_id: parent_id.map(str::to_owned),
        links: Vec::new(),
        service: service.into(),
        name: name.into(),
        start_unix_us,
        dur_us,
        attrs: Vec::new(),
        events: Vec::new(),
        thread: Some(0),
        rollup: None,
    }
}

/// Writes a run record: one JSON record per line.
fn write_run(path: &PathBuf, records: &[Record]) {
    let jsonl: String = records
        .iter()
        .map(|r| qdi_obs::json::to_json(r) + "\n")
        .collect();
    std::fs::write(path, jsonl).unwrap();
}

fn write_spans(path: &PathBuf, records: &[SpanRecord]) {
    let records: Vec<Record> = records.iter().cloned().map(Record::Span).collect();
    write_run(path, &records);
}

fn metrics_record(samples: Vec<MetricSample>, histograms: Vec<HistogramSnapshot>) -> Record {
    Record::Metrics {
        ts_us: 1_000,
        snapshot: MetricsSnapshot {
            samples,
            histograms,
        },
    }
}

fn write_progress(path: &PathBuf, completed: u64, done: bool) {
    let snap = ProgressSnapshot {
        ts_us: 1_000_000,
        tasks: vec![TaskSnapshot {
            name: "dpa.campaign".into(),
            completed,
            total: 100,
            elapsed_s: 1.0,
            rate: completed as f64,
            ewma_rate: completed as f64,
            eta_s: if done { 0.0 } else { 2.0 },
            done,
        }],
        pool: vec![MetricSample {
            name: "exec.pool.workers".into(),
            value: 4.0,
        }],
    };
    snap.save(path).unwrap();
}

#[test]
fn no_args_is_usage_error() {
    let out = qdi_mon(&[]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_command_is_usage_error() {
    assert_eq!(code(&qdi_mon(&["frobnicate"])), 2);
}

#[test]
fn watch_once_renders_a_frame() {
    let path = temp("qdi_mon_cli_watch.json");
    write_progress(&path, 25, false);
    let out = qdi_mon(&["watch", "--once", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dpa.campaign"));
    assert!(stdout.contains("25/100"));
    assert!(stdout.contains("eta"));
    assert!(stdout.contains("exec.pool.workers"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn watch_exits_when_all_tasks_done() {
    let path = temp("qdi_mon_cli_watch_done.json");
    write_progress(&path, 100, true);
    let out = qdi_mon(&["watch", "--interval-ms", "10", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "watch returns once every task is done");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn watch_survives_a_hostile_content_length() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let url = format!("http://{}", listener.local_addr().expect("addr"));
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accepts");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut line = String::new();
        while reader.read_line(&mut line).expect("reads") > 2 {
            line.clear();
        }
        let mut stream = stream;
        stream
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nok")
            .expect("writes");
    });
    let out = qdi_mon(&["watch", "--once", &url]);
    server.join().expect("fake server");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "a 2-byte body for a 1 TiB claim: {stderr}");
    assert!(stderr.contains("watch:"), "{stderr}");
}

#[test]
fn watch_missing_file_is_load_error() {
    assert_eq!(
        code(&qdi_mon(&["watch", "--once", "/nonexistent/p.json"])),
        2
    );
}

#[test]
fn report_builds_html_from_jsonl() {
    let dir = std::env::temp_dir();
    let run = dir.join("qdi_mon_cli_run.run.jsonl");
    write_spans(
        &run,
        &[span_record(
            "00000000000000a1",
            None,
            "qdi_core::flow",
            "campaign",
            0,
            2_000,
        )],
    );
    let out_html = dir.join("qdi_mon_cli_run.report.html");
    let out = qdi_mon(&[
        "report",
        "--out",
        out_html.to_str().unwrap(),
        "--title",
        "cli test",
        run.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let html = std::fs::read_to_string(&out_html).unwrap();
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("cli test"));
    assert!(html.contains("campaign"));
    let _ = std::fs::remove_file(&run);
    let _ = std::fs::remove_file(&out_html);
}

#[test]
fn report_missing_telemetry_is_load_error() {
    assert_eq!(code(&qdi_mon(&["report", "/nonexistent/t.jsonl"])), 2);
}

#[test]
fn export_round_trips_through_prometheus_text() {
    let path = temp("qdi_mon_cli_metrics.run.jsonl");
    let samples = |traces: f64| {
        vec![
            MetricSample {
                name: "dpa.traces".into(),
                value: traces,
            },
            MetricSample {
                name: "sim.queue.max".into(),
                value: 42.0,
            },
        ]
    };
    // The last Metrics record is the run's final reading.
    write_run(
        &path,
        &[
            metrics_record(samples(5.0), Vec::new()),
            metrics_record(samples(10_000.0), Vec::new()),
        ],
    );
    let out = qdi_mon(&["export", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# TYPE qdi_dpa_traces gauge"));
    let parsed = qdi_obs::prometheus::parse(&text).unwrap();
    assert_eq!(parsed.len(), 2);
    assert_eq!(parsed[0].name, "qdi_dpa_traces");
    assert_eq!(parsed[0].value, 10_000.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn export_rejects_non_snapshot_json() {
    let path = temp("qdi_mon_cli_not_metrics.run.jsonl");
    std::fs::write(&path, "[1,2,3]").unwrap();
    assert_eq!(code(&qdi_mon(&["export", path.to_str().unwrap()])), 2);
    // A well-formed Metrics record whose histogram the exposition cannot
    // render: a bucket total past u64, unsorted bounds, and more than
    // one overflow bucket.
    for (bounds, counts) in [
        ("[1.0, 2.0]", "[18446744073709551615, 1, 0]"),
        ("[10.0, 1.0]", "[1, 1, 1]"),
        ("[1.0]", "[1, 2, 3]"),
    ] {
        std::fs::write(
            &path,
            format!(
                r#"{{"Metrics":{{"ts_us":1,"snapshot":{{"samples":[],"histograms":[{{"name":"h","bounds":{bounds},"counts":{counts},"sum":1.0}}]}}}}}}"#
            ),
        )
        .unwrap();
        let out = qdi_mon(&["export", path.to_str().unwrap()]);
        assert_eq!(code(&out), 2, "bounds {bounds} counts {counts}");
        assert!(out.stdout.is_empty(), "bounds {bounds}: nothing rendered");
    }
    let _ = std::fs::remove_file(&path);
}

/// A run record cut inside a multi-byte character (a `kill -9` mid
/// write) still renders through every view; the report counts the
/// skipped line.
#[test]
fn every_view_reads_a_run_record_with_a_torn_multibyte_tail() {
    let path = temp("qdi_mon_cli_torn.run.jsonl");
    let healthy = PoolRun {
        jobs: 100,
        workers: 2,
        wall_us: 1_000,
        steals: 2,
        lanes: vec![lane(0, 50, 0, 900, 10, 90), lane(1, 50, 2, 880, 20, 100)],
    };
    write_run(
        &path,
        &[
            Record::Span(span_record(
                "00000000000000a1",
                None,
                "qdi_core::flow",
                "campaign",
                1_000,
                2_000,
            )),
            Record::PoolRun {
                ts_us: 1_500,
                run: healthy,
            },
            metrics_record(
                vec![MetricSample {
                    name: "dpa.traces".into(),
                    value: 512.0,
                }],
                Vec::new(),
            ),
        ],
    );
    let mut bytes = std::fs::read(&path).unwrap();
    let torn = r#"{"Event":{"level":"Info","target":"t","message":"1 µ"#;
    bytes.extend_from_slice(&torn.as_bytes()[..torn.len() - 1]);
    assert!(std::str::from_utf8(&bytes).is_err(), "cut inside `µ`");
    std::fs::write(&path, &bytes).unwrap();
    let run = path.to_str().unwrap();

    let html = temp("qdi_mon_cli_torn.report.html");
    let out = qdi_mon(&["report", "--out", html.to_str().unwrap(), run]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let page = std::fs::read_to_string(&html).unwrap();
    assert!(
        page.contains("<tr><th>skipped lines</th><td>1</td></tr>"),
        "{page}"
    );
    let out = qdi_mon(&["export", run]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("# TYPE qdi_dpa_traces"));
    let out = qdi_mon(&["analyze", run]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stdout));
    let svg = temp("qdi_mon_cli_torn.svg");
    let out = qdi_mon(&["trace", "--out", svg.to_str().unwrap(), TRACE_ID, run]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    for f in [&path, &html, &svg] {
        let _ = std::fs::remove_file(f);
    }
}

// ---------------------------------------------------------------------------
// analyze / flame / timeline
// ---------------------------------------------------------------------------

fn lane(worker: usize, jobs: u64, steals: u64, busy: u64, wait: u64, idle: u64) -> WorkerLane {
    WorkerLane {
        worker,
        jobs,
        steals,
        busy_us: busy,
        queue_wait_us: wait,
        idle_us: idle,
        segments: vec![],
        segments_truncated: false,
    }
}

/// A run record holding one pool run shaped like the committed
/// baseline workload: small jobs whose dispatch overhead exceeds half
/// their mean duration (55 µs mean vs 70 µs overhead), so `analyze`
/// must name per-job overhead as a concrete cause of the < 1.0 speedup.
fn write_overhead_dominated_run(path: &PathBuf) {
    write_run(
        path,
        &[Record::PoolRun {
            ts_us: 1_000,
            run: PoolRun {
                jobs: 100,
                workers: 2,
                wall_us: 6250,
                steals: 1,
                lanes: vec![
                    lane(0, 50, 0, 2750, 100, 3400),
                    lane(1, 50, 1, 2750, 100, 3400),
                ],
            },
        }],
    );
}

#[test]
fn analyze_names_per_job_overhead_on_the_baseline_workload() {
    let path = temp("qdi_mon_cli_analyze.run.jsonl");
    write_overhead_dominated_run(&path);
    let out = qdi_mon(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "findings exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parallel efficiency"), "{stdout}");
    assert!(stdout.contains("idle fraction"), "{stdout}");
    assert!(stdout.contains("steal rate"), "{stdout}");
    assert!(stdout.contains("per-job overhead"), "{stdout}");
    assert!(
        stdout.contains("jobs are 55 µs mean but per-job overhead is 70 µs: batch work items"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_json_emits_the_analysis_structure() {
    let path = temp("qdi_mon_cli_analyze_json.run.jsonl");
    write_overhead_dominated_run(&path);
    let out = qdi_mon(&["analyze", "--json", path.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = serde_json::parse_value_str(&stdout).expect("valid JSON");
    let findings = value.get("findings").expect("findings array");
    assert!(findings.as_seq().is_some_and(|a| !a.is_empty()));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_rejects_garbage_with_usage_exit() {
    let path = temp("qdi_mon_cli_analyze_garbage.run.jsonl");
    std::fs::write(&path, "not json").unwrap();
    assert_eq!(code(&qdi_mon(&["analyze", path.to_str().unwrap()])), 2);
    let _ = std::fs::remove_file(&path);
}

/// The full loop on a real run record: run an instrumented pool bag
/// with the profile and the run record installed, and drive all three
/// profile subcommands on the file.
#[test]
fn analyze_and_renderers_work_on_a_recorded_profile() {
    let path = temp("qdi_mon_cli_recorded.run.jsonl");
    let _ = std::fs::remove_file(&path);
    qdi_obs::prof::reset();
    qdi_obs::prof::install();
    qdi_obs::span::set_file(&path);
    let _ = qdi_exec::run_indexed(&qdi_exec::ExecConfig::with_workers(2), 64, |i| {
        // A busy-loop so lanes carry measurable time.
        let mut acc = i as u64;
        for k in 0..2_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        acc
    });
    let live = qdi_obs::prof::report();
    qdi_obs::span::close_file();
    qdi_obs::prof::uninstall();
    assert!(!live.pool_runs.is_empty(), "pool run recorded");

    let out = qdi_mon(&["analyze", path.to_str().unwrap()]);
    assert!(
        [0, 1].contains(&code(&out)),
        "analyze succeeds on real data: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("pool runs judged"));

    let flame = temp("qdi_mon_cli_recorded.flame.svg");
    let out = qdi_mon(&[
        "flame",
        "--out",
        flame.to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let svg = std::fs::read_to_string(&flame).unwrap();
    assert!(svg.starts_with("<svg"), "flamegraph is an SVG document");
    assert!(svg.contains("exec.pool.job"), "job frames rendered");

    let lanes = temp("qdi_mon_cli_recorded.timeline.svg");
    let out = qdi_mon(&[
        "timeline",
        "--out",
        lanes.to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let svg = std::fs::read_to_string(&lanes).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("pool run"), "run header rendered");

    for f in [&path, &flame, &lanes] {
        let _ = std::fs::remove_file(f);
    }
    qdi_obs::prof::reset();
}

#[test]
fn flame_derives_output_path_from_profile_name() {
    let path = temp("qdi_mon_cli_derive.run.jsonl");
    write_overhead_dominated_run(&path);
    let out = qdi_mon(&["flame", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let derived = temp("qdi_mon_cli_derive.flame.svg");
    assert!(derived.exists(), "foo.run.jsonl -> foo.flame.svg");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&derived);
}

#[test]
fn trace_renders_a_waterfall_and_honors_exit_codes() {
    let spans = temp("qdi_mon_cli_spans.jsonl");
    let trace_id = TRACE_ID;
    let mut lease = span_record(
        "00000000000000b2",
        Some("00000000000000a1"),
        "qdi-serve",
        "lease",
        3_000,
        4_000,
    );
    lease.links.push(SpanLink {
        trace_id: trace_id.into(),
        span_id: "00000000000000ff".into(),
        kind: LINK_RESUME.into(),
    });
    write_spans(
        &spans,
        &[
            span_record(
                "00000000000000a1",
                None,
                "qdi-client",
                "submit",
                1_000,
                9_000,
            ),
            lease,
        ],
    );

    let svg_path = temp("qdi_mon_cli_trace.svg");
    let out = qdi_mon(&[
        "trace",
        "--out",
        svg_path.to_str().unwrap(),
        trace_id,
        spans.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("qdi-client") && svg.contains("qdi-serve"));
    assert!(svg.contains("stroke-dasharray"), "resume link rendered");

    // A parseable file without the trace is a data failure (1)...
    let missing = qdi_mon(&[
        "trace",
        "--out",
        svg_path.to_str().unwrap(),
        "000000000000000000000000deadbeef",
        spans.to_str().unwrap(),
    ]);
    assert_eq!(code(&missing), 1);
    // ...an unreadable file a usage/input error (2)...
    let unreadable = qdi_mon(&["trace", trace_id, "/nonexistent/spans.jsonl"]);
    assert_eq!(code(&unreadable), 2);
    // ...and no operands is usage (2).
    assert_eq!(code(&qdi_mon(&["trace", trace_id])), 2);

    let _ = std::fs::remove_file(&spans);
    let _ = std::fs::remove_file(&svg_path);
}

/// A hostile span file: a duration that overflows the end time and an
/// event inside that span. The waterfall saturates instead of panicking.
#[test]
fn trace_survives_a_span_whose_end_overflows() {
    let spans = temp("qdi_mon_cli_overflow_spans.jsonl");
    let mut hostile = span_record(
        "00000000000000a1",
        None,
        "qdi-serve",
        "lease",
        5_000,
        u64::MAX,
    );
    hostile.events.push(SpanEvent {
        ts_us: 6_000,
        name: "chunk".into(),
        attrs: Vec::new(),
    });
    write_spans(&spans, &[hostile]);
    let svg_path = temp("qdi_mon_cli_overflow.svg");
    let out = qdi_mon(&[
        "trace",
        "--out",
        svg_path.to_str().unwrap(),
        TRACE_ID,
        spans.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(std::fs::read_to_string(&svg_path)
        .unwrap()
        .starts_with("<svg"));
    let _ = std::fs::remove_file(&spans);
    let _ = std::fs::remove_file(&svg_path);
}

#[test]
fn slo_verdicts_follow_the_exit_code_discipline() {
    let metrics = temp("qdi_mon_cli_slo.prom");
    let mut exposition = String::new();
    qdi_obs::prometheus::render_histogram_samples(
        &mut exposition,
        qdi_obs::slo::ROUTE_LATENCY_MS,
        &[("route", "POST /v1/jobs"), ("tenant", "ci")],
        &[5.0, 50.0],
        &[8, 2, 0],
        120.0,
    );
    exposition.push_str(&qdi_obs::prometheus::render_labeled(
        qdi_obs::slo::ROUTE_REQUESTS,
        &[("route", "POST /v1/jobs"), ("tenant", "ci")],
        10.0,
    ));
    std::fs::write(&metrics, &exposition).unwrap();

    let passing = temp("qdi_mon_cli_slo_pass.json");
    std::fs::write(
        &passing,
        r#"{"slos":[{"name":"submit","route":"POST /v1/jobs","availability":0.9,"p99_ms":100000.0}]}"#,
    )
    .unwrap();
    let out = qdi_mon(&[
        "slo",
        "--config",
        passing.to_str().unwrap(),
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // p99 above target: breach -> exit 1.
    let breached = temp("qdi_mon_cli_slo_breach.json");
    std::fs::write(
        &breached,
        r#"{"slos":[{"name":"submit","route":"POST /v1/jobs","p99_ms":1.0}]}"#,
    )
    .unwrap();
    let out = qdi_mon(&[
        "slo",
        "--config",
        breached.to_str().unwrap(),
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("BREACH"));

    // Malformed config -> usage error 2.
    let bad = temp("qdi_mon_cli_slo_bad.json");
    std::fs::write(&bad, "{\"slos\":[]}").unwrap();
    let out = qdi_mon(&[
        "slo",
        "--config",
        bad.to_str().unwrap(),
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2);
    // Missing --config -> usage error 2.
    assert_eq!(code(&qdi_mon(&["slo", metrics.to_str().unwrap()])), 2);

    for f in [&metrics, &passing, &breached, &bad] {
        let _ = std::fs::remove_file(f);
    }
}
