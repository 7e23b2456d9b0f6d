//! Seeded corruption fuzz of the three formats `qdi-mon` reads from disk:
//! the span JSONL behind `qdi-mon trace`, the `.qprof` profile behind
//! `analyze` / `flame` / `timeline`, and the Prometheus exposition behind
//! `slo`. Whatever a lying disk serves, each case must yield records or a
//! classified error, never a panic.

use std::path::{Path, PathBuf};
use std::process::Command;

use qdi_exec::chaos::Corruption;
use qdi_exec::job_rng;
use qdi_mon::{analyze, flame, waterfall};
use qdi_obs::prof::{PoolRun, ProfReport, RegionProfile, RegionStat, Segment, WorkerLane};
use qdi_obs::prometheus::{render_histogram_samples, render_labeled};
use qdi_obs::slo::{self, SloConfig, ROUTE_ERRORS, ROUTE_LATENCY_MS, ROUTE_REQUESTS};
use qdi_obs::span::{Rollup, SpanEvent, SpanLink, SpanRecord, LINK_RESUME};

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

fn span_file() -> Vec<u8> {
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
    let mut acquire = span(
        "00000000000000c3",
        Some("00000000000000b2"),
        "dpa.acquire",
        3_100,
        3_800,
    );
    acquire.rollup = Some(Rollup {
        count: 256,
        total_ns: 3_000_000,
        self_ns: 1_000_000,
        min_ns: 9_000,
        max_ns: 40_000,
    });
    let records = [
        span("00000000000000a1", None, "POST /v1/jobs", 1_000, 9_000),
        lease,
        acquire,
    ];
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("serializes") + "\n")
        .collect::<String>()
        .into_bytes()
}

fn profile() -> Vec<u8> {
    let stat = |path: &str, total_ns: u64, self_ns: u64| RegionStat {
        path: path.into(),
        name: path.rsplit(';').next().unwrap_or(path).into(),
        depth: path.matches(';').count(),
        count: 64,
        total_ns,
        self_ns,
        min_ns: 1_000,
        max_ns: 90_000,
    };
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
    let report = ProfReport {
        version: qdi_obs::prof::QPROF_VERSION,
        captured_us: 42,
        regions: RegionProfile {
            regions: vec![
                stat("exec.pool.run", 6_000_000, 500_000),
                stat("exec.pool.run;exec.pool.job", 5_500_000, 100_000),
                stat(
                    "exec.pool.run;exec.pool.job;dpa.acquire",
                    5_400_000,
                    5_400_000,
                ),
            ],
        },
        pool_runs: vec![PoolRun {
            jobs: 64,
            workers: 2,
            wall_us: 6_250,
            steals: 2,
            lanes: vec![lane(0), lane(1)],
        }],
        dropped_pool_runs: 0,
    };
    serde_json::to_string_pretty(&report)
        .expect("serializes")
        .into_bytes()
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

#[test]
fn corrupted_span_files_render_or_classify() {
    let golden = span_file();
    let victim = tmp("spans.jsonl");
    let svg = tmp("spans.svg");
    let mut rng = job_rng(SEED, 0);
    for case in 0..CASES {
        let mut bytes = golden.clone();
        Corruption::sample(&mut rng, bytes.len() as u64).apply(&mut bytes);
        std::fs::write(&victim, &bytes).expect("write corrupted spans");

        let records = qdi_obs::span::read_spans(&victim).expect("the file itself is readable");
        assert!(records.len() <= 3, "case {case}: more records than written");
        let mut traces: Vec<&str> = records.iter().map(|r| r.trace_id.as_str()).collect();
        traces.dedup();
        for trace in traces {
            // Ok or a classified "no spans" error; a panic fails the test.
            let _ = waterfall::render(&records, trace, "fuzz");
        }
        if case % CLI_EVERY == 0 {
            let status = cli_status(&[
                "trace",
                "--out",
                path_str(&svg),
                TRACE_ID,
                path_str(&victim),
            ]);
            assert!(
                [0, 1].contains(&status),
                "case {case}: qdi-mon trace exited {status}"
            );
        }
    }
    std::fs::remove_file(&victim).ok();
    std::fs::remove_file(&svg).ok();
}

#[test]
fn corrupted_profiles_load_render_or_classify() {
    let golden = profile();
    let victim = tmp("fuzz.qprof.json");
    let svg = tmp("fuzz.svg");
    let mut rng = job_rng(SEED ^ 0x0000_9F0F, 0);
    let mut loaded = 0;
    for case in 0..CASES {
        let mut bytes = golden.clone();
        Corruption::sample(&mut rng, bytes.len() as u64).apply(&mut bytes);
        std::fs::write(&victim, &bytes).expect("write corrupted profile");

        if let Ok(report) = ProfReport::load(&victim) {
            loaded += 1;
            let _ = analyze::analyze(&report, 10).render();
            let _ = flame::flamegraph_svg(&report.regions, "fuzz");
            let _ = flame::timeline_svg(&report.pool_runs, "fuzz");
        }
        if case % CLI_EVERY == 0 {
            for command in ["analyze", "flame", "timeline"] {
                let status = if command == "analyze" {
                    cli_status(&[command, path_str(&victim)])
                } else {
                    cli_status(&[command, "--out", path_str(&svg), path_str(&victim)])
                };
                assert!(
                    [0, 1, 2].contains(&status),
                    "case {case}: qdi-mon {command} exited {status}"
                );
            }
        }
    }
    assert!(
        loaded > 0,
        "some corruptions (e.g. a flipped digit) still load"
    );
    std::fs::remove_file(&victim).ok();
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
