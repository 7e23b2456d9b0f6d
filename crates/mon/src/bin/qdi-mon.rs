//! The `qdi-mon` command line: live dashboards, HTML reports,
//! Prometheus exposition, profile and trace renderings, SLO gates.
//!
//! ```text
//! qdi-mon watch [--interval-ms N] [--once] PROGRESS.json|http://HOST:PORT[/v1/jobs/ID/events]
//! qdi-mon report [--out FILE.html] [--top N] [--title T] TELEMETRY.jsonl
//! qdi-mon export METRICS.json
//! qdi-mon analyze [--top N] [--json] PROFILE.qprof.json
//! qdi-mon flame [--out FILE.svg] [--title T] PROFILE.qprof.json
//! qdi-mon timeline [--out FILE.svg] [--title T] PROFILE.qprof.json
//! qdi-mon trace [--out FILE.svg] [--title T] TRACE_ID SPANS.jsonl...
//! qdi-mon slo --config SLO.json METRICS.prom
//! ```
//!
//! Exit status mirrors `qdi-lint`: `0` success, `1` a data-level
//! failure (profile findings, a breached SLO, a trace id with no
//! spans), `2` usage error or
//! unreadable input.

use std::path::Path;
use std::process::ExitCode;

use qdi_mon::{analyze, dashboard, flame, remote, report, waterfall};
use qdi_obs::metrics::{HistogramSnapshot, MetricsSnapshot};
use qdi_obs::prof::ProfReport;
use qdi_obs::progress::ProgressSnapshot;

fn usage() -> &'static str {
    "usage: qdi-mon watch [--interval-ms N] [--once] PROGRESS.json|http://HOST:PORT\n\
     \x20              (a .../v1/jobs/ID/events URL tails the job's SSE stream)\n\
     \x20      qdi-mon report [--out FILE.html] [--top N] [--title T] TELEMETRY.jsonl\n\
     \x20      qdi-mon export METRICS.json\n\
     \x20      qdi-mon analyze [--top N] [--json] PROFILE.qprof.json\n\
     \x20      qdi-mon flame [--out FILE.svg] [--title T] PROFILE.qprof.json\n\
     \x20      qdi-mon timeline [--out FILE.svg] [--title T] PROFILE.qprof.json\n\
     \x20      qdi-mon trace [--out FILE.svg] [--title T] TRACE_ID SPANS.jsonl...\n\
     \x20              (merge spans from every file, render one trace's waterfall)\n\
     \x20      qdi-mon slo --config SLO.json METRICS.prom\n\
     \x20              (exit 1 when any objective is breached)"
}

fn cmd_watch(interval_ms: u64, once: bool, file: &str) -> ExitCode {
    if remote::is_sse_url(file) {
        return watch_sse(file);
    }
    let mut first = true;
    loop {
        let loaded = if remote::is_url(file) {
            remote::fetch_progress(file, std::time::Duration::from_secs(10))
        } else {
            ProgressSnapshot::load(file)
        };
        match loaded {
            Ok(snap) => {
                let frame = dashboard::render(&snap);
                if once {
                    print!("{frame}");
                    return ExitCode::SUCCESS;
                }
                print!("{}", dashboard::ansi_frame(&frame, first));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                first = false;
                if snap.all_done() {
                    println!("all tasks done");
                    return ExitCode::SUCCESS;
                }
            }
            Err(err) => {
                if once || first {
                    eprintln!("watch: {err}");
                    return ExitCode::from(2);
                }
                // The writer may be mid-rename; keep polling.
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

/// Tails a `qdi-serve` per-job SSE stream, rendering every `progress`
/// event as a dashboard frame.
fn watch_sse(url: &str) -> ExitCode {
    let mut first = true;
    let result = remote::stream_sse(url, |frame| {
        match frame {
            remote::SseFrame::Progress(snap) => {
                let rendered = dashboard::render(&snap);
                print!("{}", dashboard::ansi_frame(&rendered, first));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                first = false;
            }
            remote::SseFrame::State(_) => {}
            remote::SseFrame::End(reason) => println!("stream ended ({reason})"),
        }
        true
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("watch: {err}");
            ExitCode::from(2)
        }
    }
}

fn cmd_report(out: Option<&str>, top: usize, title: &str, telemetry: &str) -> ExitCode {
    let telemetry = Path::new(telemetry);
    let html = match report::build(telemetry, top, title) {
        Ok(html) => html,
        Err(err) => {
            eprintln!("report: {err}");
            return ExitCode::from(2);
        }
    };
    let out_path = match out {
        Some(path) => path.to_string(),
        None => report::sidecar(telemetry, "report.html")
            .display()
            .to_string(),
    };
    if let Err(err) = std::fs::write(&out_path, html) {
        eprintln!("report: {out_path}: {err}");
        return ExitCode::from(2);
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

fn cmd_export(metrics: &str) -> ExitCode {
    let text = match std::fs::read_to_string(metrics) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("export: {metrics}: {err}");
            return ExitCode::from(2);
        }
    };
    let mut snap: MetricsSnapshot = match serde_json::from_str(&text) {
        Ok(snap) => snap,
        Err(err) => {
            eprintln!("export: {metrics}: not a metrics snapshot: {err}");
            return ExitCode::from(2);
        }
    };
    if let Some(bad) = snap.histograms.iter().find(|h| !histogram_is_renderable(h)) {
        eprintln!(
            "export: {metrics}: not a metrics snapshot: histogram `{}` needs finite, \
             strictly increasing bounds, one more count than bounds and a total that fits u64",
            bad.name
        );
        return ExitCode::from(2);
    }
    snap.normalize();
    print!("{}", qdi_obs::prometheus::render(&snap));
    ExitCode::SUCCESS
}

/// Whether a deserialized histogram has the shape the exposition
/// renders: finite, strictly increasing bounds, `counts.len() ==
/// bounds.len() + 1` (the last bucket is `+Inf`) and a bucket total
/// that fits in a `u64`.
fn histogram_is_renderable(h: &HistogramSnapshot) -> bool {
    h.bounds.iter().all(|b| b.is_finite())
        && h.bounds.windows(2).all(|w| w[0] < w[1])
        && h.counts.len() == h.bounds.len() + 1
        && h.counts
            .iter()
            .try_fold(0u64, |total, &c| total.checked_add(c))
            .is_some()
}

fn cmd_analyze(top: usize, json: bool, profile: &str) -> ExitCode {
    let report = match ProfReport::load(profile) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("analyze: {err}");
            return ExitCode::from(2);
        }
    };
    let analysis = analyze::analyze(&report, top);
    if json {
        match serde_json::to_string_pretty(&analysis) {
            Ok(text) => println!("{text}"),
            Err(err) => {
                eprintln!("analyze: {err}");
                return ExitCode::from(2);
            }
        }
    } else {
        print!("{}", analysis.render());
    }
    if analysis.has_findings() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Shared driver of `flame` and `timeline`: load, render, write.
fn cmd_render_svg(
    command: &str,
    out: Option<&str>,
    title: &str,
    default_suffix: &str,
    profile: &str,
    render: impl Fn(&ProfReport, &str) -> String,
) -> ExitCode {
    let report = match ProfReport::load(profile) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{command}: {err}");
            return ExitCode::from(2);
        }
    };
    let svg = render(&report, title);
    let out_path = match out {
        Some(path) => path.to_string(),
        None => {
            // foo.qprof.json → foo.<suffix>.svg next to the profile.
            let stem = profile
                .strip_suffix(".qprof.json")
                .or_else(|| profile.strip_suffix(".json"))
                .unwrap_or(profile);
            format!("{stem}.{default_suffix}.svg")
        }
    };
    if let Err(err) = std::fs::write(&out_path, svg) {
        eprintln!("{command}: {out_path}: {err}");
        return ExitCode::from(2);
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

fn cmd_trace(out: Option<&str>, title: Option<&str>, trace_id: &str, files: &[String]) -> ExitCode {
    let mut spans = Vec::new();
    for file in files {
        match qdi_obs::span::read_spans(Path::new(file)) {
            Ok(mut read) => spans.append(&mut read),
            Err(err) => {
                eprintln!("trace: {err}");
                return ExitCode::from(2);
            }
        }
    }
    let title = title.map_or_else(|| format!("trace waterfall · {trace_id}"), str::to_owned);
    let svg = match waterfall::render(&spans, trace_id, &title) {
        Ok(svg) => svg,
        Err(err) => {
            // Readable inputs without the requested trace is a data
            // failure, not a usage error: the files parsed fine.
            eprintln!("trace: {err}");
            return ExitCode::from(1);
        }
    };
    let out_path = match out {
        Some(path) => path.to_owned(),
        None => format!(
            "trace-{}.svg",
            trace_id.chars().take(12).collect::<String>()
        ),
    };
    if let Err(err) = std::fs::write(&out_path, svg) {
        eprintln!("trace: {out_path}: {err}");
        return ExitCode::from(2);
    }
    let matching = spans.iter().filter(|s| s.trace_id == trace_id).count();
    println!("wrote {out_path} ({matching} spans)");
    ExitCode::SUCCESS
}

fn cmd_slo(config: &str, metrics: &str) -> ExitCode {
    let config_text = match std::fs::read_to_string(config) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("slo: {config}: {err}");
            return ExitCode::from(2);
        }
    };
    let cfg = match qdi_obs::slo::SloConfig::from_json(&config_text) {
        Ok(cfg) => cfg,
        Err(err) => {
            eprintln!("slo: {config}: {err}");
            return ExitCode::from(2);
        }
    };
    let exposition = match std::fs::read_to_string(metrics) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("slo: {metrics}: {err}");
            return ExitCode::from(2);
        }
    };
    match qdi_obs::slo::evaluate(&cfg, &exposition) {
        Ok(report) => {
            print!("{}", report.render_text());
            if report.breached() {
                eprintln!("slo: objectives breached");
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(err) => {
            eprintln!("slo: {metrics}: {err}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    match command {
        "watch" => {
            let mut interval_ms = 250u64;
            let mut once = false;
            let mut files = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--interval-ms" => {
                        let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                            eprintln!("watch: --interval-ms needs a number\n{}", usage());
                            return ExitCode::from(2);
                        };
                        interval_ms = n;
                    }
                    "--once" => once = true,
                    _ => files.push(arg.clone()),
                }
            }
            if files.len() != 1 {
                eprintln!("watch: exactly one PROGRESS.json\n{}", usage());
                return ExitCode::from(2);
            }
            cmd_watch(interval_ms, once, &files[0])
        }
        "report" => {
            let mut out = None;
            let mut top = 10usize;
            let mut title = "QDI run report".to_string();
            let mut files = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--out" => match it.next() {
                        Some(path) => out = Some(path.clone()),
                        None => {
                            eprintln!("report: --out needs a path\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    "--top" => {
                        let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                            eprintln!("report: --top needs a number\n{}", usage());
                            return ExitCode::from(2);
                        };
                        top = n;
                    }
                    "--title" => match it.next() {
                        Some(t) => title = t.clone(),
                        None => {
                            eprintln!("report: --title needs a value\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    _ => files.push(arg.clone()),
                }
            }
            if files.len() != 1 {
                eprintln!("report: exactly one TELEMETRY.jsonl\n{}", usage());
                return ExitCode::from(2);
            }
            cmd_report(out.as_deref(), top, &title, &files[0])
        }
        "export" => {
            if rest.len() != 1 {
                eprintln!("export: exactly one METRICS.json\n{}", usage());
                return ExitCode::from(2);
            }
            cmd_export(&rest[0])
        }
        "analyze" => {
            let mut top = 10usize;
            let mut json = false;
            let mut files = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--top" => {
                        let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                            eprintln!("analyze: --top needs a number\n{}", usage());
                            return ExitCode::from(2);
                        };
                        top = n;
                    }
                    "--json" => json = true,
                    _ => files.push(arg.clone()),
                }
            }
            if files.len() != 1 {
                eprintln!("analyze: exactly one PROFILE.qprof.json\n{}", usage());
                return ExitCode::from(2);
            }
            cmd_analyze(top, json, &files[0])
        }
        "flame" | "timeline" => {
            let mut out = None;
            let mut title = None;
            let mut files = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--out" => match it.next() {
                        Some(path) => out = Some(path.clone()),
                        None => {
                            eprintln!("{command}: --out needs a path\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    "--title" => match it.next() {
                        Some(t) => title = Some(t.clone()),
                        None => {
                            eprintln!("{command}: --title needs a value\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    _ => files.push(arg.clone()),
                }
            }
            if files.len() != 1 {
                eprintln!("{command}: exactly one PROFILE.qprof.json\n{}", usage());
                return ExitCode::from(2);
            }
            if command == "flame" {
                cmd_render_svg(
                    command,
                    out.as_deref(),
                    title.as_deref().unwrap_or("region flamegraph"),
                    "flame",
                    &files[0],
                    |report, title| flame::flamegraph_svg(&report.regions, title),
                )
            } else {
                cmd_render_svg(
                    command,
                    out.as_deref(),
                    title.as_deref().unwrap_or("pool timeline"),
                    "timeline",
                    &files[0],
                    |report, title| flame::timeline_svg(&report.pool_runs, title),
                )
            }
        }
        "trace" => {
            let mut out = None;
            let mut title = None;
            let mut operands = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--out" => match it.next() {
                        Some(path) => out = Some(path.clone()),
                        None => {
                            eprintln!("trace: --out needs a path\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    "--title" => match it.next() {
                        Some(t) => title = Some(t.clone()),
                        None => {
                            eprintln!("trace: --title needs a value\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    _ => operands.push(arg.clone()),
                }
            }
            if operands.len() < 2 {
                eprintln!(
                    "trace: need a TRACE_ID and at least one SPANS.jsonl\n{}",
                    usage()
                );
                return ExitCode::from(2);
            }
            cmd_trace(
                out.as_deref(),
                title.as_deref(),
                &operands[0],
                &operands[1..],
            )
        }
        "slo" => {
            let mut config = None;
            let mut files = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--config" => match it.next() {
                        Some(path) => config = Some(path.clone()),
                        None => {
                            eprintln!("slo: --config needs a path\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    _ => files.push(arg.clone()),
                }
            }
            let (Some(config), [metrics]) = (config, files.as_slice()) else {
                eprintln!(
                    "slo: need --config SLO.json and exactly one METRICS.prom\n{}",
                    usage()
                );
                return ExitCode::from(2);
            };
            cmd_slo(&config, metrics)
        }
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            ExitCode::from(2)
        }
    }
}
