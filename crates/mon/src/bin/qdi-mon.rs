//! The `qdi-mon` command line: live dashboards, HTML reports,
//! Prometheus exposition, profile and trace renderings, SLO gates.
//!
//! ```text
//! qdi-mon watch [--interval-ms N] [--once] PROGRESS.json|http://HOST:PORT[/v1/jobs/ID/events]
//! qdi-mon report [--out FILE.html] [--top N] [--title T] RUN.jsonl
//! qdi-mon export RUN.jsonl
//! qdi-mon analyze [--top N] [--json] RUN.jsonl
//! qdi-mon flame [--out FILE.svg] [--title T] RUN.jsonl
//! qdi-mon timeline [--out FILE.svg] [--title T] RUN.jsonl
//! qdi-mon trace [--out FILE.svg] [--title T] TRACE_ID RUN.jsonl...
//! qdi-mon slo --config SLO.json METRICS.prom
//! ```
//!
//! `watch` tails a progress file, or reaches a running `qdi-serve`
//! through `qdi_serve::client`: it polls `/v1/progress` (or the given
//! path), or tails a `/v1/jobs/ID/events` SSE stream. Every other view
//! but `slo` reads a run record (`qdi_obs::span::set_file`): one JSON
//! record per line, torn lines skipped. Exit status mirrors
//! `qdi-lint`: `0` success, `1` a data-level failure (profile findings,
//! a breached SLO, a trace id with no spans), `2` usage error or
//! unreadable input.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use qdi_mon::{analyze, dashboard, flame, report, waterfall};
use qdi_obs::prof::ProfReport;
use qdi_obs::progress::ProgressSnapshot;
use qdi_serve::client::ServeClient;

fn usage() -> &'static str {
    "usage: qdi-mon watch [--interval-ms N] [--once] PROGRESS.json|http://HOST:PORT\n\
     \x20              (a .../v1/jobs/ID/events URL tails the job's SSE stream)\n\
     \x20      qdi-mon report [--out FILE.html] [--top N] [--title T] RUN.jsonl\n\
     \x20      qdi-mon export RUN.jsonl\n\
     \x20      qdi-mon analyze [--top N] [--json] RUN.jsonl\n\
     \x20      qdi-mon flame [--out FILE.svg] [--title T] RUN.jsonl\n\
     \x20      qdi-mon timeline [--out FILE.svg] [--title T] RUN.jsonl\n\
     \x20      qdi-mon trace [--out FILE.svg] [--title T] TRACE_ID RUN.jsonl...\n\
     \x20              (merge spans from every file, render one trace's waterfall)\n\
     \x20      qdi-mon slo --config SLO.json METRICS.prom\n\
     \x20              (exit 1 when any objective is breached)"
}

// Every `cmd_*` returns the exit code, or the message of an exit-2
// failure, which `run` prints after the subcommand's name.

/// A `qdi-serve` URL, `http://HOST:PORT[/PATH]`, split into the
/// server's base URL and the path, `/v1/progress` when there is none.
fn split_url(url: &str) -> Option<(&str, &str)> {
    let rest = url.strip_prefix("http://")?;
    let (base, path) = url.split_at("http://".len() + rest.find('/').unwrap_or(rest.len()));
    Some((base, if path.len() > 1 { path } else { "/v1/progress" }))
}

fn cmd_watch(interval_ms: u64, once: bool, source: &str) -> Result<ExitCode, String> {
    let remote = split_url(source).map(|(base, path)| {
        let client = ServeClient {
            timeout: std::time::Duration::from_secs(10),
            ..ServeClient::new(base)
        };
        (client, path)
    });
    if let Some((client, path)) = &remote {
        if let Some(job) = path
            .strip_prefix("/v1/jobs/")
            .and_then(|rest| rest.strip_suffix("/events"))
        {
            return watch_sse(client, job, once);
        }
    }
    let mut first = true;
    loop {
        let loaded = match &remote {
            Some((client, path)) => {
                client
                    .get(path)
                    .map_err(|err| err.to_string())
                    .and_then(|response| {
                        serde_json::from_str(&response.text())
                            .map_err(|err| format!("parse snapshot: {err:?}"))
                    })
            }
            None => ProgressSnapshot::load(source),
        };
        match loaded {
            Ok(snap) => {
                let frame = dashboard::render(&snap);
                if once {
                    print!("{frame}");
                    return Ok(ExitCode::SUCCESS);
                }
                print!("{}", dashboard::ansi_frame(&frame, first));
                let _ = std::io::stdout().flush();
                first = false;
                if snap.all_done() {
                    println!("all tasks done");
                    return Ok(ExitCode::SUCCESS);
                }
            }
            Err(err) if once || first => return Err(err),
            // The writer may be mid-rename; keep polling.
            Err(_) => {}
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

/// Tails a `qdi-serve` job's SSE stream, rendering every `progress`
/// event as a dashboard frame until the stream ends; with `once`, only
/// the first frame, without ANSI codes.
fn watch_sse(client: &ServeClient, job: &str, once: bool) -> Result<ExitCode, String> {
    let mut frames = 0;
    let mut ended = "eof".to_owned();
    client
        .stream_events(job, None, |event, data| {
            match event {
                "progress" => {
                    let Ok(snap) = serde_json::from_str::<ProgressSnapshot>(data) else {
                        return true;
                    };
                    let frame = dashboard::render(&snap);
                    if once {
                        print!("{frame}");
                    } else {
                        print!("{}", dashboard::ansi_frame(&frame, frames == 0));
                        let _ = std::io::stdout().flush();
                    }
                    frames += 1;
                }
                "done" | "drain" => ended = event.to_owned(),
                _ => {}
            }
            !(once && frames > 0)
        })
        .map_err(|err| err.to_string())?;
    if once {
        if frames == 0 {
            return Err(format!("stream ended ({ended}) before a progress event"));
        }
    } else {
        println!("stream ended ({ended})");
    }
    Ok(ExitCode::SUCCESS)
}

/// The profile rebuilt from a run record; a file with no record in it
/// is an error.
fn read_profile(run: &str) -> Result<ProfReport, String> {
    let read = qdi_obs::span::read_records(Path::new(run))?;
    if read.records.is_empty() {
        return Err(format!("{run}: no run records"));
    }
    Ok(ProfReport::from_records(&read.records))
}

/// Writes `contents` to `path` and says so.
fn write_out(path: &str, contents: String) -> Result<ExitCode, String> {
    std::fs::write(path, contents).map_err(|err| format!("{path}: {err}"))?;
    println!("wrote {path}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(out: Option<&str>, top: usize, title: &str, run: &str) -> Result<ExitCode, String> {
    let run = Path::new(run);
    let html = report::build(run, top, title)?;
    let out_path = match out {
        Some(path) => path.to_string(),
        None => report::sidecar(run, "report.html").display().to_string(),
    };
    write_out(&out_path, html)
}

fn cmd_export(run: &str) -> Result<ExitCode, String> {
    let read = qdi_obs::span::read_records(Path::new(run))?;
    print!(
        "{}",
        report::exposition(&read.records).map_err(|err| format!("{run}: {err}"))?
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(top: usize, json: bool, run: &str) -> Result<ExitCode, String> {
    let analysis = analyze::analyze(&read_profile(run)?, top);
    if json {
        let text = serde_json::to_string_pretty(&analysis).map_err(|err| err.to_string())?;
        println!("{text}");
    } else {
        print!("{}", analysis.render());
    }
    Ok(if analysis.has_findings() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Shared driver of `flame` and `timeline`: rebuild, render, write
/// (by default to `<run>.<command>.svg`).
fn cmd_render_svg(
    command: &str,
    out: Option<&str>,
    title: &str,
    run: &str,
    render: fn(&ProfReport, &str) -> String,
) -> Result<ExitCode, String> {
    let svg = render(&read_profile(run)?, title);
    let out_path = match out {
        Some(path) => path.to_string(),
        None => report::sidecar(Path::new(run), &format!("{command}.svg"))
            .display()
            .to_string(),
    };
    write_out(&out_path, svg)
}

fn cmd_trace(
    out: Option<&str>,
    title: Option<&str>,
    trace_id: &str,
    files: &[String],
) -> Result<ExitCode, String> {
    let mut spans = Vec::new();
    for file in files {
        spans.append(&mut qdi_obs::span::read_spans(Path::new(file))?);
    }
    let title = title.map_or_else(|| format!("trace waterfall · {trace_id}"), str::to_owned);
    let svg = match waterfall::render(&spans, trace_id, &title) {
        Ok(svg) => svg,
        Err(err) => {
            // Readable inputs without the requested trace is a data
            // failure, not a usage error: the files parsed fine.
            eprintln!("trace: {err}");
            return Ok(ExitCode::from(1));
        }
    };
    let out_path = match out {
        Some(path) => path.to_owned(),
        None => format!(
            "trace-{}.svg",
            trace_id.chars().take(12).collect::<String>()
        ),
    };
    std::fs::write(&out_path, svg).map_err(|err| format!("{out_path}: {err}"))?;
    let matching = spans.iter().filter(|s| s.trace_id == trace_id).count();
    println!("wrote {out_path} ({matching} spans)");
    Ok(ExitCode::SUCCESS)
}

fn cmd_slo(config: &str, metrics: &str) -> Result<ExitCode, String> {
    let cfg = std::fs::read_to_string(config)
        .map_err(|err| err.to_string())
        .and_then(|text| qdi_obs::slo::SloConfig::from_json(&text))
        .map_err(|err| format!("{config}: {err}"))?;
    let report = std::fs::read_to_string(metrics)
        .map_err(|err| err.to_string())
        .and_then(|text| qdi_obs::slo::evaluate(&cfg, &text))
        .map_err(|err| format!("{metrics}: {err}"))?;
    print!("{}", report.render_text());
    if report.breached() {
        eprintln!("slo: objectives breached");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints `message` (when there is one) and the usage; exit 2.
fn usage_error(message: &str) -> ExitCode {
    if message.is_empty() {
        eprintln!("{}", usage());
    } else {
        eprintln!("{message}\n{}", usage());
    }
    ExitCode::from(2)
}

/// The flags and operands of one subcommand. An argument that is not
/// one of the subcommand's flags is an operand.
struct Args {
    out: Option<String>,
    title: Option<String>,
    config: Option<String>,
    top: usize,
    interval_ms: u64,
    json: bool,
    once: bool,
    operands: Vec<String>,
}

impl Args {
    fn parse(command: &str, rest: &[String], flags: &[&str]) -> Result<Args, ExitCode> {
        let mut args = Args {
            out: None,
            title: None,
            config: None,
            top: 10,
            interval_ms: 250,
            json: false,
            once: false,
            operands: Vec::new(),
        };
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            if !flags.contains(&flag) {
                args.operands.push(arg.clone());
                continue;
            }
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| usage_error(&format!("{command}: {flag} needs {what}")))
            };
            let mut number = |what: &str| -> Result<u64, ExitCode> {
                value(what)?
                    .parse()
                    .map_err(|_| usage_error(&format!("{command}: {flag} needs {what}")))
            };
            match flag {
                "--json" => args.json = true,
                "--once" => args.once = true,
                "--out" => args.out = Some(value("a path")?),
                "--config" => args.config = Some(value("a path")?),
                "--title" => args.title = Some(value("a value")?),
                "--top" => args.top = number("a number")? as usize,
                "--interval-ms" => args.interval_ms = number("a number")?,
                _ => unreachable!("{flag} is not a qdi-mon flag"),
            }
        }
        Ok(args)
    }

    /// The one operand, or a usage error naming what it should be.
    fn one(&self, command: &str, what: &str) -> Result<&str, ExitCode> {
        match self.operands.as_slice() {
            [operand] => Ok(operand),
            _ => Err(usage_error(&format!("{command}: exactly one {what}"))),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage_error("");
    };
    run(command, rest).unwrap_or_else(|code| code)
}

fn run(command: &str, rest: &[String]) -> Result<ExitCode, ExitCode> {
    let outcome = match command {
        "watch" => {
            let args = Args::parse(command, rest, &["--interval-ms", "--once"])?;
            let progress = args.one(command, "PROGRESS.json")?;
            cmd_watch(args.interval_ms, args.once, progress)
        }
        "report" => {
            let args = Args::parse(command, rest, &["--out", "--top", "--title"])?;
            let title = args.title.as_deref().unwrap_or("QDI run report");
            let run = args.one(command, "RUN.jsonl")?;
            cmd_report(args.out.as_deref(), args.top, title, run)
        }
        "export" => cmd_export(Args::parse(command, rest, &[])?.one(command, "RUN.jsonl")?),
        "analyze" => {
            let args = Args::parse(command, rest, &["--top", "--json"])?;
            cmd_analyze(args.top, args.json, args.one(command, "RUN.jsonl")?)
        }
        "flame" | "timeline" => {
            let args = Args::parse(command, rest, &["--out", "--title"])?;
            let (title, render): (_, fn(&ProfReport, &str) -> String) = if command == "flame" {
                ("region flamegraph", |report, title| {
                    flame::flamegraph_svg(&report.regions, title)
                })
            } else {
                ("pool timeline", |report, title| {
                    flame::timeline_svg(&report.pool_runs, title)
                })
            };
            let title = args.title.as_deref().unwrap_or(title);
            let run = args.one(command, "RUN.jsonl")?;
            cmd_render_svg(command, args.out.as_deref(), title, run, render)
        }
        "trace" => {
            let args = Args::parse(command, rest, &["--out", "--title"])?;
            match args.operands.as_slice() {
                [trace_id, files @ ..] if !files.is_empty() => {
                    cmd_trace(args.out.as_deref(), args.title.as_deref(), trace_id, files)
                }
                _ => {
                    return Err(usage_error(
                        "trace: need a TRACE_ID and at least one RUN.jsonl",
                    ))
                }
            }
        }
        "slo" => {
            let args = Args::parse(command, rest, &["--config"])?;
            let (Some(config), [metrics]) = (&args.config, args.operands.as_slice()) else {
                return Err(usage_error(
                    "slo: need --config SLO.json and exactly one METRICS.prom",
                ));
            };
            cmd_slo(config, metrics)
        }
        other => return Err(usage_error(&format!("unknown command `{other}`"))),
    };
    outcome.map_err(|err| {
        eprintln!("{command}: {err}");
        ExitCode::from(2)
    })
}
