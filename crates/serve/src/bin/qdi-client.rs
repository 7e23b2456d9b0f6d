//! Thin CLI over the `qdi-serve` job API.
//!
//! ```text
//! qdi-client --server http://HOST:PORT submit SPEC.json
//! qdi-client --server URL status JOB [--wait SECONDS]
//! qdi-client --server URL watch JOB
//! qdi-client --server URL list [--tenant T]
//! qdi-client --server URL report JOB [--out FILE]
//! qdi-client --server URL fetch JOB --out FILE.qtrs
//! qdi-client --server URL cancel JOB
//! qdi-client --server URL shutdown
//! ```
//!
//! Exit codes: 0 success, 1 operation failed (including a job that
//! ended `Failed`), 2 usage error.

#![forbid(unsafe_code)]

use std::time::Duration;

use qdi_serve::{JobState, ServeClient};

fn usage() -> ! {
    eprintln!(
        "usage: qdi-client --server http://HOST:PORT COMMAND [ARGS]\n\
         \n\
         commands:\n\
           submit SPEC.json [--trace-file F]\n\
                                      submit a job spec, print its id;\n\
                                      a traceparent is always sent and the\n\
                                      trace id echoed to stderr. The local\n\
                                      submit span is written to F\n\
           status JOB [--wait SECS]   print a job's status JSON\n\
           watch JOB                  stream SSE progress to stdout\n\
           list [--tenant T]          list jobs\n\
           report JOB [--out FILE]    fetch the final report artifact\n\
           fetch JOB --out FILE       fetch the raw .qtrs trace store\n\
           cancel JOB                 request cancellation\n\
           shutdown                   ask the server to drain and exit"
    );
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("qdi-client: {message}");
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let server = match args.iter().position(|a| a == "--server") {
        Some(i) if i + 1 < args.len() => {
            let url = args.remove(i + 1);
            args.remove(i);
            url
        }
        _ => usage(),
    };
    let client = ServeClient::new(server);
    let mut rest = args.into_iter();
    let command = rest.next().unwrap_or_else(|| usage());
    let rest: Vec<String> = rest.collect();

    match command.as_str() {
        "submit" => {
            let path = rest.first().unwrap_or_else(|| usage());
            let spec =
                std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("read {path}: {e}")));
            // The client end of the distributed trace: mint a root
            // span, propagate it as `traceparent`, keep stdout to the
            // bare job id (scripts parse it) and put the trace id on
            // stderr for humans and CI.
            if let Some(file) = flag_value(&rest, "--trace-file") {
                qdi_obs::span::set_file(file);
            }
            let mut span = qdi_obs::span("qdi-client", "submit").attr("spec", path.clone());
            let ctx = span.context().unwrap_or_else(qdi_obs::span::mint);
            match client.submit_traced(&spec, Some(&ctx)) {
                Ok(id) => {
                    span.set_attr("job", id.clone());
                    eprintln!("trace: {}", ctx.trace_id);
                    println!("{id}");
                }
                Err(e) => {
                    span.set_attr("error", e.to_string());
                    drop(span);
                    fail(e)
                }
            }
        }
        "status" => {
            let id = rest.first().unwrap_or_else(|| usage());
            let wait = flag_value(&rest, "--wait").map(|raw| {
                raw.parse::<u64>()
                    .unwrap_or_else(|_| fail("--wait takes seconds"))
            });
            let status = match wait {
                Some(seconds) => client.wait_terminal(id, Duration::from_secs(seconds)),
                None => client.status(id),
            }
            .unwrap_or_else(|e| fail(e));
            println!(
                "{}",
                serde_json::to_string_pretty(&status).unwrap_or_else(|e| fail(format!("{e:?}")))
            );
            if status.state == JobState::Failed {
                std::process::exit(1);
            }
        }
        "watch" => {
            let id = rest.first().unwrap_or_else(|| usage());
            let result = client.stream_events(id, None, |event, data| {
                println!("{event}: {data}");
                true
            });
            if let Err(e) = result {
                fail(e);
            }
        }
        "list" => {
            let path = match flag_value(&rest, "--tenant") {
                Some(tenant) => format!("/v1/jobs?tenant={tenant}"),
                None => "/v1/jobs".to_owned(),
            };
            match client.get(&path) {
                Ok(response) => println!("{}", response.text().trim_end()),
                Err(e) => fail(e),
            }
        }
        "report" => {
            let id = rest.first().unwrap_or_else(|| usage());
            let response = client
                .get(&format!("/v1/jobs/{id}/report"))
                .unwrap_or_else(|e| fail(e));
            match flag_value(&rest, "--out") {
                Some(path) => std::fs::write(path, &response.body)
                    .unwrap_or_else(|e| fail(format!("write {path}: {e}"))),
                None => println!("{}", response.text().trim_end()),
            }
        }
        "fetch" => {
            let id = rest.first().unwrap_or_else(|| usage());
            let path = flag_value(&rest, "--out").unwrap_or_else(|| usage());
            let response = client
                .get(&format!("/v1/jobs/{id}/trace-store"))
                .unwrap_or_else(|e| fail(e));
            std::fs::write(path, &response.body)
                .unwrap_or_else(|e| fail(format!("write {path}: {e}")));
            println!("wrote {} bytes to {path}", response.body.len());
        }
        "cancel" => {
            let id = rest.first().unwrap_or_else(|| usage());
            match client.cancel(id) {
                Ok(status) => println!(
                    "{}",
                    serde_json::to_string_pretty(&status)
                        .unwrap_or_else(|e| fail(format!("{e:?}")))
                ),
                Err(e) => fail(e),
            }
        }
        "shutdown" => {
            if let Err(e) = client.post("/v1/shutdown", "{}") {
                fail(e);
            }
            println!("draining");
        }
        _ => usage(),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}
