//! Drives one served DPA job from the client side: submit, wait the way
//! `ServeClient::wait_terminal` does (status, then a long-poll, until
//! terminal), fetch the report. Every request is one connection with
//! `Connection: close`, as `qdi-client` sends them; each phase is
//! stamped, and spanned when tracing is on.

use std::time::{Duration, Instant};

use qdi_serve::client::request;
use qdi_serve::{DpaReport, JobState, JobStatus};

use crate::spans;

/// How long one job may take before the benchmark gives up on it.
const JOB_DEADLINE: Duration = Duration::from_secs(120);
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One request: any transport error or non-2xx status is an error.
pub fn call(base: &str, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
    let response = request(base, method, path, body, REQUEST_TIMEOUT)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    if (200..300).contains(&response.status) {
        Ok(response.text())
    } else {
        Err(format!(
            "{method} {path}: HTTP {}: {}",
            response.status,
            response.text().trim()
        ))
    }
}

/// A finished job as its client saw it.
#[derive(Debug)]
pub struct JobRun {
    pub state: JobState,
    pub report: Option<DpaReport>,
    pub requests: u32,
    /// `POST /v1/jobs` round trip.
    pub submit_ms: f64,
    /// Submit response until the first status that is no longer queued.
    pub queue_ms: f64,
    /// From there until the first terminal status.
    pub run_ms: f64,
    /// `GET …/report` round trip.
    pub report_ms: f64,
    /// Submit request sent until report received.
    pub total_ms: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Submits `spec`, waits for a terminal state and fetches the report of
/// a completed job.
pub fn run_job(base: &str, spec: &str) -> Result<JobRun, String> {
    let mut requests = 0u32;
    let mut send = |method: &str, path: &str, body: Option<&str>| {
        requests += 1;
        call(base, method, path, body)
    };
    let start = Instant::now();
    let id = {
        let _s = spans::span("serve.submit");
        let text = send("POST", "/v1/jobs", Some(spec))?;
        let value = serde_json::parse_value_str(&text).map_err(|e| format!("submit: {e:?}"))?;
        value
            .get("id")
            .and_then(serde_json::Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("submit response has no id: {text}"))?
    };
    let submitted = Instant::now();
    let mut phase = Some(spans::span("serve.queue"));
    let mut running: Option<Instant> = None;
    let status = loop {
        let text = send("GET", &format!("/v1/jobs/{id}"), None)?;
        let status: JobStatus =
            serde_json::from_str(&text).map_err(|e| format!("status: {e:?}"))?;
        if status.state != JobState::Queued && running.is_none() {
            running = Some(Instant::now());
            drop(phase.take());
            phase = Some(spans::span("serve.run"));
        }
        if status.state.is_terminal() {
            break status;
        }
        if start.elapsed() > JOB_DEADLINE {
            return Err(format!(
                "job {id} still {:?} after {JOB_DEADLINE:?}",
                status.state
            ));
        }
        let wait = format!("/v1/jobs/{id}?wait_ms=1000&after={}", status.last_seq);
        send("GET", &wait, None)?;
    };
    drop(phase);
    let done = Instant::now();
    let running = running.unwrap_or(done);
    let report = if status.state == JobState::Completed {
        let _s = spans::span("serve.report");
        let text = send("GET", &format!("/v1/jobs/{id}/report"), None)?;
        Some(serde_json::from_str(&text).map_err(|e| format!("report: {e:?}"))?)
    } else {
        None
    };
    let end = Instant::now();
    Ok(JobRun {
        state: status.state,
        report,
        requests,
        submit_ms: ms(submitted - start),
        queue_ms: ms(running - submitted),
        run_ms: ms(done - running),
        report_ms: ms(end - done),
        total_ms: ms(end - start),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    fn status(state: JobState, seq: u64) -> String {
        serde_json::to_string(&JobStatus {
            id: "j000001".into(),
            tenant: "t0".into(),
            name: None,
            kind: "dpa".into(),
            state,
            completed: 0,
            total: 4,
            error: None,
            quarantined: Vec::new(),
            resumes: 0,
            last_seq: seq,
        })
        .expect("serializes")
    }

    /// Serves `replies` in order, one connection each, and returns the
    /// request lines it received.
    fn fake_server(replies: Vec<(u16, String)>) -> (String, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let base = format!("http://{}", listener.local_addr().expect("addr"));
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for (code, body) in replies {
                let (stream, _) = listener.accept().expect("accepts");
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                reader.read_line(&mut line).expect("request line");
                seen.push(line.trim_end().to_owned());
                // Read the rest of the head and the body before replying.
                let mut length = 0usize;
                loop {
                    let mut header = String::new();
                    reader.read_line(&mut header).expect("header");
                    let header = header.trim_end();
                    if header.is_empty() {
                        break;
                    }
                    if let Some(v) = header.strip_prefix("Content-Length: ") {
                        length = v.parse().expect("length");
                    }
                }
                let mut body_in = vec![0u8; length];
                reader.read_exact(&mut body_in).expect("body");
                let mut stream = reader.into_inner();
                write!(
                    stream,
                    "HTTP/1.1 {code} X\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .expect("writes");
            }
            seen
        });
        (base, handle)
    }

    #[test]
    fn waits_through_status_and_long_poll_then_fetches_the_report() {
        let report = DpaReport {
            id: "j000001".into(),
            tenant: "t0".into(),
            traces: 4,
            quarantined: Vec::new(),
            selection: Some("aes-xor[b0 bit0]".into()),
            guesses: Vec::new(),
            best_guess: None,
        };
        let (base, server) = fake_server(vec![
            (200, "{\"id\":\"j000001\"}".into()),
            (200, status(JobState::Queued, 1)),
            (200, status(JobState::Running, 2)),
            (200, status(JobState::Running, 2)),
            (200, status(JobState::Running, 5)),
            (200, status(JobState::Completed, 6)),
            (200, serde_json::to_string(&report).expect("serializes")),
        ]);
        let run = run_job(&base, "{}").expect("job runs");
        let seen = server.join().expect("fake server");
        assert_eq!(
            seen,
            [
                "POST /v1/jobs HTTP/1.1",
                "GET /v1/jobs/j000001 HTTP/1.1",
                "GET /v1/jobs/j000001?wait_ms=1000&after=1 HTTP/1.1",
                "GET /v1/jobs/j000001 HTTP/1.1",
                "GET /v1/jobs/j000001?wait_ms=1000&after=2 HTTP/1.1",
                "GET /v1/jobs/j000001 HTTP/1.1",
                "GET /v1/jobs/j000001/report HTTP/1.1",
            ]
        );
        assert_eq!(run.state, JobState::Completed);
        assert_eq!(run.requests, 7);
        assert_eq!(run.report.expect("report").traces, 4);
        assert!(run.total_ms >= run.submit_ms + run.queue_ms + run.run_ms);
    }

    #[test]
    fn a_non_2xx_reply_fails_the_job() {
        let (base, server) = fake_server(vec![(503, "{\"error\":\"draining\"}".into())]);
        let err = run_job(&base, "{}").expect_err("503 fails");
        server.join().expect("fake server");
        assert!(err.contains("HTTP 503"), "{err}");
    }

    #[test]
    fn a_failed_job_has_no_report() {
        let (base, server) = fake_server(vec![
            (200, "{\"id\":\"j000001\"}".into()),
            (200, status(JobState::Failed, 3)),
        ]);
        let run = run_job(&base, "{}").expect("job ends");
        server.join().expect("fake server");
        assert_eq!((run.state, run.requests), (JobState::Failed, 2));
        assert!(run.report.is_none());
    }
}
