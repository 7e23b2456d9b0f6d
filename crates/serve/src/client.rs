//! A small blocking HTTP client for the job API — `std::net` only,
//! one request per connection, mirroring the server's `Connection:
//! close` discipline. Used by the `qdi-client` binary, the e2e tests
//! and anything that wants to submit campaigns programmatically. It
//! speaks [`crate::http`]'s codec, with the server's limits, and
//! reports every codec error as a transport error.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

use crate::http;
pub use crate::http::HttpResponse;
use crate::job::JobStatus;

/// A client error, as text with the HTTP status when one was received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientError {
    /// HTTP status (0 when the failure was transport-level).
    pub status: u16,
    /// Detail.
    pub message: String,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.status == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "HTTP {}: {}", self.status, self.message)
        }
    }
}

impl std::error::Error for ClientError {}

fn transport(message: impl Into<String>) -> ClientError {
    ClientError {
        status: 0,
        message: message.into(),
    }
}

/// Splits `http://host:port[/...]` into the authority. Only plain
/// `http` is supported.
///
/// # Errors
///
/// Malformed or non-`http` URLs.
pub fn authority_of(url: &str) -> Result<String, ClientError> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| transport(format!("only http:// URLs are supported, got {url:?}")))?;
    let authority = rest.split('/').next().unwrap_or("");
    if authority.is_empty() {
        return Err(transport(format!("no host in {url:?}")));
    }
    Ok(authority.to_owned())
}

/// Connects to `base`'s authority with the given socket timeouts and
/// sends one request ([`http::write_request`]).
fn send(
    base: &str,
    read_timeout: Duration,
    write_timeout: Option<Duration>,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<TcpStream, ClientError> {
    let authority = authority_of(base)?;
    let mut stream = TcpStream::connect(&authority)
        .map_err(|e| transport(format!("connect {authority}: {e}")))?;
    stream
        .set_read_timeout(Some(read_timeout))
        .and_then(|()| stream.set_write_timeout(write_timeout))
        .map_err(|e| transport(e.to_string()))?;
    http::write_request(&mut stream, method, path, &authority, headers, body)
        .map_err(|e| transport(format!("send: {e}")))?;
    Ok(stream)
}

/// Issues one request against `base` (e.g. `http://127.0.0.1:8080`).
///
/// # Errors
///
/// Transport failures; HTTP error statuses are returned as `Ok` with
/// the status set (callers decide what is fatal).
pub fn request(
    base: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<HttpResponse, ClientError> {
    request_with_headers(base, method, path, body, &[], timeout)
}

/// Like [`request`], with extra header lines (e.g. `traceparent`) sent
/// after the standard ones. Header names and values must be pre-valid:
/// they are written verbatim.
///
/// # Errors
///
/// Transport failures; HTTP error statuses are returned as `Ok` with
/// the status set (callers decide what is fatal).
pub fn request_with_headers(
    base: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
    timeout: Duration,
) -> Result<HttpResponse, ClientError> {
    let body = body.unwrap_or("").as_bytes();
    let stream = send(base, timeout, Some(timeout), method, path, headers, body)?;
    http::read_response(&mut BufReader::new(stream)).map_err(|e| transport(e.message))
}

/// High-level client over the job API.
#[derive(Debug, Clone)]
pub struct ServeClient {
    /// Server base URL (`http://host:port`).
    pub base: String,
    /// Per-request timeout.
    pub timeout: Duration,
}

impl ServeClient {
    /// A client for `base` with a 30 s timeout.
    #[must_use]
    pub fn new(base: impl Into<String>) -> ServeClient {
        ServeClient {
            base: base.into().trim_end_matches('/').to_owned(),
            timeout: Duration::from_secs(30),
        }
    }

    fn expect_ok(&self, response: HttpResponse) -> Result<HttpResponse, ClientError> {
        if (200..300).contains(&response.status) {
            Ok(response)
        } else {
            Err(ClientError {
                status: response.status,
                message: response.text(),
            })
        }
    }

    /// `GET path`, requiring 2xx.
    ///
    /// # Errors
    ///
    /// Transport failures or non-2xx statuses.
    pub fn get(&self, path: &str) -> Result<HttpResponse, ClientError> {
        self.expect_ok(request(&self.base, "GET", path, None, self.timeout)?)
    }

    /// `POST path` with a JSON body, requiring 2xx.
    ///
    /// # Errors
    ///
    /// Transport failures or non-2xx statuses.
    pub fn post(&self, path: &str, body: &str) -> Result<HttpResponse, ClientError> {
        self.expect_ok(request(&self.base, "POST", path, Some(body), self.timeout)?)
    }

    /// Submits a job spec (JSON text) and returns the assigned id.
    ///
    /// # Errors
    ///
    /// Transport/HTTP failures or an unparsable response.
    pub fn submit(&self, spec_json: &str) -> Result<String, ClientError> {
        self.submit_traced(spec_json, None)
    }

    /// Submits a job spec under a distributed-trace context: the
    /// context is injected as a `traceparent` header, so the server's
    /// request span — and through it every scheduler mark and lease
    /// span the job ever produces, across restarts — becomes a child
    /// of the caller's span.
    ///
    /// # Errors
    ///
    /// Transport/HTTP failures or an unparsable response.
    pub fn submit_traced(
        &self,
        spec_json: &str,
        trace: Option<&qdi_obs::span::TraceContext>,
    ) -> Result<String, ClientError> {
        let header = trace.map(qdi_obs::span::TraceContext::to_traceparent);
        let headers: Vec<(&str, &str)> = header
            .as_deref()
            .map(|value| vec![("traceparent", value)])
            .unwrap_or_default();
        let response = self.expect_ok(request_with_headers(
            &self.base,
            "POST",
            "/v1/jobs",
            Some(spec_json),
            &headers,
            self.timeout,
        )?)?;
        let value = serde_json::parse_value_str(&response.text())
            .map_err(|e| transport(format!("parse submit response: {e:?}")))?;
        value
            .get("id")
            .and_then(serde::Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| transport("submit response lacks an id"))
    }

    /// Fetches a job's status.
    ///
    /// # Errors
    ///
    /// Transport/HTTP failures or an unparsable response.
    pub fn status(&self, id: &str) -> Result<JobStatus, ClientError> {
        let response = self.get(&format!("/v1/jobs/{id}"))?;
        serde_json::from_str(&response.text())
            .map_err(|e| transport(format!("parse status: {e:?}")))
    }

    /// Long-polls until the job reaches a terminal state (or overall
    /// `deadline` elapses — then returns the latest status anyway).
    ///
    /// # Errors
    ///
    /// Transport/HTTP failures.
    pub fn wait_terminal(&self, id: &str, deadline: Duration) -> Result<JobStatus, ClientError> {
        let end = std::time::Instant::now() + deadline;
        loop {
            let status = self.status(id)?;
            if status.state.is_terminal() || std::time::Instant::now() >= end {
                return Ok(status);
            }
            let path = format!("/v1/jobs/{id}?wait_ms=1000&after={}", status.last_seq);
            let _ = self.get(&path)?;
        }
    }

    /// Requests cancellation.
    ///
    /// # Errors
    ///
    /// Transport/HTTP failures.
    pub fn cancel(&self, id: &str) -> Result<JobStatus, ClientError> {
        let response = self.post(&format!("/v1/jobs/{id}/cancel"), "{}")?;
        serde_json::from_str(&response.text())
            .map_err(|e| transport(format!("parse status: {e:?}")))
    }

    /// Streams the job's SSE feed, invoking `on_event(event, data)`
    /// for each event until the stream ends, the callback returns
    /// `false`, or the peer goes away.
    ///
    /// # Errors
    ///
    /// Transport failures establishing the stream, a status other than
    /// 200, or an event the codec refuses ([`http::read_sse_event`]).
    pub fn stream_events(
        &self,
        id: &str,
        after: Option<u64>,
        mut on_event: impl FnMut(&str, &str) -> bool,
    ) -> Result<(), ClientError> {
        let path = match after {
            Some(after) => format!("/v1/jobs/{id}/events?after={after}"),
            None => format!("/v1/jobs/{id}/events"),
        };
        let accept = [("Accept", "text/event-stream")];
        let timeout = Duration::from_secs(60);
        let stream = send(&self.base, timeout, None, "GET", &path, &accept, b"")?;
        let mut reader = BufReader::new(stream);
        let codec = |e: http::HttpError| transport(e.message);
        let head = http::read_response_head(&mut reader).map_err(codec)?;
        if head.status != 200 {
            return Err(ClientError {
                status: head.status,
                message: "SSE request failed".into(),
            });
        }
        while let Some(event) = http::read_sse_event(&mut reader).map_err(codec)? {
            let last = matches!(event.event.as_str(), "done" | "drain");
            if !on_event(&event.event, &event.data) || last {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Limits;
    use std::io::{BufRead, Write};
    use std::net::TcpListener;

    #[test]
    fn a_hostile_content_length_is_a_transport_error_not_an_abort() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let base = format!("http://{}", listener.local_addr().expect("addr"));
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
        let err = request(&base, "GET", "/healthz", None, Duration::from_secs(10))
            .expect_err("a 2-byte body cannot satisfy a 1 TiB Content-Length");
        assert_eq!(err.status, 0, "{err}");
        server.join().expect("fake server");
    }

    /// A one-connection fake server: reads the request head, then hands
    /// the stream to `respond`.
    fn serve_once(
        respond: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let base = format!("http://{}", listener.local_addr().expect("addr"));
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            let mut reader = BufReader::new(stream.try_clone().expect("clones"));
            let mut line = String::new();
            while reader.read_line(&mut line).expect("reads") > 2 {
                line.clear();
            }
            respond(stream);
        });
        (base, server)
    }

    #[test]
    fn an_endless_header_line_is_a_transport_error_naming_the_bound() {
        let max = Limits::default().max_header_line;
        let (base, server) = serve_once(move |mut stream| {
            let line = format!("X-Pad: {}", "a".repeat(max + 1 - "X-Pad: ".len()));
            let _ = write!(stream, "HTTP/1.1 200 OK\r\n{line}");
        });
        let err = request(&base, "GET", "/healthz", None, Duration::from_secs(10))
            .expect_err("a header line past the bound");
        server.join().expect("fake server");
        assert_eq!(err.status, 0, "{err}");
        assert!(err.message.contains(&max.to_string()), "{err}");
    }

    #[test]
    fn an_sse_line_past_the_bound_fails_the_stream_before_the_callback() {
        let (base, server) = serve_once(|mut stream| {
            http::write_sse_preamble(&mut stream).expect("writes");
            let data = "x".repeat(http::MAX_SSE_LINE + 1 - "data: ".len());
            // The client hangs up once the line passes the bound.
            let _ = write!(stream, "id: 1\r\nevent: progress\r\ndata: {data}\r\n\r\n");
        });
        let mut seen = Vec::new();
        let result = ServeClient::new(base).stream_events("j000001", None, |event, data| {
            seen.push((event.to_owned(), data.len()));
            true
        });
        server.join().expect("fake server");
        let err = result.expect_err("an SSE line past the bound");
        assert_eq!(err.status, 0, "{err}");
        assert!(
            err.message.contains(&http::MAX_SSE_LINE.to_string()),
            "{err}"
        );
        assert!(seen.is_empty(), "the callback saw {seen:?}");
    }
}
