//! A small blocking HTTP client for the job API — `std::net` only,
//! one request per connection, mirroring the server's `Connection:
//! close` discipline. Used by the `qdi-client` binary, the e2e tests
//! and anything that wants to submit campaigns programmatically.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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

/// A parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Lower-cased header pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
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
    let authority = authority_of(base)?;
    let mut stream = TcpStream::connect(&authority)
        .map_err(|e| transport(format!("connect {authority}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| transport(e.to_string()))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| transport(e.to_string()))?;
    let body_bytes = body.unwrap_or("").as_bytes();
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body_bytes.len()
    );
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body_bytes))
        .map_err(|e| transport(format!("send: {e}")))?;
    read_response(&mut BufReader::new(stream))
}

fn read_response(reader: &mut impl BufRead) -> Result<HttpResponse, ClientError> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| transport(format!("status line: {e}")))?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| transport(format!("malformed status line {line:?}")))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| transport(format!("headers: {e}")))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let mut body = Vec::new();
    match content_length {
        // The declared length is the peer's claim, not an allocation
        // size: the buffer grows only with bytes that actually arrive.
        Some(len) => {
            reader
                .take(len as u64)
                .read_to_end(&mut body)
                .map_err(|e| transport(format!("body: {e}")))?;
            if body.len() < len {
                return Err(transport(format!(
                    "body: {} of {len} declared bytes before the connection closed",
                    body.len()
                )));
            }
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| transport(format!("body: {e}")))?;
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
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
    /// Transport failures establishing the stream.
    pub fn stream_events(
        &self,
        id: &str,
        after: Option<u64>,
        mut on_event: impl FnMut(&str, &str) -> bool,
    ) -> Result<(), ClientError> {
        let authority = authority_of(&self.base)?;
        let mut stream = TcpStream::connect(&authority)
            .map_err(|e| transport(format!("connect {authority}: {e}")))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| transport(e.to_string()))?;
        let path = match after {
            Some(after) => format!("/v1/jobs/{id}/events?after={after}"),
            None => format!("/v1/jobs/{id}/events"),
        };
        let head = format!(
            "GET {path} HTTP/1.1\r\nHost: {authority}\r\nAccept: text/event-stream\r\nConnection: close\r\n\r\n"
        );
        stream
            .write_all(head.as_bytes())
            .map_err(|e| transport(format!("send: {e}")))?;
        let mut reader = BufReader::new(stream);
        // Response head.
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| transport(format!("status line: {e}")))?;
        if !line.contains("200") {
            return Err(transport(format!("SSE request failed: {}", line.trim())));
        }
        loop {
            let mut line = String::new();
            if reader
                .read_line(&mut line)
                .map_err(|e| transport(e.to_string()))?
                == 0
            {
                return Ok(());
            }
            let line = line.trim_end();
            if line.is_empty() || line.starts_with(':') || line.starts_with("id:") {
                continue;
            }
            // Skip the remaining response headers until the first SSE
            // field; header lines also contain ':' so detect exactly
            // the two field names we emit.
            let Some(event) = line.strip_prefix("event: ") else {
                continue;
            };
            let event = event.to_owned();
            let mut data = String::new();
            let mut line = String::new();
            if reader
                .read_line(&mut line)
                .map_err(|e| transport(e.to_string()))?
                > 0
            {
                if let Some(payload) = line.trim_end().strip_prefix("data: ") {
                    data = payload.to_owned();
                }
            }
            let keep_going = on_event(&event, &data);
            if !keep_going || event == "done" || event == "drain" {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
