//! A deliberately small, hardened HTTP/1.1 and Server-Sent-Events codec
//! over any [`BufRead`]/[`Write`] pair — no external dependencies, no
//! async. It is the wire format of both ends of the job API: the server
//! reads requests and writes responses and events, the
//! [`crate::client`] writes requests and reads responses and events.
//!
//! Every line either end reads goes through one bounded line reader,
//! and every message head through one header-block reader, so the
//! limits hold on every dimension an untrusted peer controls (start-line
//! length, header count and size, request body size, SSE line length).
//! Every malformed input maps to an [`HttpError`] instead of a panic or
//! an unbounded read: the server answers with its 4xx/5xx status, the
//! client reports its message as a transport error. Connections are
//! one-shot (`Connection: close`): a request is read, a response is
//! written, the socket is dropped. That keeps the state machine
//! trivially auditable — exactly what a service embedded in an EDA
//! flow wants from its network edge.

use std::io::{BufRead, BufWriter, Read, Write};

use crate::spec::MAX_TRACES;

/// Parser limits. Every field bounds memory an unauthenticated peer
/// can make its reader allocate. The server and the client both read
/// with [`Limits::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum start-line length in bytes: a request line (method +
    /// target + version) or a status line.
    pub max_request_line: usize,
    /// Maximum single header line length in bytes.
    pub max_header_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum request body size in bytes. A response body is bounded
    /// only by its `Content-Length` and the bytes that arrive: a trace
    /// store download is larger than this.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_headers: 64,
            max_body: 4 * 1024 * 1024,
        }
    }
}

/// A parse/read failure with the HTTP status it should be reported as.
/// The client reads responses and events with the same code, and reports
/// only the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Response status code (4xx/5xx).
    pub status: u16,
    /// Human-readable detail, safe to echo in the response body.
    pub message: String,
}

impl HttpError {
    pub(crate) fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }

    /// 400 Bad Request.
    pub fn bad_request(message: impl Into<String>) -> HttpError {
        HttpError::new(400, message)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Decoded `k=v` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// First query parameter value for `key`, if present.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The distributed-trace context carried by a `traceparent` header
    /// (W3C Trace Context shape). Absent or malformed headers yield
    /// `None` — a bad trace header must never fail the request itself.
    #[must_use]
    pub fn trace_context(&self) -> Option<qdi_obs::span::TraceContext> {
        let raw = self.header("traceparent")?;
        qdi_obs::span::TraceContext::parse_traceparent(raw.trim()).ok()
    }
}

/// Longest SSE line [`read_sse_event`] admits. It must admit the
/// largest event the daemon writes: a `state` event whose
/// [`crate::job::JobStatus`] lists every one of [`MAX_TRACES`] indices as
/// quarantined, 6.9 MB of JSON at one million traces. An index, being
/// below `MAX_TRACES`, takes at most as many digits as `MAX_TRACES` and
/// a comma; 64 KiB covers the rest of the status.
pub const MAX_SSE_LINE: usize = MAX_TRACES * (MAX_TRACES.ilog10() as usize + 2) + 64 * 1024;

/// Reads one `\n`-terminated line of at most `max` bytes (excluding
/// the terminator), stripping a trailing `\r`. Returns `None` on
/// immediate EOF.
fn read_line(
    reader: &mut impl BufRead,
    max: usize,
    what: &str,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    // Room for the line and its `\r\n`: a longer line stops unterminated.
    reader
        .take(max as u64 + 2)
        .read_until(b'\n', &mut line)
        .map_err(|e| io_to_http(&e, &format!("reading {what}")))?;
    let terminated = line.pop_if(|b| *b == b'\n').is_some();
    if terminated {
        line.pop_if(|b| *b == b'\r');
    }
    if line.len() > max {
        return Err(HttpError::new(431, format!("{what} exceeds {max} bytes")));
    }
    if !terminated && line.is_empty() {
        return Ok(None);
    }
    if !terminated {
        return Err(HttpError::bad_request(format!("truncated {what}")));
    }
    let text = String::from_utf8(line)
        .map_err(|_| HttpError::bad_request(format!("{what} is not UTF-8")))?;
    if text.bytes().any(|b| b < 0x20 && b != b'\t') {
        return Err(HttpError::bad_request(format!(
            "{what} contains control bytes"
        )));
    }
    Ok(Some(text))
}

fn io_to_http(e: &std::io::Error, what: &str) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HttpError::new(408, format!("timeout {what}"))
        }
        _ => HttpError::bad_request(format!("i/o error {what}: {e}")),
    }
}

/// Reads the header lines of a message head up to the blank line that
/// ends it: `(name, value)` pairs, names lower-cased, values trimmed.
fn read_headers(
    reader: &mut impl BufRead,
    limits: &Limits,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, limits.max_header_line, "header line")?
            .ok_or_else(|| HttpError::bad_request("truncated headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::new(
                431,
                format!("more than {} headers", limits.max_headers),
            ));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad_request("header line without a colon"))?;
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::bad_request("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
}

fn find_header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// The body length a message head declares, `None` without a
/// `Content-Length`. Only `Content-Length` framing is spoken.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    if find_header(headers, "transfer-encoding").is_some() {
        return Err(HttpError::new(501, "transfer-encoding is not supported"));
    }
    find_header(headers, "content-length")
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| HttpError::bad_request("malformed content-length"))
        })
        .transpose()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect()
}

/// Reads and validates one request. `Ok(None)` means the peer closed
/// the connection without sending anything (not an error).
///
/// # Errors
///
/// [`HttpError`] carrying the 4xx/5xx status the caller should write
/// back: 400 on malformed syntax or truncated bodies, 405 on unknown
/// methods, 411 on a missing `Content-Length` for `POST`, 413 on
/// oversized bodies, 414 on oversized request targets, 431 on
/// oversized/too-many headers, 501 on `Transfer-Encoding`.
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<Request>, HttpError> {
    // An oversized request *line* is a too-long URI, not a header.
    let too_long = |e: HttpError| match e.status {
        431 => HttpError::new(414, e.message),
        _ => e,
    };
    let Some(line) =
        read_line(reader, limits.max_request_line, "request line").map_err(too_long)?
    else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::bad_request("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            505,
            format!("unsupported version {version}"),
        ));
    }
    let method = method.to_ascii_uppercase();
    if !matches!(method.as_str(), "GET" | "POST" | "DELETE" | "HEAD") {
        return Err(HttpError::new(405, format!("method {method} not allowed")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::bad_request("request target must be absolute"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), parse_query(q)),
        None => (target.to_owned(), Vec::new()),
    };
    if path.split('/').any(|seg| seg == "..") {
        return Err(HttpError::bad_request("path traversal rejected"));
    }

    let headers = read_headers(reader, limits)?;
    let mut body = Vec::new();
    match (method.as_str(), content_length(&headers)?) {
        ("POST", None) => return Err(HttpError::new(411, "POST requires content-length")),
        (_, None) | (_, Some(0)) => {}
        (_, Some(len)) => {
            if len > limits.max_body {
                return Err(HttpError::new(
                    413,
                    format!("body of {len} bytes exceeds the {} limit", limits.max_body),
                ));
            }
            body = vec![0u8; len];
            reader.read_exact(&mut body).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => HttpError::bad_request("truncated body"),
                _ => io_to_http(&e, "reading body"),
            })?;
        }
    }
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Writes one request, head and body in a single write. The head
/// carries `Host`, `Content-Length` and `Connection: close`, then
/// `headers` verbatim: their names and values must already be valid.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    host: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        head += &format!("{name}: {value}\r\n");
    }
    writer.write_all(&[head.as_bytes(), b"\r\n", body].concat())?;
    writer.flush()
}

/// A response as the client reads it.
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

/// Reads a response's status line and headers under
/// [`Limits::default`], the server's own, leaving the reader at the
/// first body byte. The returned response has an empty body.
///
/// # Errors
///
/// [`HttpError`] on a closed connection, a malformed or oversized
/// status or header line, or too many headers.
pub fn read_response_head(reader: &mut impl BufRead) -> Result<HttpResponse, HttpError> {
    let limits = Limits::default();
    let line = read_line(reader, limits.max_request_line, "status line")?
        .ok_or_else(|| HttpError::bad_request("connection closed before a status line"))?;
    let mut parts = line.split(' ');
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") && code.len() == 3 => {
            code.parse::<u16>().ok().filter(|s| (100..600).contains(s))
        }
        _ => None,
    }
    .ok_or_else(|| HttpError::bad_request(format!("malformed status line {line:?}")))?;
    let headers = read_headers(reader, &limits)?;
    Ok(HttpResponse {
        status,
        headers,
        body: Vec::new(),
    })
}

/// Reads one response: the head ([`read_response_head`]), then a
/// `Content-Length` body, or everything up to the close without one.
/// The declared length is the peer's claim, not an allocation size: the
/// buffer grows only with bytes that actually arrive.
///
/// # Errors
///
/// [`HttpError`] on a malformed head, a malformed `Content-Length`, a
/// `Transfer-Encoding`, or a body shorter than its declared length.
pub fn read_response(reader: &mut impl BufRead) -> Result<HttpResponse, HttpError> {
    let mut response = read_response_head(reader)?;
    let declared = content_length(&response.headers)?;
    reader
        .take(declared.map_or(u64::MAX, |len| len as u64))
        .read_to_end(&mut response.body)
        .map_err(|e| io_to_http(&e, "reading body"))?;
    match declared {
        Some(len) if response.body.len() < len => Err(HttpError::bad_request(format!(
            "body: {} of {len} declared bytes before the connection closed",
            response.body.len()
        ))),
        _ => Ok(response),
    }
}

/// Bytes a response or SSE event is gathered into before it reaches the
/// socket, so a message that fits is one write.
const WRITE_BUFFER: usize = 8 * 1024;

/// A response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from pre-serialized text.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        let mut body = body.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response {
            status,
            content_type: "application/json".into(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// A binary response.
    #[must_use]
    pub fn bytes(status: u16, content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: content_type.into(),
            body,
        }
    }

    /// The error-report response for a failed parse or route.
    #[must_use]
    pub fn from_error(err: &HttpError) -> Response {
        Response::json(
            err.status,
            format!(
                "{{\"error\":{}}}",
                serde_json::to_string(&err.message).unwrap_or_else(|_| "\"error\"".into())
            ),
        )
    }

    /// Serializes status line, headers and body. One response per
    /// connection: always advertises `Connection: close`. The head, and
    /// a body that fits the 8 KiB write buffer with it, go out in one
    /// write; a larger body is written through after the head, not
    /// copied.
    ///
    /// # Errors
    ///
    /// Propagates writer errors (typically a peer that went away).
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        let mut writer = BufWriter::with_capacity(WRITE_BUFFER, writer);
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// Canonical reason phrase for the handful of statuses the server uses.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes the preamble of a Server-Sent-Events stream (the response
/// head, without a `Content-Length` — the body streams until close).
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_sse_preamble(writer: &mut impl Write) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n"
    )?;
    writer.flush()
}

/// Writes one SSE event, which [`read_sse_event`] reads back. `event`
/// and `data` must each be a single line (JSON is) of at most
/// [`MAX_SSE_LINE`] bytes. An event that fits the 8 KiB write buffer is
/// one write.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_sse_event(
    writer: &mut impl Write,
    id: u64,
    event: &str,
    data: &str,
) -> std::io::Result<()> {
    let mut writer = BufWriter::with_capacity(WRITE_BUFFER, writer);
    write!(writer, "id: {id}\r\nevent: {event}\r\ndata: {data}\r\n\r\n")?;
    writer.flush()
}

/// One Server-Sent Event, as [`read_sse_event`] reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SseEvent {
    /// The `id` field, when the event has a numeric one (the server's
    /// event sequence number).
    pub id: Option<u64>,
    /// The `event` field; `message` when the event has none.
    pub event: String,
    /// The `data` field; empty when the event has none.
    pub data: String,
}

/// Reads the next event of an SSE body (after [`read_response_head`]):
/// `id`, `event` and `data` fields in any order, up to the blank line
/// that ends the event. Comment lines (`:`), such as the server's
/// heartbeats, and fields it does not know are skipped, and so is a
/// block with neither an `event` nor a `data` field (its `id` carries
/// over). A field repeated within one event keeps its last value. Each
/// line is bounded by [`MAX_SSE_LINE`]. `Ok(None)` when the stream
/// closes at a line boundary; an event the close cuts short is dropped.
///
/// # Errors
///
/// [`HttpError`] on an oversized, truncated or non-text line.
pub fn read_sse_event(reader: &mut impl BufRead) -> Result<Option<SseEvent>, HttpError> {
    let (mut id, mut event, mut data) = (None, None, None);
    while let Some(line) = read_line(reader, MAX_SSE_LINE, "SSE line")? {
        if line.is_empty() && (event.is_some() || data.is_some()) {
            let event = event.unwrap_or_else(|| "message".into());
            let data = data.unwrap_or_default();
            return Ok(Some(SseEvent { id, event, data }));
        }
        let (field, value) = line.split_once(':').unwrap_or((&line, ""));
        let value = value.strip_prefix(' ').unwrap_or(value);
        match field {
            "id" => id = value.parse().ok(),
            "event" => event = Some(value.to_owned()),
            "data" => data = Some(value.to_owned()),
            _ => {}
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(raw.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /v1/jobs?tenant=alice&after=3 HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("parses")
            .expect("present");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query_param("tenant"), Some("alice"));
        assert_eq!(req.query_param("after"), Some("3"));
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .expect("parses")
            .expect("present");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn eof_before_request_is_not_an_error() {
        assert_eq!(parse(b"").expect("clean eof"), None);
    }

    #[test]
    fn rejects_truncated_body_with_400() {
        let err = parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn rejects_post_without_length_with_411() {
        let err = parse(b"POST /v1/jobs HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 411);
    }

    #[test]
    fn rejects_oversized_request_line_with_414() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 9000));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(parse(&raw).unwrap_err().status, 414);
    }

    #[test]
    fn rejects_header_flood_with_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse(&raw).unwrap_err().status, 431);
    }

    #[test]
    fn rejects_chunked_with_501() {
        let err =
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 1\r\n\r\nx")
                .unwrap_err();
        assert_eq!(err.status, 501);
    }

    #[test]
    fn rejects_dotdot_traversal() {
        assert_eq!(
            parse(b"GET /v1/../etc/passwd HTTP/1.1\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn response_includes_length_and_close() {
        let mut out = Vec::new();
        Response::text(200, "hi")
            .write_to(&mut out)
            .expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn responses_are_framed_by_content_length_or_the_close() {
        let read = |raw: &str| read_response(&mut Cursor::new(raw.to_owned()));
        let sized = read("HTTP/1.1 404 X\r\nContent-Length: 2\r\n\r\nhi and more").expect("reads");
        assert_eq!((sized.status, sized.text().as_str()), (404, "hi"));
        let to_close = read("HTTP/1.0 200 OK\r\nX-A: b\r\n\r\nall of it").expect("reads");
        assert_eq!(to_close.headers, [("x-a".to_owned(), "b".to_owned())]);
        assert_eq!(to_close.text(), "all of it");
        for (raw, what) in [
            (
                "HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\nx",
                "content-length",
            ),
            ("HTTP/1.1 200 OK\r\nno colon here\r\n\r\n", "colon"),
            ("HTTP/1.1 OK\r\n\r\n", "status line"),
            ("", "status line"),
        ] {
            let err = read(raw).expect_err(raw);
            assert!(err.message.contains(what), "{raw:?}: {err}");
        }
    }

    #[test]
    fn sse_fields_come_in_any_order_past_comments_and_heartbeats() {
        let raw = ": ping\r\n\r\ndata: {\"a\":1}\r\n: note\r\nretry: 5\r\nid: 7\r\nevent: progress\r\n\r\n\
                   : ping\r\n\r\nevent: done\r\n\r\nid: 9\r\nevent: cut";
        let mut reader = Cursor::new(raw.as_bytes().to_vec());
        let event = read_sse_event(&mut reader)
            .expect("reads")
            .expect("an event");
        assert_eq!(
            event,
            SseEvent {
                id: Some(7),
                event: "progress".into(),
                data: "{\"a\":1}".into(),
            }
        );
        let done = read_sse_event(&mut reader)
            .expect("reads")
            .expect("an event");
        assert_eq!(
            (done.id, done.event.as_str(), done.data.as_str()),
            (None, "done", "")
        );
        // The close cuts the last line short.
        assert!(read_sse_event(&mut reader).is_err());
        let closed = read_sse_event(&mut Cursor::new(b"id: 3\r\n".to_vec())).expect("reads");
        assert_eq!(closed, None, "an event the close cuts short is dropped");
    }

    #[test]
    fn the_largest_state_event_fits_the_sse_bound() {
        let status = crate::job::JobStatus {
            id: "j000001".into(),
            tenant: "t".repeat(64),
            name: Some("n".repeat(128)),
            kind: "dpa".into(),
            state: crate::job::JobState::Failed,
            completed: MAX_TRACES as u64,
            total: MAX_TRACES as u64,
            error: Some("every trace quarantined".into()),
            quarantined: (0..MAX_TRACES as u64).collect(),
            resumes: u64::MAX,
            last_seq: u64::MAX,
        };
        let data = serde_json::to_string(&status).expect("serializes");
        assert!(data.len() > 6_800_000, "{} bytes", data.len());
        let mut wire = Vec::new();
        write_sse_event(&mut wire, u64::MAX, "state", &data).expect("writes");
        let event = read_sse_event(&mut Cursor::new(wire))
            .expect("within the bound")
            .expect("an event");
        assert_eq!((event.id, event.event.as_str()), (Some(u64::MAX), "state"));
        assert!(event.data == data);
    }

    /// A sink that counts the `write` calls reaching it.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_json_response_is_one_write() {
        let mut out = CountingWriter::default();
        Response::json(200, r#"{"state":"running"}"#)
            .write_to(&mut out)
            .expect("writes");
        assert_eq!(out.writes, 1);
        let read = read_response(&mut Cursor::new(out.bytes)).expect("reads");
        assert_eq!(read.text(), "{\"state\":\"running\"}\n");
    }

    #[test]
    fn a_small_sse_event_is_one_write() {
        let mut out = CountingWriter::default();
        write_sse_event(&mut out, 7, "progress", r#"{"completed":64}"#).expect("writes");
        assert_eq!(out.writes, 1);
        let event = read_sse_event(&mut Cursor::new(out.bytes)).expect("reads");
        assert_eq!(event.map(|e| e.id), Some(Some(7)));
    }

    #[test]
    fn a_body_past_the_buffer_is_written_through_after_the_head() {
        let body = vec![0xA5; WRITE_BUFFER + 1];
        let mut out = CountingWriter::default();
        Response::bytes(200, "application/octet-stream", body.clone())
            .write_to(&mut out)
            .expect("writes");
        assert_eq!(out.writes, 2);
        let read = read_response(&mut Cursor::new(out.bytes)).expect("reads");
        assert!(read.body == body);
    }

    fn text(chars: Vec<u32>) -> String {
        chars.into_iter().filter_map(char::from_u32).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// What `write_sse_event` writes, `read_sse_event` reads back:
        /// any id, any event name, any single line of data.
        #[test]
        fn sse_events_round_trip(
            id in any::<u64>(),
            event in prop::collection::vec(0x61u32..0x7b, 0..16),
            data in prop::collection::vec(0x20u32..0x3000, 0..256),
        ) {
            let (event, data) = (text(event), text(data));
            let mut wire = Vec::new();
            write_sse_event(&mut wire, id, &event, &data).expect("writes");
            let read = read_sse_event(&mut Cursor::new(wire)).expect("reads");
            prop_assert_eq!(read, Some(SseEvent { id: Some(id), event, data }));
        }
    }
}
