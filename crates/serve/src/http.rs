//! A deliberately small, hardened HTTP/1.1 layer over any
//! [`BufRead`]/[`Write`] pair — no external dependencies, no async.
//!
//! The parser enforces hard limits on every dimension an untrusted
//! client controls (request-line length, header count and size, body
//! size) and maps every malformed input to a 4xx/5xx [`HttpError`]
//! instead of panicking or reading unboundedly. Connections are
//! one-shot (`Connection: close`): a request is read, a response is
//! written, the socket is dropped. That keeps the state machine
//! trivially auditable — exactly what a service embedded in an EDA
//! flow wants from its network edge.

use std::io::{BufRead, Write};

/// Parser limits. Every field bounds memory an unauthenticated peer
/// can make the server allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum request-line length in bytes (method + target + version).
    pub max_request_line: usize,
    /// Maximum single header line length in bytes.
    pub max_header_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum request body size in bytes.
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

    /// The peer closed the connection before sending a full request
    /// line; no response should be written.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.status == 0
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
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
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

/// Reads one `\n`-terminated line of at most `max` bytes (excluding
/// the terminator), stripping a trailing `\r`. Returns `None` on
/// immediate EOF.
fn read_line(
    reader: &mut impl BufRead,
    max: usize,
    what: &str,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader
            .fill_buf()
            .map_err(|e| io_to_http(&e, "reading request"))?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::bad_request(format!("truncated {what}")));
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max {
                    return Err(HttpError::new(431, format!("{what} exceeds {max} bytes")));
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                let text = String::from_utf8(line)
                    .map_err(|_| HttpError::bad_request(format!("{what} is not UTF-8")))?;
                if text.bytes().any(|b| b < 0x20 && b != b'\t') {
                    return Err(HttpError::bad_request(format!(
                        "{what} contains control bytes"
                    )));
                }
                return Ok(Some(text));
            }
            None => {
                let take = buf.len();
                if line.len() + take > max {
                    return Err(HttpError::new(431, format!("{what} exceeds {max} bytes")));
                }
                line.extend_from_slice(buf);
                reader.consume(take);
            }
        }
    }
}

fn io_to_http(e: &std::io::Error, what: &str) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HttpError::new(408, format!("timeout {what}"))
        }
        _ => HttpError::bad_request(format!("i/o error {what}: {e}")),
    }
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
    let line = match read_line(reader, limits.max_request_line, "request line") {
        Ok(Some(line)) => line,
        Ok(None) => return Ok(None),
        // An oversized request *line* is a too-long URI, not a header.
        Err(e) if e.status == 431 => {
            return Err(HttpError::new(414, e.message));
        }
        Err(e) => return Err(e),
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

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, limits.max_header_line, "header line")?
            .ok_or_else(|| HttpError::bad_request("truncated headers"))?;
        if line.is_empty() {
            break;
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

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::new(501, "transfer-encoding is not supported"));
    }
    let content_length = match request.header("content-length") {
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| HttpError::bad_request("malformed content-length"))?,
        ),
        None => None,
    };
    match (request.method.as_str(), content_length) {
        ("POST", None) => return Err(HttpError::new(411, "POST requires content-length")),
        (_, None) | (_, Some(0)) => {}
        (_, Some(len)) => {
            if len > limits.max_body {
                return Err(HttpError::new(
                    413,
                    format!("body of {len} bytes exceeds the {} limit", limits.max_body),
                ));
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => HttpError::bad_request("truncated body"),
                _ => io_to_http(&e, "reading body"),
            })?;
            request.body = body;
        }
    }
    Ok(Some(request))
}

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
    /// connection: always advertises `Connection: close`.
    ///
    /// # Errors
    ///
    /// Propagates writer errors (typically a peer that went away).
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
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

/// Writes one SSE event. `data` must be a single line (JSON is).
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
    write!(writer, "id: {id}\r\nevent: {event}\r\ndata: {data}\r\n\r\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
