//! Remote progress sources for `qdi-mon watch`: instead of tailing a
//! local `progress.json`, point the watcher at a running `qdi-serve`
//! instance.
//!
//! Two source shapes are supported, both plain `std::net` (this crate
//! deliberately does not depend on `qdi-serve`; the wire contract is
//! the [`ProgressSnapshot`] JSON shape both sides share via
//! `qdi-obs`):
//!
//! * **poll** — `http://host:port` or any non-`/events` path: issues
//!   `GET /v1/progress` (or the given path) per frame;
//! * **SSE** — a path ending in `/events` (the server's per-job
//!   stream): holds one connection open and renders every `progress`
//!   event as a frame.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use qdi_obs::progress::ProgressSnapshot;

/// Whether `source` names a server rather than a file.
#[must_use]
pub fn is_url(source: &str) -> bool {
    source.starts_with("http://")
}

/// Whether a URL should be tailed as an SSE stream.
#[must_use]
pub fn is_sse_url(source: &str) -> bool {
    is_url(source) && path_of(source).ends_with("/events")
}

fn split_url(url: &str) -> Result<(String, String), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("only http:// URLs are supported, got {url:?}"))?;
    let (authority, path) = match rest.split_once('/') {
        Some((authority, path)) => (authority, format!("/{path}")),
        None => (rest, String::new()),
    };
    if authority.is_empty() {
        return Err(format!("no host in {url:?}"));
    }
    Ok((authority.to_owned(), path))
}

fn path_of(url: &str) -> String {
    split_url(url).map(|(_, path)| path).unwrap_or_default()
}

/// Fetches one [`ProgressSnapshot`] from a poll-style URL. A bare
/// `http://host:port` (or trailing `/`) defaults to `/v1/progress`.
///
/// # Errors
///
/// Transport, HTTP or parse failures, as text.
pub fn fetch_progress(url: &str, timeout: Duration) -> Result<ProgressSnapshot, String> {
    let (authority, mut path) = split_url(url)?;
    if path.is_empty() || path == "/" {
        path = "/v1/progress".to_owned();
    }
    let mut stream =
        TcpStream::connect(&authority).map_err(|e| format!("connect {authority}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("status line: {e}"))?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("headers: {e}"))?
            == 0
        {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut bytes = Vec::new();
    match content_length {
        // The declared length is the peer's claim, not an allocation
        // size: the buffer grows only with bytes that actually arrive.
        Some(len) => {
            reader
                .take(len as u64)
                .read_to_end(&mut bytes)
                .map_err(|e| format!("body: {e}"))?;
            if bytes.len() < len {
                return Err(format!(
                    "body: {} of {len} declared bytes before the connection closed",
                    bytes.len()
                ));
            }
        }
        None => {
            reader
                .read_to_end(&mut bytes)
                .map_err(|e| format!("body: {e}"))?;
        }
    }
    let body = String::from_utf8_lossy(&bytes);
    if status != 200 {
        return Err(format!("HTTP {status}: {}", body.trim()));
    }
    serde_json::from_str(&body).map_err(|e| format!("parse snapshot: {e:?}"))
}

/// What one SSE event amounted to.
#[derive(Debug, Clone, PartialEq)]
pub enum SseFrame {
    /// A `progress` event carrying a renderable snapshot.
    Progress(ProgressSnapshot),
    /// A `state` event (payload echoed raw).
    State(String),
    /// The stream ended (`done`/`drain`/EOF).
    End(String),
}

/// Tails an SSE URL, invoking `on_frame` per event until the stream
/// ends or the callback returns `false`.
///
/// # Errors
///
/// Transport failures establishing the stream, as text.
pub fn stream_sse(url: &str, mut on_frame: impl FnMut(SseFrame) -> bool) -> Result<(), String> {
    let (authority, path) = split_url(url)?;
    let mut stream =
        TcpStream::connect(&authority).map_err(|e| format!("connect {authority}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {authority}\r\nAccept: text/event-stream\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("status line: {e}"))?;
    if !line.contains("200") {
        return Err(format!("SSE request failed: {}", line.trim()));
    }
    let mut event = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            let _ = on_frame(SseFrame::End("eof".into()));
            return Ok(());
        }
        let line = line.trim_end();
        if let Some(name) = line.strip_prefix("event: ") {
            event = name.to_owned();
            continue;
        }
        let Some(data) = line.strip_prefix("data: ") else {
            continue;
        };
        let frame = match event.as_str() {
            "progress" => match serde_json::from_str::<ProgressSnapshot>(data) {
                Ok(snapshot) => SseFrame::Progress(snapshot),
                Err(_) => SseFrame::State(data.to_owned()),
            },
            "done" | "drain" => SseFrame::End(event.clone()),
            _ => SseFrame::State(data.to_owned()),
        };
        let end = matches!(frame, SseFrame::End(_));
        if !on_frame(frame) || end {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn classifies_sources() {
        assert!(is_url("http://127.0.0.1:7700"));
        assert!(!is_url("secure_flow.progress.json"));
        assert!(is_sse_url("http://h:1/v1/jobs/j000001/events"));
        assert!(!is_sse_url("http://h:1/v1/progress"));
    }

    #[test]
    fn polls_a_snapshot_over_http() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let snapshot = ProgressSnapshot {
            ts_us: 42,
            tasks: Vec::new(),
            pool: Vec::new(),
        };
        let body = serde_json::to_string(&snapshot).expect("serializes");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            // Consume the whole request head before responding, else the
            // client can hit EPIPE mid-send when we close early.
            let mut reader = BufReader::new(stream);
            loop {
                let mut line = String::new();
                let n = reader.read_line(&mut line).expect("reads request");
                if n == 0 || line.trim_end().is_empty() {
                    break;
                }
            }
            let mut stream = reader.into_inner();
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            );
            stream.write_all(response.as_bytes()).expect("writes");
        });
        let snap =
            fetch_progress(&format!("http://{addr}"), Duration::from_secs(5)).expect("fetches");
        assert_eq!(snap.ts_us, 42);
        server.join().expect("joins");
    }
}
