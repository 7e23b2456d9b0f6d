//! Adversarial property tests of the HTTP edge: whatever bytes an
//! untrusted peer sends, the parser and the live server must answer
//! with a 4xx/5xx (or close cleanly) — never panic, never hang, never
//! allocate unboundedly.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;

use qdi_serve::http::{read_request, Limits, Request};
use qdi_serve::{ServeConfig, Server};

fn parse(raw: &[u8], limits: &Limits) -> Result<Option<Request>, qdi_serve::http::HttpError> {
    read_request(&mut Cursor::new(raw.to_vec()), limits)
}

/// A canonical well-formed request the mutation properties start from.
fn valid_request() -> Vec<u8> {
    b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"tenant\":1}".to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup: every outcome is a clean close, a parsed
    /// request, or a 4xx/5xx — the parser has no panic path and no
    /// out-of-range status.
    #[test]
    fn byte_soup_never_panics(raw in prop::collection::vec(any::<u8>(), 0..2048)) {
        match parse(&raw, &Limits::default()) {
            Ok(_) => {}
            Err(err) => {
                prop_assert!(
                    (400..=599).contains(&err.status),
                    "status {} for input of {} bytes", err.status, raw.len()
                );
            }
        }
    }

    /// Any strict prefix of a valid request is rejected (or reported as
    /// a clean close when empty) — a cut never yields a parsed request.
    #[test]
    fn truncation_anywhere_is_detected(cut in 0usize..67) {
        let full = valid_request();
        prop_assume!(cut < full.len());
        match parse(&full[..cut], &Limits::default()) {
            Ok(None) => prop_assert_eq!(cut, 0, "only the empty prefix is a clean close"),
            Ok(Some(req)) => {
                return Err(TestCaseError::fail(format!(
                    "prefix of {cut} bytes parsed as {} {}", req.method, req.path
                )));
            }
            Err(err) => prop_assert!((400..=599).contains(&err.status)),
        }
    }

    /// A declared Content-Length over the limit is a 413 before any
    /// body byte is read, for every size above the cap.
    #[test]
    fn oversized_declared_body_is_413(excess in 1u64..1_000_000) {
        let limits = Limits { max_body: 4096, ..Limits::default() };
        let len = limits.max_body as u64 + excess;
        let raw = format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
        let err = parse(raw.as_bytes(), &limits).unwrap_err();
        prop_assert_eq!(err.status, 413);
    }

    /// Header floods beyond the cap are 431 no matter what the header
    /// names and values contain.
    #[test]
    fn header_flood_is_431(
        extra in 1usize..40,
        noise in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let limits = Limits { max_headers: 16, ..Limits::default() };
        let tag: String = noise
            .iter()
            .map(|b| char::from(b'a' + b % 26))
            .collect();
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(limits.max_headers + extra) {
            raw.extend_from_slice(format!("X-{tag}-{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = parse(&raw, &limits).unwrap_err();
        prop_assert_eq!(err.status, 431);
    }

    /// Request lines padded to any length beyond the cap are 414, and
    /// the parser consumes only bounded memory doing so.
    #[test]
    fn long_request_line_is_414(pad in 1usize..8192) {
        let limits = Limits { max_request_line: 512, ..Limits::default() };
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(limits.max_request_line + pad));
        let err = parse(raw.as_bytes(), &limits).unwrap_err();
        prop_assert_eq!(err.status, 414);
    }
}

/// The same contract over a real socket: a live server answers garbage
/// with an error status (or closes) within the I/O timeout — it never
/// hangs a connection open on malformed input.
#[test]
fn live_server_rejects_garbage_without_hanging() {
    let dir = std::env::temp_dir().join(format!("qdi_serve_harden_{}", std::process::id()));
    let mut cfg = ServeConfig::new(&dir);
    cfg.addr = "127.0.0.1:0".into();
    cfg.io_timeout_ms = 2_000;
    let server = Server::start(cfg).expect("server starts");
    let addr = server.local_addr();

    let cases: Vec<Vec<u8>> = vec![
        b"\x00\x01\x02\x03\x04garbage".to_vec(),
        b"GET\r\n\r\n".to_vec(),
        b"BREW /coffee HTTP/1.1\r\n\r\n".to_vec(),
        b"GET / SPDY/3\r\n\r\n".to_vec(),
        b"GET /../../etc/passwd HTTP/1.1\r\n\r\n".to_vec(),
        b"POST /v1/jobs HTTP/1.1\r\n\r\n".to_vec(),
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
        b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
        {
            let mut huge = b"GET /".to_vec();
            huge.extend(std::iter::repeat_n(b'x', 64 * 1024));
            huge.extend_from_slice(b" HTTP/1.1\r\n\r\n");
            huge
        },
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n".to_vec(),
    ];

    for (i, raw) in cases.iter().enumerate() {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // The peer may already have responded and closed; a send error
        // is acceptable, a hang is not.
        let _ = stream.write_all(raw);
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.starts_with("HTTP/1.1 4") || text.starts_with("HTTP/1.1 5"),
            "case {i}: expected an error status, got {:?}",
            &text[..text.len().min(80)]
        );
    }

    // A peer that connects and says nothing is dropped on the read
    // timeout without wedging a worker: the server still answers.
    let idle = TcpStream::connect(addr).expect("connects");
    let mut probe = TcpStream::connect(addr).expect("connects");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("sends");
    let mut response = Vec::new();
    probe.read_to_end(&mut response).expect("reads");
    assert!(
        String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200"),
        "healthz must answer while an idle peer is parked"
    );
    drop(idle);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A job body nested far past the JSON depth limit (10,000 `[`, 10 KB)
/// is a 400, not a stack overflow that aborts the daemon for every
/// tenant: the server keeps answering afterwards.
#[test]
fn deeply_nested_job_body_is_400_and_the_server_survives() {
    let dir = std::env::temp_dir().join(format!("qdi_serve_deep_{}", std::process::id()));
    let mut cfg = ServeConfig::new(&dir);
    cfg.addr = "127.0.0.1:0".into();
    cfg.io_timeout_ms = 2_000;
    let server = Server::start(cfg).expect("server starts");
    let addr = server.local_addr();
    let exchange = |raw: &[u8]| {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(raw).expect("sends");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("reads");
        String::from_utf8_lossy(&response).into_owned()
    };

    let body = "[".repeat(10_000);
    let mut raw = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    let response = exchange(&raw);
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "expected 400, got {:?}",
        &response[..response.len().min(200)]
    );
    assert!(response.contains("recursion limit"), "{response}");

    let health = exchange(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault-injection job asking for 2^40 tokens per channel would make
/// the worker allocate 8 TB, which aborts the process for every tenant
/// (an allocation failure is not an unwinding panic). The edge refuses
/// it with a 422 and the server keeps answering.
#[test]
fn oversized_fault_injection_job_is_422_and_the_server_survives() {
    let dir = std::env::temp_dir().join(format!("qdi_serve_tokens_{}", std::process::id()));
    let mut cfg = ServeConfig::new(&dir);
    cfg.addr = "127.0.0.1:0".into();
    cfg.io_timeout_ms = 2_000;
    let server = Server::start(cfg).expect("server starts");
    let client = qdi_serve::ServeClient::new(format!("http://{}", server.local_addr()));

    let spec = qdi_serve::JobSpec {
        tenant: "mallory".into(),
        name: None,
        priority: None,
        kind: qdi_serve::JobKind::Fi(qdi_serve::FiJobSpec {
            stage: "xor".into(),
            campaign: qdi_fi::campaign::CampaignConfig {
                tokens: 1 << 40,
                ..qdi_fi::campaign::CampaignConfig::new()
            },
            models: "seu".into(),
            times_ps: None,
            sample: None,
        }),
    };
    let err = client
        .submit(&serde_json::to_string(&spec).expect("serializes"))
        .expect_err("must reject");
    assert_eq!(err.status, 422, "{err:?}");
    assert!(err.message.contains("campaign.tokens"), "{}", err.message);

    let health = client.get("/healthz").expect("healthz answers");
    assert_eq!(health.status, 200);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault-injection job listing 100,000 injection times on the S-box
/// stage would make the worker reserve gates × models × times faults,
/// about 26 GB, which aborts the process; a time of `u64::MAX` would wrap
/// the simulator's fault-release arithmetic. The edge refuses both with a
/// 422 naming `times_ps`, and the server keeps answering.
#[test]
fn unbounded_injection_times_are_422_and_the_server_survives() {
    let dir = std::env::temp_dir().join(format!("qdi_serve_times_{}", std::process::id()));
    let mut cfg = ServeConfig::new(&dir);
    cfg.addr = "127.0.0.1:0".into();
    cfg.io_timeout_ms = 2_000;
    let server = Server::start(cfg).expect("server starts");
    let client = qdi_serve::ServeClient::new(format!("http://{}", server.local_addr()));

    let spec = |times_ps: Vec<u64>| qdi_serve::JobSpec {
        tenant: "mallory".into(),
        name: None,
        priority: None,
        kind: qdi_serve::JobKind::Fi(qdi_serve::FiJobSpec {
            stage: "sbox".into(),
            campaign: qdi_fi::campaign::CampaignConfig::new(),
            models: "seu,stuck0,stuck1,delay,glitch".into(),
            times_ps: Some(times_ps),
            sample: None,
        }),
    };
    for times_ps in [(0..100_000).collect(), vec![1_600, u64::MAX]] {
        let body = serde_json::to_string(&spec(times_ps)).expect("serializes");
        let err = client.submit(&body).expect_err("must reject");
        assert_eq!(err.status, 422, "{err:?}");
        assert!(err.message.contains("times_ps"), "{}", err.message);
    }

    let health = client.get("/healthz").expect("healthz answers");
    assert_eq!(health.status, 200);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The accept loop blocks in `accept`, so a drain has to wake it. On an
/// unspecified bind address (`0.0.0.0`) the wake goes to loopback; with
/// no traffic at all, `shutdown()` still returns at once.
#[test]
fn shutdown_wakes_an_idle_accept_bound_to_an_unspecified_address() {
    let dir = std::env::temp_dir().join(format!("qdi_serve_wake_{}", std::process::id()));
    let mut cfg = ServeConfig::new(&dir);
    cfg.addr = "0.0.0.0:0".into();
    let server = Server::start(cfg).expect("server starts");
    assert!(server.local_addr().ip().is_unspecified());

    let (done, returned) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    returned
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown() must return within 1 s");
    drain.join().expect("shutdown thread");
    std::fs::remove_dir_all(&dir).ok();
}
