//! The campaign server daemon.
//!
//! ```text
//! qdi-serve --addr 127.0.0.1:7700 --data /var/lib/qdi [--workers 2]
//!           [--addr-file PATH]
//! ```
//!
//! `--addr-file` writes the actually-bound address (useful with port
//! 0) once the listener is up — orchestration scripts and the e2e
//! tests wait on that file instead of racing the bind.
//!
//! SIGTERM/SIGINT trigger the same graceful drain as
//! `POST /v1/shutdown`: the accept loop stops, every worker finishes
//! and checkpoints its current chunk, running jobs park as `Queued`
//! (to be resumed by the next start), and the observability sinks are
//! flushed. `kill -9` is also survivable — recovery replays the
//! durable job records — it just forfeits the chunks acquired since
//! the last checkpoint landed.

// The workspace forbids unsafe code in libraries; this binary carries
// the single exception: registering POSIX signal handlers has no safe
// std API and no external crates are available. The handler only
// stores to an atomic.
#![deny(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

use qdi_serve::{ServeConfig, Server};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[allow(unsafe_code)]
mod signals {
    use super::{Ordering, SHUTDOWN};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX signal(2). Registering a handler that only touches a
        // lock-free atomic is async-signal-safe.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Routes SIGINT and SIGTERM into the shutdown flag. The main
    /// loop polls the flag every 5 ms and calls `Server::shutdown`,
    /// which wakes the blocking accept loop with a connection of its
    /// own, so no EINTR plumbing is needed.
    pub fn install() {
        // SAFETY: `on_signal` is async-signal-safe (a single atomic
        // store) and `signal` is only called before threads that care
        // about signal masks exist.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: qdi-serve --data DIR [--addr HOST:PORT] [--workers N] [--addr-file PATH]\n\
         \n\
         Campaign-as-a-service daemon: JSON job API on HTTP/1.1.\n\
         --addr defaults to 127.0.0.1:7700; port 0 picks an ephemeral port\n\
         --addr-file writes the bound address once listening (for scripts)"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7700".to_owned();
    let mut data: Option<String> = None;
    let mut workers = 2usize;
    let mut addr_file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--data" => data = Some(args.next().unwrap_or_else(|| usage())),
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|raw| raw.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--addr-file" => addr_file = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    let Some(data) = data else { usage() };

    qdi_obs::init_from_env();
    // The server always writes its run record, which would otherwise
    // take the records `QDI_LOG` enables instead of stderr.
    qdi_obs::add_sink(std::sync::Arc::new(qdi_obs::StderrSink));
    // Emit pending roll-ups on every exit path from main — the
    // graceful drain below, but also an unwinding panic. Worker
    // threads carry their own guard (see `server::worker_loop`), so a
    // lease that dies mid-campaign still leaves its spans on disk.
    let _flush = qdi_obs::flush_on_drop();
    signals::install();

    let mut cfg = ServeConfig::new(&data);
    cfg.addr = addr;
    cfg.workers = workers.max(1);
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("qdi-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    let bound = server.local_addr();
    if let Some(path) = addr_file {
        // Write-then-rename: a watcher never reads a half-written
        // address.
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, format!("{bound}\n"))
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_err()
        {
            eprintln!("qdi-serve: cannot write --addr-file {path}");
            std::process::exit(1);
        }
    }
    println!("qdi-serve: listening on http://{bound} (data: {data})");

    // A short poll: running campaigns see the drain, and park, within
    // a few chunks of the signal.
    while !SHUTDOWN.load(Ordering::SeqCst) && !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    println!("qdi-serve: draining (checkpointing in-flight jobs)...");
    server.shutdown();
    println!("qdi-serve: bye");
}
