//! `serve_dpa`: served DPA jobs through the real `qdi-serve` daemon.
//!
//! A closed loop of client threads (tenants `t0`, `t1`, …) each submits
//! an 8,192-trace XOR-slice job with a bit-0 attack for the key and its
//! complement, waits for it, and fetches the report, then submits the
//! next. This is the only workload that reaches the HTTP edge, the
//! fair-share scheduler, per-chunk durable checkpoints, `.qtrs` writes
//! and store-streamed bias.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qdi_analog::Trace;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::selection::AesXorSelect;
use qdi_dpa::{bias_signal_from_store, CampaignConfig, ResilienceConfig, StoreCampaignRunner};
use qdi_exec::{derive_seed, ExecConfig, StoreOptions, StoreReader, SupervisorPolicy};
use qdi_serve::{AttackSpec, DpaJobSpec, JobKind, JobSpec, JobState};

use crate::campaign::{cancellation, CANCEL_TOLERANCE};
use crate::http::{self, JobRun};
use crate::report::{self, median, percentile, Digest, Outcome, WORKERS};
use crate::{host, spans};

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub traces: usize,
    /// Client threads, one connection in flight each.
    pub clients: usize,
    /// Sequential `GET /healthz` requests in the traced run.
    pub healthz: usize,
}

pub const SIZES: Sizes = Sizes {
    traces: 8_192,
    clients: 2,
    healthz: 200,
};

const KEY: u8 = 0x5a;
const NOISE_SIGMA: f64 = 0.05;
const GUESSES: [u16; 2] = [KEY as u16, (KEY ^ 1) as u16];
/// Seed index of the untimed warm-up job.
const WARMUP: u64 = u64::MAX;
/// The server keeps every job it has seen in memory, so its peak RSS
/// grows with the jobs served. It is read when this many jobs have been
/// submitted, so a faster server, which serves more jobs in a run, does
/// not read as one that uses more memory.
const RSS_AFTER_JOBS: u64 = 24;

fn campaign(traces: usize, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(KEY);
    cfg.traces = traces;
    cfg.seed = seed;
    cfg.synth.noise_sigma = NOISE_SIGMA;
    cfg
}

fn spec(tenant: &str, cfg: CampaignConfig) -> String {
    let spec = JobSpec {
        tenant: tenant.to_owned(),
        name: None,
        priority: None,
        kind: JobKind::Dpa(DpaJobSpec {
            stage: "xor".into(),
            campaign: cfg,
            resilience: None,
            exec_workers: None,
            attack: Some(AttackSpec {
                selection: "xor".into(),
                bit: 0,
                guesses: Some(GUESSES.to_vec()),
            }),
        }),
    };
    serde_json::to_string(&spec).expect("a job spec always serializes")
}

/// A `qdi-serve` process on an ephemeral port with its own data
/// directory. Dropping it stops the process.
struct Server {
    child: Option<Child>,
    base: String,
    dir: PathBuf,
}

impl Server {
    fn start(work: &Path, name: &str) -> Result<Server, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("qdi-serve");
        if !exe.exists() {
            return Err(format!(
                "{} is missing: build it with `cargo build --release -p qdi-serve`",
                exe.display()
            ));
        }
        let dir = work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let addr_file = dir.join("addr");
        let log = std::fs::File::create(dir.join("server.log")).map_err(|e| e.to_string())?;
        let child = Command::new(&exe)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data")
            .arg(dir.join("data"))
            .arg("--workers")
            .arg(WORKERS.to_string())
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut server = Server {
            child: Some(child),
            base: String::new(),
            dir,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                server.base = format!("http://{}", addr.trim());
                return Ok(server);
            }
            let exited = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(code) = exited {
                return Err(format!("qdi-serve exited at start-up with {code}"));
            }
            if Instant::now() > deadline {
                return Err("qdi-serve did not start listening within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Asks for a graceful drain, then kills the process if it has not
    /// exited within 30 s, and reaps it either way.
    fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        if !self.base.is_empty() && http::call(&self.base, "POST", "/v1/shutdown", None).is_ok() {
            let deadline = Instant::now() + Duration::from_secs(30);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One job of the load, as its client saw it.
struct Sample {
    index: u64,
    run: Result<JobRun, String>,
    /// The server's peak RSS once job `RSS_AFTER_JOBS - 1` ended.
    rss_mb: Option<f64>,
}

/// Checks a job's output: completed, every trace acquired, nothing
/// quarantined, and `T(k) + T(k^1)` cancels. Returns the bias pair.
fn verify(run: &Result<JobRun, String>, traces: usize) -> Result<[Vec<f64>; 2], String> {
    let run = run.as_ref().map_err(Clone::clone)?;
    if run.state != JobState::Completed {
        return Err(format!("ended {:?}", run.state));
    }
    let report = run.report.as_ref().ok_or("no report")?;
    if report.traces != traces as u64 || !report.quarantined.is_empty() {
        return Err(format!(
            "{} traces with {} quarantined",
            report.traces,
            report.quarantined.len()
        ));
    }
    let guesses: Vec<u16> = report.guesses.iter().map(|g| g.guess).collect();
    if guesses != GUESSES {
        return Err(format!("biases for guesses {guesses:?}"));
    }
    let [k, k1] = [0, 1].map(|i| report.guesses[i].samples.clone());
    let worst = cancellation(
        &Trace::from_samples(0, 1, k.clone()),
        &Trace::from_samples(0, 1, k1.clone()),
    );
    if worst > CANCEL_TOLERANCE {
        return Err(format!("|T(k) + T(k^1)| reaches {worst:e}"));
    }
    Ok([k, k1])
}

/// Closed-loop load for `seconds`: each client submits its next job as
/// soon as the previous one ends. Job `j` uses seed `derive_seed(seed, j)`
/// whichever client runs it.
fn load(server: &Server, sizes: Sizes, seed: u64, seconds: f64) -> (f64, Vec<Sample>) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parent = spans::current();
    let samples = std::thread::scope(|s| {
        let clients: Vec<_> = (0..sizes.clients)
            .map(|c| {
                let next = &next;
                s.spawn(move || {
                    let tenant = format!("t{c}");
                    let mut samples = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let cfg = campaign(sizes.traces, derive_seed(seed, index));
                        let run = {
                            let _job = spans::child_of(parent, "perf.job");
                            http::run_job(&server.base, &spec(&tenant, cfg))
                        };
                        let rss_mb = (index + 1 == RSS_AFTER_JOBS)
                            .then(|| host::peak_rss_mb(&server.pid()))
                            .flatten();
                        samples.push(Sample { index, run, rss_mb });
                        if Instant::now() >= deadline {
                            return samples;
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (start.elapsed().as_secs_f64(), samples)
}

/// Job `index`'s campaign replayed locally through the same runner the
/// server uses, with the same checkpoint cadence, then its biases
/// streamed from the store. Also returns the stored plaintexts' repeat
/// fraction.
fn replica(
    sizes: Sizes,
    seed: u64,
    index: u64,
    dir: &Path,
) -> Result<([Vec<f64>; 2], f64), String> {
    let slice =
        aes_first_round_slice("serve", SliceStage::XorOnly).map_err(|e| format!("slice: {e}"))?;
    let cfg = campaign(sizes.traces, derive_seed(seed, index));
    let resilience = ResilienceConfig::default();
    let store = dir.join("replica.qtrs");
    let checkpoint = dir.join("replica.checkpoint.json");
    let mut runner = StoreCampaignRunner::new(
        &slice,
        cfg,
        resilience,
        ExecConfig::serial(),
        &store,
        StoreOptions::new(),
    )
    .map_err(|e| format!("runner: {e:?}"))?
    .with_supervisor(SupervisorPolicy::new());
    while !runner.is_done() {
        {
            let mut s = spans::span("dpa.chunk");
            s.work(resilience.checkpoint_every);
            runner.step_chunk().map_err(|e| format!("chunk: {e:?}"))?;
        }
        let _s = spans::span("dpa.checkpoint_save");
        runner
            .checkpoint()
            .save(&checkpoint)
            .map_err(|e| format!("checkpoint: {e:?}"))?;
    }
    runner.finish().map_err(|e| format!("finish: {e:?}"))?;
    let sel = AesXorSelect { byte: 0, bit: 0 };
    let chunk = resilience.checkpoint_every.max(1);
    let mut bias = Vec::new();
    for guess in GUESSES {
        let mut s = spans::span("dpa.store_bias");
        s.work(sizes.traces);
        let t = bias_signal_from_store(&store, &sel, guess, chunk)
            .map_err(|e| format!("bias: {e}"))?
            .ok_or("empty partition")?;
        bias.push(t.samples().to_vec());
    }
    let mut s = spans::span("exec.qtrs.decode");
    s.work(std::fs::metadata(&store).map_or(0, |m| m.len() as usize));
    let mut reader = StoreReader::open(&store).map_err(|e| e.to_string())?;
    let mut plaintexts = std::collections::BTreeSet::new();
    let mut records = 0usize;
    while let Some((input, _)) = reader.next_record().map_err(|e| e.to_string())? {
        plaintexts.insert(input);
        records += 1;
    }
    drop(s);
    let repeat = 1.0 - plaintexts.len() as f64 / records.max(1) as f64;
    Ok((bias.try_into().expect("two guesses"), repeat))
}

fn digest(bias: &[Vec<f64>; 2]) -> u64 {
    let mut d = Digest::default();
    for t in bias {
        d.f64s(t);
    }
    d.value()
}

pub fn run(
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        sizes: vec![
            ("traces_per_job", sizes.traces as u64),
            ("clients", sizes.clients as u64),
            ("server_workers", WORKERS as u64),
            ("healthz_requests", sizes.healthz as u64),
        ],
        ..Outcome::default()
    };
    let (server, setup_s) = report::set_up(|rep| {
        let server = Server::start(work, &format!("serve-{rep}"))?;
        http::call(&server.base, "GET", "/healthz", None)?;
        let warmup = http::run_job(
            &server.base,
            &spec("warmup", campaign(sizes.traces, derive_seed(seed, WARMUP))),
        );
        verify(&warmup, sizes.traces).map_err(|e| format!("warm-up job: {e}"))?;
        Ok::<_, String>(server)
    })?;
    out.set("setup_s", setup_s);

    let record = |out: &mut Outcome, samples: &[Sample]| -> Option<[Vec<f64>; 2]> {
        let mut first = None;
        for sample in samples {
            out.ops += 1;
            match verify(&sample.run, sizes.traces) {
                Ok(bias) if sample.index == 0 => first = Some(bias),
                Ok(_) => {}
                Err(e) => out.fail(1, format!("job {}: {e}", sample.index)),
            }
        }
        first
    };
    let latencies = |samples: &[Sample]| -> Vec<f64> {
        samples
            .iter()
            .filter_map(|s| s.run.as_ref().ok().map(|r| r.total_ms))
            .collect()
    };

    let first = if trace {
        let healthz_ms = {
            let _root = spans::span("perf.healthz");
            let mut times = Vec::with_capacity(sizes.healthz);
            for _ in 0..sizes.healthz {
                let t = Instant::now();
                http::call(&server.base, "GET", "/healthz", None)?;
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
            times
        };
        out.set("serve.http_rtt_ms", median(&healthz_ms));
        out.set(
            "serve.http_rps",
            healthz_ms.len() as f64 / (healthz_ms.iter().sum::<f64>() / 1e3),
        );
        // Half the time untraced, half traced: their job latencies give
        // the tracing overhead.
        let (_, plain) = load(&server, sizes, seed, seconds / 2.0);
        let first = record(&mut out, &plain);
        spans::enable(true);
        let (traced, root) = {
            let root = spans::span("perf.load");
            let (_, traced) = load(&server, sizes, seed, seconds / 2.0);
            (traced, root.id())
        };
        spans::enable(false);
        record(&mut out, &traced);
        let runs: Vec<&JobRun> = traced.iter().filter_map(|s| s.run.as_ref().ok()).collect();
        let phase = |f: fn(&JobRun) -> f64| median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>());
        out.set("serve.submit_ms", phase(|r| r.submit_ms));
        out.set("serve.queue_ms", phase(|r| r.queue_ms));
        out.set("serve.run_ms", phase(|r| r.run_ms));
        out.set("serve.report_ms", phase(|r| r.report_ms));
        let requests: u32 = runs.iter().map(|r| r.requests).sum();
        out.set(
            "serve.requests_per_job",
            f64::from(requests) / runs.len().max(1) as f64,
        );
        let traced_ms = latencies(&traced);
        out.set("serve.job_p90_ms", percentile(&traced_ms, 90.0));
        out.root = root;
        out.workers = sizes.clients;
        out.untraced_s = median(&latencies(&plain)) / 1e3;
        out.traced_s = median(&traced_ms) / 1e3;
        first
    } else {
        let (wall, samples) = load(&server, sizes, seed, seconds);
        let first = record(&mut out, &samples);
        out.unit_ms = latencies(&samples);
        out.set("throughput_per_s", samples.len() as f64 / wall);
        out.set("unit_p50_ms", median(&out.unit_ms));
        let rss_mb = samples.iter().find_map(|s| s.rss_mb);
        if let Some(mb) = rss_mb.or_else(|| host::peak_rss_mb(&server.pid())) {
            out.set("peak_rss_mb", mb);
        }
        first
    };
    drop(server);

    // The first job, replayed locally, must match its served report.
    spans::enable(trace);
    let replayed = {
        let _root = spans::span("perf.replica");
        replica(sizes, seed, 0, work)
    };
    spans::enable(false);
    let (bias, repeat) = replayed?;
    out.set("dpa.stimulus_repeat_frac", repeat);
    match first {
        Some(first) => {
            out.digest = digest(&first);
            out.check(bias == first, 1, || {
                "the local StoreCampaignRunner replica differs from the served report".into()
            });
        }
        // Already counted as a failed job.
        None => out
            .failures
            .push("job 0 has no verified report to replay".into()),
    }
    Ok(out)
}
