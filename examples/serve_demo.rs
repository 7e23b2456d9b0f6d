//! Campaign-as-a-service walkthrough: an in-process `qdi-serve`
//! instance, two tenants submitting fixed-seed DPA campaigns over real
//! HTTP, SSE progress, and addressable artifacts.
//!
//! The demo also writes `serve_demo.spec.json` (the exact JSON a
//! remote tenant would POST, or feed to `qdi-client submit`) and
//! `serve_demo.report.json` (the uninterrupted golden report). CI uses
//! both: it re-submits the same spec to a standalone `qdi-serve`
//! process, `kill -9`s the daemon mid-campaign, restarts it, and
//! requires the resumed job's bias signal to match this golden report
//! bit for bit.
//!
//! Run with: `cargo run --release --example serve_demo`

use std::time::Duration;

use qdi::dpa::{CampaignConfig, ResilienceConfig};
use qdi::serve::{AttackSpec, DpaJobSpec, DpaReport, JobKind, JobSpec, ServeClient};
use qdi::serve::{ServeConfig, Server};

/// The fixed-seed campaign CI replays against a standalone daemon.
/// Sized so a release-mode run lasts long enough to kill mid-flight.
fn demo_spec(tenant: &str) -> JobSpec {
    let mut campaign = CampaignConfig::new(0xA7);
    campaign.traces = 32_768;
    campaign.seed = 20050307; // DATE 2005, fixed for reproducibility
    JobSpec {
        tenant: tenant.into(),
        name: Some("serve-demo".into()),
        priority: None,
        kind: JobKind::Dpa(DpaJobSpec {
            stage: "xor".into(),
            campaign,
            resilience: Some(ResilienceConfig {
                checkpoint_every: 64,
            }),
            exec_workers: Some(1),
            attack: Some(AttackSpec {
                selection: "xor".into(),
                bit: 0,
                guesses: None,
            }),
        }),
    }
}

fn main() {
    let _flush = qdi::obs::flush_on_drop();
    qdi::obs::init_from_env();

    let data = std::path::Path::new("serve_demo_data");
    std::fs::remove_dir_all(data).ok();

    let mut cfg = ServeConfig::new(data);
    cfg.workers = 2;
    let server = Server::start(cfg).expect("server starts");
    println!("serve_demo: listening on http://{}", server.local_addr());
    let client = ServeClient::new(format!("http://{}", server.local_addr()));

    // The wire-format spec, kept as an artifact for qdi-client runs.
    let spec_json = serde_json::to_string_pretty(&demo_spec("ci")).expect("spec serializes");
    std::fs::write("serve_demo.spec.json", &spec_json).expect("write spec");
    println!("serve_demo: wrote serve_demo.spec.json");

    // Two tenants over HTTP; the fair-share scheduler interleaves them.
    // Alice's submit travels under a client-minted trace context, so the
    // span file tells the whole story — client, edge, scheduler, runner —
    // under one trace id. CI renders it with `qdi-mon trace`.
    let mut submit_span = qdi::obs::span("qdi-client", "submit").attr("demo", "serve_demo");
    let ctx = submit_span
        .context()
        .expect("the server's span file turns spans on");
    let alice = client
        .submit_traced(&spec_json, Some(&ctx))
        .expect("alice submits");
    submit_span.set_attr("job", alice.clone());
    drop(submit_span);
    let bob = client
        .submit(&serde_json::to_string(&demo_spec("bob")).expect("serializes"))
        .expect("bob submits");
    println!("serve_demo: submitted {alice} (ci) and {bob} (bob)");
    std::fs::write("serve_demo.trace-id.txt", ctx.trace_id.to_string()).expect("write trace id");
    println!(
        "serve_demo: trace {} (spans in {})",
        ctx.trace_id,
        server.trace_path().display()
    );

    // Tail alice's SSE stream while both campaigns run.
    let mut events = 0u32;
    client
        .stream_events(&alice, None, |event, data| {
            if event == "progress" {
                events += 1;
            }
            if event == "done" {
                println!("serve_demo: {alice} done after {events} progress events ({data})");
            }
            true
        })
        .expect("SSE stream");

    for id in [&alice, &bob] {
        let status = client
            .wait_terminal(id, Duration::from_secs(600))
            .expect("terminal status");
        println!(
            "serve_demo: {id} -> {:?} ({}/{} traces)",
            status.state, status.completed, status.total
        );
        assert!(
            matches!(status.state, qdi::serve::JobState::Completed),
            "job {id} did not complete: {:?}",
            status.error
        );
    }

    // Scrape the Prometheus exposition — per-route/per-tenant RED
    // counters and latency histograms — for `qdi-mon slo` in CI.
    let metrics = client.get("/metrics").expect("metrics").text();
    std::fs::write("serve_demo.metrics.prom", &metrics).expect("write metrics");
    println!(
        "serve_demo: wrote serve_demo.metrics.prom ({} samples)",
        qdi::obs::prometheus::parse(&metrics)
            .expect("exposition parses")
            .samples
            .len()
    );

    // The golden report: CI compares a crash-resumed run against it.
    let report_text = client
        .get(&format!("/v1/jobs/{alice}/report"))
        .expect("report")
        .text();
    std::fs::write("serve_demo.report.json", &report_text).expect("write report");
    let report: DpaReport = serde_json::from_str(&report_text).expect("report parses");
    println!(
        "serve_demo: wrote serve_demo.report.json (guess 0x{:02X}, |T| peak {:.3e} @ {} ps)",
        report.best_guess.expect("attack ran"),
        report.guesses[0].abs_peak,
        report.guesses[0].peak_t_ps,
    );
    assert_eq!(
        report.best_guess,
        Some(0xA7),
        "report must carry the submitted guess"
    );
    assert!(
        !report.guesses[0].samples.is_empty(),
        "bias signal must be non-empty"
    );

    server.shutdown();
    println!("serve_demo: drained cleanly");
}
