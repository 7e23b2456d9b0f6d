//! A served job's trace reaches its kernels: the campaign's hot spans
//! (`dpa.chunk`, `dpa.acquire`, `sim.run`, ...) roll up under the job's
//! `lease` span, also when the pool runs them on worker threads and
//! when the checkpoint saver runs `dpa.checkpoint.save` on a thread of
//! its own, and the span file grows with the job's structure, not with
//! its trace count. The roll-ups also count every acquisition a job
//! runs, which pins that a failed one runs once.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use qdi_dpa::{CampaignConfig, ResilienceConfig};
use qdi_obs::span::SpanRecord;
use qdi_serve::{
    DpaJobSpec, DpaReport, JobKind, JobSpec, JobState, JobStatus, ServeClient, ServeConfig, Server,
};

/// Each `Server` installs the process-wide run record, so the tests of
/// this binary take turns.
static RUN_RECORD: Mutex<()> = Mutex::new(());

fn run_record() -> MutexGuard<'static, ()> {
    RUN_RECORD.lock().unwrap_or_else(PoisonError::into_inner)
}

fn campaign(traces: usize) -> CampaignConfig {
    let mut campaign = CampaignConfig::new(0x3C);
    campaign.traces = traces;
    campaign
}

fn spec(campaign: CampaignConfig) -> String {
    serde_json::to_string(&JobSpec {
        tenant: "trace".into(),
        name: None,
        priority: None,
        kind: JobKind::Dpa(DpaJobSpec {
            stage: "xor".into(),
            campaign,
            resilience: Some(ResilienceConfig {
                checkpoint_every: 64,
            }),
            exec_workers: Some(2),
            attack: None,
        }),
    })
    .expect("spec serializes")
}

/// What one traced job left behind: its final status, its report and
/// the span records of its trace.
struct Served {
    status: JobStatus,
    report: DpaReport,
    spans: Vec<SpanRecord>,
}

/// Runs one traced job to completion on a fresh server.
fn serve(tag: &str, campaign: CampaignConfig) -> Served {
    let dir = std::env::temp_dir().join(format!("qdi_serve_rollups_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let server = Server::start(ServeConfig::new(&dir)).expect("server starts");
    let spans_path = server.trace_path();
    let client = ServeClient::new(format!("http://{}", server.local_addr()));
    let ctx = qdi_obs::span::mint();
    let id = client
        .submit_traced(&spec(campaign), Some(&ctx))
        .expect("submits");
    let status = client
        .wait_terminal(&id, Duration::from_secs(300))
        .expect("status");
    assert_eq!(status.state, JobState::Completed, "{:?}", status.error);
    let report = client
        .get(&format!("/v1/jobs/{id}/report"))
        .expect("report");
    let report: DpaReport = serde_json::from_str(&report.text()).expect("report parses");
    // The drain joins the workers, so the lease span has closed.
    server.shutdown();
    let trace = ctx.trace_id.to_string();
    let spans = qdi_obs::span::read_spans(&spans_path)
        .expect("span file readable")
        .into_iter()
        .filter(|s| s.trace_id == trace)
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    Served {
        status,
        report,
        spans,
    }
}

/// The summed roll-up count of hot span `name`.
fn visits(spans: &[SpanRecord], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.rollup.map(|r| r.count))
        .sum()
}

#[test]
fn kernel_rollups_parent_under_the_lease_at_a_constant_record_count() {
    let _turn = run_record();
    let small = serve("256", campaign(256)).spans;
    let large = serve("1024", campaign(1024)).spans;

    for spans in [&small, &large] {
        let by_id: HashMap<&str, &SpanRecord> =
            spans.iter().map(|s| (s.span_id.as_str(), s)).collect();
        let lease = spans
            .iter()
            .find(|s| s.name == "lease")
            .expect("lease span recorded");
        for kernel in ["dpa.chunk", "dpa.checkpoint.save", "dpa.acquire", "sim.run"] {
            let rollups: Vec<&SpanRecord> = spans
                .iter()
                .filter(|s| s.name == kernel && s.rollup.is_some())
                .collect();
            assert!(!rollups.is_empty(), "no {kernel} roll-up in {spans:#?}");
            for rollup in rollups {
                let mut cursor = rollup.parent_id.as_deref();
                let mut hops = 0;
                while let Some(parent) = cursor.filter(|p| *p != lease.span_id) {
                    hops += 1;
                    assert!(hops < 16, "{kernel}: parent chain loops");
                    cursor = by_id.get(parent).and_then(|s| s.parent_id.as_deref());
                }
                assert_eq!(
                    cursor,
                    Some(lease.span_id.as_str()),
                    "{kernel} roll-up must reach the lease"
                );
            }
        }
    }
    assert_eq!(
        visits(&small, "dpa.acquire"),
        256,
        "every acquisition folds into a roll-up"
    );
    assert_eq!(visits(&large, "dpa.acquire"), 1024);
    for (spans, chunks) in [(&small, 4), (&large, 16)] {
        assert_eq!(visits(spans, "dpa.chunk"), chunks, "one visit per chunk");
        // The saver coalesces checkpoints queued behind a slow save.
        let saves = visits(spans, "dpa.checkpoint.save");
        assert!((1..=chunks).contains(&saves), "{saves} saves of {chunks}");
    }
    assert_eq!(
        small.len(),
        large.len(),
        "records must not grow with the trace count"
    );
}

#[test]
fn a_served_job_whose_every_acquisition_fails_runs_each_once() {
    let _turn = run_record();
    let mut starved = campaign(64);
    // A budget no acquisition fits in.
    starved.testbench.event_limit = 1;
    let served = serve("starved", starved);
    let every: Vec<u64> = (0..64).collect();
    assert_eq!(served.status.quarantined, every);
    assert_eq!(served.report.quarantined, every);
    assert_eq!(
        visits(&served.spans, "dpa.acquire"),
        64,
        "each acquisition runs once"
    );
}
