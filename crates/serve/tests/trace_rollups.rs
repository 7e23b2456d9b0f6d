//! A served job's trace reaches its kernels: the campaign's hot spans
//! (`dpa.acquire`, `sim.run`, ...) roll up under the job's `lease` span,
//! also when the pool runs them on worker threads, and the span file
//! grows with the job's structure, not with its trace count.

use std::collections::HashMap;
use std::time::Duration;

use qdi_dpa::{CampaignConfig, ResilienceConfig};
use qdi_obs::span::SpanRecord;
use qdi_serve::{DpaJobSpec, JobKind, JobSpec, JobState, ServeClient, ServeConfig, Server};

fn spec(traces: usize) -> String {
    let mut campaign = CampaignConfig::new(0x3C);
    campaign.traces = traces;
    serde_json::to_string(&JobSpec {
        tenant: "trace".into(),
        name: None,
        priority: None,
        kind: JobKind::Dpa(DpaJobSpec {
            stage: "xor".into(),
            campaign,
            resilience: Some(ResilienceConfig {
                checkpoint_every: 64,
                ..ResilienceConfig::default()
            }),
            exec_workers: Some(2),
            attack: None,
        }),
    })
    .expect("spec serializes")
}

/// Runs one traced job to completion on a fresh server and returns the
/// span records of its trace.
fn served_job_spans(traces: usize) -> Vec<SpanRecord> {
    let dir =
        std::env::temp_dir().join(format!("qdi_serve_rollups_{traces}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let server = Server::start(ServeConfig::new(&dir)).expect("server starts");
    let spans_path = server.trace_path();
    let client = ServeClient::new(format!("http://{}", server.local_addr()));
    let ctx = qdi_obs::span::mint();
    let id = client
        .submit_traced(&spec(traces), Some(&ctx))
        .expect("submits");
    let status = client
        .wait_terminal(&id, Duration::from_secs(300))
        .expect("status");
    assert_eq!(status.state, JobState::Completed, "{:?}", status.error);
    // The drain joins the workers, so the lease span has closed.
    server.shutdown();
    let trace = ctx.trace_id.to_string();
    let spans = qdi_obs::span::read_spans(&spans_path)
        .expect("span file readable")
        .into_iter()
        .filter(|s| s.trace_id == trace)
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    spans
}

#[test]
fn kernel_rollups_parent_under_the_lease_at_a_constant_record_count() {
    let small = served_job_spans(256);
    let large = served_job_spans(1024);

    for spans in [&small, &large] {
        let by_id: HashMap<&str, &SpanRecord> =
            spans.iter().map(|s| (s.span_id.as_str(), s)).collect();
        let lease = spans
            .iter()
            .find(|s| s.name == "lease")
            .expect("lease span recorded");
        for kernel in ["dpa.acquire", "sim.run"] {
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
    let acquired = |spans: &[SpanRecord]| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == "dpa.acquire")
            .filter_map(|s| s.rollup.map(|r| r.count))
            .sum()
    };
    assert_eq!(
        acquired(&small),
        256,
        "every acquisition folds into a roll-up"
    );
    assert_eq!(acquired(&large), 1024);
    assert_eq!(
        small.len(),
        large.len(),
        "records must not grow with the trace count"
    );
}
