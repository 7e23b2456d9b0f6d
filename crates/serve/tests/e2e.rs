//! End-to-end service tests over real sockets: two tenants share one
//! worker fairly, both streams report progress over SSE, reports carry
//! the exact bias signal a local run computes, and `/metrics` stays
//! parseable by the repo's own Prometheus reader.

use std::time::Duration;

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::selection::AesXorSelect;
use qdi_dpa::{parallel_bias_signal, run_parallel_campaign, CampaignConfig, ResilienceConfig};
use qdi_exec::ExecConfig;
use qdi_serve::{
    AttackSpec, DpaJobSpec, DpaReport, FiJobSpec, JobKind, JobSpec, ServeClient, ServeConfig,
    Server,
};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qdi_serve_e2e_{tag}_{}", std::process::id()))
}

fn dpa_spec(tenant: &str, key: u8, traces: usize) -> JobSpec {
    let mut campaign = CampaignConfig::new(key);
    campaign.traces = traces;
    JobSpec {
        tenant: tenant.into(),
        name: Some(format!("{tenant}-campaign")),
        priority: None,
        kind: JobKind::Dpa(DpaJobSpec {
            stage: "xor".into(),
            campaign,
            resilience: Some(ResilienceConfig {
                checkpoint_every: 4,
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

#[test]
fn two_tenants_share_one_worker_and_reports_match_local_runs() {
    let dir = tmp_dir("tenants");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = ServeConfig::new(&dir);
    // One campaign worker: fair sharing must interleave the tenants by
    // parking whichever job is ahead on service at chunk boundaries.
    cfg.workers = 1;
    let server = Server::start(cfg).expect("server starts");
    let client = ServeClient::new(format!("http://{}", server.local_addr()));

    let alice_spec = dpa_spec("alice", 0x2B, 96);
    let bob_spec = dpa_spec("bob", 0x5A, 96);
    let alice = client
        .submit(&serde_json::to_string(&alice_spec).expect("serializes"))
        .expect("alice submits");
    let bob = client
        .submit(&serde_json::to_string(&bob_spec).expect("serializes"))
        .expect("bob submits");
    assert_ne!(alice, bob);

    for id in [&alice, &bob] {
        let status = client
            .wait_terminal(id, Duration::from_secs(300))
            .expect("status");
        assert_eq!(
            format!("{:?}", status.state),
            "Completed",
            "job {id}: {:?}",
            status.error
        );
        assert_eq!(status.completed, 96);
        assert_eq!(status.total, 96);
    }

    // Fair share left its mark: a single worker serving two tenants
    // must have yielded at least once, and the counter is visible in
    // the Prometheus exposition (which our own parser must accept).
    let metrics = client.get("/metrics").expect("metrics").text();
    let scrape = qdi_obs::prometheus::parse(&metrics).expect("exposition parses");
    let find = |name: &str| {
        let wire = qdi_obs::prometheus::metric_name(name);
        scrape
            .get(&wire)
            .unwrap_or_else(|| panic!("{wire} missing from /metrics"))
    };
    assert!(
        find("serve.sched.yields") >= 1.0,
        "one worker over two tenants must interleave"
    );
    assert!(find("serve.jobs.completed") >= 2.0);

    // Per-route/per-tenant RED telemetry rides the same exposition:
    // each tenant's submit is counted under its own labels, and the
    // latency histogram round-trips through our own parser.
    let series = |name: &str, tenant: &str| {
        let labels = [("route", "POST /v1/jobs"), ("tenant", tenant)];
        qdi_obs::prometheus::metric_name(&qdi_obs::metrics::series(name, &labels))
    };
    for tenant in ["alice", "bob"] {
        assert!(
            scrape
                .get(&series("serve.http.route.requests", tenant))
                .is_some_and(|v| v >= 1.0),
            "{tenant}'s submit missing from the RED counters"
        );
        let latency = series(qdi_obs::slo::ROUTE_LATENCY_MS, tenant);
        let hist = scrape
            .histograms
            .iter()
            .find(|h| h.name == latency)
            .unwrap_or_else(|| panic!("{tenant}'s submit latency histogram missing"));
        assert!(
            hist.count() >= 1,
            "{tenant}'s histogram counted no requests"
        );
        assert_eq!(hist.counts.len(), hist.bounds.len() + 1);
        let count = series("serve.http.route.latency.ms.count", tenant);
        assert_eq!(
            scrape.get(&count),
            Some(hist.count() as f64),
            "{tenant}'s `_count` is not its `+Inf` bucket"
        );
    }
    // One `# TYPE` line per family, RED families included.
    let mut types: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("# TYPE"))
        .collect();
    let families = types.len();
    types.sort_unstable();
    types.dedup();
    assert_eq!(types.len(), families, "a family is declared twice");

    // SSE replay: both tenants' streams deliver progress and a
    // terminal `done`.
    for id in [&alice, &bob] {
        let mut progress_events = 0u32;
        let mut saw_done = false;
        client
            .stream_events(id, None, |event, _data| {
                match event {
                    "progress" => progress_events += 1,
                    "done" => saw_done = true,
                    _ => {}
                }
                true
            })
            .expect("sse streams");
        assert!(
            progress_events >= 2,
            "job {id} streamed {progress_events} progress events"
        );
        assert!(saw_done, "job {id} stream must end with done");
    }

    // The service-side bias signal is bit-identical to a local
    // single-threaded run of the same campaign config.
    for (id, spec) in [(&alice, &alice_spec), (&bob, &bob_spec)] {
        let report: DpaReport = serde_json::from_str(
            &client
                .get(&format!("/v1/jobs/{id}/report"))
                .expect("report")
                .text(),
        )
        .expect("report parses");
        let JobKind::Dpa(dpa) = &spec.kind else {
            unreachable!()
        };
        let slice = aes_first_round_slice("serve", SliceStage::XorOnly).expect("slice");
        let set = run_parallel_campaign(&slice, &dpa.campaign, ExecConfig { workers: 1 })
            .expect("local campaign");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let golden = parallel_bias_signal(
            &set,
            &sel,
            u16::from(dpa.campaign.key),
            ExecConfig { workers: 1 },
        )
        .expect("bias");
        assert_eq!(report.best_guess, Some(u16::from(dpa.campaign.key)));
        assert_eq!(report.guesses.len(), 1);
        assert_eq!(
            report.guesses[0].samples,
            golden.samples(),
            "job {id}: served bias differs from the local run"
        );
        assert!(report.quarantined.is_empty());
    }

    // Tenant isolation on disk: each tenant's artifacts live under its
    // own subtree.
    assert!(dir
        .join("tenants/alice/jobs")
        .join(&alice)
        .join("report.json")
        .exists());
    assert!(dir
        .join("tenants/bob/jobs")
        .join(&bob)
        .join("report.json")
        .exists());
    assert!(!dir.join("tenants/alice/jobs").join(&bob).exists());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_specs_are_rejected_without_side_effects() {
    let dir = tmp_dir("invalid");
    std::fs::remove_dir_all(&dir).ok();
    let server = Server::start(ServeConfig::new(&dir)).expect("server starts");
    let client = ServeClient::new(format!("http://{}", server.local_addr()));

    // Malformed JSON: 400.
    let err = client.submit("{not json").expect_err("must reject");
    assert_eq!(err.status, 400);

    // Well-formed JSON violating service invariants: 422.
    let mut spec = dpa_spec("ok", 1, 8);
    spec.tenant = "../escape".into();
    let err = client
        .submit(&serde_json::to_string(&spec).expect("serializes"))
        .expect_err("must reject");
    assert_eq!(err.status, 422);

    // Unknown job id: 404.
    let err = client.status("j999999").expect_err("must 404");
    assert_eq!(err.status, 404);

    // Nothing was persisted for any tenant.
    assert!(!dir.join("tenants").join("..").join("escape").exists());
    let tenants = std::fs::read_dir(dir.join("tenants"))
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert_eq!(
        tenants, 0,
        "rejected submissions must not create artifact dirs"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancel_parks_the_campaign_promptly() {
    let dir = tmp_dir("cancel");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    let server = Server::start(cfg).expect("server starts");
    let client = ServeClient::new(format!("http://{}", server.local_addr()));

    // A big campaign we will never let finish.
    let id = client
        .submit(&serde_json::to_string(&dpa_spec("carol", 0x11, 512)).expect("serializes"))
        .expect("submits");
    let _ = client.cancel(&id).expect("cancels");
    let status = client
        .wait_terminal(&id, Duration::from_secs(120))
        .expect("status");
    assert_eq!(format!("{:?}", status.state), "Canceled");
    assert!(status.completed < 512, "cancel must not require a full run");
    // Counted before the state is published: the first scrape after the
    // client sees the job canceled already counts it.
    assert!(scraped(&client, "serve.jobs.canceled") >= 1.0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_job_that_fails_in_its_lease_is_counted_when_the_client_sees_it() {
    let dir = tmp_dir("failed");
    std::fs::remove_dir_all(&dir).ok();
    let server = Server::start(ServeConfig::new(&dir)).expect("server starts");
    let client = ServeClient::new(format!("http://{}", server.local_addr()));

    // A golden run that cannot fit its event budget fails the lease.
    let mut campaign = qdi_fi::campaign::CampaignConfig::new();
    campaign.testbench.event_limit = 1;
    let spec = JobSpec {
        tenant: "dave".into(),
        name: None,
        priority: None,
        kind: JobKind::Fi(FiJobSpec {
            stage: "xor".into(),
            campaign,
            models: "seu".into(),
            times_ps: None,
            sample: None,
        }),
    };
    let id = client
        .submit(&serde_json::to_string(&spec).expect("serializes"))
        .expect("submits");
    let status = client
        .wait_terminal(&id, Duration::from_secs(120))
        .expect("status");
    assert_eq!(format!("{:?}", status.state), "Failed");
    assert!(
        status
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with("golden run: ")),
        "{:?}",
        status.error
    );
    assert!(scraped(&client, "serve.jobs.failed") >= 1.0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The value of counter `name` in one `/metrics` scrape, read through
/// the repo's own Prometheus parser.
fn scraped(client: &ServeClient, name: &str) -> f64 {
    let metrics = client.get("/metrics").expect("metrics").text();
    let scrape = qdi_obs::prometheus::parse(&metrics).expect("exposition parses");
    let wire = qdi_obs::prometheus::metric_name(name);
    scrape
        .get(&wire)
        .unwrap_or_else(|| panic!("{wire} missing from /metrics"))
}
