//! Crash-recovery e2e at the binary level: a `kill -9`'d `qdi-serve`
//! must come back, resume the interrupted campaign from its durable
//! checkpoint, and produce a bias signal bit-identical to an
//! uninterrupted local run — with a clean trace store. SIGTERM takes
//! the graceful path: drain, checkpoint, park as `Queued`, exit 0.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::selection::AesXorSelect;
use qdi_dpa::{parallel_bias_signal, run_parallel_campaign, CampaignConfig, ResilienceConfig};
use qdi_exec::ExecConfig;
use qdi_serve::{AttackSpec, DpaJobSpec, DpaReport, JobKind, JobSpec, JobState, ServeClient};

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qdi_serve_kill_{tag}_{}", std::process::id()))
}

fn spawn_server(data: &Path, addr_file: &Path) -> Child {
    std::fs::remove_file(addr_file).ok();
    Command::new(env!("CARGO_BIN_EXE_qdi-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data",
            data.to_str().expect("utf8 path"),
            "--workers",
            "1",
            "--addr-file",
            addr_file.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns qdi-serve")
}

fn wait_addr(addr_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(addr_file) {
            let addr = addr.trim();
            if !addr.is_empty() {
                return format!("http://{addr}");
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote {addr_file:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The campaign size: large enough that a release build is still
/// acquiring when the kill or the drain lands, since the checkpoint
/// saver never holds acquisition back.
const TRACES: usize = 8_192;

fn campaign() -> CampaignConfig {
    let mut campaign = CampaignConfig::new(0x3C);
    campaign.traces = TRACES;
    campaign
}

fn crash_spec(tenant: &str) -> JobSpec {
    JobSpec {
        tenant: tenant.into(),
        name: None,
        priority: None,
        kind: JobKind::Dpa(DpaJobSpec {
            stage: "xor".into(),
            campaign: campaign(),
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

/// Polls until the job reports at least `floor` completed traces (so a
/// kill lands mid-campaign), returning the observed count.
fn wait_progress(client: &ServeClient, id: &str, floor: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.status(id).expect("status");
        assert!(
            !matches!(status.state, JobState::Failed | JobState::Canceled),
            "job died early: {:?}",
            status.error
        );
        if status.completed >= floor {
            assert!(
                status.completed < status.total,
                "campaign finished before the kill; raise traces or lower the floor"
            );
            return status.completed;
        }
        assert!(Instant::now() < deadline, "no progress past {floor}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn sigkill_mid_campaign_resumes_bit_identically() {
    let data = tmp_dir("sigkill");
    std::fs::remove_dir_all(&data).ok();
    std::fs::create_dir_all(&data).expect("mkdir");
    let addr_file = data.join("addr");

    let mut first = spawn_server(&data, &addr_file);
    let client = ServeClient::new(wait_addr(&addr_file));
    // Submit under a minted trace context so the whole story — both
    // server processes included — shares one known trace id.
    let ctx = qdi_obs::span::mint();
    let id = client
        .submit_traced(
            &serde_json::to_string(&crash_spec("crash")).expect("serializes"),
            Some(&ctx),
        )
        .expect("submits");

    let at_kill = wait_progress(&client, &id, 64);
    first.kill().expect("SIGKILL");
    first.wait().expect("reaps");

    // Restart on the same data dir: recovery must re-queue the job and
    // the campaign must finish without any client intervention.
    let mut second = spawn_server(&data, &addr_file);
    let client = ServeClient::new(wait_addr(&addr_file));
    let status = client
        .wait_terminal(&id, Duration::from_secs(300))
        .expect("status");
    assert!(
        matches!(status.state, JobState::Completed),
        "resumed job must complete: {:?}",
        status.error
    );
    assert_eq!(status.completed, TRACES as u64);
    assert!(
        status.resumes >= 1,
        "recovery must be recorded as a resume (progress was {at_kill} at kill)"
    );

    // The recovered bias signal is bit-identical to an uninterrupted
    // local run of the same campaign.
    let report: DpaReport = serde_json::from_str(
        &client
            .get(&format!("/v1/jobs/{id}/report"))
            .expect("report")
            .text(),
    )
    .expect("report parses");
    assert!(report.quarantined.is_empty());
    assert_eq!(report.best_guess, Some(0x3C));
    let slice = aes_first_round_slice("serve", SliceStage::XorOnly).expect("slice");
    let set = run_parallel_campaign(&slice, &campaign(), ExecConfig { workers: 1 })
        .expect("local campaign");
    let golden = parallel_bias_signal(
        &set,
        &AesXorSelect { byte: 0, bit: 0 },
        0x3C,
        ExecConfig { workers: 1 },
    )
    .expect("bias");
    assert_eq!(
        report.guesses[0].samples,
        golden.samples(),
        "bias after kill -9 + resume must be bit-identical to a clean run"
    );

    // Trace continuity across the kill: both server processes appended
    // spans for the submit's trace id into the shared span file. The
    // pre-crash process contributes the request span and the first
    // lease's scheduler marks; the post-crash process contributes a
    // lease span carrying a `resume` link whose target is the killed
    // lease — whose own record never hit disk, because SIGKILL runs no
    // destructors. That dangling link IS the crash signature.
    let spans = qdi_obs::span::read_spans(&data.join("trace").join("spans.jsonl"))
        .expect("span file readable");
    let trace_hex = ctx.trace_id.to_string();
    let ours: Vec<_> = spans.iter().filter(|s| s.trace_id == trace_hex).collect();
    let edge = ours
        .iter()
        .find(|s| s.name == "POST /v1/jobs")
        .expect("request span recorded");
    assert_eq!(
        edge.parent_id.as_deref(),
        Some(ctx.span_id.to_string().as_str()),
        "request span must be a child of the client's traceparent"
    );
    let leases: Vec<_> = ours.iter().filter(|s| s.name == "lease").collect();
    assert!(!leases.is_empty(), "resumed lease span recorded");
    for lease in &leases {
        assert_eq!(
            lease.parent_id.as_deref(),
            Some(edge.span_id.as_str()),
            "every lease parents under the submitting request span"
        );
    }
    let written: std::collections::BTreeSet<&str> =
        ours.iter().map(|s| s.span_id.as_str()).collect();
    let resume_targets: Vec<&str> = leases
        .iter()
        .flat_map(|l| l.links.iter())
        .filter(|k| k.kind == qdi_obs::span::LINK_RESUME)
        .map(|k| k.span_id.as_str())
        .collect();
    assert!(
        !resume_targets.is_empty(),
        "post-restart lease must carry a resume span-link"
    );
    assert!(
        resume_targets.iter().any(|t| !written.contains(t)),
        "one resume link must point at the span the kill -9 destroyed"
    );
    assert!(
        ours.iter().filter(|s| s.name == "sched.enqueue").count() >= 2,
        "submit enqueue and recovery requeue both leave scheduler marks"
    );

    // The sealed trace store passes fsck with no torn tail.
    let store = data
        .join("tenants/crash/jobs")
        .join(&id)
        .join("traces.qtrs");
    let fsck = qdi_exec::store::fsck(&store).expect("fsck runs");
    assert!(fsck.tail_error.is_none(), "store not clean: {fsck:?}");
    assert_eq!(fsck.records, TRACES);
    assert_eq!(fsck.torn_tail_bytes, 0);

    // Graceful exit via the API: the drained daemon leaves on its own.
    let _ = client
        .post("/v1/shutdown", "{}")
        .expect("shutdown accepted");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(code) = second.try_wait().expect("try_wait") {
            assert!(code.success(), "drain exit must be clean, got {code}");
            break;
        }
        assert!(Instant::now() < deadline, "server never drained");
        std::thread::sleep(Duration::from_millis(20));
    }

    std::fs::remove_dir_all(&data).ok();
}

#[test]
fn sigterm_drains_checkpoints_and_the_next_start_finishes() {
    let data = tmp_dir("sigterm");
    std::fs::remove_dir_all(&data).ok();
    std::fs::create_dir_all(&data).expect("mkdir");
    let addr_file = data.join("addr");

    let mut first = spawn_server(&data, &addr_file);
    let client = ServeClient::new(wait_addr(&addr_file));
    let id = client
        .submit(&serde_json::to_string(&crash_spec("drain")).expect("serializes"))
        .expect("submits");
    wait_progress(&client, &id, 32);

    // Graceful drain: SIGTERM, then a clean exit 0.
    let pid = first.id().to_string();
    let sent = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs");
    assert!(sent.success());
    let code = first.wait().expect("reaps");
    assert!(code.success(), "SIGTERM exit must be clean, got {code}");

    // The in-flight job was parked durably as Queued with a checkpoint.
    let job_dir = data.join("tenants/drain/jobs").join(&id);
    let record = qdi_serve::JobRecord::load(&job_dir).expect("job.json loads");
    assert!(
        matches!(record.state, JobState::Queued),
        "drained job must park as Queued, got {:?}",
        record.state
    );
    assert!(job_dir.join("checkpoint.json").exists());
    assert!(record.completed > 0 && record.completed < record.total);

    // The next start picks it up and completes it.
    let second = spawn_server(&data, &addr_file);
    let client = ServeClient::new(wait_addr(&addr_file));
    let status = client
        .wait_terminal(&id, Duration::from_secs(300))
        .expect("status");
    assert!(
        matches!(status.state, JobState::Completed),
        "drained job must finish after restart: {:?}",
        status.error
    );
    let _ = client
        .post("/v1/shutdown", "{}")
        .expect("shutdown accepted");
    let mut second = second;
    let _ = second.wait();

    std::fs::remove_dir_all(&data).ok();
}

/// A queued record edited on disk is as untrusted as a POST body: one
/// asking for 2^40 tokens per channel would abort the restarted server
/// on its first lease. Recovery re-validates it instead and fails the
/// job with the edge's 422 message, and the server keeps serving.
#[test]
fn hostile_record_on_disk_fails_validation_at_restart() {
    let data = tmp_dir("hostile");
    std::fs::remove_dir_all(&data).ok();
    let job_dir = data.join("tenants/mallory/jobs/j000007");
    std::fs::create_dir_all(&job_dir).expect("mkdir");
    let addr_file = data.join("addr");
    let spec = JobSpec {
        tenant: "mallory".into(),
        name: None,
        priority: None,
        kind: JobKind::Fi(qdi_serve::FiJobSpec {
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
    qdi_serve::JobRecord {
        id: "j000007".into(),
        spec,
        state: JobState::Queued,
        completed: 0,
        total: 0,
        error: None,
        quarantined: Vec::new(),
        resumes: 0,
        submit_seq: 1,
        trace: None,
    }
    .save(&job_dir)
    .expect("record saves");

    let mut server = spawn_server(&data, &addr_file);
    let client = ServeClient::new(wait_addr(&addr_file));
    let status = client.status("j000007").expect("status");
    assert!(
        matches!(status.state, JobState::Failed),
        "hostile record must fail, got {:?}",
        status.state
    );
    assert_eq!(
        status.error.as_deref(),
        Some("campaign.tokens must be at most 1024, got 1099511627776")
    );
    let record = qdi_serve::JobRecord::load(&job_dir).expect("job.json loads");
    assert!(
        matches!(record.state, JobState::Failed),
        "failure is durable"
    );
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);

    let _ = client
        .post("/v1/shutdown", "{}")
        .expect("shutdown accepted");
    let _ = server.wait();
    std::fs::remove_dir_all(&data).ok();
}
