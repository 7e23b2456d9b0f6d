//! A supervised store campaign's local progress task counts every
//! acquisition, the quarantined ones too, so it agrees with the served
//! view (`checkpoint.completed`), and a resumed one rates only what it
//! acquires. Its own test binary, because the progress registry and file
//! are process-global.

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::{CampaignConfig, ResilienceConfig, StoreCampaignRunner};
use qdi_exec::{ExecConfig, StoreOptions, SupervisorPolicy};
use qdi_obs::progress::{self, ProgressSnapshot};

/// Both tests register `dpa.store_campaign` in the one registry, so they
/// take turns.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn a_campaign_whose_every_acquisition_is_quarantined_reads_all_done() {
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("qdi_dpa_progress_{}_{name}", std::process::id()))
    };
    let (store, progress_file) = (tmp("store.qtrs"), tmp("progress.json"));
    // Tasks registered after this are live.
    progress::set_file(&progress_file);
    let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let mut cfg = CampaignConfig::full_codebook(0x42);
    cfg.traces = 64;
    // A budget nothing fits in: every acquisition fails.
    cfg.testbench.event_limit = 1;
    let mut runner = StoreCampaignRunner::new(
        &slice,
        cfg,
        ResilienceConfig {
            checkpoint_every: 16,
        },
        ExecConfig { workers: 1 },
        &store,
        StoreOptions::new(),
    )
    .expect("creates")
    .with_supervisor(SupervisorPolicy::new());
    while runner.step_chunk().expect("degrades, does not abort") {}
    assert_eq!(runner.completed(), 64);
    assert_eq!(runner.quarantined().len(), 64, "every acquisition fails");
    let task = |snapshot: &ProgressSnapshot| {
        let task = snapshot
            .tasks
            .iter()
            .find(|t| t.name == "dpa.store_campaign")
            .expect("the runner registers its task")
            .clone();
        (task.completed, task.total, task.done)
    };
    assert_eq!(task(&ProgressSnapshot::capture()), (64, 64, false));
    runner.finish().expect("closes");
    assert_eq!(task(&ProgressSnapshot::capture()), (64, 64, true));
    for path in [&store, &progress_file] {
        let _ = std::fs::remove_file(path);
    }
}

/// A campaign resumed at 60,000 of 65,536 traces: its first 64-trace
/// chunk, taking at least 50 ms, is the task's only rate sample, and the
/// overall rate counts those 64 traces, not the checkpointed ones.
#[test]
fn a_resumed_campaign_rates_only_the_traces_it_acquires() {
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("qdi_dpa_resumed_{}_{name}", std::process::id()))
    };
    let (store, progress_file) = (tmp("store.qtrs"), tmp("progress.json"));
    progress::set_file(&progress_file);
    let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let mut cfg = CampaignConfig::full_codebook(0x42);
    cfg.traces = 65_536;
    let resilience = ResilienceConfig {
        checkpoint_every: 64,
    };
    let exec = ExecConfig { workers: 1 };
    // The checkpoint of a campaign whose first 60,000 acquisitions were
    // all quarantined, so the store holds no records yet.
    let mut checkpoint =
        StoreCampaignRunner::new(&slice, cfg, resilience, exec, &store, StoreOptions::new())
            .expect("creates")
            .checkpoint();
    checkpoint.completed = 60_000;
    checkpoint.quarantined = (0..60_000).collect();
    let mut runner = StoreCampaignRunner::resume(&slice, cfg, resilience, exec, checkpoint)
        .expect("resumes")
        .with_supervisor(SupervisorPolicy::new());
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(runner.step_chunk().expect("acquires"));
    assert_eq!(runner.completed(), 60_064);
    let task = ProgressSnapshot::capture()
        .tasks
        .into_iter()
        .find(|t| t.name == "dpa.store_campaign")
        .expect("the runner registers its task");
    assert_eq!((task.completed, task.total), (60_064, 65_536));
    assert!(
        task.rate > 0.0 && task.rate <= 1_280.0,
        "rate {}/s",
        task.rate
    );
    assert!(
        task.ewma_rate > 0.0 && task.ewma_rate <= 1_280.0,
        "ewma {}/s",
        task.ewma_rate
    );
    assert!(task.eta_s >= 5_472.0 / 1_280.0, "eta {} s", task.eta_s);
    for path in [&store, &progress_file] {
        let _ = std::fs::remove_file(path);
    }
}
