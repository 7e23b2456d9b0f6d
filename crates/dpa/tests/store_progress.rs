//! A supervised store campaign's local progress task counts every
//! acquisition, the quarantined ones too, so it agrees with the served
//! view (`checkpoint.completed`). Its own test binary, because the
//! progress registry and file are process-global.

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::{CampaignConfig, ResilienceConfig, StoreCampaignRunner};
use qdi_exec::{ExecConfig, StoreOptions, SupervisorPolicy};
use qdi_obs::progress::{self, ProgressSnapshot};

#[test]
fn a_campaign_whose_every_acquisition_is_quarantined_reads_all_done() {
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
