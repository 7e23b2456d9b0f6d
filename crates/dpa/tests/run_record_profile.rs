//! The profile rebuilt from a run record equals the live one: the run
//! record holds the same roll-ups and pool runs the live aggregator
//! folds. Its own test binary, because the profile and the run record
//! are process-global.

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::{run_parallel_campaign, CampaignConfig};
use qdi_exec::ExecConfig;
use qdi_obs::prof::ProfReport;

#[test]
fn profile_rebuilt_from_the_run_record_equals_the_live_one() {
    let path =
        std::env::temp_dir().join(format!("qdi_dpa_run_record_{}.jsonl", std::process::id()));
    std::fs::File::create(&path).expect("run record created");
    let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let mut cfg = CampaignConfig::new(0x42);
    cfg.traces = 512;
    qdi_obs::prof::reset();
    qdi_obs::prof::install();
    qdi_obs::span::set_file(&path);
    for (round, workers) in [1usize, 2].into_iter().enumerate() {
        run_parallel_campaign(&slice, &cfg, ExecConfig::with_workers(workers))
            .expect("campaign runs");
        let live = qdi_obs::prof::report();
        let read = qdi_obs::span::read_records(&path).expect("run record reads");
        assert_eq!(read.skipped, 0);
        let rebuilt = ProfReport::from_records(&read.records);
        // Every region path with equal count, total, self, min and max.
        assert_eq!(rebuilt.regions, live.regions, "{workers} worker(s)");
        assert_eq!(rebuilt.pool_runs, live.pool_runs, "{workers} worker(s)");
        assert_eq!(rebuilt.dropped_pool_runs, live.dropped_pool_runs);
        let acquire = rebuilt
            .regions
            .regions
            .iter()
            .find(|r| r.name == "dpa.acquire")
            .expect("dpa.acquire region");
        assert_eq!(acquire.count, 512 * (round as u64 + 1));
        assert!(
            rebuilt.pool_runs.iter().any(|r| r.workers == workers),
            "the campaign's bag records its pool run"
        );
    }
    qdi_obs::span::close_file();
    qdi_obs::prof::uninstall();
    let _ = std::fs::remove_file(&path);
}
