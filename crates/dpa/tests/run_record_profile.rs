//! The profile rebuilt from a run record: a campaign's roll-ups and the
//! pool run of its bag, read back after every campaign. Its own test
//! binary, because the profile and the run record are process-global.

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::{run_parallel_campaign, CampaignConfig};
use qdi_exec::ExecConfig;
use qdi_obs::prof::ProfReport;

#[test]
fn the_run_record_profiles_every_trace_and_one_pool_run_per_bag() {
    let path =
        std::env::temp_dir().join(format!("qdi_dpa_run_record_{}.jsonl", std::process::id()));
    std::fs::File::create(&path).expect("run record created");
    let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let mut cfg = CampaignConfig::new(0x42);
    cfg.traces = 512;
    qdi_obs::prof::install();
    qdi_obs::span::set_file(&path);
    for (round, workers) in [1usize, 2].into_iter().enumerate() {
        run_parallel_campaign(&slice, &cfg, ExecConfig::with_workers(workers))
            .expect("campaign runs");
        qdi_obs::flush();
        let read = qdi_obs::span::read_records(&path).expect("run record reads");
        assert_eq!(read.skipped, 0);
        let rebuilt = ProfReport::from_records(&read.records);
        let acquire = rebuilt
            .regions
            .regions
            .iter()
            .find(|r| r.name == "dpa.acquire")
            .expect("dpa.acquire region");
        assert_eq!(acquire.count, 512 * (round as u64 + 1));
        assert_eq!(
            rebuilt.pool_runs.len(),
            round + 1,
            "one pool run per campaign bag"
        );
        assert_eq!(rebuilt.pool_runs[round].jobs, 512);
        assert_eq!(rebuilt.pool_runs[round].workers, workers);
    }
    qdi_obs::span::close_file();
    qdi_obs::prof::uninstall();
    let _ = std::fs::remove_file(&path);
}
