//! Where a fault campaign's time goes, read from the library's own hot
//! spans in the run record: `fi_sbox`'s seed-0 unit settles the circuit
//! twice (the golden run behind `default_injection_times` and the
//! campaign's own) and simulates only the faults that can move a net,
//! each forked from a golden snapshot. Its own test binary, because the
//! run record is process-global.

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_exec::{derive_seed, ExecConfig};
use qdi_fi::{
    default_injection_times, enumerate_faults, parse_models, run_campaign_parallel, CampaignConfig,
};

#[test]
fn the_seed_0_sbox_unit_settles_twice_and_skips_golden_identical_faults() {
    let slice = aes_first_round_slice("perf", SliceStage::XorSbox).expect("slice builds");
    let netlist = &slice.netlist;
    let cfg = CampaignConfig {
        tokens: 2,
        seed: derive_seed(0, 0),
        ..CampaignConfig::new()
    };
    let models = parse_models("seu,stuck0,stuck1,delay,glitch").expect("models");
    let path = std::env::temp_dir().join(format!("qdi_fi_profile_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    qdi_obs::span::set_file(&path);
    let times = default_injection_times(netlist, &cfg).expect("injection times");
    let faults = enumerate_faults(netlist, &models, &times);
    let report = run_campaign_parallel(netlist, &faults, &cfg, ExecConfig::with_workers(2))
        .expect("campaign runs");
    qdi_obs::flush();
    qdi_obs::span::close_file();
    let read = qdi_obs::span::read_records(&path).expect("run record reads");
    let _ = std::fs::remove_file(&path);
    let profile = qdi_obs::prof::ProfReport::from_records(&read.records);

    let count = |name: &str| -> u64 {
        profile
            .regions
            .regions
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.count)
            .sum()
    };
    assert_eq!(report.total, 16_455);
    assert_eq!(count("sim.settle"), 2, "one settle per golden run");
    assert_eq!(
        count("fi.fault_run"),
        16_455 - 5_934,
        "every fault but the 5,934 golden-identical ones is simulated"
    );
    assert_eq!(
        count("fi.classify"),
        count("fi.fault_run") + 1,
        "each simulated run is classified, and the golden run once"
    );
}
