//! Property test of the fault-campaign determinism contract: for
//! arbitrary campaign parameters, per-fault outcomes and outcome counts
//! are bit-identical across 1, 2 and 8 workers — and identical to a
//! reference loop built here from the public pieces (`Stimulus::run` +
//! `classify`), which shares no code with the pool driver.

use proptest::prelude::*;

use qdi_exec::ExecConfig;
use qdi_fi::{
    classify, default_injection_times, enumerate_faults, output_values, run_campaign_parallel,
    CampaignConfig, FaultOutcome, Stimulus,
};
use qdi_netlist::{cells, Netlist, NetlistBuilder};
use qdi_sim::{Fault, FaultKind, FaultPlan};

fn xor_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("xor");
    let a = b.input_channel("a", 2);
    let bb = b.input_channel("b", 2);
    let ack = b.input_net("ack");
    let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
    b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
    let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
    b.finish().expect("valid")
}

/// One golden run, then each fault injected in order and classified.
fn reference_outcomes(nl: &Netlist, faults: &[Fault], cfg: &CampaignConfig) -> Vec<FaultOutcome> {
    let stim = Stimulus::random(nl, cfg.tokens, cfg.seed).expect("stimulus attaches");
    let golden = output_values(&stim.run(nl, &cfg.testbench, None).expect("golden run"));
    faults
        .iter()
        .map(|fault| {
            let plan = FaultPlan::single(*fault);
            classify(nl, &golden, &stim.run(nl, &cfg.testbench, Some(&plan)))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn outcome_counts_are_bit_identical_across_1_2_and_8_workers(
        seed in any::<u64>(),
        tokens in 1usize..4,
        flips in any::<bool>(),
    ) {
        let nl = xor_netlist();
        let mut cfg = CampaignConfig::new();
        cfg.seed = seed;
        cfg.tokens = tokens;
        let models = if flips {
            vec![FaultKind::TransientFlip]
        } else {
            vec![FaultKind::StuckAt(false), FaultKind::StuckAt(true)]
        };
        let times = default_injection_times(&nl, &cfg).expect("golden anchors");
        let faults = enumerate_faults(&nl, &models, &times);
        prop_assert!(!faults.is_empty());

        let reference = reference_outcomes(&nl, &faults, &cfg);
        let count = |o: FaultOutcome| reference.iter().filter(|&&r| r == o).count();
        for workers in [1usize, 2, 8] {
            let parallel =
                run_campaign_parallel(&nl, &faults, &cfg, ExecConfig { workers })
                    .expect("parallel campaign");
            prop_assert_eq!(parallel.total, faults.len());
            prop_assert_eq!(count(FaultOutcome::Masked), parallel.masked, "masked @ {} workers", workers);
            prop_assert_eq!(count(FaultOutcome::Deadlock), parallel.deadlock, "deadlock @ {}", workers);
            prop_assert_eq!(count(FaultOutcome::Livelock), parallel.livelock, "livelock @ {}", workers);
            prop_assert_eq!(count(FaultOutcome::ProtocolViolation), parallel.protocol, "protocol @ {}", workers);
            prop_assert_eq!(count(FaultOutcome::SilentCorruption), parallel.silent, "silent @ {}", workers);
            prop_assert_eq!(count(FaultOutcome::Aborted), parallel.aborted, "aborted @ {}", workers);
            prop_assert_eq!(reference.len(), parallel.records.len());
            for (expected, record) in reference.iter().zip(&parallel.records) {
                prop_assert_eq!(expected, &record.outcome, "outcome of {}", record.detail);
            }
        }
    }
}
