//! Property tests for the fault-injection harness:
//!
//! * an *empty* fault plan is a no-op — the injected run is bit-identical
//!   to the golden run, transition for transition;
//! * a *single transient fault* on a dual-rail XOR netlist never produces
//!   an undetected wrong codeword (the paper's Section II claim): every
//!   run classifies as masked or detected, never silent corruption.

use proptest::prelude::*;

use qdi_exec::ExecConfig;
use qdi_fi::{
    classify, output_values, run_campaign_parallel, CampaignConfig, FaultOutcome, Stimulus,
};
use qdi_netlist::{cells, Netlist, NetlistBuilder};
use qdi_sim::{Fault, FaultKind, FaultPlan, FaultSite, TestbenchConfig};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `FaultPlan::empty()` leaves the simulation untouched: same
    /// transition log, same end time, same output values as no plan at
    /// all, whatever the stimulus.
    #[test]
    fn empty_plan_is_bit_identical_to_golden(seed in 0u64..1_000, tokens in 1usize..5) {
        let nl = xor_netlist();
        let stim = Stimulus::random(&nl, tokens, seed).expect("stimulus");
        let cfg = TestbenchConfig::default();
        let golden = stim.run(&nl, &cfg, None).expect("golden runs");
        let injected = stim.run(&nl, &cfg, Some(&FaultPlan::empty())).expect("empty plan runs");
        prop_assert_eq!(&golden.transitions, &injected.transitions);
        prop_assert_eq!(golden.end_time_ps, injected.end_time_ps);
        prop_assert_eq!(output_values(&golden), output_values(&injected));
    }

    /// A single transient flip anywhere in the dual-rail XOR, at any time
    /// inside the computation window, never yields a protocol-clean wrong
    /// codeword. The fault is either absorbed or raises an alarm.
    #[test]
    fn single_transient_fault_never_corrupts_silently(
        seed in 0u64..100,
        gate_pick in 0usize..64,
        at_ps in 1u64..3_000,
    ) {
        let nl = xor_netlist();
        let gates: Vec<_> = nl.gates().map(|g| g.id).collect();
        let gate = gates[gate_pick % gates.len()];
        let stim = Stimulus::random(&nl, 2, seed).expect("stimulus");
        let cfg = TestbenchConfig::default();
        let golden = output_values(&stim.run(&nl, &cfg, None).expect("golden runs"));
        let fault = Fault::new(FaultSite::Gate(gate), FaultKind::TransientFlip, at_ps);
        let result = stim.run(&nl, &cfg, Some(&FaultPlan::single(fault)));
        let outcome = classify(&nl, &golden, &result);
        prop_assert_ne!(
            outcome,
            FaultOutcome::SilentCorruption,
            "SEU on {} at {} ps produced undetected wrong output",
            fault.describe(&nl),
            at_ps
        );
    }

    /// Campaign invariant: every injected run lands in exactly one
    /// outcome class, and the histogram sums to the fault count.
    #[test]
    fn campaign_histogram_is_a_partition(seed in 0u64..100) {
        let nl = xor_netlist();
        let faults: Vec<Fault> = nl
            .gates()
            .map(|g| Fault::new(FaultSite::Gate(g.id), FaultKind::TransientFlip, 500))
            .collect();
        let mut cfg = CampaignConfig::new();
        cfg.seed = seed;
        let report = run_campaign_parallel(&nl, &faults, &cfg, ExecConfig::serial()).expect("campaign runs");
        let classified: usize = FaultOutcome::all().iter().map(|&o| report.count(o)).sum();
        prop_assert_eq!(classified, report.total);
        prop_assert_eq!(report.total, faults.len());
        prop_assert_eq!(report.silent, 0, "{}", report.to_text());
    }
}
