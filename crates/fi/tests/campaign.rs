//! End-to-end campaign on the AES byte-slice example netlist: the
//! acceptance scenario for the fault-injection subsystem. Every
//! single-transient-fault run must classify, the per-channel coverage
//! must attribute cone faults, and — per the paper's Section II claim —
//! no dual-rail gate fault may corrupt output data silently.

use qdi_exec::ExecConfig;
use qdi_fi::{
    default_injection_times, enumerate_faults, run_campaign_parallel, sample_faults,
    CampaignConfig, FaultOutcome,
};
use qdi_netlist::Netlist;
use qdi_sim::FaultKind;

fn aes_slice() -> Netlist {
    let text = include_str!("../../../examples/netlists/aes_slice_xor.qdi");
    qdi_netlist::io::from_text(text).expect("example netlist parses")
}

#[test]
fn aes_slice_single_transient_faults_classify_with_zero_silent_corruption() {
    let nl = aes_slice();
    let cfg = CampaignConfig::new();
    let times = default_injection_times(&nl, &cfg).expect("golden run anchors times");
    assert!(!times.is_empty());
    let faults = enumerate_faults(&nl, &[FaultKind::TransientFlip], &times);
    assert_eq!(faults.len(), nl.gate_count() * times.len());

    let report =
        run_campaign_parallel(&nl, &faults, &cfg, ExecConfig::serial()).expect("campaign runs");
    assert_eq!(report.total, faults.len(), "every fault classified");
    let classified: usize = FaultOutcome::all().iter().map(|&o| report.count(o)).sum();
    assert_eq!(classified, report.total, "histogram partitions the runs");
    assert_eq!(
        report.silent,
        0,
        "dual-rail AES slice must not corrupt silently:\n{}",
        report.to_text()
    );
    assert!(report.diagnostics(&nl).is_empty(), "no QDI0107 findings");

    // Coverage: the slice has eight output channels; every fault inside a
    // channel's fan-in cone must be attributed to it.
    assert_eq!(report.coverage.len(), 8);
    let attributed: usize = report.coverage.iter().map(|c| c.injected).sum();
    assert!(attributed > 0, "cone attribution found no faults");
    for cov in &report.coverage {
        assert_eq!(cov.injected, cov.detected + cov.masked + cov.silent);
        assert!(
            (cov.detection_rate() - 1.0).abs() < 1e-12,
            "channel {} leaks: {cov:?}",
            cov.channel
        );
    }
}

#[test]
fn aes_slice_stuck_at_campaign_detects_permanent_faults() {
    let nl = aes_slice();
    let cfg = CampaignConfig::new();
    // Permanent stuck-at-0 from t=0 on a sample of gates: the struck
    // rail can never rise, so affected handshakes stall.
    let all = enumerate_faults(&nl, &[FaultKind::StuckAt(false)], &[0]);
    let faults = sample_faults(all, 16, 7);
    let report =
        run_campaign_parallel(&nl, &faults, &cfg, ExecConfig::serial()).expect("campaign runs");
    assert_eq!(report.total, 16);
    assert_eq!(report.silent, 0, "{}", report.to_text());
    assert!(
        report.detected() > 0,
        "stuck rails must stall at least one handshake:\n{}",
        report.to_text()
    );
}

#[test]
fn campaigns_are_deterministic() {
    let nl = aes_slice();
    let cfg = CampaignConfig::new();
    let faults = sample_faults(
        enumerate_faults(&nl, &[FaultKind::TransientFlip], &[400, 900]),
        12,
        3,
    );
    let a = run_campaign_parallel(&nl, &faults, &cfg, ExecConfig::serial()).expect("first run");
    let b =
        run_campaign_parallel(&nl, &faults, &cfg, ExecConfig::with_workers(2)).expect("second run");
    assert_eq!(
        a, b,
        "same faults, same config, same report at any worker count"
    );
}
