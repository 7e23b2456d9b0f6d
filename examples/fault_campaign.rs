//! Fault campaign: inject transient and permanent faults into the AES
//! byte-slice example netlist and verify the paper's Section II claim —
//! a QDI circuit turns faults into handshake deadlocks, never into
//! silently wrong data.
//!
//! Run with: `cargo run --example fault_campaign`

use qdi::exec::ExecConfig;
use qdi::fi::{
    default_injection_times, enumerate_faults, run_campaign_parallel, sample_faults, CampaignConfig,
};
use qdi::sim::FaultKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string("examples/netlists/aes_slice_xor.qdi")?;
    let netlist = qdi::netlist::io::from_text(&text)?;
    println!(
        "loaded `{}`: {} gates, {} nets",
        netlist.name(),
        netlist.gate_count(),
        netlist.net_count()
    );

    // Anchor injection times on a clean run: the quarter points of the
    // golden span, where the slice is actually computing.
    let cfg = CampaignConfig::new();
    let times = default_injection_times(&netlist, &cfg)?;
    println!("golden-run quarter points: {times:?} ps\n");

    // Campaign 1 — every gate, single-event upsets at every quarter
    // point. Section II predicts zero silent corruption.
    let seu = enumerate_faults(&netlist, &[FaultKind::TransientFlip], &times);
    println!("campaign 1: {} transient-flip injections", seu.len());
    let report = run_campaign_parallel(&netlist, &seu, &cfg, ExecConfig::serial())?;
    print!("{}", report.to_text());
    assert_eq!(
        report.silent, 0,
        "a dual-rail slice must not corrupt silently"
    );

    // Campaign 2 — a seeded sample of permanent stuck-at faults. These
    // cannot heal, so the affected handshakes stall: the deadlock alarm
    // of the paper.
    let stuck = sample_faults(
        enumerate_faults(
            &netlist,
            &[FaultKind::StuckAt(false), FaultKind::StuckAt(true)],
            &[0],
        ),
        24,
        42,
    );
    println!("\ncampaign 2: {} sampled stuck-at injections", stuck.len());
    let report = run_campaign_parallel(&netlist, &stuck, &cfg, ExecConfig::serial())?;
    print!("{}", report.to_text());
    assert_eq!(report.silent, 0);

    println!("\nno injected fault produced protocol-clean wrong data: faults");
    println!("surface as deadlocks (or watchdog alarms), exactly as Section II");
    println!("of the paper argues for quasi delay insensitive logic.");
    Ok(())
}
