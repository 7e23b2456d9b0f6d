//! Campaign driver: golden run, per-fault injection, classification.

use qdi_netlist::Netlist;
use qdi_sim::{Fault, FaultPlan, SimError, TestbenchConfig, TimePs};
use serde::{Deserialize, Serialize};

use crate::harness::{output_values, Stimulus};
use crate::outcome::{classify, FaultOutcome};
use crate::report::{FaultRecord, FaultReport};

/// How a campaign drives the netlist.
///
/// Serializable so `qdi-serve` fault-injection job specs can carry it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Tokens pushed through every input channel per run.
    pub tokens: usize,
    /// Seed for the stimulus values.
    pub seed: u64,
    /// Simulator budget and environment timing, shared by the golden run
    /// and every injected run.
    pub testbench: TestbenchConfig,
}

impl CampaignConfig {
    /// Two tokens, seed 1, default testbench.
    #[must_use]
    pub fn new() -> CampaignConfig {
        CampaignConfig {
            tokens: 2,
            seed: 1,
            testbench: TestbenchConfig::default(),
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig::new()
    }
}

/// Derives injection times from a clean run: the quarter points (25%,
/// 50%, 75%) of the golden run's span, deduplicated — the window where
/// the circuit is actually computing.
///
/// # Errors
///
/// Propagates golden-run failures ([`SimError`]): a netlist that cannot
/// complete a clean run cannot anchor a campaign.
pub fn default_injection_times(
    netlist: &Netlist,
    cfg: &CampaignConfig,
) -> Result<Vec<TimePs>, SimError> {
    let stim = Stimulus::random(netlist, cfg.tokens, cfg.seed)?;
    let run = stim.run(netlist, &cfg.testbench, None)?;
    let end = run.end_time_ps.max(4);
    let mut times: Vec<TimePs> = [end / 4, end / 2, 3 * end / 4].to_vec();
    times.dedup();
    Ok(times)
}

/// Runs a fault campaign: one golden run, then one injected run per
/// fault, each classified against the golden outputs. Injected runs
/// execute on the `qdi-exec` pool — one job per fault site;
/// `exec.workers == 1` runs them in order on the calling thread.
///
/// The simulation is deterministic and every injected run is independent
/// (faults never interact), so the report — per-fault outcomes, counts
/// and coverage — is bit-identical at every worker count.
///
/// # Errors
///
/// Returns [`SimError`] if the stimulus cannot attach or the *golden*
/// run fails — a circuit that deadlocks without faults has no baseline.
/// Injected-run failures are never errors; they classify as outcomes.
pub fn run_campaign_parallel(
    netlist: &Netlist,
    faults: &[Fault],
    cfg: &CampaignConfig,
    exec: qdi_exec::ExecConfig,
) -> Result<FaultReport, SimError> {
    let mut span = qdi_obs::span("qdi_fi::campaign", "run_campaign_parallel")
        .attr("faults", faults.len())
        .attr("tokens", cfg.tokens)
        .attr("workers", exec.workers);
    let runs_metric = qdi_obs::metrics::counter("fi.runs");
    let stim = Stimulus::random(netlist, cfg.tokens, cfg.seed)?;
    let golden_run = stim.run(netlist, &cfg.testbench, None)?;
    let golden = output_values(&golden_run);
    runs_metric.inc();

    // Inert unless `qdi_obs::progress` is enabled; feeds `qdi-mon watch`.
    let progress = qdi_obs::progress::task("fi.campaign", faults.len());
    let outcomes = qdi_exec::run_indexed(&exec, faults.len(), |i| {
        let plan = FaultPlan::single(faults[i]);
        let result = stim.run(netlist, &cfg.testbench, Some(&plan));
        let outcome = classify(netlist, &golden, &result);
        progress.advance(1);
        outcome
    });
    progress.finish();
    runs_metric.add(faults.len() as u64);
    // Records and outcome counters are materialized serially in fault
    // order, so metrics and report rows are schedule-independent.
    let records: Vec<FaultRecord> = faults
        .iter()
        .zip(outcomes)
        .map(|(fault, outcome)| {
            qdi_obs::metrics::counter(&format!("fi.outcome.{}", outcome.mnemonic())).inc();
            FaultRecord::new(netlist, fault, outcome)
        })
        .collect();

    let report = FaultReport::new(netlist, faults, records);
    span.set_attr("detected", report.detected() as f64);
    span.set_attr("silent", report.silent as f64);
    for outcome in FaultOutcome::all() {
        span.set_attr(outcome.mnemonic(), report.count(outcome) as f64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::enumerate_faults;
    use qdi_netlist::{cells, NetlistBuilder};
    use qdi_sim::{FaultKind, FaultSite};

    fn serial_campaign(
        nl: &Netlist,
        faults: &[Fault],
        cfg: &CampaignConfig,
    ) -> Result<FaultReport, SimError> {
        run_campaign_parallel(nl, faults, cfg, qdi_exec::ExecConfig::serial())
    }

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

    #[test]
    fn empty_campaign_reports_nothing() {
        let nl = xor_netlist();
        let report = serial_campaign(&nl, &[], &CampaignConfig::new()).expect("runs");
        assert_eq!(report.total, 0);
        assert_eq!(report.detected(), 0);
        assert_eq!(report.coverage.len(), 1);
        assert_eq!(report.coverage[0].injected, 0);
    }

    #[test]
    fn stuck_at_on_a_rail_driver_is_detected() {
        let nl = xor_netlist();
        // Stick every gate output low, permanently: the handshake can
        // never complete, so every fault must surface as a detection.
        let faults: Vec<Fault> = nl
            .gates()
            .map(|g| Fault::new(FaultSite::Gate(g.id), FaultKind::StuckAt(false), 0))
            .collect();
        let report = serial_campaign(&nl, &faults, &CampaignConfig::new()).expect("runs");
        assert_eq!(report.total, faults.len());
        assert_eq!(
            report.silent, 0,
            "dual-rail gates must not corrupt silently"
        );
        assert!(
            report.detected() > 0,
            "stuck-at-0 on rail drivers must stall the handshake: {}",
            report.to_text()
        );
        let classified: usize = FaultOutcome::all().iter().map(|&o| report.count(o)).sum();
        assert_eq!(classified, report.total, "every run lands in one class");
    }

    #[test]
    fn injection_times_fall_inside_the_golden_span() {
        let nl = xor_netlist();
        let cfg = CampaignConfig::new();
        let times = default_injection_times(&nl, &cfg).expect("derives");
        assert!(!times.is_empty());
        let stim = Stimulus::random(&nl, cfg.tokens, cfg.seed).expect("builds");
        let run = stim.run(&nl, &cfg.testbench, None).expect("runs");
        for &t in &times {
            assert!(
                t > 0 && t < run.end_time_ps,
                "{t} outside (0, {})",
                run.end_time_ps
            );
        }
        let faults = enumerate_faults(&nl, &[FaultKind::TransientFlip], &times);
        let report = serial_campaign(&nl, &faults, &cfg).expect("runs");
        assert_eq!(report.total, faults.len());
    }
}
