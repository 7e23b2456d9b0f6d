//! The complete secure design flow (paper Section VI) on the 32-bit AES
//! column datapath of Fig. 8: balance verification, flat vs hierarchical
//! place and route, extraction, the dissymmetry criterion table (Table 2)
//! and the analytic leakage ranking.
//!
//! Run with: `cargo run --release --example secure_flow`
//!
//! Set `QDI_LOG=debug` to watch the span tree on stderr. The run leaves
//! two files: the run record `secure_flow.run.jsonl` (every span, the
//! events `QDI_LOG` enables, the pool runs and one metrics snapshot per
//! flow step), which every `qdi-mon` view but `watch` reads, and
//! `secure_flow.progress.json`, which `qdi-mon watch` tails while the
//! flow runs.

use std::sync::Arc;

use qdi::core::{run_static_flow, FlowConfig};
use qdi::crypto::gatelevel::column::aes_column_datapath;
use qdi::pnr::Strategy;

const RUN_RECORD: &str = "secure_flow.run.jsonl";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Observability: human-readable tree on stderr (visibility governed
    // by QDI_LOG), plus the run record, started fresh so that a second
    // run does not append to the first.
    qdi_obs::init_from_env();
    qdi_obs::add_sink(Arc::new(qdi_obs::StderrSink));
    std::fs::File::create(RUN_RECORD)?;
    qdi_obs::span::set_file(RUN_RECORD);
    // Live progress: `qdi-mon watch secure_flow.progress.json` tails
    // this file while the flow runs.
    qdi_obs::progress::set_file("secure_flow.progress.json");
    // The profile: every pool run appends its worker timelines to the
    // run record.
    qdi_obs::prof::install();
    // Emit pending roll-ups on *every* exit path — a failed flow step
    // `?`-returns past the flush calls below.
    let _flush = qdi_obs::flush_on_drop();

    println!("generating the AES column datapath (AddKey0 -> ByteSub x4 -> HB -> MixColumn -> AddRoundKey)...");
    let column = aes_column_datapath("aes_column")?;
    let stats = column.netlist.stats();
    println!(
        "netlist: {} gates, {} nets, {} channels",
        stats.gates,
        column.netlist.net_count(),
        stats.channels
    );
    println!("blocks: {:?}\n", column.netlist.block_names());

    let mut area = Vec::new();
    for strategy in [Strategy::Flat, Strategy::Hierarchical] {
        let mut netlist = column.netlist.clone();
        let mut cfg = FlowConfig::new(strategy, 0);
        cfg.pnr.anneal.moves_per_gate = 60;
        cfg.worst_k = 6;
        let report = run_static_flow(&mut netlist, &cfg)?;
        println!("{}", report.to_text());
        println!(
            "  top leakage estimates (eq. 12): {}",
            report
                .leakage_ranking
                .iter()
                .take(3)
                .map(|l| format!("{} ({:.3})", l.name, l.bias_estimate))
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!();
        println!(
            "  steps: {:.1} ms total — {}",
            report.total_wall_ms(),
            report
                .steps
                .iter()
                .map(|s| format!("{} {:.1}ms", s.step, s.wall_ms))
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!();
        area.push((strategy, report.die_area_um2));
    }

    let (flat, hier) = (area[0].1, area[1].1);
    println!(
        "area cost of the hierarchical methodology: {:+.1}% (paper reports ~+20%)",
        (hier / flat - 1.0) * 100.0
    );

    // A short parallel trace campaign on the byte slice: registers the
    // `dpa.campaign` progress task and drives the `exec.pool.*` gauges,
    // so the streamed progress file carries live completed/total + ETA.
    println!("\nacquiring a 512-trace parallel campaign on the byte slice...");
    let slice = qdi::crypto::gatelevel::slice::aes_first_round_slice(
        "s",
        qdi::crypto::gatelevel::slice::SliceStage::XorOnly,
    )?;
    let mut campaign = qdi::dpa::CampaignConfig::new(0x42);
    campaign.traces = 512;
    campaign.synth.noise_sigma = 0.02;
    let set = qdi::dpa::run_parallel_campaign(&slice, &campaign, qdi::exec::ExecConfig::new())?;
    qdi_obs::record_metrics(&qdi_obs::metrics::MetricsSnapshot::capture());
    println!("acquired {} traces", set.len());

    qdi_obs::flush();
    qdi_obs::progress::write_now();

    println!(
        "wrote {RUN_RECORD} (the run record) and secure_flow.progress.json\n\
         next: qdi-mon report|export|analyze|flame|timeline {RUN_RECORD}"
    );
    Ok(())
}
