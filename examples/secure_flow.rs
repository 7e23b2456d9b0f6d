//! The complete secure design flow (paper Section VI) on the 32-bit AES
//! column datapath of Fig. 8: balance verification, flat vs hierarchical
//! place and route, extraction, the dissymmetry criterion table (Table 2)
//! and the analytic leakage ranking.
//!
//! Run with: `cargo run --release --example secure_flow`
//!
//! Set `QDI_LOG=debug` to watch the span tree on stderr; the run always
//! writes a Chrome/Perfetto profile to `secure_flow.trace.json`, the
//! raw record stream to `secure_flow.telemetry.jsonl`, plus the
//! monitoring sidecars `secure_flow.metrics.json` /
//! `secure_flow.timeseries.json` / `secure_flow.progress.json` that
//! `qdi-mon watch` and `qdi-mon report` consume.

use std::sync::Arc;

use qdi::core::{run_static_flow, FlowConfig};
use qdi::crypto::gatelevel::column::aes_column_datapath;
use qdi::pnr::Strategy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Observability: human-readable tree on stderr (visibility governed
    // by QDI_LOG), plus machine-readable JSONL and Chrome trace files.
    qdi_obs::init_from_env();
    qdi_obs::add_sink(Arc::new(qdi_obs::StderrSink::new()));
    qdi_obs::add_sink(Arc::new(qdi_obs::JsonlSink::create(
        "secure_flow.telemetry.jsonl",
    )?));
    qdi_obs::add_sink(Arc::new(qdi_obs::ChromeTraceSink::new(
        "secure_flow.trace.json",
    )));
    // Live progress: `qdi-mon watch secure_flow.progress.json` tails
    // this file while the flow runs.
    qdi_obs::progress::set_enabled(true);
    qdi_obs::progress::set_file("secure_flow.progress.json", 200);
    // The hot-span/pool profile saved as `secure_flow.qprof.json` below.
    qdi_obs::prof::install();
    // Flush the file sinks on *every* exit path — a failed flow step
    // used to `?`-return past the flush calls below and leave a
    // truncated telemetry stream behind.
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
    qdi_obs::timeseries::tick();
    println!("acquired {} traces", set.len());

    qdi_obs::flush();
    qdi_obs::progress::write_now();

    // Monitoring sidecars next to the telemetry, in the layout
    // `qdi-mon report secure_flow.telemetry.jsonl` expects.
    let metrics = qdi_obs::metrics::MetricsSnapshot::capture();
    std::fs::write(
        "secure_flow.metrics.json",
        serde_json::to_string_pretty(&metrics)? + "\n",
    )?;
    qdi_obs::timeseries::save_json("secure_flow.timeseries.json")?;

    // The full hot-span/pool profile accumulated since `prof::install`
    // (both flows plus the campaign above): feed it to
    // `qdi-mon analyze|flame|timeline`.
    qdi_obs::prof::report().save("secure_flow.qprof.json")?;

    println!(
        "wrote secure_flow.trace.json (chrome://tracing / Perfetto), \
         secure_flow.telemetry.jsonl, secure_flow.qprof.json and the \
         qdi-mon sidecars (metrics/timeseries/progress .json)\n\
         next: qdi-mon report secure_flow.telemetry.jsonl\n\
         next: qdi-mon analyze secure_flow.qprof.json"
    );
    Ok(())
}
