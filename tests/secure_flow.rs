//! Integration tests of the secure design flow: the Table 2 comparison in
//! miniature, on the first-round byte slice.

use qdi::core::{run_slice_flow, run_static_flow, FlowConfig};
use qdi::crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi::dpa::selection::AesSboxSelect;
use qdi::exec::ExecConfig;
use qdi::pnr::{criterion, PnrConfig, Strategy};

fn fast_cfg(strategy: Strategy, key: u8, seed: u64) -> FlowConfig {
    let mut cfg = FlowConfig::new(strategy, key);
    cfg.pnr = PnrConfig::fast();
    cfg.pnr.anneal.seed = seed;
    cfg.campaign.traces = 32;
    cfg.campaign.seed = seed;
    cfg
}

#[test]
fn hierarchical_flow_reduces_worst_criterion_across_seeds() {
    // Table 2's headline: max dA under the flat flow exceeds max dA under
    // the hierarchical flow, averaged over seeds.
    let base = aes_first_round_slice("s", SliceStage::XorSbox).expect("builds");
    let mut flat = Vec::new();
    let mut hier = Vec::new();
    for seed in [3u64, 5, 9] {
        for (strategy, acc) in [
            (Strategy::Flat, &mut flat),
            (Strategy::Hierarchical, &mut hier),
        ] {
            let mut nl = base.netlist.clone();
            let report = run_static_flow(&mut nl, &fast_cfg(strategy, 0, seed)).expect("lints");
            acc.push(report.max_criterion);
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        avg(&hier) < avg(&flat),
        "hierarchical {hier:?} should beat flat {flat:?} on average"
    );
}

#[test]
fn flat_flow_worst_channel_varies_by_seed() {
    // "The most sensitive channels are never the same from one place and
    // route to another" — check the flat flow's worst channel is not
    // always identical across seeds.
    let base = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let outcomes = criterion::stability_study_parallel(
        &base.netlist,
        Strategy::Flat,
        &PnrConfig::fast(),
        &[1, 2, 3, 4, 5],
        ExecConfig::serial(),
    );
    let names: std::collections::HashSet<&str> =
        outcomes.iter().map(|o| o.worst_channel.as_str()).collect();
    assert!(
        names.len() > 1,
        "five flat runs always produced the same worst channel: {outcomes:?}"
    );
}

#[test]
fn slice_flow_report_is_serializable() {
    let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let sel = AesSboxSelect { byte: 0, bit: 0 };
    let report =
        run_slice_flow(&mut slice, &sel, &fast_cfg(Strategy::Hierarchical, 0x11, 1)).expect("flow");
    let json = serde_json::to_string(&report).expect("serializes");
    assert!(json.contains("worst_channels"));
    assert!(json.contains("scores"));
}

#[test]
fn hierarchical_area_overhead_is_in_the_tens_of_percent() {
    // The paper reports ~20 % core-area cost for AES_v1; with the default
    // region margin the overhead must be positive and moderate.
    let base = aes_first_round_slice("s", SliceStage::XorSbox).expect("builds");
    let mut nl_flat = base.netlist.clone();
    let mut nl_hier = base.netlist.clone();
    let flat = run_static_flow(&mut nl_flat, &fast_cfg(Strategy::Flat, 0, 1)).expect("lints");
    let hier =
        run_static_flow(&mut nl_hier, &fast_cfg(Strategy::Hierarchical, 0, 1)).expect("lints");
    let overhead = hier.die_area_um2 / flat.die_area_um2 - 1.0;
    assert!(
        (0.0..1.0).contains(&overhead),
        "area overhead should be positive and below 2x: {overhead}"
    );
}
