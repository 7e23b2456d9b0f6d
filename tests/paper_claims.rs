//! The paper's reproduced claims at test size, with the thresholds of the
//! bench harnesses that regenerate them at full size.
//!
//! E3 (`crates/bench/benches/fill_ablation.rs`, the paper's design
//! perspectives), at the bench's own size: capacitive fill after routing
//! collapses the DPA margins, and annealing effort alone cannot replace
//! the hierarchical flow's region constraints.
//!
//! E4 (`crates/bench/benches/cpa_vs_qdi.rs`, Section II): correlation
//! power analysis with the Hamming-weight hypothesis breaks CMOS-style
//! register leakage, but finds nothing in balanced dual-rail QDI traces
//! of the same computation.

use qdi::analog::{Pulse, PulseShape, Trace};
use qdi::crypto::aes;
use qdi::crypto::gatelevel::slice::{aes_first_round_slice, AesByteSlice, SliceStage};
use qdi::dpa::campaign::xor_stage_window;
use qdi::dpa::cpa::{cpa, HammingWeightSbox};
use qdi::dpa::template::profile_bit_templates;
use qdi::dpa::{run_parallel_campaign, CampaignConfig, PlaintextSource, TraceSet};
use qdi::exec::ExecConfig;
use qdi::pnr::{criterion, fill, place_and_route, PnrConfig, Strategy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Mean over the eight bits of the template margin (fC): the exploitable
/// DPA leakage of a layout, from a noiseless full-codebook profile.
fn mean_margin(slice: &AesByteSlice) -> f64 {
    let cfg = CampaignConfig::full_codebook(0);
    let window = xor_stage_window(slice, &cfg, 30).expect("calibrates");
    let templates = profile_bit_templates(slice, &cfg, window).expect("profiles");
    templates.margins().iter().sum::<f64>() / 8.0
}

#[test]
fn e3_capacitive_fill_collapses_the_dpa_margins() {
    let mut slice =
        aes_first_round_slice("slice", SliceStage::XorOnly).expect("generator is correct");
    let mut pnr = PnrConfig::default();
    pnr.anneal.seed = 8;
    place_and_route(&mut slice.netlist, Strategy::Flat, &pnr);
    let routed = mean_margin(&slice);

    // Channel fill zeroes the criterion but leaves the paths' internal
    // nets (minterms, OR stages) mismatched...
    let mut channel_only = slice.clone();
    let channels = fill::balance_channels(&mut channel_only.netlist, 0.0);
    assert!(
        channels.max_criterion_after < 1e-9,
        "channel fill must zero the criterion: {}",
        channels.max_criterion_after
    );
    let channel_filled = mean_margin(&channel_only);
    assert!(
        channel_filled < routed,
        "channel fill must reduce the margins: {routed} -> {channel_filled} fC"
    );

    // ...which cone fill closes: the full eq.-12 fix.
    fill::balance_cones(&mut slice.netlist);
    let cone_filled = mean_margin(&slice);
    assert!(
        cone_filled < 0.25 * routed,
        "cone fill must collapse the DPA margins: {routed} -> {cone_filled} fC"
    );
}

#[test]
fn e3_annealing_effort_cannot_replace_region_constraints() {
    let base = aes_first_round_slice("slice", SliceStage::XorOnly).expect("generator is correct");
    let seeds = [5u64, 6, 7];
    let worst_d = |nl: &qdi::netlist::Netlist| criterion::internal_criterion_table(nl)[0].d;
    // Per effort level, seed-averaged (flat wirelength, flat dA, hier dA).
    let mut rows = Vec::new();
    for effort in [10usize, 60, 240] {
        let (mut flat_wl, mut flat_d, mut hier_d) = (0.0, 0.0, 0.0);
        for &seed in &seeds {
            let mut cfg = PnrConfig::default();
            cfg.anneal.moves_per_gate = effort;
            cfg.anneal.seed = seed;
            let mut nl = base.netlist.clone();
            flat_wl += place_and_route(&mut nl, Strategy::Flat, &cfg).total_wirelength_um;
            flat_d += worst_d(&nl);
            let mut nl = base.netlist.clone();
            place_and_route(&mut nl, Strategy::Hierarchical, &cfg);
            hier_d += worst_d(&nl);
        }
        let n = seeds.len() as f64;
        rows.push((effort, flat_wl / n, flat_d / n, hier_d / n));
    }
    // More effort shortens the flat wirelength...
    assert!(
        rows[2].1 < rows[0].1,
        "more effort should reduce wirelength: {rows:?}"
    );
    // ...but at every effort the region constraint wins on the criterion.
    for &(effort, _, flat_d, hier_d) in &rows {
        assert!(
            hier_d < flat_d,
            "hierarchical must beat flat at {effort} moves/gate: {hier_d} vs {flat_d}"
        );
    }
}

const E4_KEY: u8 = 0x6B;
const E4_TRACES: usize = 256;

/// Synthetic single-rail CMOS leakage: the S-box output register's power
/// is proportional to the Hamming weight of the value it loads.
fn cmos_style_traces(key: u8) -> TraceSet {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut set = TraceSet::new();
    for _ in 0..E4_TRACES {
        let p: u8 = rng.gen();
        let hw = aes::first_round_sbox(p, key).count_ones() as f64;
        let mut t = Trace::zeros(0, 10, 64);
        t.add_pulse(
            Pulse {
                t0_ps: 200,
                charge_fc: 3.0 * hw,
                dur_ps: 60,
            },
            PulseShape::RcExponential,
        );
        t.add_gaussian_noise(&mut rng, 0.05);
        set.push(vec![p], t);
    }
    set
}

#[test]
fn e4_hamming_weight_cpa_breaks_cmos_leakage_but_not_balanced_qdi() {
    let model = HammingWeightSbox { byte: 0 };

    let cmos = cpa(&cmos_style_traces(E4_KEY), &model);
    assert_eq!(
        cmos.best().guess,
        E4_KEY as u16,
        "HW-CPA must break plain CMOS"
    );
    assert!(
        cmos.best().max_corr > 0.8,
        "|rho| = {}",
        cmos.best().max_corr
    );

    let slice = aes_first_round_slice("slice", SliceStage::XorSbox).expect("generator is correct");
    let mut cfg = CampaignConfig::new(E4_KEY);
    cfg.traces = E4_TRACES;
    cfg.plaintexts = PlaintextSource::Random;
    cfg.seed = 5;
    cfg.synth.noise_sigma = 0.05;
    let qdi = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("campaign");
    let result = cpa(&qdi, &model);
    let rank = result.rank_of(E4_KEY as u16).map_or(256, |r| r + 1);
    assert!(
        rank > 8,
        "HW-CPA must not single out the key on balanced dual-rail logic (rank {rank})"
    );
    assert!(
        result.best().max_corr < 0.6,
        "no strong HW correlation should exist in QDI traces (|rho| = {})",
        result.best().max_corr
    );
}
