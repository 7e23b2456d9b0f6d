//! The paper's reproduced claims at test size, with the thresholds of the
//! bench harnesses that regenerate them at full size.
//!
//! E4 (`crates/bench/benches/cpa_vs_qdi.rs`, Section II): correlation
//! power analysis with the Hamming-weight hypothesis breaks CMOS-style
//! register leakage, but finds nothing in balanced dual-rail QDI traces
//! of the same computation.

use qdi::analog::{Pulse, PulseShape, Trace};
use qdi::crypto::aes;
use qdi::crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi::dpa::cpa::{cpa, HammingWeightSbox};
use qdi::dpa::{run_parallel_campaign, CampaignConfig, PlaintextSource, TraceSet};
use qdi::exec::ExecConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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
