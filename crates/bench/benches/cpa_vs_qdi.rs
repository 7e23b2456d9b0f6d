//! E4 — why QDI logic resists the *standard* attack model: correlation
//! power analysis with the Hamming-weight hypothesis recovers the key
//! instantly from CMOS-style leakage but finds nothing in balanced
//! dual-rail traces, whose only exploitable signal is the capacitance
//! mismatch of eq. 12.
//!
//! This regenerates, as a quantitative experiment, the paper's Section II
//! claim that 1-of-N encoding plus balanced data paths removes
//! data-dependent power consumption.

use qdi_analog::{Pulse, PulseShape, Trace};
use qdi_bench::banner;
use qdi_crypto::aes;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::cpa::{cpa, HammingWeightSbox};
use qdi_dpa::{run_parallel_campaign, CampaignConfig, PlaintextSource, TraceSet};
use qdi_exec::ExecConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const KEY: u8 = 0x6B;
const TRACES: usize = 256;

/// Synthetic single-rail CMOS leakage: the S-box output register's power
/// is proportional to the Hamming weight of the value it loads.
fn cmos_style_traces(key: u8) -> TraceSet {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut set = TraceSet::new();
    for _ in 0..TRACES {
        let p: u8 = rng.gen();
        let hw = aes::first_round_sbox(p, key).count_ones() as f64;
        let mut t = Trace::zeros(0, 10, 64);
        // Clocked register load: charge scales with switched bits.
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

fn main() {
    banner("E4 — Hamming-weight CPA: CMOS-style leakage vs balanced QDI");
    let model = HammingWeightSbox { byte: 0 };

    // CMOS-style register leakage: the textbook attack works.
    let cmos = cmos_style_traces(KEY);
    let cmos_result = cpa(&cmos, &model);
    println!(
        "CMOS-style leakage:  best guess 0x{:02x} (|rho| = {:.3}), true key rank {}",
        cmos_result.best().guess,
        cmos_result.best().max_corr,
        cmos_result.rank_of(KEY as u16).map_or(0, |r| r + 1)
    );
    assert_eq!(
        cmos_result.best().guess,
        KEY as u16,
        "HW-CPA must break plain CMOS"
    );
    assert!(cmos_result.best().max_corr > 0.8);

    // Balanced dual-rail QDI traces of the same computation.
    let slice = aes_first_round_slice("slice", SliceStage::XorSbox).expect("generator is correct");
    let mut cfg = CampaignConfig::new(KEY);
    cfg.traces = TRACES;
    cfg.plaintexts = PlaintextSource::Random;
    cfg.seed = 5;
    cfg.synth.noise_sigma = 0.05;
    let qdi = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("campaign");
    let qdi_result = cpa(&qdi, &model);
    let qdi_rank = qdi_result.rank_of(KEY as u16).map_or(256, |r| r + 1);
    println!(
        "balanced QDI slice:  best guess 0x{:02x} (|rho| = {:.3}), true key rank {}",
        qdi_result.best().guess,
        qdi_result.best().max_corr,
        qdi_rank
    );
    assert!(
        qdi_rank > 8,
        "HW-CPA must not single out the key on balanced dual-rail logic (rank {qdi_rank})"
    );
    assert!(
        qdi_result.best().max_corr < 0.6,
        "no strong HW correlation should exist in QDI traces"
    );
    println!("\nRESULT: the Hamming-weight model that breaks clocked CMOS in one");
    println!("codebook pass finds no purchase on balanced QDI logic — the residual");
    println!("leakage lives in layout capacitance mismatches (eq. 12), which is");
    println!("exactly what the paper's criterion and flow control.");
}
