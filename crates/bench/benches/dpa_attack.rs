//! E1 — end-to-end DPA on the first-round slice under extracted flat and
//! hierarchical layouts, using the paper's AES selection function
//! `D(C1, P8, K8) = XOR(P8, K8)(C1)` as a profiled (template) attack at
//! the AddRoundKey point of interest.
//!
//! Expected shape (Sections IV & VI): the flat layout's uncontrolled
//! channel dissymmetry gives large per-bit bias margins — the key byte is
//! recovered through realistic measurement noise — while the hierarchical
//! layout shrinks the margins and with them the recovered bits.

use qdi_bench::banner;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::campaign::xor_stage_window;
use qdi_dpa::template::{bits_correct, profile_bit_templates, template_attack};
use qdi_dpa::{run_parallel_campaign, CampaignConfig};
use qdi_exec::ExecConfig;
use qdi_pnr::{criterion, place_and_route, PnrConfig, Strategy};

const KEY: u8 = 0x6B;
const NOISE_SIGMA: f64 = 0.25;

struct Outcome {
    max_d: f64,
    min_margin: f64,
    avg_margin: f64,
    bits_ok: usize,
    expected_bits: f64,
}

/// Standard normal CDF (Abramowitz–Stegun 7.1.26 via erf approximation).
fn phi(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * x.abs() / std::f64::consts::SQRT_2);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x / 2.0).exp();
    if x >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

fn run(strategy: Strategy, seed: u64) -> Outcome {
    let mut slice =
        aes_first_round_slice("slice", SliceStage::XorSbox).expect("generator is correct");
    let mut pnr = PnrConfig::default();
    pnr.anneal.seed = seed;
    pnr.anneal.moves_per_gate = 60;
    place_and_route(&mut slice.netlist, strategy, &pnr);
    let max_d = criterion::internal_criterion_table(&slice.netlist)[0].d;

    let mut cfg = CampaignConfig::full_codebook(KEY);
    cfg.traces = 256;
    cfg.seed = seed;
    let window = xor_stage_window(&slice, &cfg, 30).expect("calibration run");
    // Profiling phase: noiseless campaigns with known keys (the
    // attacker's own device).
    let templates = profile_bit_templates(&slice, &cfg, window).expect("profiling");
    // Attack phase: one noisy codebook pass on the victim.
    let mut atk = cfg;
    atk.key = KEY;
    atk.seed = seed ^ 0xDEAD;
    atk.synth.noise_sigma = NOISE_SIGMA;
    let set = run_parallel_campaign(&slice, &atk, ExecConfig::serial()).expect("attack campaign");
    let recovered = template_attack(&set, &templates);

    // Analytic per-bit success probability under the Gaussian noise
    // model: the bias-charge estimator's sigma over a window of W samples
    // and N traces is sigma*dt*sqrt(2W/(N/2)); a nearest-template call on
    // a margin m succeeds with probability Phi(m / sigma_bias).
    let w_samples = ((window.1 - window.0) / atk.synth.dt_ps).max(1) as f64;
    let sigma_bias =
        NOISE_SIGMA * atk.synth.dt_ps as f64 * (2.0 * w_samples / (atk.traces as f64 / 2.0)).sqrt();
    let margins = templates.margins();
    let expected_bits: f64 = margins.iter().map(|&m| phi(m / sigma_bias)).sum();
    Outcome {
        max_d,
        min_margin: templates.min_margin(),
        avg_margin: margins.iter().sum::<f64>() / 8.0,
        bits_ok: bits_correct(recovered, KEY),
        expected_bits,
    }
}

fn main() {
    banner("E1 — profiled DPA on the first-round slice (flat vs hierarchical)");
    println!(
        "secret key 0x{KEY:02x}, 256-trace codebook campaigns, XOR D-function at the\n\
         AddRoundKey point of interest, measurement noise sigma = {NOISE_SIGMA}\n"
    );
    println!("layout          seed  max dA   min margin  avg margin  E[bits]  bits (1 trial)");
    let mut flat_out = Vec::new();
    let mut hier_out = Vec::new();
    for seed in [7u64, 8, 9] {
        for (name, strategy, acc) in [
            ("flat", Strategy::Flat, &mut flat_out),
            ("hierarchical", Strategy::Hierarchical, &mut hier_out),
        ] {
            let o = run(strategy, seed);
            println!(
                "{name:<15} {seed:>4}  {:>6.3}  {:>9.2}fC  {:>9.2}fC  {:>6.2}  {:>8}/8",
                o.max_d, o.min_margin, o.avg_margin, o.expected_bits, o.bits_ok
            );
            acc.push(o);
        }
    }
    let avg = |v: &[Outcome], f: fn(&Outcome) -> f64| -> f64 {
        v.iter().map(f).sum::<f64>() / v.len() as f64
    };
    let flat_d = avg(&flat_out, |o| o.max_d);
    let hier_d = avg(&hier_out, |o| o.max_d);
    let flat_m = avg(&flat_out, |o| o.avg_margin);
    let hier_m = avg(&hier_out, |o| o.avg_margin);
    let flat_bits = avg(&flat_out, |o| o.expected_bits);
    let hier_bits = avg(&hier_out, |o| o.expected_bits);
    let flat_trial = avg(&flat_out, |o| o.bits_ok as f64);
    println!(
        "\naverages: dA flat {flat_d:.3} vs hier {hier_d:.3} | margin flat {flat_m:.2} vs \
         hier {hier_m:.2} fC | E[bits] flat {flat_bits:.2} vs hier {hier_bits:.2}"
    );
    assert!(
        hier_d < flat_d,
        "hierarchical flow must bound the criterion"
    );
    assert!(
        hier_m < flat_m,
        "hierarchical flow must shrink the exploitable bias margins"
    );
    assert!(
        flat_bits > hier_bits,
        "the flat layout must leak more expected key bits"
    );
    assert!(
        flat_trial >= 6.0,
        "the flat layout should essentially disclose the key byte"
    );
    println!("\nRESULT: the flat layout's channel dissymmetry leaks the key byte through");
    println!("noise; the hierarchical methodology shrinks the eq.-12 margins and the");
    println!("recovered bits drop accordingly — Section VI's improvement demonstrated.");
}
