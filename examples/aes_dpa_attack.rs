//! End-to-end DPA key recovery against the gate-level AES first-round
//! byte slice (AddRoundKey + ByteSub), comparing an uncontrolled (flat)
//! layout with the paper's hierarchical layout.
//!
//! The attack uses the paper's AES selection function
//! `D(C1, P8, K8) = XOR(P8, K8)(C1)` in a profiled (template) setting: a
//! profiling phase on an identical device characterises each bit's bias
//! polarity and magnitude, then the victim's noisy traces are matched
//! against the templates.
//!
//! Run with: `cargo run --release --example aes_dpa_attack`

use qdi::crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi::dpa::campaign::xor_stage_window;
use qdi::dpa::template::{bits_correct, profile_bit_templates, template_attack};
use qdi::dpa::{run_parallel_campaign, CampaignConfig};
use qdi::exec::ExecConfig;
use qdi::pnr::{criterion, place_and_route, PnrConfig, Strategy};

const KEY: u8 = 0x6B;
const NOISE_SIGMA: f64 = 0.25;

fn attack_layout(strategy: Strategy, seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    let mut slice = aes_first_round_slice("slice", SliceStage::XorSbox)?;

    let mut pnr = PnrConfig::default();
    pnr.anneal.seed = seed;
    let report = place_and_route(&mut slice.netlist, strategy, &pnr);
    let worst = criterion::internal_criterion_table(&slice.netlist);
    println!("\n=== {strategy:?} layout (seed {seed}) ===");
    println!(
        "die area {:.0} um2, wirelength {:.0} um, worst internal dA = {:.3} ({})",
        report.die_area_um2, report.total_wirelength_um, worst[0].d, worst[0].name
    );

    // Profiling phase (attacker's own device, noiseless, chosen plaintexts).
    let cfg = CampaignConfig::full_codebook(KEY);
    let window = xor_stage_window(&slice, &cfg, 30)?;
    let templates = profile_bit_templates(&slice, &cfg, window)?;
    let margins = templates.margins();
    println!(
        "per-bit bias margins (fC): {}",
        margins
            .iter()
            .map(|m| format!("{m:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Attack phase: one noisy codebook pass on the victim device.
    let mut atk = cfg;
    atk.seed = 0xA77AC4;
    atk.synth.noise_sigma = NOISE_SIGMA;
    let set = run_parallel_campaign(&slice, &atk, ExecConfig::serial())?;
    let recovered = template_attack(&set, &templates);
    println!(
        "recovered key byte 0x{recovered:02x} (true 0x{KEY:02x}): {}/8 bits correct",
        bits_correct(recovered, KEY)
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("profiled DPA on the QDI AES first-round slice (key = 0x{KEY:02x})");
    println!("256-trace codebook campaigns, noise sigma = {NOISE_SIGMA}");
    attack_layout(Strategy::Flat, 8)?;
    attack_layout(Strategy::Hierarchical, 8)?;
    println!("\nthe flat layout's uncontrolled net capacitances give large bias");
    println!("margins and the key byte falls; the hierarchical methodology bounds");
    println!("the channel dissymmetry and shrinks the margins (paper, Section VI).");
    Ok(())
}
