//! E3 — ablations around the place-and-route countermeasure:
//!
//! 1. **Capacitive fill** (the paper's "design perspectives" direction):
//!    balancing every channel's rails after routing drives `dA` to zero
//!    and collapses the DPA margins, at a quantified energy cost.
//! 2. **Annealing effort**: spending more optimisation effort on the
//!    *flat* flow improves wirelength but does not bound the worst
//!    channel — only the region constraint does (DESIGN.md ablation).
//!
//! The shapes printed here are asserted, at this same size, by the E3
//! tests of `tests/paper_claims.rs`.

use qdi_bench::banner;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::campaign::xor_stage_window;
use qdi_dpa::template::profile_bit_templates;
use qdi_dpa::CampaignConfig;
use qdi_pnr::{criterion, fill, place_and_route, PnrConfig, Strategy};

fn margins_of(slice: &qdi_crypto::gatelevel::slice::AesByteSlice) -> (f64, f64) {
    let cfg = CampaignConfig::full_codebook(0);
    let window = xor_stage_window(slice, &cfg, 30).expect("calibrates");
    let t = profile_bit_templates(slice, &cfg, window).expect("profiles");
    let m = t.margins();
    (m.iter().sum::<f64>() / 8.0, t.min_margin())
}

fn main() {
    banner("E3 — fill countermeasure and annealing-effort ablations");

    // --- Part 1: capacitive fill on a routed flat layout. ---
    let mut slice =
        aes_first_round_slice("slice", SliceStage::XorOnly).expect("generator is correct");
    let mut pnr = PnrConfig::default();
    pnr.anneal.seed = 8;
    place_and_route(&mut slice.netlist, Strategy::Flat, &pnr);
    let before_d = criterion::internal_criterion_table(&slice.netlist)[0].d;
    let (before_avg, before_min) = margins_of(&slice);

    // Channel-level fill: zeroes the criterion but leaves the paths'
    // internal nets (minterms, OR stages) mismatched.
    let mut channel_only = slice.clone();
    fill::balance_channels(&mut channel_only.netlist, 0.0);
    let (ch_avg, ch_min) = margins_of(&channel_only);

    // Cone-level fill: symmetrizes every structurally corresponding net of
    // the rail cones — the full eq.-12 fix.
    let cone_report = fill::balance_cones(&mut slice.netlist);
    let (after_avg, after_min) = margins_of(&slice);
    let energy = fill::fill_energy_cost_fj(&cone_report, 1.2);

    println!("capacitive fill on the flat-routed XOR slice:");
    println!(
        "  worst channel dA:  {before_d:.3}  ->  {:.3}",
        cone_report.max_criterion_after
    );
    println!("  avg bias margin:   {before_avg:.2} fC  -> {ch_avg:.2} fC (channel fill) -> {after_avg:.2} fC (cone fill)");
    println!("  min bias margin:   {before_min:.2} fC  -> {ch_min:.2} fC (channel fill) -> {after_min:.2} fC (cone fill)");
    println!(
        "  cone-fill cost: {:.0} fF dummy capacitance = {energy:.0} fJ extra per cycle",
        cone_report.added_cap_ff
    );
    println!("  note: the channel criterion alone under-covers eq. 12 — internal path");
    println!("  nets leak too; cone fill closes that gap.");

    // --- Part 2: annealing effort does not replace region constraints. ---
    println!("\nannealing effort vs worst internal dA (averaged over 3 seeds):");
    println!("  effort (moves/gate)   flat wirelength    flat dA    hier dA");
    let base = aes_first_round_slice("slice", SliceStage::XorOnly).expect("builds");
    let seeds = [5u64, 6, 7];
    for effort in [10usize, 60, 240] {
        let mut flat_wl = 0.0;
        let mut flat_d = 0.0;
        let mut hier_d = 0.0;
        for &seed in &seeds {
            let mut cfg = PnrConfig::default();
            cfg.anneal.moves_per_gate = effort;
            cfg.anneal.seed = seed;
            let mut nl = base.netlist.clone();
            let report = place_and_route(&mut nl, Strategy::Flat, &cfg);
            flat_wl += report.total_wirelength_um;
            flat_d += criterion::internal_criterion_table(&nl)[0].d;
            let mut nl = base.netlist.clone();
            place_and_route(&mut nl, Strategy::Hierarchical, &cfg);
            hier_d += criterion::internal_criterion_table(&nl)[0].d;
        }
        let n = seeds.len() as f64;
        let (flat_wl, flat_d, hier_d) = (flat_wl / n, flat_d / n, hier_d / n);
        println!("  {effort:>10}          {flat_wl:>12.0}    {flat_d:>8.3}  {hier_d:>8.3}");
    }
    println!("\nRESULT: fill zeroes the criterion (at an energy cost); optimisation");
    println!("effort alone cannot substitute for the paper's placement constraints.");
}
