//! Cross-crate integration: simulator + electrical model + formal model +
//! attack machinery working together on the paper's workloads.

use std::collections::HashMap;

use qdi::core::model::CurrentModel;
use qdi::crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi::dpa::selection::AesSboxSelect;
use qdi::dpa::{parallel_attack, run_parallel_campaign, CampaignConfig};
use qdi::exec::ExecConfig;
use qdi_bench::XorFixture;

#[test]
fn model_firing_sets_match_simulation() {
    // For each input pair, the gates the formal model predicts to fire
    // are exactly the gates the event simulation toggles in the
    // evaluation phase.
    let fx = XorFixture::new();
    let model = CurrentModel::new(&fx.netlist).expect("acyclic");
    for (av, bv) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
        let mut assign = HashMap::new();
        for v in 0..2 {
            assign.insert(fx.a.rail(v), v == av);
            assign.insert(fx.b.rail(v), v == bv);
        }
        let mut predicted = model.firing_gates(&assign);
        predicted.sort();

        // Evaluation phase = first half of each gate's two transitions:
        // take each gate's first toggle.
        let mut first_toggle: HashMap<_, u64> = HashMap::new();
        for t in &fx.run_pair(av, bv) {
            if let Some(g) = fx.netlist.net(t.net).driver {
                first_toggle.entry(g).or_insert(t.time_ps);
            }
        }
        let mut simulated: Vec<_> = first_toggle.keys().copied().collect();
        simulated.sort();
        assert_eq!(predicted, simulated, "({av},{bv})");
    }
}

#[test]
fn full_attack_recovers_key_byte_on_unbalanced_layout() {
    // The headline experiment in miniature: a capacitance-unbalanced
    // AddRoundKey+SBOX slice leaks its key byte to a 256-guess DPA.
    let mut slice = aes_first_round_slice("slice", SliceStage::XorSbox).expect("builds");
    let rail = slice.netlist.find_net("sb.b0.h1").expect("rail");
    slice.netlist.set_routing_cap(rail, 40.0);
    let key = 0xC3;
    let mut cfg = CampaignConfig::new(key);
    cfg.traces = 120;
    let set = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("campaign");
    let result = parallel_attack(
        &set,
        &AesSboxSelect { byte: 0, bit: 0 },
        ExecConfig::serial(),
    );
    assert_eq!(
        result.best().guess,
        key as u16,
        "ghost ratio {}",
        result.ghost_ratio()
    );
}

#[test]
fn balanced_layout_resists_the_same_attack() {
    // Identical attack, pre-layout balanced capacitances: the correct key
    // must not stand out (its peak is within noise of the median guess).
    let slice = aes_first_round_slice("slice", SliceStage::XorSbox).expect("builds");
    let key = 0xC3;
    let mut cfg = CampaignConfig::new(key);
    cfg.traces = 120;
    let set = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("campaign");
    let result = parallel_attack(
        &set,
        &AesSboxSelect { byte: 0, bit: 0 },
        ExecConfig::serial(),
    );
    let correct_peak = result
        .scores
        .iter()
        .find(|s| s.guess == key as u16)
        .expect("scored")
        .peak_abs;
    let median_peak = result.scores[result.scores.len() / 2].peak_abs;
    assert!(
        correct_peak < 3.0 * median_peak.max(1e-12),
        "correct key must not stand out on a balanced layout: {correct_peak} vs median {median_peak}"
    );
}
