//! Cross-crate integration: simulator + electrical model + formal model +
//! attack machinery working together on the paper's workloads.

use std::collections::HashMap;

use qdi::analog::{SynthConfig, Trace, TraceSynthesizer};
use qdi::core::model::CurrentModel;
use qdi::crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi::dpa::selection::AesSboxSelect;
use qdi::dpa::{parallel_attack, run_parallel_campaign, CampaignConfig};
use qdi::exec::ExecConfig;
use qdi::netlist::{cells, Channel, Netlist, NetlistBuilder};
use qdi::sim::{Testbench, TestbenchConfig};

fn xor_fixture() -> (Netlist, Channel, Channel, Channel) {
    let mut b = NetlistBuilder::new("xor");
    let a = b.input_channel("a", 2);
    let bb = b.input_channel("b", 2);
    let ack = b.input_net("ack");
    let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
    b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
    let out = b.output_channel("co", &cell.out.rails.clone(), ack);
    (b.finish().expect("valid"), a, bb, out)
}

/// Simulated signature of the XOR cell (eval classes split on output).
fn simulated_signature(nl: &Netlist, a: &Channel, bb: &Channel, out: &Channel) -> Trace {
    let synth = TraceSynthesizer::new(nl, SynthConfig::default());
    let run_pair = |av: usize, bv: usize| {
        let mut tb = Testbench::new(nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, vec![av]).expect("src");
        tb.source(bb.id, vec![bv]).expect("src");
        tb.sink(out.id).expect("sink");
        synth.synthesize(&tb.run().expect("completes").transitions)
    };
    let a0 = Trace::average(&[run_pair(0, 0), run_pair(1, 1)]);
    let a1 = Trace::average(&[run_pair(0, 1), run_pair(1, 0)]);
    Trace::difference(&a0, &a1)
}

#[test]
fn model_and_simulation_agree_on_signature_ordering() {
    // The analytic model (eq. 12) and the event-driven simulation must
    // agree that the four Fig. 7 scenarios order the same way by leakage
    // area, and that the balanced case is far below all of them.
    let scenarios: &[(&str, &[(&str, f64)])] = &[
        ("balanced", &[]),
        ("fig7a", &[("x.h1", 16.0)]),
        ("fig7c", &[("x.m1", 16.0), ("x.m2", 16.0)]),
        ("fig7d", &[("x.m1", 32.0), ("x.m2", 32.0)]),
    ];
    let mut sim_area = Vec::new();
    let mut model_area = Vec::new();
    for (name, caps) in scenarios {
        let (mut nl, a, bb, out) = xor_fixture();
        for (net, cap) in *caps {
            let id = nl.find_net(net).expect("net");
            nl.set_routing_cap(id, *cap);
        }
        sim_area.push((*name, simulated_signature(&nl, &a, &bb, &out).abs_area_fc()));
        let model = CurrentModel::new(&nl).expect("acyclic");
        model_area.push((
            *name,
            model.xor_gate_signature("x").expect("cell").abs_area_fc(),
        ));
    }
    for areas in [&sim_area, &model_area] {
        assert!(
            areas[0].1 < 0.2 * areas[1].1,
            "balanced must be far smaller: {areas:?}"
        );
        assert!(areas[3].1 > areas[2].1, "fig7d > fig7c: {areas:?}");
    }
}

#[test]
fn model_firing_sets_match_simulation() {
    // For each input pair, the gates the formal model predicts to fire
    // are exactly the gates the event simulation toggles in the
    // evaluation phase.
    let (nl, a, bb, out) = xor_fixture();
    let model = CurrentModel::new(&nl).expect("acyclic");
    for (av, bv) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
        let mut assign = HashMap::new();
        for v in 0..2 {
            assign.insert(a.rail(v), v == av);
            assign.insert(bb.rail(v), v == bv);
        }
        let mut predicted = model.firing_gates(&assign);
        predicted.sort();

        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, vec![av]).expect("src");
        tb.source(bb.id, vec![bv]).expect("src");
        tb.sink(out.id).expect("sink");
        let run = tb.run().expect("completes");
        // Evaluation phase = first half of each gate's two transitions:
        // take each gate's first toggle.
        let mut first_toggle: HashMap<_, u64> = HashMap::new();
        for t in &run.transitions {
            if let Some(g) = nl.net(t.net).driver {
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
