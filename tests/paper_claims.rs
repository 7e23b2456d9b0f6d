//! The paper's reproduced claims, one test per claim, at the sizes and
//! seeds EXPERIMENTS.md reports. Each test asserts the claim's shape,
//! pins every number EXPERIMENTS.md quotes for it (to within half a unit
//! of the last printed digit; every run is deterministic) and prints its
//! table:
//!
//! ```sh
//! cargo test --release --test paper_claims -- --nocapture --test-threads 1
//! ```
//!
//! F2 (Fig. 2), F3/F6 (Figs. 3 and 6), F4/F5 (Figs. 4–5), F7 (Fig. 7),
//! T2 (Table 2) and F8/F9 (Figs. 8–9) regenerate the paper's artefacts;
//! E1–E4 are the derived experiments. T1 (Table 1) is the unit test
//! `qdi_netlist::channel::tests::table1_dual_rail_encoding`.

use std::collections::HashSet;
use std::sync::OnceLock;

use qdi::analog::{Pulse, PulseShape, SynthConfig, Trace, TraceSynthesizer};
use qdi::core::model::CurrentModel;
use qdi::crypto::aes;
use qdi::crypto::gatelevel::column::aes_column_datapath;
use qdi::crypto::gatelevel::slice::{aes_first_round_slice, AesByteSlice, SliceStage};
use qdi::dpa::campaign::xor_stage_window;
use qdi::dpa::cpa::{cpa, CpaResult, HammingWeightSbox};
use qdi::dpa::template::{bits_correct, profile_bit_templates, template_attack};
use qdi::dpa::{run_parallel_campaign, CampaignConfig, PlaintextSource, TraceSet};
use qdi::exec::ExecConfig;
use qdi::netlist::graph::{self, SwitchingProfile};
use qdi::netlist::{cells, NetId, Netlist, NetlistBuilder};
use qdi::pnr::criterion::{self, ChannelCriterion};
use qdi::pnr::{fill, place_and_route, PnrConfig, Strategy};
use qdi::sim::{hazard, protocol, ConstantDelay, Testbench, TestbenchConfig, Transition};
use qdi_bench::XorFixture;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Asserts that `value` prints as `expected` at `expected`'s precision,
/// i.e. within half a unit of its last digit.
fn pin(what: &str, value: f64, expected: &str) {
    let decimals = expected.split_once('.').map_or(0, |(_, frac)| frac.len());
    assert_eq!(
        format!("{value:.decimals$}"),
        expected,
        "{what} drifted from EXPERIMENTS.md"
    );
}

/// Prints `table` and asserts that it reads exactly `expected`, which
/// pins every digit in it.
fn print_pinned(what: &str, table: &str, expected: &str) {
    print!("{table}");
    assert_eq!(table, expected, "{what} drifted from EXPERIMENTS.md");
}

fn trace_summary(label: &str, trace: &Trace) -> String {
    let (t, v) = trace.abs_peak().unwrap_or((0, 0.0));
    format!(
        "{label:<38} peak |S| = {:>6.3} at {t:>4} ps   area = {:>6.1} fC",
        v.abs(),
        trace.abs_area_fc()
    )
}

/// The Fig. 7 scenarios, balanced first: routing capacitance (fF) of
/// each perturbed net of the XOR cell, all others at `Cd = 8 fF`.
const FIG7: [(&str, &[(&str, f64)]); 5] = [
    ("balanced (Fig. 6)", &[]),
    ("7a: Cl31 = 16 fF (x.h1)", &[("x.h1", 16.0)]),
    ("7b: Cl21 = 16 fF (x.o1)", &[("x.o1", 16.0)]),
    (
        "7c: Cl11 = Cl12 = 16 fF (x.m1, x.m2)",
        &[("x.m1", 16.0), ("x.m2", 16.0)],
    ),
    (
        "7d: Cl11 = Cl12 = 32 fF (x.m1, x.m2)",
        &[("x.m1", 32.0), ("x.m2", 32.0)],
    ),
];

fn xor_with(caps: &[(&str, f64)]) -> XorFixture {
    let mut fx = XorFixture::new();
    fx.set_caps(caps);
    fx
}

/// One ASCII waveform row: the net's level at `cols` evenly spaced
/// instants up to `end_ps`.
fn waveform(
    transitions: &[Transition],
    net: NetId,
    end_ps: u64,
    cols: usize,
    init: bool,
) -> String {
    let mut edges = transitions.iter().filter(|t| t.net == net).peekable();
    let mut level = init;
    (0..cols)
        .map(|c| {
            let t = c as u64 * end_ps / cols as u64;
            while let Some(edge) = edges.next_if(|e| e.time_ps <= t) {
                level = edge.rising;
            }
            if level {
                '▔'
            } else {
                '▁'
            }
        })
        .collect()
}

#[test]
fn f2_wchb_buffer_follows_the_four_phase_protocol() {
    banner("F2 (Fig. 2): four-phase handshake, WCHB buffer, 2 communications");
    let mut b = NetlistBuilder::new("hb");
    let a = b.input_channel("a", 2);
    let ack = b.input_net("ack");
    let cell = cells::wchb_buffer(&mut b, "hb", &a, ack);
    b.connect_input_acks(&[a.id], cell.ack_to_senders);
    let out = b.output_channel("co", &cell.out.rails.clone(), ack);
    let netlist = b.finish().expect("valid");

    let mut tb = Testbench::new(&netlist, TestbenchConfig::default()).expect("testbench");
    tb.source(a.id, vec![1, 0]).expect("source");
    tb.sink(out.id).expect("sink");
    let run = tb.run().expect("completes");
    println!("value 1, then value 0 ({} ps)", run.end_time_ps);
    let sender_ack = netlist.channel(a.id).ack.expect("ack");
    for (label, net, init) in [
        ("a.r0 (data 0)", a.rail(0), false),
        ("a.r1 (data 1)", a.rail(1), false),
        ("ack to sender", sender_ack, true),
        ("co.r0", out.rail(0), false),
        ("co.r1", out.rail(1), false),
        ("ack from recv", ack, true),
    ] {
        let wave = waveform(&run.transitions, net, run.end_time_ps + 50, 72, init);
        println!("{label:<14} {wave}");
    }

    let reports = protocol::check_all(&netlist, &run.transitions);
    for r in &reports {
        println!(
            "protocol check {:<6} communications = {}  violations = {}",
            r.channel_name,
            r.communications,
            r.violations.len()
        );
        assert!(r.conformant(), "{}: {:?}", r.channel_name, r.violations);
        assert_eq!(r.communications, 2, "{}", r.channel_name);
    }
    let checked: Vec<&str> = reports.iter().map(|r| r.channel_name.as_str()).collect();
    assert_eq!(checked, ["a", "hb.co", "co"]);
}

#[test]
fn f3_f6_balanced_xor_is_glitch_free_and_leaks_only_process_mismatch() {
    banner("F3/F6 (Figs. 3 and 6): the balanced dual-rail XOR, all Cl = 8 fF");
    let fx = XorFixture::new();
    for (av, bv) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
        let report = hazard::check(&fx.netlist, &fx.run_pair(av, bv), 1);
        assert!(report.hazard_free(), "({av},{bv}): {:?}", report.glitches);
    }
    println!("hazard check: all four computations glitch free");

    let balanced = fx.signature(SynthConfig::default());
    println!("{}", trace_summary("balanced, nominal gates", &balanced));
    println!("{}", balanced.ascii_plot(72, 9));
    // Fig. 6's residual peaks "due to Csc and Cpar": a 5 % process
    // mismatch on nominally identical gates.
    let mut mismatched = XorFixture::new();
    mismatched.netlist.apply_process_mismatch(42, 0.05);
    let residual = mismatched.signature(SynthConfig::default());
    println!(
        "{}",
        trace_summary("5% Cpar/Csc process mismatch", &residual)
    );
    println!("{}", residual.ascii_plot(72, 9));
    // Scale reference: one routed imbalance on top of the same mismatch.
    mismatched.set_caps(&[("x.m1", 16.0)]);
    let imbalanced = mismatched.signature(SynthConfig::default());
    let ratio = imbalanced.abs_area_fc() / residual.abs_area_fc().max(1e-12);
    println!("one 8 -> 16 fF routing imbalance: {ratio:.1}x the residual area");

    let peak = |t: &Trace| t.abs_peak().expect("nonempty").1.abs();
    assert!(
        peak(&residual) > peak(&balanced),
        "mismatch must create Fig. 6's residual peaks"
    );
    assert!(
        ratio > 3.0,
        "the residual must be far below a routed imbalance: {ratio:.2}x"
    );
    pin("balanced peak", peak(&balanced), "0.000");
    pin("balanced area", balanced.abs_area_fc(), "0.0");
    pin("residual peak", peak(&residual), "0.008");
    pin("residual area", residual.abs_area_fc(), "0.6");
    pin("imbalance / residual area", ratio, "217.6");
}

#[test]
fn f4_f5_xor_graph_has_four_levels_and_one_firing_gate_per_level() {
    banner("F4/F5 (Figs. 4-5): annotated directed graph of the dual-rail XOR");
    let fx = XorFixture::new();
    let levels = graph::levelize(&fx.netlist).expect("acyclic data path");
    let mut members = Vec::new();
    for (level, gates) in levels.iter() {
        let names: Vec<&str> = gates
            .iter()
            .map(|&g| fx.netlist.gate(g).name.as_str())
            .collect();
        println!("level {level}: {}", names.join(", "));
        members.push(names);
    }
    assert_eq!(levels.nc(), 4, "Nc");
    assert_eq!(
        members,
        [
            vec!["x.m1", "x.m2", "x.m3", "x.m4"],
            vec!["x.o1", "x.o2"],
            vec!["x.h1", "x.h2"],
            vec!["x.n1"],
        ]
    );

    for (av, bv) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
        // Evaluation phase only: each gate's first toggle.
        let mut seen = HashSet::new();
        let eval_gates: Vec<_> = fx
            .run_pair(av, bv)
            .iter()
            .filter_map(|t| fx.netlist.net(t.net).driver)
            .filter(|&g| seen.insert(g))
            .collect();
        let profile = SwitchingProfile::from_switching_gates(&levels, &eval_gates);
        println!(
            "inputs ({av},{bv}): Nt = {}  N_ij = {:?}",
            profile.nt(),
            profile.per_level()
        );
        assert_eq!(profile.nt(), 4, "Nt for ({av},{bv})");
        assert_eq!(profile.per_level(), [1, 1, 1, 1], "N_ij for ({av},{bv})");
    }
    println!("\n{}", graph::to_dot(&fx.netlist, &levels));
}

#[test]
fn f7_earlier_and_larger_imbalances_leak_more() {
    banner("F7 (Fig. 7a-d): XOR signature vs net-capacitance perturbation");
    let mut areas = Vec::new();
    for (label, caps) in FIG7 {
        let sig = xor_with(caps).signature(SynthConfig::default());
        println!("{}", trace_summary(label, &sig));
        println!("{}", sig.ascii_plot(72, 7));
        areas.push(sig.abs_area_fc());
    }
    assert!(
        areas[1] > 3.0 * areas[0],
        "7a must dominate the balanced baseline"
    );
    assert!(
        areas.windows(2).all(|w| w[0] < w[1]),
        "7d > 7c > 7b > 7a > balanced: {areas:?}"
    );
    let pinned = ["0.0", "220.5", "229.2", "242.9", "272.8"];
    for (((label, _), area), expected) in FIG7.iter().zip(&areas).zip(pinned) {
        pin(label, *area, expected);
    }
}

/// Table 2's annealing effort on the AES column, in moves per gate.
const T2_MOVES_PER_GATE: usize = 50;

/// One routed layout of the AES column datapath.
struct ColumnLayout {
    die_area_um2: f64,
    wirelength_um: f64,
    /// The four worst internal channels, worst first.
    worst: Vec<ChannelCriterion>,
    /// The constrained floorplan (hierarchical flow only).
    floorplan: Option<String>,
}

/// The AES column datapath (Fig. 8) routed by both flows at Table 2's
/// effort. F8/F9 reads its area overhead off the same two layouts: die
/// area does not depend on annealing effort.
struct Column {
    netlist: Netlist,
    hierarchical: ColumnLayout,
    flat: ColumnLayout,
}

fn column() -> &'static Column {
    static COLUMN: OnceLock<Column> = OnceLock::new();
    COLUMN.get_or_init(|| {
        let netlist = aes_column_datapath("aes_column")
            .expect("generator is correct")
            .netlist;
        let mut cfg = PnrConfig::default();
        cfg.anneal.moves_per_gate = T2_MOVES_PER_GATE;
        let route = |strategy| {
            let mut nl = netlist.clone();
            let report = place_and_route(&mut nl, strategy, &cfg);
            let mut worst = criterion::internal_criterion_table(&nl);
            worst.truncate(4);
            ColumnLayout {
                die_area_um2: report.die_area_um2,
                wirelength_um: report.total_wirelength_um,
                worst,
                floorplan: report.floorplan.map(|fp| fp.to_table()),
            }
        };
        Column {
            hierarchical: route(Strategy::Hierarchical),
            flat: route(Strategy::Flat),
            netlist,
        }
    })
}

#[test]
fn t2_hierarchical_flow_bounds_the_worst_channel() {
    banner("T2 (Table 2): channel dissymmetry, hierarchical (AES_v1) vs flat (AES_v2)");
    let column = column();
    let nl = &column.netlist;
    println!(
        "AES column datapath: {} gates, {} nets, {} channels; {T2_MOVES_PER_GATE} moves/gate",
        nl.gate_count(),
        nl.net_count(),
        nl.channel_count()
    );
    for (version, layout) in [
        ("AES_v1 - hierarchical", &column.hierarchical),
        ("AES_v2 - flatten", &column.flat),
    ] {
        println!(
            "--- {version}: die area {:.0} um2, wirelength {:.0} um",
            layout.die_area_um2, layout.wirelength_um
        );
        print!("{}", criterion::format_table(&layout.worst));
    }
    let (hier, flat) = (column.hierarchical.worst[0].d, column.flat.worst[0].d);
    println!(
        "worst dA: hierarchical {hier:.3}, flat {flat:.3}, gap {:.1}x (paper: 0.13 vs 1.25)",
        flat / hier
    );
    assert!(
        hier < flat,
        "the hierarchical flow must bound the criterion below the flat flow"
    );
    assert_eq!(nl.gate_count(), 6560);
    pin("hierarchical worst dA", hier, "0.921");
    pin("flat worst dA", flat, "8.085");
    pin("flat / hierarchical worst dA", flat / hier, "8.8");

    // The paper: the flat flow's most sensitive channels "are never the
    // same from one place and route to another".
    let mut fast = PnrConfig::default();
    fast.anneal.moves_per_gate = 15;
    let outcomes = criterion::stability_study_parallel(
        nl,
        Strategy::Flat,
        &fast,
        &[1, 2, 3, 4],
        ExecConfig::serial(),
    );
    println!("flat-flow worst channel per seed (15 moves/gate):");
    let table: String = outcomes
        .iter()
        .map(|o| {
            format!(
                "seed {}: {:<14} dA = {:.3}\n",
                o.seed, o.worst_channel, o.worst_d
            )
        })
        .collect();
    print_pinned(
        "T2 stability study",
        &table,
        "\
seed 1: ak0_1.x7.co    dA = 4.047
seed 2: mc.o19.l.t.co  dA = 4.910
seed 3: sb3.b1.co      dA = 3.640
seed 4: ark1.x2.co     dA = 4.601
",
    );
    let distinct: HashSet<&str> = outcomes.iter().map(|o| o.worst_channel.as_str()).collect();
    assert_eq!(distinct.len(), 4, "every seed has its own worst channel");
}

#[test]
fn f8_f9_constrained_floorplan_costs_a_tenth_more_core_area() {
    banner("F8/F9 (Figs. 8-9): AES column blocks and constrained floorplan");
    let column = column();
    for block in column.netlist.block_names() {
        let gates = column
            .netlist
            .gates()
            .filter(|g| g.block.as_deref() == Some(block.as_str()))
            .count();
        println!("{block:<16} {gates:>6} gates");
    }
    let floorplan = column.hierarchical.floorplan.as_deref();
    print!("{}", floorplan.expect("the hierarchical flow floorplans"));
    let (flat, hier) = (column.flat.die_area_um2, column.hierarchical.die_area_um2);
    let overhead = (hier / flat - 1.0) * 100.0;
    println!(
        "core area: flat {flat:.0} um2, hierarchical {hier:.0} um2 ({overhead:+.1}%; paper: ~20%)"
    );
    assert!(overhead > 0.0, "the hierarchical flow must cost area");
    assert!(overhead < 120.0, "the overhead should stay moderate");
    pin("flat core area", flat, "51673");
    pin("hierarchical core area", hier, "56971");
    pin("core area overhead (%)", overhead, "10.3");
}

const E1_KEY: u8 = 0x6B;
const E1_NOISE_SIGMA: f64 = 0.25;

struct E1Outcome {
    max_d: f64,
    min_margin: f64,
    avg_margin: f64,
    bits_ok: usize,
    expected_bits: f64,
}

/// Standard normal CDF (Abramowitz–Stegun 7.1.26 erf approximation).
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

/// One E1 trial: route the S-box slice, profile per-bit templates on
/// noiseless codebook campaigns (the attacker's own device), then attack
/// one noisy codebook pass on the victim.
fn e1_trial(strategy: Strategy, seed: u64) -> E1Outcome {
    let mut slice =
        aes_first_round_slice("slice", SliceStage::XorSbox).expect("generator is correct");
    let mut pnr = PnrConfig::default();
    pnr.anneal.seed = seed;
    pnr.anneal.moves_per_gate = 60;
    place_and_route(&mut slice.netlist, strategy, &pnr);
    let max_d = criterion::internal_criterion_table(&slice.netlist)[0].d;

    let mut cfg = CampaignConfig::full_codebook(E1_KEY);
    cfg.traces = 256;
    cfg.seed = seed;
    let window = xor_stage_window(&slice, &cfg, 30).expect("calibration run");
    let templates = profile_bit_templates(&slice, &cfg, window).expect("profiling");
    let mut atk = cfg;
    atk.seed = seed ^ 0xDEAD;
    atk.synth.noise_sigma = E1_NOISE_SIGMA;
    let set = run_parallel_campaign(&slice, &atk, ExecConfig::serial()).expect("attack campaign");
    let recovered = template_attack(&set, &templates);

    // Analytic per-bit success probability under the Gaussian noise
    // model: the bias-charge estimator's sigma over a window of W samples
    // and N traces is sigma*dt*sqrt(2W/(N/2)); a nearest-template call on
    // a margin m succeeds with probability Phi(m / sigma_bias).
    let w_samples = ((window.1 - window.0) / atk.synth.dt_ps).max(1) as f64;
    let sigma_bias = E1_NOISE_SIGMA
        * atk.synth.dt_ps as f64
        * (2.0 * w_samples / (atk.traces as f64 / 2.0)).sqrt();
    let margins = templates.margins();
    E1Outcome {
        max_d,
        min_margin: templates.min_margin(),
        avg_margin: margins.iter().sum::<f64>() / 8.0,
        bits_ok: bits_correct(recovered, E1_KEY),
        expected_bits: margins.iter().map(|&m| phi(m / sigma_bias)).sum(),
    }
}

#[test]
fn e1_flat_layout_leaks_the_key_byte_and_hierarchical_resists() {
    banner("E1: profiled DPA on the first-round slice, flat vs hierarchical");
    println!(
        "key 0x{E1_KEY:02x}, 256-trace codebook campaigns, XOR D-function at AddRoundKey, \
         noise sigma = {E1_NOISE_SIGMA}"
    );
    println!(
        "{:<13} {:>4}  {:>6}  {:>10}  {:>10}  {:>7}  {:>13}",
        "layout", "seed", "max dA", "min margin", "avg margin", "E[bits]", "bits (1 trial)"
    );
    let (mut flat, mut hier) = (Vec::new(), Vec::new());
    let mut table = String::new();
    for seed in [7u64, 8, 9] {
        for (name, strategy, outcomes) in [
            ("flat", Strategy::Flat, &mut flat),
            ("hierarchical", Strategy::Hierarchical, &mut hier),
        ] {
            let o = e1_trial(strategy, seed);
            table += &format!(
                "{name:<13} {seed:>4}  {:>6.3}  {:>7.2} fC  {:>7.2} fC  {:>7.2}  {:>11}/8\n",
                o.max_d, o.min_margin, o.avg_margin, o.expected_bits, o.bits_ok
            );
            outcomes.push(o);
        }
    }
    print_pinned(
        "E1 per-seed rows",
        &table,
        "\
flat             7   4.132     0.37 fC     9.52 fC     7.28            6/8
hierarchical     7   0.291     0.24 fC     2.04 fC     6.62            7/8
flat             8   0.939     0.01 fC     3.53 fC     7.09            7/8
hierarchical     8   0.173     0.24 fC     2.51 fC     6.86            7/8
flat             9   1.764     1.55 fC     5.59 fC     7.84            8/8
hierarchical     9   1.000     0.02 fC     2.66 fC     6.40            6/8
",
    );

    let avg =
        |v: &[E1Outcome], f: fn(&E1Outcome) -> f64| v.iter().map(f).sum::<f64>() / v.len() as f64;
    let (flat_d, hier_d) = (avg(&flat, |o| o.max_d), avg(&hier, |o| o.max_d));
    let (flat_m, hier_m) = (avg(&flat, |o| o.avg_margin), avg(&hier, |o| o.avg_margin));
    let (flat_bits, hier_bits) = (
        avg(&flat, |o| o.expected_bits),
        avg(&hier, |o| o.expected_bits),
    );
    println!(
        "averages: dA flat {flat_d:.3} vs hier {hier_d:.3} | margin flat {flat_m:.2} vs \
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
        avg(&flat, |o| o.bits_ok as f64) >= 6.0,
        "the flat layout should essentially disclose the key byte"
    );
    pin("flat mean dA", flat_d, "2.278");
    pin("hierarchical mean dA", hier_d, "0.488");
    pin("flat mean margin", flat_m, "6.21");
    pin("hierarchical mean margin", hier_m, "2.40");
    pin("flat E[bits]", flat_bits, "7.41");
    pin("hierarchical E[bits]", hier_bits, "6.63");
}

/// Scenario indices sorted by ascending area.
fn rank_order(areas: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..areas.len()).collect();
    idx.sort_by(|&a, &b| areas[a].total_cmp(&areas[b]));
    idx
}

#[test]
fn e2_formal_model_orders_the_fig7_scenarios_like_simulation() {
    banner("E2: formal model (eq. 12) vs simulation, with ablations");
    println!(
        "{:<38} {:>9} {:>9}",
        "signature area (fC)", "simulated", "analytic"
    );
    let (mut sim, mut model) = (Vec::new(), Vec::new());
    let mut table = String::new();
    for (label, caps) in FIG7 {
        let fx = xor_with(caps);
        let s = fx.signature(SynthConfig::default()).abs_area_fc();
        let m = CurrentModel::new(&fx.netlist)
            .expect("acyclic")
            .xor_gate_signature("x")
            .expect("cell")
            .abs_area_fc();
        table += &format!("{label:<38} {s:>9.1} {m:>9.1}\n");
        sim.push(s);
        model.push(m);
    }
    print_pinned(
        "E2 signature areas",
        &table,
        "\
balanced (Fig. 6)                            0.0       0.0
7a: Cl31 = 16 fF (x.h1)                    220.5      27.3
7b: Cl21 = 16 fF (x.o1)                    229.2      41.2
7c: Cl11 = Cl12 = 16 fF (x.m1, x.m2)       242.9      55.3
7d: Cl11 = Cl12 = 32 fF (x.m1, x.m2)       272.8      65.9
",
    );
    for (what, areas) in [("simulation", &sim), ("model", &model)] {
        assert!(
            areas[0] < 0.2 * areas[1],
            "{what}: balanced must be far below 7a: {areas:?}"
        );
        assert!(areas[4] > areas[3], "{what}: 7d > 7c: {areas:?}");
    }

    // Ablation: the analysis is insensitive to the pulse shape.
    let triangular = SynthConfig {
        shape: PulseShape::Triangular,
        ..SynthConfig::default()
    };
    let tri: Vec<f64> = FIG7
        .iter()
        .map(|(_, caps)| xor_with(caps).signature(triangular).abs_area_fc())
        .collect();
    let (rc_order, tri_order) = (rank_order(&sim), rank_order(&tri));
    println!("area order, RC pulses: {rc_order:?}; triangular pulses: {tri_order:?}");
    for order in [&rc_order, &tri_order] {
        assert_eq!(order[0], 0, "balanced stays smallest: {order:?}");
        assert_eq!(order[4], 4, "7d stays largest: {order:?}");
    }
    assert_eq!(
        tri_order,
        [0, 2, 1, 3, 4],
        "triangular order drifted from EXPERIMENTS.md"
    );

    // Ablation: a capacitance-independent delay hides the time-shift
    // leakage of Fig. 7b, which is why eq. 12 keeps dt = dt(C).
    let fx = xor_with(FIG7[2].1);
    let synth = TraceSynthesizer::new(&fx.netlist, SynthConfig::default());
    let class = |pairs: &[(usize, usize)]| {
        let traces: Vec<Trace> = pairs
            .iter()
            .map(|&(av, bv)| {
                synth.synthesize(&fx.run_pair_with_delay(av, bv, ConstantDelay::new(60)))
            })
            .collect();
        Trace::average(&traces)
    };
    let constant = Trace::difference(&class(&[(0, 0), (1, 1)]), &class(&[(0, 1), (1, 0)]));
    let constant = constant.abs_area_fc();
    println!(
        "7b area with dt = dt(C): {:.1} fC; with a constant delay: {constant:.1} fC",
        sim[2]
    );
    assert!(
        constant < 0.6 * sim[2],
        "constant delay must hide most of the time-shift leakage: {constant} vs {}",
        sim[2]
    );
    pin("7b area under a constant delay", constant, "19.2");
}

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
    banner("E3 (a): capacitive fill on the flat-routed XOR slice");
    let mut slice =
        aes_first_round_slice("slice", SliceStage::XorOnly).expect("generator is correct");
    let mut pnr = PnrConfig::default();
    pnr.anneal.seed = 8;
    place_and_route(&mut slice.netlist, Strategy::Flat, &pnr);
    let routed_d = criterion::internal_criterion_table(&slice.netlist)[0].d;
    let routed = mean_margin(&slice);

    // Channel fill zeroes the criterion but leaves the paths' internal
    // nets (minterms, OR stages) mismatched...
    let mut channel_only = slice.clone();
    let channels = fill::balance_channels(&mut channel_only.netlist, 0.0);
    let channel_filled = mean_margin(&channel_only);
    // ...which cone fill closes: the full eq.-12 fix.
    let cones = fill::balance_cones(&mut slice.netlist);
    let cone_filled = mean_margin(&slice);
    let energy_fj = fill::fill_energy_cost_fj(&cones, 1.2);
    println!(
        "worst channel dA: {routed_d:.3} -> {:.3}",
        channels.max_criterion_after
    );
    println!(
        "mean margin: {routed:.2} fC -> {channel_filled:.2} fC (channel fill) -> \
         {cone_filled:.2} fC (cone fill)"
    );
    println!(
        "cone fill: {:.0} fF dummy capacitance = {energy_fj:.0} fJ per cycle",
        cones.added_cap_ff
    );

    assert!(
        channels.max_criterion_after < 1e-9,
        "channel fill must zero the criterion: {}",
        channels.max_criterion_after
    );
    assert!(
        channel_filled < routed,
        "channel fill must reduce the margins: {routed} -> {channel_filled} fC"
    );
    assert!(
        cone_filled < 0.25 * routed,
        "cone fill must collapse the DPA margins: {routed} -> {cone_filled} fC"
    );
    pin("routed worst dA", routed_d, "0.367");
    pin(
        "channel-filled worst dA",
        channels.max_criterion_after,
        "0.000",
    );
    pin("routed mean margin", routed, "0.71");
    pin("channel-filled mean margin", channel_filled, "0.52");
    pin("cone-filled mean margin", cone_filled, "0.00");
    pin("cone-fill capacitance (fF)", cones.added_cap_ff, "33");
    pin("cone-fill energy (fJ)", energy_fj, "96");
}

#[test]
fn e3_annealing_effort_cannot_replace_region_constraints() {
    banner("E3 (b): annealing effort vs worst internal dA, 3-seed averages");
    let base = aes_first_round_slice("slice", SliceStage::XorOnly).expect("generator is correct");
    let seeds = [5u64, 6, 7];
    let worst_d = |nl: &Netlist| criterion::internal_criterion_table(nl)[0].d;
    println!("moves/gate  flat wirelength  flat dA  hier dA");
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
    let table: String = rows
        .iter()
        .map(|(effort, wl, flat_d, hier_d)| {
            format!("{effort:<10}  {wl:>12.0} um  {flat_d:>7.3}  {hier_d:>7.3}\n")
        })
        .collect();
    print_pinned(
        "E3 effort sweep",
        &table,
        "\
10                  1097 um    1.135    0.501
60                   814 um    0.476    0.330
240                  695 um    0.371    0.296
",
    );
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
    banner("E4: Hamming-weight CPA, CMOS-style leakage vs balanced QDI");
    let model = HammingWeightSbox { byte: 0 };
    let rank = |result: &CpaResult| result.rank_of(E4_KEY as u16).map_or(256, |r| r + 1);

    let cmos = cpa(&cmos_style_traces(E4_KEY), &model);
    println!(
        "CMOS-style leakage: best guess 0x{:02x} (|rho| = {:.3}), true key rank {}",
        cmos.best().guess,
        cmos.best().max_corr,
        rank(&cmos)
    );

    let slice = aes_first_round_slice("slice", SliceStage::XorSbox).expect("generator is correct");
    let mut cfg = CampaignConfig::new(E4_KEY);
    cfg.traces = E4_TRACES;
    cfg.plaintexts = PlaintextSource::Random;
    cfg.seed = 5;
    cfg.synth.noise_sigma = 0.05;
    let traces = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("campaign");
    let qdi = cpa(&traces, &model);
    println!(
        "balanced QDI slice: best guess 0x{:02x} (|rho| = {:.3}), true key rank {}",
        qdi.best().guess,
        qdi.best().max_corr,
        rank(&qdi)
    );

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
    assert!(
        rank(&qdi) > 8,
        "HW-CPA must not single out the key on balanced dual-rail logic (rank {})",
        rank(&qdi)
    );
    assert!(
        qdi.best().max_corr < 0.6,
        "no strong HW correlation should exist in QDI traces (|rho| = {})",
        qdi.best().max_corr
    );
    pin("CMOS best |rho|", cmos.best().max_corr, "0.965");
    assert_eq!(
        rank(&qdi),
        254,
        "QDI true key rank drifted from EXPERIMENTS.md"
    );
    pin("QDI best |rho|", qdi.best().max_corr, "0.268");
}
