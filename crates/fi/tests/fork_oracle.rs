//! The fork oracle: for any fault plan, [`GoldenRun::fault_run`] gives
//! exactly what [`Stimulus::run`] gives from scratch. A completed run must
//! match in transitions, end time, cycles and received values, an error in
//! every field, and a plan the fast path calls `Golden` must run, from
//! scratch, to the golden run itself. The campaign's outcome
//! ([`GoldenRun::outcome`], which checks only the log past the fork's
//! snapshot) must equal [`classify`] of the run from scratch.
//!
//! The cases cover three fixtures (the dual-rail XOR, the XOR+S-box slice
//! and a pipe with a glitch-swallowing gate), all six fault models with
//! and without durations, first actions
//! inside settling (0 and 1 ps), at the default injection times, at random
//! points of the golden span, on a golden edge's net at its time and
//! after the span's end,
//! two-fault plans, snapshots
//! at exactly the plan's first action or only at the default times, and a
//! watchdog sim-time deadline set or unset.

use std::sync::OnceLock;

use proptest::prelude::*;

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_fi::{
    classify, default_injection_times, output_values, parse_models, CampaignConfig, FaultRun,
    GoldenRun, Stimulus,
};
use qdi_netlist::{cells, GateId, GateKind, NetId, Netlist, NetlistBuilder};
use qdi_sim::{
    Fault, FaultKind, FaultPlan, FaultSite, SimError, TestbenchConfig, TestbenchRun, TimePs,
};

fn xor_netlist() -> &'static Netlist {
    static XOR: OnceLock<Netlist> = OnceLock::new();
    XOR.get_or_init(|| {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
        b.finish().expect("valid")
    })
}

fn sbox_netlist() -> &'static Netlist {
    static SBOX: OnceLock<Netlist> = OnceLock::new();
    SBOX.get_or_init(|| {
        aes_first_round_slice("oracle", SliceStage::XorSbox)
            .expect("slice builds")
            .netlist
    })
}

/// A dual-rail wire whose rail 0 also feeds `AND(r0, NOT r0)` through a
/// heavy net: every rising `r0` schedules a slow pulse that the inverter
/// cancels, so each drain ends by popping a cancelled event long after
/// the last real one.
fn glitchy_netlist() -> &'static Netlist {
    static GLITCHY: OnceLock<Netlist> = OnceLock::new();
    GLITCHY.get_or_init(|| {
        let mut b = NetlistBuilder::new("glitchy");
        let a = b.input_channel("a", 2);
        let ack = b.input_net("ack");
        let o0 = b.gate(GateKind::Buf, "o0", &[a.rails[0]]);
        let o1 = b.gate(GateKind::Buf, "o1", &[a.rails[1]]);
        let ack_back = b.gate(GateKind::Buf, "ack_back", &[ack]);
        b.connect_input_acks(&[a.id], ack_back);
        let _ = b.output_channel("o", &[o0, o1], ack);
        let n0 = b.gate(GateKind::Inv, "n0", &[a.rails[0]]);
        let pulse = b.gate(GateKind::And, "pulse", &[a.rails[0], n0]);
        b.mark_output(pulse);
        let mut nl = b.finish().expect("valid");
        nl.set_routing_cap(pulse, 400.0);
        nl
    })
}

fn same_run(a: &TestbenchRun, b: &TestbenchRun) -> bool {
    a.transitions == b.transitions
        && a.end_time_ps == b.end_time_ps
        && a.cycles == b.cycles
        && a.received_all().eq(b.received_all())
}

/// Checks one plan; returns whether the fast path skipped simulation.
fn check_plan(
    netlist: &Netlist,
    stim: &Stimulus,
    cfg: &TestbenchConfig,
    golden: &GoldenRun<'_>,
    plan: &FaultPlan,
) -> Result<bool, TestCaseError> {
    let reference = stim.run(netlist, cfg, Some(plan));
    let describe = || {
        plan.iter()
            .map(|f| f.describe(netlist))
            .collect::<Vec<_>>()
            .join(" + ")
    };
    let golden_values = output_values(golden.run());
    prop_assert_eq!(
        golden.outcome(plan),
        classify(netlist, &golden_values, &reference),
        "outcomes differ: {}",
        describe()
    );
    match (golden.fault_run(plan), reference) {
        (FaultRun::Golden, Ok(reference)) => {
            prop_assert!(
                same_run(golden.run(), &reference),
                "called golden, but the run from scratch differs: {}",
                describe()
            );
            Ok(true)
        }
        (FaultRun::Simulated(Ok(fast)), Ok(reference)) => {
            prop_assert!(same_run(&fast, &reference), "runs differ: {}", describe());
            Ok(false)
        }
        (FaultRun::Simulated(Err(fast)), Err(reference)) => {
            prop_assert_eq!(fast, reference, "errors differ: {}", describe());
            Ok(false)
        }
        (fast, reference) => Err(TestCaseError::fail(format!(
            "{}: fast path {fast:?}, from scratch {reference:?}",
            describe()
        ))),
    }
}

/// A fault drawn from six raw numbers: model, duration, site, time.
fn draw_fault(
    netlist: &Netlist,
    golden: &TestbenchRun,
    defaults: &[TimePs],
    (model, dur, site, when, t, w): (u8, u8, u32, u8, u64, u64),
) -> Fault {
    let end = golden.end_time_ps;
    let kind = match model % 6 {
        0 => FaultKind::TransientFlip,
        1 => FaultKind::StuckAt(false),
        2 => FaultKind::StuckAt(true),
        3 => FaultKind::Glitch {
            to: w % 2 == 0,
            width_ps: w % 300,
        },
        4 => FaultKind::DelayPerturb {
            extra_ps: 1 + w % 400,
        },
        _ => FaultKind::DropTransition,
    };
    let site = match site % 16 {
        // A net site, possibly a primary input (no driver for `delay`)
        // or out of range: the fast path must report inject's error.
        0 => FaultSite::Net(NetId::from_raw(
            site / 16 % (netlist.net_count() as u32 + 2),
        )),
        _ => FaultSite::Gate(GateId::from_raw(site / 16 % netlist.gate_count() as u32)),
    };
    let edge = golden.transitions[t as usize % golden.transitions.len()];
    let (site, at_ps) = match when % 8 {
        0 => (site, t % 2), // inside settling
        1..=3 => (site, defaults[usize::from(when % 8 - 1) % defaults.len()]),
        4 => (site, t % (end + 1)),
        // On the net of a golden edge at its time, where the fault fires
        // ahead of the edge.
        5 => (FaultSite::Net(edge.net), edge.time_ps),
        6 => (site, end + 1 + t % 2_000), // after the golden run
        _ => (site, end / 2 + t % 64),
    };
    let mut fault = Fault::new(site, kind, at_ps);
    if dur % 3 == 0 {
        fault.duration_ps = Some(u64::from(dur) * 7);
    }
    fault
}

type RawFault = (u8, u8, u32, u8, u64, u64);

fn raw_fault() -> impl Strategy<Value = RawFault> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u32>(),
        any::<u8>(),
        any::<u64>(),
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forked_runs_equal_runs_from_scratch(
        fixture in 0u8..3,
        seed in any::<u64>(),
        tokens in 1usize..3,
        exact_pauses in any::<bool>(),
        deadline in 0u8..4,
        faults in prop::collection::vec(raw_fault(), 12..20),
        seconds in prop::collection::vec(raw_fault(), 4..6),
    ) {
        let netlist = [xor_netlist, sbox_netlist, glitchy_netlist][usize::from(fixture)]();
        let stim = Stimulus::random(netlist, tokens, seed).expect("stimulus");
        let mut cfg = TestbenchConfig::default();
        let golden_run = stim.run(netlist, &cfg, None).expect("golden runs");
        let end = golden_run.end_time_ps;
        let campaign = CampaignConfig { tokens, seed, testbench: cfg };
        let defaults = default_injection_times(netlist, &campaign).expect("times");
        // A deadline past the golden end lets golden finish and times out
        // slow fault runs; one before it fails the golden run itself.
        cfg.watchdog.max_sim_time_ps = match deadline {
            0 => None,
            1 => Some(end / 2),
            _ => Some(end + u64::from(deadline) * 300),
        };

        let mut plans: Vec<FaultPlan> = faults
            .iter()
            .map(|&raw| FaultPlan::single(draw_fault(netlist, &golden_run, &defaults, raw)))
            .collect();
        for (i, &raw) in seconds.iter().enumerate() {
            let mut plan = plans[i].clone();
            plan.push(draw_fault(netlist, &golden_run, &defaults, raw));
            plans.push(plan);
        }
        let pauses: Vec<TimePs> = if exact_pauses {
            plans
                .iter()
                .filter_map(|p| p.iter().map(|f| f.at_ps).min())
                .collect()
        } else {
            defaults.clone()
        };
        let golden = match GoldenRun::new(netlist, &stim, &cfg, pauses) {
            Ok(golden) => golden,
            Err(err) => {
                prop_assert_eq!(Err(err), stim.run(netlist, &cfg, None).map(|_| ()));
                return Ok(());
            }
        };
        prop_assert!(same_run(golden.run(), &golden_run));
        for plan in &plans {
            check_plan(netlist, &stim, &cfg, &golden, plan)?;
        }
    }
}

/// Every stuck-at and delay fault on a spread of S-box gates at the
/// default times of `fi_sbox`'s seed-0 unit: the golden-identical rule
/// decides a good share of them, and each such fault's run from scratch
/// is the golden run.
#[test]
fn golden_identical_faults_reproduce_the_golden_log() {
    let netlist = sbox_netlist();
    let cfg = CampaignConfig {
        tokens: 2,
        seed: qdi_exec::derive_seed(0, 0),
        ..CampaignConfig::new()
    };
    let stim = Stimulus::random(netlist, cfg.tokens, cfg.seed).expect("stimulus");
    let times = default_injection_times(netlist, &cfg).expect("times");
    let golden =
        GoldenRun::new(netlist, &stim, &cfg.testbench, times.iter().copied()).expect("golden");
    let models = parse_models("stuck0,stuck1,delay").expect("models");
    let mut decided = 0;
    let mut total = 0;
    for gate in netlist.gates().step_by(9) {
        for &model in &models {
            for &at_ps in &times {
                let plan = FaultPlan::single(Fault::new(FaultSite::Gate(gate.id), model, at_ps));
                decided += usize::from(
                    check_plan(netlist, &stim, &cfg.testbench, &golden, &plan)
                        .unwrap_or_else(|e| panic!("{e:?}")),
                );
                total += 1;
            }
        }
    }
    assert!(
        decided * 5 > total,
        "the rule decided only {decided} of {total} faults"
    );
}

/// A fault moves the clock to its time when it fires. Where the drain it
/// fires in has only cancelled events left, nothing resets the clock
/// before the environments read it, so even a stuck-at that holds its net
/// at the level golden keeps it at shifts every later edge. The
/// golden-identical rule must leave such a fault to simulation.
#[test]
fn a_fault_where_only_cancelled_events_remain_is_simulated() {
    let netlist = glitchy_netlist();
    let pulse = netlist.find_net("pulse").expect("pulse");
    let stim = Stimulus::random(netlist, 2, 3).expect("stimulus");
    let cfg = TestbenchConfig::default();
    let golden_run = stim.run(netlist, &cfg, None).expect("golden runs");
    assert!(golden_run.transitions.iter().all(|t| t.net != pulse));
    // Just after the inverter cancels the first pulse: the cancelled event
    // is all the queue holds until the drain ends.
    let n0 = netlist.find_net("n0").expect("n0");
    let cancel_ps = golden_run
        .transitions
        .iter()
        .find(|t| t.net == n0)
        .expect("the inverter switches")
        .time_ps;
    let at_ps = cancel_ps + 1;
    let stuck = FaultPlan::single(Fault::new(
        FaultSite::Net(pulse),
        FaultKind::StuckAt(false),
        at_ps,
    ));
    let reference = stim.run(netlist, &cfg, Some(&stuck)).expect("runs");
    assert!(
        !same_run(&reference, &golden_run),
        "the stuck-at at {at_ps} ps should move the run"
    );
    let golden = GoldenRun::new(netlist, &stim, &cfg, [at_ps]).expect("golden");
    let skipped = check_plan(netlist, &stim, &cfg, &golden, &stuck).expect("equal");
    assert!(!skipped, "the rule must not decide this fault");
}

/// A golden run that fails reports the same error through the fork as
/// from scratch.
#[test]
fn a_failing_golden_run_reports_the_reference_error() {
    let netlist = xor_netlist();
    let stim = Stimulus::random(netlist, 2, 1).expect("stimulus");
    let cfg = TestbenchConfig {
        event_limit: 3,
        ..TestbenchConfig::default()
    };
    let err = GoldenRun::new(netlist, &stim, &cfg, [100, 200]).expect_err("budget of 3");
    let reference: Result<TestbenchRun, SimError> = stim.run(netlist, &cfg, None);
    assert_eq!(Some(err), reference.err());
}
