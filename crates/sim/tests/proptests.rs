//! Property-based tests of the simulator: arbitrary LUT cells computed
//! under the four-phase protocol, pipelines preserving token streams,
//! and protocol/hazard invariants on every run.

#![allow(clippy::needless_range_loop)] // index loops run over parallel channel/ack arrays
use proptest::prelude::*;

use qdi_netlist::{cells, Channel, GateKind, NetId, Netlist, NetlistBuilder};
use qdi_sim::protocol::{ProtocolReport, ProtocolViolation, ViolationKind};
use qdi_sim::{hazard, protocol, Testbench, TestbenchConfig, Transition};

fn lut_fixture(table: &[u64], inputs: usize) -> (Netlist, Vec<Channel>, Channel) {
    let mut b = NetlistBuilder::new("lut");
    let chans: Vec<Channel> = (0..inputs)
        .map(|i| b.input_channel(format!("i{i}"), 2))
        .collect();
    let refs: Vec<&Channel> = chans.iter().collect();
    let ack = b.input_net("ack");
    let cells = cells::dual_rail_lut(&mut b, "l", &refs, &[ack], table, 1);
    let sender_ack = cells[0].ack_to_senders;
    for ch in &chans {
        b.connect_input_acks(&[ch.id], sender_ack);
    }
    let out = b.output_channel("co", &cells[0].out.rails.clone(), ack);
    (b.finish().expect("valid lut"), chans, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any non-constant 3-input truth table simulates correctly for every
    /// input value, glitch free and protocol conformant.
    #[test]
    fn random_luts_compute_and_conform(bits in 1u8..255) {
        let table: Vec<u64> = (0..8).map(|v| u64::from((bits >> v) & 1)).collect();
        prop_assume!(table.contains(&1) && table.contains(&0));
        let (nl, chans, out) = lut_fixture(&table, 3);
        for value in 0..8usize {
            let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
            for (i, ch) in chans.iter().enumerate() {
                // minterm_plane treats the first channel as most
                // significant.
                let bit = (value >> (2 - i)) & 1;
                tb.source(ch.id, vec![bit]).expect("src");
            }
            tb.sink(out.id).expect("sink");
            let run = tb.run().expect("completes");
            prop_assert_eq!(run.received(out.id), &[table[value] as usize]);
            let hz = hazard::check(&nl, &run.transitions, run.cycles);
            prop_assert!(hz.hazard_free(), "{:?}", hz.glitches);
            for report in protocol::check_all(&nl, &run.transitions) {
                prop_assert!(report.conformant(), "{}: {:?}",
                             report.channel_name, report.violations);
            }
        }
    }

    /// A WCHB pipeline of arbitrary depth delivers any token stream in
    /// order.
    #[test]
    fn pipelines_preserve_token_streams(depth in 1usize..6,
                                        tokens in prop::collection::vec(0usize..2, 1..8)) {
        let mut b = NetlistBuilder::new("pipe");
        let a = b.input_channel("a", 2);
        let ack = b.input_net("ack");
        // Build back-to-front ack placeholders.
        let fwd: Vec<_> = (0..depth).map(|i| b.net(format!("fwd{i}"))).collect();
        let mut stage_in = a.clone();
        let mut cells_out = Vec::new();
        for i in 0..depth {
            let out_ack = if i + 1 < depth { fwd[i + 1] } else { ack };
            let cell = cells::wchb_buffer(&mut b, &format!("s{i}"), &stage_in, out_ack);
            cells_out.push(cell.clone());
            stage_in = cell.out;
        }
        // Wire each stage's completion back through its placeholder; the
        // first placeholder acknowledges the source.
        for i in 0..depth {
            b.gate_into(qdi_netlist::GateKind::Buf, format!("ab{i}"),
                        &[cells_out[i].ack_to_senders], fwd[i]);
        }
        b.connect_input_acks(&[a.id], fwd[0]);
        let out = b.output_channel("co", &stage_in.rails.clone(), ack);
        let nl = b.finish().expect("valid pipeline");
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, tokens.clone()).expect("src");
        tb.sink(out.id).expect("sink");
        let run = tb.run().expect("pipeline completes");
        prop_assert_eq!(run.received(out.id), tokens.as_slice());
    }

    /// Transition counts are data independent for every non-constant LUT:
    /// the generalized balanced-cell property.
    #[test]
    fn lut_transitions_are_data_independent(bits in 1u8..255) {
        let table: Vec<u64> = (0..8).map(|v| u64::from((bits >> v) & 1)).collect();
        prop_assume!(table.contains(&1) && table.contains(&0));
        let (nl, chans, out) = lut_fixture(&table, 3);
        let mut counts = Vec::new();
        for value in [0usize, 3, 5, 7] {
            let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
            for (i, ch) in chans.iter().enumerate() {
                tb.source(ch.id, vec![(value >> (2 - i)) & 1]).expect("src");
            }
            tb.sink(out.id).expect("sink");
            counts.push(tb.run().expect("completes").transitions.len());
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]),
                     "table {table:?} counts {counts:?}");
    }
}

/// Phases of the reference checker below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefPhase {
    Idle,
    Valid,
    Acked,
    Rtz,
}

/// Reference protocol check: the whole log scanned once per channel, each
/// rail found by linear search. The one-pass `check_all` must report
/// exactly what this does; `RefPhase` prints like the checker's phases.
fn reference_check_channel(channel: &Channel, transitions: &[Transition]) -> ProtocolReport {
    let mut rail_levels = vec![false; channel.arity()];
    let mut phase = RefPhase::Idle;
    let mut communications = 0usize;
    let mut violations = Vec::new();

    for t in transitions {
        if Some(t.net) == channel.ack {
            match (phase, t.rising) {
                (RefPhase::Valid, false) => phase = RefPhase::Acked,
                (RefPhase::Rtz, true) => phase = RefPhase::Idle,
                (RefPhase::Idle, true) | (RefPhase::Acked, false) => {}
                _ => violations.push(ProtocolViolation {
                    time_ps: t.time_ps,
                    kind: ViolationKind::PhaseOrder,
                    detail: format!(
                        "acknowledge edge ({}) out of phase {:?}",
                        if t.rising { "release" } else { "capture" },
                        phase
                    ),
                }),
            }
            continue;
        }
        let Some(idx) = channel.rails.iter().position(|&r| r == t.net) else {
            continue;
        };
        rail_levels[idx] = t.rising;
        let high = rail_levels.iter().filter(|&&v| v).count();
        if high > 1 {
            violations.push(ProtocolViolation {
                time_ps: t.time_ps,
                kind: ViolationKind::IllegalEncoding,
                detail: format!("more than one rail high on {}", channel.name),
            });
            continue;
        }
        match (phase, t.rising) {
            (RefPhase::Idle, true) => {
                phase = RefPhase::Valid;
                communications += 1;
            }
            (RefPhase::Acked, false) => phase = RefPhase::Rtz,
            (RefPhase::Valid, false) if channel.ack.is_none() => phase = RefPhase::Rtz,
            _ => violations.push(ProtocolViolation {
                time_ps: t.time_ps,
                kind: ViolationKind::PhaseOrder,
                detail: format!(
                    "rail edge ({}) out of phase {:?} on {}",
                    if t.rising { "rise" } else { "fall" },
                    phase,
                    channel.name
                ),
            }),
        }
    }
    ProtocolReport {
        channel: channel.id,
        channel_name: channel.name.clone(),
        communications,
        violations,
    }
}

/// Channels that stress the net index: `a` and `b` share one acknowledge
/// net, `c` has none, the internal channel `m` reuses a rail of `a` and
/// the shared acknowledge, the output `o` is 1-of-3, and the internal
/// channel `d` lists one rail twice and its own acknowledge as a rail.
/// Returns the netlist and every net a random log may toggle (one of
/// them belongs to no channel).
fn protocol_fixture() -> (Netlist, Vec<NetId>) {
    let mut b = NetlistBuilder::new("proto");
    let a = b.input_channel("a", 2);
    let bb = b.input_channel("b", 3);
    let c = b.input_channel("c", 2);
    let ka = b.gate(GateKind::Nor, "ka", &[a.rail(0), a.rail(1), bb.rail(0)]);
    b.connect_input_acks(&[a.id, bb.id], ka);
    let x = b.gate(GateKind::Or, "x", &[c.rail(0), c.rail(1)]);
    let _ = b.internal_channel("m", &[a.rail(0), x], Some(ka));
    let o: Vec<NetId> = (0..3)
        .map(|i| b.gate(GateKind::Buf, format!("o{i}"), &[bb.rail(i)]))
        .collect();
    let ko = b.input_net("ko");
    let _ = b.output_channel("o", &o, ko);
    let _ = b.internal_channel("d", &[c.rail(1), c.rail(1), ko], Some(ko));
    let nl = b.finish_unchecked();
    let nets = nl.nets().map(|n| n.id).collect();
    (nl, nets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass `check_all` reports exactly what the per-channel
    /// scan reported: every violation in order with its time, kind and
    /// detail, and every communication count. Logs are random edges,
    /// so two rails high, out-of-phase acknowledges, re-asserted levels
    /// and same-time edges all occur.
    #[test]
    fn one_pass_protocol_check_matches_per_channel_scan(
        edges in prop::collection::vec((0usize..64, 0u8..4, 0u64..3), 0..160),
    ) {
        let (nl, nets) = protocol_fixture();
        let mut levels = vec![false; nl.net_count()];
        let mut time_ps = 0;
        let log: Vec<Transition> = edges
            .iter()
            .map(|&(pick, how, dt)| {
                let net = nets[pick % nets.len()];
                time_ps += dt;
                // Mostly toggle; one edge in four re-asserts the level.
                let level = &mut levels[net.index()];
                if how != 0 {
                    *level = !*level;
                }
                Transition { time_ps, net, rising: *level }
            })
            .collect();
        let want: Vec<ProtocolReport> = nl
            .channels()
            .map(|c| reference_check_channel(c, &log))
            .collect();
        prop_assert_eq!(&protocol::check_all(&nl, &log), &want);
        for (c, report) in nl.channels().zip(&want) {
            prop_assert_eq!(&protocol::check_channel(c, &log), report);
        }
    }
}
