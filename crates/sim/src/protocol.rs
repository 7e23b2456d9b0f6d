//! Four-phase protocol conformance checking.
//!
//! Reconstructs, from a transition log, the phase sequence of every channel
//! (paper Fig. 2: valid data → acknowledge → return to zero → acknowledge
//! release) and flags violations of the 1-of-N invariant and of the phase
//! order.

use serde::{Deserialize, Serialize};

use qdi_netlist::diag::{Diagnostic, LintCode, Severity, Subject};
use qdi_netlist::{Channel, ChannelId, NetId, Netlist};

use crate::simulator::{TimePs, Transition};

/// `QDI0101`: more than one rail high — the "unused" row of the paper's
/// Table 1 (dynamic counterpart of the static `QDI0005` encoding lint).
pub const ILLEGAL_ENCODING: LintCode = LintCode(101);
/// `QDI0102`: a rail or acknowledge edge outside the four-phase order of
/// the paper's Fig. 2.
pub const PHASE_ORDER: LintCode = LintCode(102);

/// What kind of protocol rule a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// The 1-of-N invariant: at most one rail high at any time.
    IllegalEncoding,
    /// The four-phase sequencing: valid → capture → return-to-zero →
    /// release.
    PhaseOrder,
}

impl ViolationKind {
    /// The stable lint code (`QDI01xx` range: dynamic analysis).
    pub fn code(self) -> LintCode {
        match self {
            ViolationKind::IllegalEncoding => ILLEGAL_ENCODING,
            ViolationKind::PhaseOrder => PHASE_ORDER,
        }
    }
}

/// One protocol violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolViolation {
    /// Time of the offending edge.
    pub time_ps: TimePs,
    /// Which protocol rule was broken.
    pub kind: ViolationKind,
    /// Explanation.
    pub detail: String,
}

/// Conformance report for one channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolReport {
    /// The checked channel.
    pub channel: ChannelId,
    /// Channel name.
    pub channel_name: String,
    /// Number of complete communications (valid phases) observed.
    pub communications: usize,
    /// Violations in time order.
    pub violations: Vec<ProtocolViolation>,
}

impl ProtocolReport {
    /// `true` when no violation was observed.
    pub fn conformant(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders every violation as a [`Diagnostic`] — the same type, codes
    /// and renderers (`Diagnostic::render`, JSON via serde) the static
    /// `qdi-lint` passes use, so dynamic findings drop into the same
    /// tooling. Simulation-time violations are always deny-level: a
    /// non-conformant trace voids the QDI model outright.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.violations
            .iter()
            .map(|v| {
                Diagnostic::new(
                    v.kind.code(),
                    Severity::Deny,
                    Subject::Channel {
                        id: self.channel,
                        name: self.channel_name.clone(),
                    },
                    format!("t = {} ps: {}", v.time_ps, v.detail),
                )
                .with_help(match v.kind {
                    ViolationKind::IllegalEncoding => {
                        "a 1-of-N channel must never drive two rails high (Table 1); \
                         check the minterm recombination logic"
                            .to_string()
                    }
                    ViolationKind::PhaseOrder => {
                        "four-phase order is valid data, acknowledge capture, return \
                         to zero, acknowledge release (Fig. 2)"
                            .to_string()
                    }
                })
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// All rails low, acknowledge released (ready).
    Idle,
    /// One rail high, waiting for acknowledge capture.
    Valid,
    /// One rail high, acknowledge captured (low).
    Acked,
    /// Rails returned to zero, waiting for acknowledge release.
    Rtz,
}

/// Where an edge lands in a channel: its acknowledge, or the rail whose
/// level sits at this slot of the caller's rail-level table.
#[derive(Debug, Clone, Copy)]
enum Pin {
    Ack,
    Rail(usize),
}

/// The nets `channel` listens to: its acknowledge, then each rail at its
/// first position, with rail `i` at level slot `first_slot + i`. A net
/// that is also the acknowledge stays the acknowledge.
fn pins(channel: &Channel, first_slot: usize) -> impl Iterator<Item = (NetId, Pin)> + '_ {
    let rails = channel
        .rails
        .iter()
        .enumerate()
        .filter(move |&(i, r)| Some(*r) != channel.ack && !channel.rails[..i].contains(r))
        .map(move |(i, &r)| (r, Pin::Rail(first_slot + i)));
    channel
        .ack
        .map(|ack| (ack, Pin::Ack))
        .into_iter()
        .chain(rails)
}

/// One channel's four-phase state machine: the phase rules live only
/// here.
struct ChannelCheck<'c> {
    channel: &'c Channel,
    phase: Phase,
    /// Rails currently high.
    high: usize,
    communications: usize,
    violations: Vec<ProtocolViolation>,
}

impl<'c> ChannelCheck<'c> {
    fn new(channel: &'c Channel) -> Self {
        ChannelCheck {
            channel,
            phase: Phase::Idle,
            high: 0,
            communications: 0,
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, t: &Transition, kind: ViolationKind, detail: String) {
        self.violations.push(ProtocolViolation {
            time_ps: t.time_ps,
            kind,
            detail,
        });
    }

    fn step(&mut self, pin: Pin, rail_levels: &mut [bool], t: &Transition) {
        let slot = match pin {
            Pin::Ack => {
                match (self.phase, t.rising) {
                    (Phase::Valid, false) => self.phase = Phase::Acked,
                    (Phase::Rtz, true) => self.phase = Phase::Idle,
                    (Phase::Idle, true) | (Phase::Acked, false) => {} // re-assertion, harmless
                    _ => self.violation(
                        t,
                        ViolationKind::PhaseOrder,
                        format!(
                            "acknowledge edge ({}) out of phase {:?}",
                            if t.rising { "release" } else { "capture" },
                            self.phase
                        ),
                    ),
                }
                return;
            }
            Pin::Rail(slot) => slot,
        };
        if rail_levels[slot] != t.rising {
            rail_levels[slot] = t.rising;
            if t.rising {
                self.high += 1;
            } else {
                self.high -= 1;
            }
        }
        if self.high > 1 {
            let detail = format!("more than one rail high on {}", self.channel.name);
            self.violation(t, ViolationKind::IllegalEncoding, detail);
            return;
        }
        match (self.phase, t.rising) {
            (Phase::Idle, true) => {
                self.phase = Phase::Valid;
                self.communications += 1;
            }
            (Phase::Acked, false) => self.phase = Phase::Rtz,
            // Without an acknowledge net we cannot see captures; accept
            // valid -> invalid directly.
            (Phase::Valid, false) if self.channel.ack.is_none() => self.phase = Phase::Rtz,
            _ => {
                let detail = format!(
                    "rail edge ({}) out of phase {:?} on {}",
                    if t.rising { "rise" } else { "fall" },
                    self.phase,
                    self.channel.name
                );
                self.violation(t, ViolationKind::PhaseOrder, detail);
            }
        }
    }

    fn finish(self) -> ProtocolReport {
        ProtocolReport {
            channel: self.channel.id,
            channel_name: self.channel.name.clone(),
            communications: self.communications,
            violations: self.violations,
        }
    }
}

/// Replays the transition log against `channel` and reports conformance.
///
/// The log must start from the idle state (all rails low, acknowledge
/// high), which is what [`crate::Testbench`] produces.
pub fn check_channel(channel: &Channel, transitions: &[Transition]) -> ProtocolReport {
    let mut reports = check(std::iter::once(channel), transitions);
    reports.pop().expect("one report per channel")
}

/// Checks every channel of the netlist against the log, in one pass.
pub fn check_all(netlist: &Netlist, transitions: &[Transition]) -> Vec<ProtocolReport> {
    check(netlist.channels(), transitions)
}

/// The one replay behind [`check_channel`] and [`check_all`]. Each net is
/// indexed once to the channels it serves (one acknowledge net can serve
/// several), then every edge steps exactly those channels' state
/// machines. Reports come out in channel order.
fn check<'c>(
    channels: impl Iterator<Item = &'c Channel>,
    transitions: &[Transition],
) -> Vec<ProtocolReport> {
    let mut checks: Vec<ChannelCheck<'c>> = channels.map(ChannelCheck::new).collect();
    let mut index: Vec<(NetId, usize, Pin)> = Vec::new();
    let mut rail_slots = 0;
    for (c, check) in checks.iter().enumerate() {
        index.extend(pins(check.channel, rail_slots).map(|(net, pin)| (net, c, pin)));
        rail_slots += check.channel.arity();
    }
    // A net appears at most once per channel, so the key is unique.
    index.sort_unstable_by_key(|&(net, c, _)| (net, c));
    // The pins of net `n` are `index[start[n]..start[n + 1]]`.
    let nets = index.last().map_or(0, |&(net, ..)| net.index() + 1);
    let mut start = vec![0usize; nets + 1];
    for &(net, ..) in &index {
        start[net.index() + 1] += 1;
    }
    for n in 0..nets {
        start[n + 1] += start[n];
    }
    let mut rail_levels = vec![false; rail_slots];
    for t in transitions {
        let n = t.net.index();
        if n >= nets {
            continue;
        }
        for &(_, c, pin) in &index[start[n]..start[n + 1]] {
            checks[c].step(pin, &mut rail_levels, t);
        }
    }
    checks.into_iter().map(ChannelCheck::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Testbench, TestbenchConfig};
    use qdi_netlist::{cells, NetlistBuilder};

    fn xor_run() -> (Netlist, Vec<Transition>) {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let out = b.output_channel("co", &cell.out.rails.clone(), ack);
        let nl = b.finish().expect("valid");
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, vec![0, 1]).expect("src");
        tb.source(bb.id, vec![1, 1]).expect("src");
        tb.sink(out.id).expect("sink");
        let run = tb.run().expect("completes");
        (nl, run.transitions)
    }

    #[test]
    fn xor_run_is_conformant_on_all_channels() {
        let (nl, log) = xor_run();
        for report in check_all(&nl, &log) {
            assert!(
                report.conformant(),
                "{}: {:?}",
                report.channel_name,
                report.violations
            );
            assert_eq!(report.communications, 2, "{}", report.channel_name);
        }
    }

    #[test]
    fn detects_double_rail_high() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let o = b.gate(qdi_netlist::GateKind::Or, "o", &[a.rail(0), a.rail(1)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        let ch = nl.channel(a.id).clone();
        let log = vec![
            Transition {
                time_ps: 10,
                net: ch.rail(0),
                rising: true,
            },
            Transition {
                time_ps: 20,
                net: ch.rail(1),
                rising: true,
            },
        ];
        let report = check_channel(&ch, &log);
        assert!(!report.conformant());
        assert!(report.violations[0].detail.contains("more than one rail"));
        assert_eq!(report.violations[0].kind, ViolationKind::IllegalEncoding);
    }

    #[test]
    fn violations_render_as_shared_diagnostics() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let o = b.gate(qdi_netlist::GateKind::Or, "o", &[a.rail(0), a.rail(1)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        let ch = nl.channel(a.id).clone();
        let log = vec![
            Transition {
                time_ps: 10,
                net: ch.rail(0),
                rising: true,
            },
            Transition {
                time_ps: 20,
                net: ch.rail(1),
                rising: true,
            },
        ];
        let report = check_channel(&ch, &log);
        let diags = report.diagnostics();
        assert_eq!(diags.len(), report.violations.len());
        let first = &diags[0];
        assert_eq!(first.code, ILLEGAL_ENCODING);
        assert_eq!(first.severity, Severity::Deny);
        assert_eq!(first.subject.name(), "a");
        // Same renderers as the static lints: rustc-style text and JSON.
        let text = first.render(false);
        assert!(text.starts_with("error[QDI0101]"), "{text}");
        assert!(text.contains("t = 20 ps"), "{text}");
        let json = qdi_obs::json::to_json(first);
        assert!(json.contains("\"code\""), "{json}");
    }

    #[test]
    fn detects_premature_rtz() {
        // Rail falls while the channel is still in the Valid phase (no
        // acknowledge capture seen) on a channel *with* an ack net.
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let ackn = b.input_net("ka");
        b.connect_input_acks(&[a.id], ackn);
        let o = b.gate(qdi_netlist::GateKind::Or, "o", &[a.rail(0), a.rail(1)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        let ch = nl.channel(a.id).clone();
        let log = vec![
            Transition {
                time_ps: 10,
                net: ch.rail(0),
                rising: true,
            },
            Transition {
                time_ps: 20,
                net: ch.rail(0),
                rising: false,
            },
        ];
        let report = check_channel(&ch, &log);
        assert!(!report.conformant());
    }
}
