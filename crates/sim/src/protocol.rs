//! Four-phase protocol conformance checking.
//!
//! Reconstructs, from a transition log, the phase sequence of every channel
//! (paper Fig. 2: valid data → acknowledge → return to zero → acknowledge
//! release) and flags violations of the 1-of-N invariant and of the phase
//! order.
//!
//! [`check_all`] and [`check_channel`] report every violation with its
//! text. Beneath them, a [`PinIndex`] maps each net to the channels it
//! serves, and a [`CheckState`] holds a check part-way through a log. A
//! caller that checks many logs sharing a prefix, such as fault runs forked
//! from one golden run, builds the index once, keeps the state the prefix
//! leaves and feeds each log only past it
//! ([`CheckState::feed`]). All of these step edges through one set of
//! phase rules.

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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// All rails low, acknowledge released (ready).
    #[default]
    Idle,
    /// One rail high, waiting for acknowledge capture.
    Valid,
    /// One rail high, acknowledge captured (low).
    Acked,
    /// Rails returned to zero, waiting for acknowledge release.
    Rtz,
}

/// Where an edge lands in a channel: its acknowledge, or the rail whose
/// level sits at this slot of [`CheckState`]'s rail-level table.
#[derive(Debug, Clone, Copy)]
enum Pin {
    Ack,
    Rail(u32),
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
        .map(move |(i, &r)| (r, Pin::Rail(slot(first_slot + i))));
    channel
        .ack
        .map(|ack| (ack, Pin::Ack))
        .into_iter()
        .chain(rails)
}

/// An index into the checker's tables: `u32`, like the net ids beside it.
fn slot(i: usize) -> u32 {
    u32::try_from(i).expect("channel pin count exceeds u32")
}

/// The channels a protocol check follows, indexed by net: each net maps
/// to the channels it serves (one acknowledge net can serve several) and
/// to where each rail's level lives in a [`CheckState`]. Build it once per
/// netlist ([`PinIndex::new`]); every check of every log then steps only
/// the channels an edge's net serves.
#[derive(Debug, Clone)]
pub struct PinIndex<'c> {
    channels: Vec<&'c Channel>,
    /// The pins of net `n` are `pins[start[n]..start[n + 1]]`, each with
    /// its channel's position in `channels`.
    start: Vec<u32>,
    pins: Vec<(u32, Pin)>,
    /// Rail-level slots: one per rail of every channel.
    rail_slots: usize,
}

impl<'c> PinIndex<'c> {
    /// Indexes `channels`, in order: [`check_all`] reports them in this
    /// order.
    pub fn new(channels: impl IntoIterator<Item = &'c Channel>) -> PinIndex<'c> {
        let channels: Vec<&'c Channel> = channels.into_iter().collect();
        let mut index: Vec<(NetId, u32, Pin)> = Vec::new();
        let mut rail_slots = 0;
        for (c, channel) in channels.iter().enumerate() {
            index.extend(pins(channel, rail_slots).map(|(net, pin)| (net, slot(c), pin)));
            rail_slots += channel.arity();
        }
        // A net appears at most once per channel, so the key is unique.
        index.sort_unstable_by_key(|&(net, c, _)| (net, c));
        let nets = index.last().map_or(0, |&(net, ..)| net.index() + 1);
        let mut start = vec![0u32; nets + 1];
        for &(net, ..) in &index {
            start[net.index() + 1] += 1;
        }
        for n in 0..nets {
            start[n + 1] += start[n];
        }
        PinIndex {
            channels,
            start,
            pins: index.into_iter().map(|(_, c, pin)| (c, pin)).collect(),
            rail_slots,
        }
    }

    /// The state before any edge: every channel idle, every rail low.
    #[must_use]
    pub fn idle(&self) -> CheckState {
        CheckState {
            channels: vec![Lane::default(); self.channels.len()],
            rail_levels: vec![false; self.rail_slots],
            violated: false,
        }
    }

    /// The pins `net` carries, with their channels' positions.
    fn pins_of(&self, net: NetId) -> &[(u32, Pin)] {
        let n = net.index();
        match (self.start.get(n), self.start.get(n + 1)) {
            (Some(&from), Some(&to)) => &self.pins[from as usize..to as usize],
            _ => &[],
        }
    }

    /// Replays `transitions` from idle into one report per channel.
    fn reports(&self, transitions: &[Transition]) -> Vec<ProtocolReport> {
        let mut reports: Vec<ProtocolReport> = self
            .channels
            .iter()
            .map(|channel| ProtocolReport {
                channel: channel.id,
                channel_name: channel.name.clone(),
                communications: 0,
                violations: Vec::new(),
            })
            .collect();
        let mut state = self.idle();
        for t in transitions {
            state.step(self, t, |c, step| match step {
                Step::Quiet => {}
                Step::Communication => reports[c].communications += 1,
                Step::Broken(broken) => reports[c]
                    .violations
                    .push(broken.violation(self.channels[c], t)),
            });
        }
        reports
    }
}

/// One channel's place in the four-phase sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Lane {
    phase: Phase,
    /// Rails currently high.
    high: u32,
}

/// A protocol check part-way through a log: each channel's phase and
/// number of rails high, every rail's level, and whether any edge so far
/// broke a rule. It is a small value: a run that continues another (a
/// fault run forked from a golden-run snapshot) clones the state the
/// shared prefix left and steps only its own edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckState {
    channels: Vec<Lane>,
    rail_levels: Vec<bool>,
    /// Sticky: no later edge clears it.
    violated: bool,
}

impl CheckState {
    /// Steps `transitions` through `index`'s channels, stopping at the
    /// first violation, and returns [`CheckState::conformant`]. Feeding a
    /// log in pieces gives the verdict [`check_all`] gives on the whole
    /// log.
    pub fn feed(&mut self, index: &PinIndex<'_>, transitions: &[Transition]) -> bool {
        for t in transitions {
            if self.violated {
                break;
            }
            self.step(index, t, |_, _| {});
        }
        !self.violated
    }

    /// `true` while no edge fed so far broke a rule.
    #[must_use]
    pub fn conformant(&self) -> bool {
        !self.violated
    }

    /// Steps one edge through every channel its net serves, telling `on`
    /// what it did to each (by the channel's position in `index`).
    fn step(&mut self, index: &PinIndex<'_>, t: &Transition, mut on: impl FnMut(usize, Step)) {
        for &(c, pin) in index.pins_of(t.net) {
            let c = c as usize;
            let step = self.step_channel(index.channels[c], c, pin, t.rising);
            self.violated |= matches!(step, Step::Broken(_));
            on(c, step);
        }
    }

    /// The four-phase rules of one channel: they live only here.
    fn step_channel(&mut self, channel: &Channel, c: usize, pin: Pin, rising: bool) -> Step {
        let lane = &mut self.channels[c];
        let slot = match pin {
            Pin::Ack => {
                return match (lane.phase, rising) {
                    (Phase::Valid, false) => {
                        lane.phase = Phase::Acked;
                        Step::Quiet
                    }
                    (Phase::Rtz, true) => {
                        lane.phase = Phase::Idle;
                        Step::Quiet
                    }
                    (Phase::Idle, true) | (Phase::Acked, false) => Step::Quiet, // re-assertion, harmless
                    (phase, _) => Step::Broken(Broken::Ack { rising, phase }),
                };
            }
            Pin::Rail(slot) => slot as usize,
        };
        if self.rail_levels[slot] != rising {
            self.rail_levels[slot] = rising;
            if rising {
                lane.high += 1;
            } else {
                lane.high -= 1;
            }
        }
        if lane.high > 1 {
            return Step::Broken(Broken::Encoding);
        }
        match (lane.phase, rising) {
            (Phase::Idle, true) => {
                lane.phase = Phase::Valid;
                Step::Communication
            }
            (Phase::Acked, false) => {
                lane.phase = Phase::Rtz;
                Step::Quiet
            }
            // Without an acknowledge net we cannot see captures; accept
            // valid -> invalid directly.
            (Phase::Valid, false) if channel.ack.is_none() => {
                lane.phase = Phase::Rtz;
                Step::Quiet
            }
            (phase, _) => Step::Broken(Broken::Rail { rising, phase }),
        }
    }
}

/// What one edge did to one channel.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Nothing a report counts.
    Quiet,
    /// Idle to valid: one more communication.
    Communication,
    /// A rule broken.
    Broken(Broken),
}

/// A broken rule, kept unformatted until a report wants its text.
#[derive(Debug, Clone, Copy)]
enum Broken {
    /// An acknowledge edge out of phase.
    Ack { rising: bool, phase: Phase },
    /// More than one rail high.
    Encoding,
    /// A rail edge out of phase.
    Rail { rising: bool, phase: Phase },
}

impl Broken {
    fn violation(self, channel: &Channel, t: &Transition) -> ProtocolViolation {
        let (kind, detail) = match self {
            Broken::Ack { rising, phase } => (
                ViolationKind::PhaseOrder,
                format!(
                    "acknowledge edge ({}) out of phase {phase:?}",
                    if rising { "release" } else { "capture" },
                ),
            ),
            Broken::Encoding => (
                ViolationKind::IllegalEncoding,
                format!("more than one rail high on {}", channel.name),
            ),
            Broken::Rail { rising, phase } => (
                ViolationKind::PhaseOrder,
                format!(
                    "rail edge ({}) out of phase {phase:?} on {}",
                    if rising { "rise" } else { "fall" },
                    channel.name
                ),
            ),
        };
        ProtocolViolation {
            time_ps: t.time_ps,
            kind,
            detail,
        }
    }
}

/// Replays the transition log against `channel` and reports conformance.
///
/// The log must start from the idle state (all rails low, acknowledge
/// high), which is what [`crate::Testbench`] produces.
pub fn check_channel(channel: &Channel, transitions: &[Transition]) -> ProtocolReport {
    let mut reports = PinIndex::new([channel]).reports(transitions);
    reports.pop().expect("one report per channel")
}

/// Checks every channel of the netlist against the log, in one pass over
/// a [`PinIndex`] of the netlist's channels. Reports come out in channel
/// order.
pub fn check_all(netlist: &Netlist, transitions: &[Transition]) -> Vec<ProtocolReport> {
    PinIndex::new(netlist.channels()).reports(transitions)
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
