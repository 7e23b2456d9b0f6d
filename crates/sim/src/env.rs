//! Four-phase handshake environments and the [`Testbench`] harness.
//!
//! A [`SourceEnv`] plays the sender side of the paper's Fig. 2 on an input
//! channel: it waits for the acknowledge to show *ready*, drives the rail
//! encoding its value (phase 1), waits for the capture (phase 2), returns
//! the rails to zero (phase 3) and waits for the acknowledge release
//! (phase 4). A [`SinkEnv`] plays the receiver side on an output channel.

use std::collections::VecDeque;

use qdi_netlist::{ChannelId, ChannelRole, ChannelState, Netlist};
use serde::{Deserialize, Serialize};

use crate::delay::{DelayModel, LinearDelay};
use crate::error::{HandshakePhase, SimError, StalledChannel};
use crate::fault::FaultPlan;
use crate::simulator::{Simulator, TimePs, Transition, WatchdogConfig};

/// Tuning knobs for a [`Testbench`].
///
/// Serializable so campaign job specs (`qdi-serve`) can carry the
/// simulator budget over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestbenchConfig {
    /// Reaction delay of environments, in ps (models pad/driver latency).
    pub env_delay_ps: TimePs,
    /// Event budget per quiescence run.
    pub event_limit: u64,
    /// Maximum environment polling rounds before giving up.
    pub max_rounds: u64,
    /// Failure-detection knobs forwarded to the simulator.
    pub watchdog: WatchdogConfig,
}

impl TestbenchConfig {
    /// Defaults suitable for cells up to a few tens of thousands of gates.
    pub fn new() -> Self {
        TestbenchConfig {
            env_delay_ps: 50,
            event_limit: 50_000_000,
            max_rounds: 1_000_000,
            watchdog: WatchdogConfig::new(),
        }
    }
}

impl Default for TestbenchConfig {
    fn default() -> Self {
        TestbenchConfig::new()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the Wait* prefix names the protocol phases
enum SourcePhase {
    WaitReady,
    WaitCapture,
    WaitRelease,
}

/// Sender environment attached to an input channel.
#[derive(Debug)]
pub struct SourceEnv {
    channel: ChannelId,
    values: VecDeque<usize>,
    current: usize,
    phase: SourcePhase,
    sent: usize,
}

impl SourceEnv {
    fn poll(&mut self, sim: &mut Simulator<'_>, delay: TimePs) -> bool {
        let ch = sim.netlist().channel(self.channel);
        let ack = ch.ack.expect("validated at attach time");
        let ready = sim.level(ack);
        match self.phase {
            SourcePhase::WaitReady => {
                if ready {
                    if let Some(v) = self.values.pop_front() {
                        let rail = ch.rail(v);
                        self.current = v;
                        self.phase = SourcePhase::WaitCapture;
                        sim.drive(rail, true, delay);
                        return true;
                    }
                }
                false
            }
            SourcePhase::WaitCapture => {
                if !ready {
                    let rail = sim.netlist().channel(self.channel).rail(self.current);
                    self.phase = SourcePhase::WaitRelease;
                    self.sent += 1;
                    sim.drive(rail, false, delay);
                    return true;
                }
                false
            }
            SourcePhase::WaitRelease => {
                if ready {
                    self.phase = SourcePhase::WaitReady;
                    return true;
                }
                false
            }
        }
    }

    fn is_done(&self) -> bool {
        self.values.is_empty() && self.phase == SourcePhase::WaitReady
    }

    fn handshake_phase(&self) -> HandshakePhase {
        match self.phase {
            SourcePhase::WaitReady => HandshakePhase::AwaitReady,
            SourcePhase::WaitCapture => HandshakePhase::AwaitCapture,
            SourcePhase::WaitRelease => HandshakePhase::AwaitRelease,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkPhase {
    WaitValid,
    WaitInvalid,
}

/// Receiver environment attached to an output channel.
#[derive(Debug)]
pub struct SinkEnv {
    channel: ChannelId,
    phase: SinkPhase,
    received: Vec<usize>,
}

impl SinkEnv {
    fn poll(&mut self, sim: &mut Simulator<'_>, delay: TimePs) -> bool {
        let ch = sim.netlist().channel(self.channel);
        let ack = ch.ack.expect("validated at attach time");
        let state = sim.channel_state(self.channel);
        match self.phase {
            SinkPhase::WaitValid => {
                if let ChannelState::Valid(v) = state {
                    self.received.push(v);
                    self.phase = SinkPhase::WaitInvalid;
                    sim.drive(ack, false, delay);
                    return true;
                }
                false
            }
            SinkPhase::WaitInvalid => {
                if state == ChannelState::Invalid {
                    self.phase = SinkPhase::WaitValid;
                    sim.drive(ack, true, delay);
                    return true;
                }
                false
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.phase == SinkPhase::WaitValid
    }

    fn handshake_phase(&self) -> HandshakePhase {
        match self.phase {
            SinkPhase::WaitValid => HandshakePhase::AwaitValid,
            SinkPhase::WaitInvalid => HandshakePhase::AwaitInvalid,
        }
    }
}

/// Result of a completed testbench run.
#[derive(Debug, Clone)]
pub struct TestbenchRun {
    /// Full transition log, including environment-driven edges.
    pub transitions: Vec<Transition>,
    /// Simulation time at the end of the run, in ps.
    pub end_time_ps: TimePs,
    /// Number of completed handshake cycles (max over all sources).
    pub cycles: usize,
    received: Vec<(ChannelId, Vec<usize>)>,
}

impl TestbenchRun {
    /// Values received on the sink attached to `channel`.
    ///
    /// # Panics
    ///
    /// Panics if no sink was attached to `channel`.
    pub fn received(&self, channel: ChannelId) -> &[usize] {
        &self
            .received
            .iter()
            .find(|(c, _)| *c == channel)
            .unwrap_or_else(|| panic!("no sink attached to {channel}"))
            .1
    }

    /// Values received on every sink, in attachment order.
    pub fn received_all(&self) -> impl Iterator<Item = (ChannelId, &[usize])> {
        self.received.iter().map(|(c, v)| (*c, v.as_slice()))
    }
}

/// Drives a netlist with four-phase environments until all source tokens
/// have flowed through.
pub struct Testbench<'a> {
    sim: Simulator<'a>,
    cfg: TestbenchConfig,
    sources: Vec<SourceEnv>,
    sinks: Vec<SinkEnv>,
}

impl std::fmt::Debug for Testbench<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbench")
            .field("sim", &self.sim)
            .field("sources", &self.sources.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl<'a> Testbench<'a> {
    /// Creates a testbench with the default capacitance-proportional delay
    /// model ([`LinearDelay`]).
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` for forward
    /// compatibility with validating configurations.
    pub fn new(netlist: &'a Netlist, cfg: TestbenchConfig) -> Result<Self, SimError> {
        Ok(Testbench::with_delay(netlist, cfg, LinearDelay::new()))
    }

    /// Creates a testbench with a custom delay model.
    pub fn with_delay(
        netlist: &'a Netlist,
        cfg: TestbenchConfig,
        delay: impl DelayModel + 'static,
    ) -> Self {
        let mut sim = Simulator::new(netlist, delay);
        sim.set_watchdog(cfg.watchdog);
        Testbench {
            sim,
            cfg,
            sources: Vec::new(),
            sinks: Vec::new(),
        }
    }

    /// The underlying simulator (read access to levels and the log).
    pub fn simulator(&self) -> &Simulator<'a> {
        &self.sim
    }

    /// Schedules `plan`'s faults for injection into this run; see
    /// [`Simulator::inject`]. Faults fire during [`Testbench::run`] at
    /// their scheduled times — even while the circuit idles between
    /// handshakes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadEnvironment`] if a fault site does not fit
    /// the netlist.
    pub fn inject(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        self.sim.inject(plan)
    }

    /// Attaches a source feeding `values` into input channel `channel`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadEnvironment`] if the channel is not an input
    /// channel with an acknowledge net, or a value exceeds the rail count.
    pub fn source(&mut self, channel: ChannelId, values: Vec<usize>) -> Result<(), SimError> {
        let ch = self.sim.netlist().channel(channel);
        if ch.role != ChannelRole::Input {
            return Err(SimError::BadEnvironment {
                reason: format!("channel {} is not an input channel", ch.name),
            });
        }
        if ch.ack.is_none() {
            return Err(SimError::BadEnvironment {
                reason: format!("input channel {} has no acknowledge net", ch.name),
            });
        }
        if let Some(&v) = values.iter().find(|&&v| v >= ch.arity()) {
            return Err(SimError::BadEnvironment {
                reason: format!(
                    "value {v} does not fit 1-of-{} channel {}",
                    ch.arity(),
                    ch.name
                ),
            });
        }
        self.sources.push(SourceEnv {
            channel,
            values: values.into(),
            current: 0,
            phase: SourcePhase::WaitReady,
            sent: 0,
        });
        Ok(())
    }

    /// Attaches a sink consuming output channel `channel`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadEnvironment`] if the channel is not an output
    /// channel whose acknowledge is a primary input the sink can drive.
    pub fn sink(&mut self, channel: ChannelId) -> Result<(), SimError> {
        let ch = self.sim.netlist().channel(channel);
        if ch.role != ChannelRole::Output {
            return Err(SimError::BadEnvironment {
                reason: format!("channel {} is not an output channel", ch.name),
            });
        }
        let Some(ack) = ch.ack else {
            return Err(SimError::BadEnvironment {
                reason: format!("output channel {} has no acknowledge net", ch.name),
            });
        };
        if !self.sim.netlist().net(ack).is_primary_input {
            return Err(SimError::BadEnvironment {
                reason: format!(
                    "acknowledge of output channel {} is not a primary input",
                    ch.name
                ),
            });
        }
        self.sinks.push(SinkEnv {
            channel,
            phase: SinkPhase::WaitValid,
            received: Vec::new(),
        });
        Ok(())
    }

    /// Runs until every source token has been delivered and all handshakes
    /// have returned to idle.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] if no environment can make progress while
    ///   tokens remain (every stalled channel is reported with its
    ///   handshake phase),
    /// * [`SimError::Livelock`] if the activity fingerprint shows an
    ///   oscillation,
    /// * [`SimError::EventLimit`] if the event budget runs out without
    ///   oscillation evidence,
    /// * [`SimError::SimTimeout`] if the watchdog's sim-time deadline
    ///   passes.
    pub fn run(mut self) -> Result<TestbenchRun, SimError> {
        let _span = qdi_obs::span::hot("sim.tb.run");
        // Sinks start ready: raise their acknowledge nets, then settle.
        for sink in &self.sinks {
            let ack = self
                .sim
                .netlist()
                .channel(sink.channel)
                .ack
                .expect("validated at attach time");
            self.sim.drive(ack, true, 1);
        }
        self.sim.settle(self.cfg.event_limit)?;

        for _round in 0..self.cfg.max_rounds {
            let mut progressed = false;
            for src in &mut self.sources {
                progressed |= src.poll(&mut self.sim, self.cfg.env_delay_ps);
            }
            for sink in &mut self.sinks {
                progressed |= sink.poll(&mut self.sim, self.cfg.env_delay_ps);
            }
            if !self.sim.is_quiescent() {
                self.sim.run_until_quiescent(self.cfg.event_limit)?;
                continue;
            }
            if progressed {
                continue;
            }
            let done = self.sources.iter().all(SourceEnv::is_done)
                && self.sinks.iter().all(SinkEnv::is_idle);
            if done {
                let cycles = self.sources.iter().map(|s| s.sent).max().unwrap_or(0);
                let end_time_ps = self.sim.now();
                let received = self
                    .sinks
                    .into_iter()
                    .map(|s| (s.channel, s.received))
                    .collect();
                return Ok(TestbenchRun {
                    transitions: self.sim.take_transitions(),
                    end_time_ps,
                    cycles,
                    received,
                });
            }
            // A fault armed for a later time can still fire while the
            // circuit idles — and may be what unsticks (or kills) the run.
            if self.sim.fire_next_fault() {
                continue;
            }
            let stalled: Vec<StalledChannel> = self
                .sources
                .iter()
                .filter(|s| !s.is_done())
                .map(|s| StalledChannel {
                    channel: s.channel,
                    phase: s.handshake_phase(),
                })
                .chain(
                    self.sinks
                        .iter()
                        .filter(|s| !s.is_idle())
                        .map(|s| StalledChannel {
                            channel: s.channel,
                            phase: s.handshake_phase(),
                        }),
                )
                .collect();
            return Err(SimError::Deadlock {
                time_ps: self.sim.now(),
                stalled,
            });
        }
        Err(SimError::EventLimit {
            limit: self.cfg.max_rounds,
            time_ps: self.sim.now(),
            active: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_netlist::{cells, Channel, Netlist, NetlistBuilder};

    fn xor_netlist() -> (Netlist, Channel, Channel, Channel) {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let out = b.output_channel("co", &cell.out.rails.clone(), ack);
        (b.finish().expect("valid"), a, bb, out)
    }

    #[test]
    fn xor_computes_all_input_pairs() {
        let (nl, a, bb, out) = xor_netlist();
        for av in 0..2usize {
            for bv in 0..2usize {
                let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
                tb.source(a.id, vec![av]).expect("src a");
                tb.source(bb.id, vec![bv]).expect("src b");
                tb.sink(out.id).expect("sink");
                let run = tb.run().expect("completes");
                assert_eq!(run.received(out.id), &[av ^ bv], "{av} xor {bv}");
                assert_eq!(run.cycles, 1);
            }
        }
    }

    #[test]
    fn xor_transition_count_is_data_independent() {
        let (nl, a, bb, out) = xor_netlist();
        let mut counts = Vec::new();
        for (av, bv) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
            tb.source(a.id, vec![av]).expect("src");
            tb.source(bb.id, vec![bv]).expect("src");
            tb.sink(out.id).expect("sink");
            let run = tb.run().expect("completes");
            counts.push(run.transitions.len());
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "balanced cell must switch the same number of nets for all data: {counts:?}"
        );
    }

    #[test]
    fn xor_streams_multiple_tokens() {
        let (nl, a, bb, out) = xor_netlist();
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, vec![0, 1, 1, 0]).expect("src");
        tb.source(bb.id, vec![0, 0, 1, 1]).expect("src");
        tb.sink(out.id).expect("sink");
        let run = tb.run().expect("completes");
        assert_eq!(run.received(out.id), &[0, 1, 0, 1]);
        assert_eq!(run.cycles, 4);
    }

    #[test]
    fn wchb_pipeline_passes_tokens() {
        let mut b = NetlistBuilder::new("pipe");
        let a = b.input_channel("a", 2);
        let ack = b.input_net("ack");
        let s2_placeholder = b.net("s2_ack_fwd"); // ack from stage 2 into stage 1
        let s1 = cells::wchb_buffer(&mut b, "s1", &a, s2_placeholder);
        let s2 = cells::wchb_buffer(&mut b, "s2", &s1.out, ack);
        // Wire stage-2 completion back as stage-1 output acknowledge.
        b.gate_into(
            qdi_netlist::GateKind::Buf,
            "s2_ack_buf",
            &[s2.ack_to_senders],
            s2_placeholder,
        );
        b.connect_input_acks(&[a.id], s1.ack_to_senders);
        let out = b.output_channel("co", &s2.out.rails.clone(), ack);
        let nl = b.finish().expect("valid");
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, vec![1, 0, 1]).expect("src");
        tb.sink(out.id).expect("sink");
        let run = tb.run().expect("completes");
        assert_eq!(run.received(out.id), &[1, 0, 1]);
    }

    #[test]
    fn missing_token_deadlocks() {
        // Only one of the two XOR operands is supplied: the C-elements wait
        // forever and the testbench must report a deadlock.
        let (nl, a, _bb, out) = xor_netlist();
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, vec![1]).expect("src");
        tb.sink(out.id).expect("sink");
        let err = tb.run().expect_err("deadlock");
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn injected_stuck_rail_deadlocks_instead_of_corrupting() {
        use crate::fault::{Fault, FaultKind, FaultSite};
        // Stick the XOR's active output rail low before the token arrives:
        // no valid codeword can ever form, completion never acknowledges,
        // and the run must stall — the paper's Section II alarm property.
        let (nl, a, bb, out) = xor_netlist();
        let rail = nl.channel(out.id).rail(1); // 1 ^ 0 = 1
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        tb.inject(&FaultPlan::single(Fault::new(
            FaultSite::Net(rail),
            FaultKind::StuckAt(false),
            10,
        )))
        .expect("inject");
        tb.source(a.id, vec![1]).expect("src");
        tb.source(bb.id, vec![0]).expect("src");
        tb.sink(out.id).expect("sink");
        let err = tb.run().expect_err("no valid codeword can form");
        let SimError::Deadlock { stalled, .. } = err else {
            panic!("expected deadlock, got {err}");
        };
        assert!(!stalled.is_empty(), "stalled channels must be reported");
    }

    #[test]
    fn injected_empty_plan_completes_identically() {
        let (nl, a, bb, out) = xor_netlist();
        let run = |plan: Option<FaultPlan>| {
            let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
            if let Some(p) = plan {
                tb.inject(&p).expect("inject");
            }
            tb.source(a.id, vec![1]).expect("src");
            tb.source(bb.id, vec![1]).expect("src");
            tb.sink(out.id).expect("sink");
            tb.run().expect("completes")
        };
        let clean = run(None);
        let injected = run(Some(FaultPlan::empty()));
        assert_eq!(clean.transitions, injected.transitions);
        assert_eq!(clean.end_time_ps, injected.end_time_ps);
    }

    #[test]
    fn source_rejects_out_of_range_value() {
        let (nl, a, _bb, _out) = xor_netlist();
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        let err = tb.source(a.id, vec![2]).expect_err("out of range");
        assert!(matches!(err, SimError::BadEnvironment { .. }));
    }

    #[test]
    fn sink_rejects_input_channel() {
        let (nl, a, _bb, _out) = xor_netlist();
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        let err = tb.sink(a.id).expect_err("not an output");
        assert!(matches!(err, SimError::BadEnvironment { .. }));
    }

    #[test]
    fn source_rejects_output_channel() {
        let (nl, _a, _bb, out) = xor_netlist();
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        let err = tb.source(out.id, vec![0]).expect_err("not an input");
        assert!(matches!(err, SimError::BadEnvironment { .. }));
    }
}
