//! The inertial-delay event-driven simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use qdi_netlist::{ChannelId, ChannelState, GateId, NetId, Netlist};
use serde::{Deserialize, Serialize};

use crate::delay::DelayModel;
use crate::error::{NetActivity, SimError};
use crate::fault::{FaultKind, FaultPlan, FaultSite};

/// Simulation time in picoseconds.
pub type TimePs = u64;

/// Failure-detection knobs for the simulator's quiescence watchdog.
///
/// When the event budget runs out, the watchdog fingerprints the tail of
/// the transition log to tell a *livelock* (a small set of nets toggling
/// periodically — a true oscillation) from a plain exhausted budget, and
/// attaches the busiest nets to the error either way. An optional absolute
/// sim-time deadline catches runs that keep making slow progress forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Absolute simulation-time deadline in ps; `None` disables it.
    pub max_sim_time_ps: Option<TimePs>,
    /// A net toggling at least this often within the inspected tail marks
    /// the run as a livelock rather than a mere budget exhaustion.
    pub livelock_toggles: u32,
    /// How many log-tail transitions to fingerprint on failure.
    pub activity_tail: usize,
}

impl WatchdogConfig {
    /// Defaults: no sim-time deadline, 8 toggles flag a livelock, the last
    /// 512 transitions are fingerprinted.
    #[must_use]
    pub fn new() -> WatchdogConfig {
        WatchdogConfig {
            max_sim_time_ps: None,
            livelock_toggles: 8,
            activity_tail: 512,
        }
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::new()
    }
}

/// Most-active nets reported in a watchdog error.
const ACTIVITY_REPORT_NETS: usize = 8;

/// A compiled fault operation, scheduled at an absolute sim time.
#[derive(Debug, Clone, Copy)]
struct FaultAction {
    at: TimePs,
    op: FaultOp,
}

#[derive(Debug, Clone, Copy)]
enum FaultOp {
    /// Invert the net's level in place (SEU).
    Flip(NetId),
    /// Start forcing the net to a constant level.
    Force(NetId, bool),
    /// Stop forcing the net; the driver (or saved stimulus) re-asserts it.
    Release(NetId),
    /// Add to the gate's propagation delay.
    SlowGate(GateId, TimePs),
    /// Remove a previous delay perturbation.
    RestoreGate(GateId, TimePs),
    /// Cancel the pending scheduled transition on the net, if any.
    Drop(NetId),
}

/// One logged net edge. The driving gate (if any) can be recovered through
/// [`Netlist::net`]; the electrical model uses it to derive the pulse
/// charge and duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Time of the edge.
    pub time_ps: TimePs,
    /// The net that toggled.
    pub net: NetId,
    /// `true` for a rising edge.
    pub rising: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: TimePs,
    seq: u64,
    net: NetId,
    value: bool,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Event-driven simulator over a borrowed netlist.
///
/// All nets start low (the QDI reset state: every channel invalid, every
/// C-element cleared); [`Simulator::settle`] then lets gates with non-zero
/// all-low output (completion NORs, inverters) reach their idle levels
/// before any stimulus is applied.
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    delay: Box<dyn DelayModel>,
    levels: Vec<bool>,
    /// Per net: sequence number of the authoritative pending event, if any.
    pending_seq: Vec<u64>,
    pending_value: Vec<bool>,
    has_pending: Vec<bool>,
    queue: BinaryHeap<Reverse<Event>>,
    now: TimePs,
    seq: u64,
    events_processed: u64,
    queue_high_water: usize,
    log: Vec<Transition>,
    /// Per net: the level a fault is currently forcing, if any.
    forced: Vec<Option<bool>>,
    /// Per net: the level the legitimate driver/stimulus last wanted while
    /// the net was forced; re-asserted on release of undriven nets.
    masked_drive: Vec<bool>,
    /// Per gate: extra propagation delay from active delay perturbations.
    extra_delay: Vec<TimePs>,
    /// Compiled fault actions, sorted by time; `next_action` is the cursor
    /// into the unfired suffix.
    actions: Vec<FaultAction>,
    next_action: usize,
    faults_applied: u64,
    watchdog: WatchdogConfig,
    /// Metric handles resolved once per simulator, not per run.
    events_metric: qdi_obs::metrics::Counter,
    queue_metric: qdi_obs::metrics::Gauge,
}

impl std::fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("netlist", &self.netlist.name())
            .field("now_ps", &self.now)
            .field("queued", &self.queue.len())
            .field("logged", &self.log.len())
            .finish()
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with the given delay model. All nets start low;
    /// call [`Simulator::settle`] before applying stimulus.
    pub fn new(netlist: &'a Netlist, delay: impl DelayModel + 'static) -> Self {
        let n = netlist.net_count();
        Simulator {
            netlist,
            delay: Box::new(delay),
            levels: vec![false; n],
            pending_seq: vec![0; n],
            pending_value: vec![false; n],
            has_pending: vec![false; n],
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            events_processed: 0,
            queue_high_water: 0,
            log: Vec::new(),
            forced: vec![None; n],
            masked_drive: vec![false; n],
            extra_delay: vec![0; netlist.gate_count()],
            actions: Vec::new(),
            next_action: 0,
            faults_applied: 0,
            watchdog: WatchdogConfig::new(),
            events_metric: qdi_obs::metrics::counter("sim.events"),
            queue_metric: qdi_obs::metrics::gauge("sim.queue_depth"),
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Current simulation time.
    pub fn now(&self) -> TimePs {
        self.now
    }

    /// Current level of `net`.
    pub fn level(&self, net: NetId) -> bool {
        self.levels[net.index()]
    }

    /// Decoded state of `channel`.
    pub fn channel_state(&self, channel: ChannelId) -> ChannelState {
        self.netlist.channel(channel).state(|n| self.level(n))
    }

    /// The transition log accumulated so far.
    pub fn transitions(&self) -> &[Transition] {
        &self.log
    }

    /// Takes ownership of the log, leaving it empty.
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.log)
    }

    /// Clears the transition log.
    pub fn clear_log(&mut self) {
        self.log.clear();
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Deepest the event queue has ever been since construction.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    /// `true` when no event is scheduled.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Replaces the watchdog configuration.
    pub fn set_watchdog(&mut self, watchdog: WatchdogConfig) {
        self.watchdog = watchdog;
    }

    /// The active watchdog configuration.
    pub fn watchdog(&self) -> WatchdogConfig {
        self.watchdog
    }

    /// Schedules the faults of `plan` for injection into this run.
    ///
    /// Faults fire at their `at_ps` times, interleaved with ordinary
    /// events (a fault wins a tie against an event at the same time).
    /// Injecting [`FaultPlan::empty`] leaves the run bit-identical to an
    /// uninjected one. May be called again mid-run to arm further faults.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadEnvironment`] if a fault site is out of
    /// range for this netlist, or a delay perturbation targets a net with
    /// no driving gate.
    pub fn inject(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        for fault in plan.iter() {
            match fault.site {
                FaultSite::Net(net) if net.index() >= self.netlist.net_count() => {
                    return Err(SimError::BadEnvironment {
                        reason: format!("fault site {net} is out of range for this netlist"),
                    });
                }
                FaultSite::Gate(gate) if gate.index() >= self.netlist.gate_count() => {
                    return Err(SimError::BadEnvironment {
                        reason: format!("fault site {gate} is out of range for this netlist"),
                    });
                }
                _ => {}
            }
            let net = fault.net(self.netlist);
            let at = fault.at_ps;
            match fault.kind {
                FaultKind::TransientFlip => self.arm(at, FaultOp::Flip(net)),
                FaultKind::StuckAt(v) => {
                    self.arm(at, FaultOp::Force(net, v));
                    if let Some(d) = fault.duration_ps {
                        self.arm(at + d.max(1), FaultOp::Release(net));
                    }
                }
                FaultKind::Glitch { to, width_ps } => {
                    self.arm(at, FaultOp::Force(net, to));
                    self.arm(at + width_ps.max(1), FaultOp::Release(net));
                }
                FaultKind::DelayPerturb { extra_ps } => {
                    let Some(gate) = fault.gate(self.netlist) else {
                        return Err(SimError::BadEnvironment {
                            reason: format!(
                                "delay perturbation targets net {} which has no driving gate",
                                self.netlist.net(net).name
                            ),
                        });
                    };
                    self.arm(at, FaultOp::SlowGate(gate, extra_ps));
                    if let Some(d) = fault.duration_ps {
                        self.arm(at + d.max(1), FaultOp::RestoreGate(gate, extra_ps));
                    }
                }
                FaultKind::DropTransition => self.arm(at, FaultOp::Drop(net)),
            }
        }
        // Keep the unfired suffix time-ordered; stable sort preserves the
        // push order of same-time actions (e.g. a force and its release).
        self.actions[self.next_action..].sort_by_key(|a| a.at);
        Ok(())
    }

    fn arm(&mut self, at: TimePs, op: FaultOp) {
        self.actions.push(FaultAction { at, op });
    }

    /// Fault actions applied so far.
    pub fn faults_applied(&self) -> u64 {
        self.faults_applied
    }

    /// Fault actions still waiting for their scheduled time.
    pub fn pending_faults(&self) -> usize {
        self.actions.len() - self.next_action
    }

    /// Applies the earliest pending fault action unconditionally, jumping
    /// the clock to its scheduled time. The testbench uses this so faults
    /// scheduled while the circuit idles still fire. Returns `false` when
    /// no action is pending.
    pub(crate) fn fire_next_fault(&mut self) -> bool {
        if self.next_action >= self.actions.len() {
            return false;
        }
        let action = self.actions[self.next_action];
        self.next_action += 1;
        self.apply_action(action);
        true
    }

    fn apply_action(&mut self, action: FaultAction) {
        self.now = self.now.max(action.at);
        self.faults_applied += 1;
        match action.op {
            FaultOp::Flip(net) => {
                let i = net.index();
                if self.forced[i].is_some() {
                    return; // a stuck-at dominates a transient
                }
                if self.has_pending[i] {
                    self.cancel_pending(net);
                }
                let flipped = !self.levels[i];
                self.commit_fault_level(net, flipped);
                // The legitimate driver still computes from uncorrupted
                // inputs: a combinational node heals after one gate delay,
                // a state-holding node (Muller) keeps the corruption.
                if let Some(driver) = self.netlist.net(net).driver {
                    self.evaluate_gate(driver);
                }
            }
            FaultOp::Force(net, v) => {
                let i = net.index();
                if self.has_pending[i] {
                    self.cancel_pending(net);
                }
                self.masked_drive[i] = self.levels[i];
                self.forced[i] = Some(v);
                if self.levels[i] != v {
                    self.commit_fault_level(net, v);
                }
            }
            FaultOp::Release(net) => {
                let i = net.index();
                if self.forced[i].take().is_none() {
                    return;
                }
                if let Some(driver) = self.netlist.net(net).driver {
                    self.evaluate_gate(driver);
                } else {
                    // Undriven (primary input): re-assert whatever the
                    // stimulus last wanted while the force was active.
                    let want = self.masked_drive[i];
                    if want != self.effective(net) {
                        self.schedule(net, want, self.now + 1);
                    }
                }
            }
            FaultOp::SlowGate(gate, extra) => self.extra_delay[gate.index()] += extra,
            FaultOp::RestoreGate(gate, extra) => {
                let d = &mut self.extra_delay[gate.index()];
                *d = d.saturating_sub(extra);
            }
            FaultOp::Drop(net) => {
                if self.has_pending[net.index()] {
                    self.cancel_pending(net);
                }
            }
        }
    }

    /// Commits a fault-driven level change: logs the edge like any other
    /// transition and lets the fanout see the corrupted value.
    fn commit_fault_level(&mut self, net: NetId, value: bool) {
        self.levels[net.index()] = value;
        self.log.push(Transition {
            time_ps: self.now,
            net,
            rising: value,
        });
        self.evaluate_loads(net);
    }

    /// Re-evaluates every gate `net` feeds. The fanout list is borrowed
    /// from the netlist, which outlives the simulator, so no copy is made.
    fn evaluate_loads(&mut self, net: NetId) {
        let netlist = self.netlist;
        for &load in &netlist.net(net).loads {
            self.evaluate_gate(load);
        }
    }

    fn schedule(&mut self, net: NetId, value: bool, at: TimePs) {
        self.seq += 1;
        let i = net.index();
        self.pending_seq[i] = self.seq;
        self.pending_value[i] = value;
        self.has_pending[i] = true;
        self.queue.push(Reverse(Event {
            time: at,
            seq: self.seq,
            net,
            value,
        }));
        // Cheap max-on-push; reported to the global gauge once per run.
        self.queue_high_water = self.queue_high_water.max(self.queue.len());
    }

    fn cancel_pending(&mut self, net: NetId) {
        let i = net.index();
        self.has_pending[i] = false;
        // Bump the seq so the queued event is recognised as stale.
        self.seq += 1;
        self.pending_seq[i] = self.seq;
    }

    /// Effective future value of a net: pending target if any, else the
    /// committed level.
    fn effective(&self, net: NetId) -> bool {
        let i = net.index();
        if self.has_pending[i] {
            self.pending_value[i]
        } else {
            self.levels[i]
        }
    }

    fn evaluate_gate(&mut self, gate: GateId) {
        let g = self.netlist.gate(gate);
        let out = g.output;
        if self.forced[out.index()].is_some() {
            return; // a stuck-at/glitch fault overpowers the gate's drive
        }
        let prev = self.level(out);
        let newv = g.kind.eval(g.inputs.iter().map(|&n| self.level(n)), prev);
        if newv == self.effective(out) {
            return;
        }
        if self.has_pending[out.index()] {
            // The pending change is contradicted by the new evaluation:
            // inertial behaviour cancels it.
            self.cancel_pending(out);
            if newv == self.level(out) {
                return;
            }
        }
        let d = self.delay.delay_ps(self.netlist, gate) + self.extra_delay[gate.index()];
        self.schedule(out, newv, self.now + d);
    }

    /// Drives a primary-input net to `value` after `delay_ps`, as an
    /// environment would.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn drive(&mut self, net: NetId, value: bool, delay_ps: TimePs) {
        assert!(
            self.netlist.net(net).is_primary_input,
            "only primary inputs may be driven (net {net})"
        );
        if self.forced[net.index()].is_some() {
            // The fault wins while active; remember what the stimulus
            // wanted so a later release can re-assert it.
            self.masked_drive[net.index()] = value;
            return;
        }
        if self.effective(net) == value {
            return;
        }
        if self.has_pending[net.index()] {
            self.cancel_pending(net);
            if self.level(net) == value {
                return;
            }
        }
        self.schedule(net, value, self.now + delay_ps.max(1));
    }

    /// Processes events until the queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimit`] if more than `limit` events fire —
    /// the signature of an oscillating circuit.
    pub fn run_until_quiescent(&mut self, limit: u64) -> Result<(), SimError> {
        let _span = qdi_obs::span::hot("sim.run");
        let start = self.events_processed;
        let result = self.drain(None, limit);
        self.finish_run(start, result.is_err());
        result
    }

    /// Processes events with timestamps up to and including `t_end`, then
    /// advances the clock to `t_end`. Later events stay queued.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimit`] if more than `limit` events fire.
    pub fn run_until(&mut self, t_end: TimePs, limit: u64) -> Result<(), SimError> {
        let _span = qdi_obs::span::hot("sim.run");
        let start = self.events_processed;
        let result = self.drain(Some(t_end), limit);
        self.now = self.now.max(t_end);
        self.finish_run(start, result.is_err());
        result
    }

    /// The shared event loop: pops events (up to `t_end` when bounded),
    /// commits levels and re-evaluates fanout gates. Armed fault actions
    /// are interleaved by time and win ties against events; they do not
    /// consume the event budget.
    fn drain(&mut self, t_end: Option<TimePs>, limit: u64) -> Result<(), SimError> {
        let mut budget = limit;
        loop {
            let next_event = self.queue.peek().map(|&Reverse(ev)| ev.time);
            let next_fault = self.actions.get(self.next_action).map(|a| a.at);
            let take_fault = match (next_fault, next_event) {
                (Some(a), Some(e)) => a <= e && t_end.is_none_or(|t| a <= t),
                // With no event due, a fault still fires inside a bounded
                // window; an unbounded run stays quiescent (the testbench
                // fires idle-time faults explicitly).
                (Some(a), None) => t_end.is_some_and(|t| a <= t),
                (None, _) => false,
            };
            if take_fault {
                let action = self.actions[self.next_action];
                self.next_action += 1;
                self.apply_action(action);
                continue;
            }
            let Some(&Reverse(ev)) = self.queue.peek() else {
                break;
            };
            if t_end.is_some_and(|t| ev.time > t) {
                break;
            }
            if let Some(deadline) = self.watchdog.max_sim_time_ps {
                if ev.time > deadline {
                    return Err(SimError::SimTimeout {
                        deadline_ps: deadline,
                        time_ps: ev.time,
                    });
                }
            }
            self.queue.pop();
            let i = ev.net.index();
            if !self.has_pending[i] || self.pending_seq[i] != ev.seq {
                continue; // stale (cancelled or superseded)
            }
            if budget == 0 {
                return Err(self.budget_exhausted(limit));
            }
            budget -= 1;
            self.events_processed += 1;
            self.has_pending[i] = false;
            self.now = self.now.max(ev.time);
            if self.levels[i] == ev.value {
                continue;
            }
            self.levels[i] = ev.value;
            self.log.push(Transition {
                time_ps: ev.time,
                net: ev.net,
                rising: ev.value,
            });
            self.evaluate_loads(ev.net);
        }
        Ok(())
    }

    /// Classifies an exhausted event budget by fingerprinting the tail of
    /// the transition log: a small set of nets toggling many times each is
    /// a livelock (oscillation); anything else stays an `EventLimit`.
    fn budget_exhausted(&self, limit: u64) -> SimError {
        let tail_len = self.watchdog.activity_tail.min(self.log.len());
        let tail = &self.log[self.log.len() - tail_len..];
        let mut per_net: HashMap<NetId, (u32, TimePs, TimePs)> = HashMap::new();
        for t in tail {
            let entry = per_net.entry(t.net).or_insert((0, t.time_ps, t.time_ps));
            entry.0 += 1;
            entry.1 = entry.1.min(t.time_ps);
            entry.2 = entry.2.max(t.time_ps);
        }
        let mut ranked: Vec<(NetId, u32, TimePs, TimePs)> = per_net
            .into_iter()
            .map(|(net, (toggles, first, last))| (net, toggles, first, last))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let active: Vec<NetActivity> = ranked
            .iter()
            .take(ACTIVITY_REPORT_NETS)
            .map(|&(net, toggles, _, last)| NetActivity {
                net,
                toggles,
                last_toggle_ps: last,
            })
            .collect();
        match ranked.first() {
            Some(&(_, toggles, first, last))
                if toggles >= self.watchdog.livelock_toggles.max(2) =>
            {
                SimError::Livelock {
                    limit,
                    time_ps: self.now,
                    period_ps: (last - first) / TimePs::from(toggles - 1),
                    active,
                }
            }
            _ => SimError::EventLimit {
                limit,
                time_ps: self.now,
                active,
            },
        }
    }

    /// Per-run bookkeeping: global metrics plus one trace event (the
    /// event loop itself never touches the tracing runtime).
    fn finish_run(&mut self, start_events: u64, hit_limit: bool) {
        let processed = self.events_processed - start_events;
        if processed > 0 {
            self.events_metric.add(processed);
        }
        self.queue_metric.record_max(self.queue_high_water as i64);
        if hit_limit {
            qdi_obs::warn!(target: "qdi_sim::simulator",
                events = processed, now_ps = self.now,
                "event limit hit — circuit may oscillate");
        } else {
            qdi_obs::trace!(target: "qdi_sim::simulator",
                events = processed,
                queue_high_water = self.queue_high_water,
                now_ps = self.now,
                "run drained");
        }
    }

    /// Evaluates every gate once and runs to quiescence, then clears the
    /// log: brings completion detectors and inverters to their idle levels
    /// without polluting the trace.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::EventLimit`] from the settling run.
    pub fn settle(&mut self, limit: u64) -> Result<(), SimError> {
        let _span = qdi_obs::span::hot("sim.settle");
        for gate in self.netlist.gates() {
            self.evaluate_gate(gate.id);
        }
        self.run_until_quiescent(limit)?;
        self.clear_log();
        Ok(())
    }

    /// Gates whose output toggled in the half-open window `[t0, t1)`,
    /// deduplicated, for feeding
    /// [`qdi_netlist::graph::SwitchingProfile::from_switching_gates`].
    pub fn switched_gates(&self, t0: TimePs, t1: TimePs) -> Vec<GateId> {
        let mut gates: Vec<GateId> = self
            .log
            .iter()
            .filter(|t| t.time_ps >= t0 && t.time_ps < t1)
            .filter_map(|t| self.netlist.net(t.net).driver)
            .collect();
        gates.sort();
        gates.dedup();
        gates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{ConstantDelay, LinearDelay};
    use qdi_netlist::{GateKind, NetlistBuilder};

    fn and_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("and");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let y = b.gate(GateKind::And, "y", &[a, c]);
        b.mark_output(y);
        b.finish().expect("valid")
    }

    #[test]
    fn and_gate_simulates() {
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let c = nl.find_net("b").expect("b");
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        sim.settle(1000).expect("settle");
        assert!(!sim.level(y));
        sim.drive(a, true, 1);
        sim.drive(c, true, 1);
        sim.run_until_quiescent(1000).expect("run");
        assert!(sim.level(y));
        sim.drive(a, false, 1);
        sim.run_until_quiescent(1000).expect("run");
        assert!(!sim.level(y));
        assert_eq!(sim.transitions().len(), 2 + 1 + 1 + 1); // a↑ b↑ y↑ a↓ y↓
    }

    #[test]
    fn muller_holds_state() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let y = b.gate(GateKind::Muller, "y", &[a, c]);
        b.mark_output(y);
        let nl = b.finish().expect("valid");
        let a = nl.find_net("a").expect("a");
        let cn = nl.find_net("b").expect("b");
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(5));
        sim.settle(100).expect("settle");
        sim.drive(a, true, 1);
        sim.run_until_quiescent(100).expect("run");
        assert!(!sim.level(y), "C must wait for both inputs");
        sim.drive(cn, true, 1);
        sim.run_until_quiescent(100).expect("run");
        assert!(sim.level(y));
        sim.drive(a, false, 1);
        sim.run_until_quiescent(100).expect("run");
        assert!(sim.level(y), "C holds until both inputs fall");
        sim.drive(cn, false, 1);
        sim.run_until_quiescent(100).expect("run");
        assert!(!sim.level(y));
    }

    #[test]
    fn settle_raises_nor_outputs() {
        let mut b = NetlistBuilder::new("nor");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let y = b.gate(GateKind::Nor, "y", &[a, c]);
        b.mark_output(y);
        let nl = b.finish().expect("valid");
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(5));
        sim.settle(100).expect("settle");
        assert!(sim.level(y), "NOR of all-low inputs idles high");
        assert!(
            sim.transitions().is_empty(),
            "settling must not pollute the log"
        );
    }

    #[test]
    fn inertial_cancellation_swallows_short_pulse() {
        // A slow AND gate sees a 1-pulse shorter than its delay: the output
        // must not glitch.
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let c = nl.find_net("b").expect("b");
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(100));
        sim.settle(100).expect("settle");
        sim.drive(c, true, 1);
        sim.run_until_quiescent(100).expect("run");
        // Pulse on a: up at t+1, down ~10 ps later — shorter than the gate
        // delay, so the AND's scheduled rise must be cancelled.
        sim.drive(a, true, 1);
        sim.run_until(sim.now() + 5, 100).expect("run");
        assert!(sim.level(a));
        sim.drive(a, false, 5);
        sim.run_until_quiescent(100).expect("run");
        assert!(!sim.level(a));
        assert!(!sim.level(y));
        let y_edges = sim.transitions().iter().filter(|t| t.net == y).count();
        assert_eq!(y_edges, 0, "short pulse must be filtered (inertial delay)");
    }

    #[test]
    fn oscillator_is_classified_as_livelock() {
        let mut b = NetlistBuilder::new("osc");
        let en = b.input_net("en");
        let fb = b.net("fb");
        let y = b.gate(GateKind::Nand, "y", &[en, fb]);
        b.gate_into(GateKind::Buf, "loop", &[y], fb);
        b.mark_output(y);
        let nl = b.finish().expect("valid");
        let en = nl.find_net("en").expect("en");
        let y = nl.find_net("y").expect("y");
        let fb = nl.find_net("fb").expect("fb");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(5));
        sim.settle(10_000).expect("settles with en low");
        sim.drive(en, true, 1);
        let err = sim.run_until_quiescent(200).expect_err("oscillates");
        let SimError::Livelock {
            period_ps, active, ..
        } = err
        else {
            panic!("oscillation must be fingerprinted as a livelock: {err:?}");
        };
        // The NAND→Buf loop inverts once per 2 gate delays: period 10 ps.
        assert_eq!(period_ps, 10);
        let nets: Vec<_> = active.iter().map(|a| a.net).collect();
        assert!(nets.contains(&y) && nets.contains(&fb), "{active:?}");
    }

    #[test]
    fn low_budget_without_oscillation_stays_event_limit() {
        // A healthy AND-gate run, starved of budget: every net toggles at
        // most twice, so the fingerprint must NOT call it a livelock.
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let c = nl.find_net("b").expect("b");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        sim.settle(100).expect("settle");
        sim.drive(a, true, 1);
        sim.drive(c, true, 1);
        let err = sim.run_until_quiescent(1).expect_err("budget of 1");
        let SimError::EventLimit { active, .. } = err else {
            panic!("starved budget must stay EventLimit: {err:?}");
        };
        assert!(!active.is_empty(), "active nets must be reported");
    }

    #[test]
    fn sim_time_deadline_fires() {
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        sim.set_watchdog(WatchdogConfig {
            max_sim_time_ps: Some(50),
            ..WatchdogConfig::new()
        });
        sim.settle(100).expect("settle");
        sim.drive(a, true, 100); // edge lands past the deadline
        let err = sim.run_until_quiescent(100).expect_err("deadline");
        assert!(matches!(
            err,
            SimError::SimTimeout {
                deadline_ps: 50,
                ..
            }
        ));
    }

    #[test]
    fn empty_plan_is_bit_identical() {
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let c = nl.find_net("b").expect("b");
        let run = |plan: Option<&FaultPlan>| {
            let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
            if let Some(p) = plan {
                sim.inject(p).expect("inject");
            }
            sim.settle(100).expect("settle");
            sim.drive(a, true, 1);
            sim.drive(c, true, 1);
            sim.run_until_quiescent(100).expect("run");
            sim.take_transitions()
        };
        assert_eq!(run(None), run(Some(&FaultPlan::empty())));
    }

    #[test]
    fn stuck_at_fault_overrides_gate_and_releases() {
        use crate::fault::{Fault, FaultKind, FaultSite};
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let c = nl.find_net("b").expect("b");
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        let mut fault = Fault::new(FaultSite::Net(y), FaultKind::StuckAt(false), 5);
        fault.duration_ps = Some(100);
        sim.inject(&FaultPlan::single(fault)).expect("inject");
        sim.settle(100).expect("settle");
        sim.drive(a, true, 1);
        sim.drive(c, true, 1);
        sim.run_until(60, 1000).expect("run");
        assert!(!sim.level(y), "stuck-at-0 must hold y low");
        sim.run_until(300, 1000).expect("run");
        assert!(sim.level(y), "after release the AND re-drives y high");
    }

    #[test]
    fn transient_flip_on_combinational_net_heals() {
        use crate::fault::{Fault, FaultKind, FaultSite};
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let c = nl.find_net("b").expect("b");
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        sim.inject(&FaultPlan::single(Fault::new(
            FaultSite::Net(y),
            FaultKind::TransientFlip,
            40,
        )))
        .expect("inject");
        sim.settle(100).expect("settle");
        sim.drive(a, true, 1);
        sim.drive(c, true, 1);
        sim.run_until(41, 1000).expect("run");
        assert!(!sim.level(y), "flip corrupts y at 40 ps");
        sim.run_until_quiescent(1000).expect("run");
        assert!(sim.level(y), "the AND gate re-drives the corrupted node");
    }

    #[test]
    fn transient_flip_on_muller_output_persists() {
        use crate::fault::{Fault, FaultKind, FaultSite};
        let mut b = NetlistBuilder::new("c");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let y = b.gate(GateKind::Muller, "y", &[a, c]);
        b.mark_output(y);
        let nl = b.finish().expect("valid");
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(5));
        sim.inject(&FaultPlan::single(Fault::new(
            FaultSite::Net(y),
            FaultKind::TransientFlip,
            20,
        )))
        .expect("inject");
        sim.settle(100).expect("settle");
        // Disagreeing inputs (1/0) put the C-element in its hold state:
        // the flip is state corruption that nothing re-drives.
        let a = nl.find_net("a").expect("a");
        sim.drive(a, true, 1);
        sim.run_until(50, 1000).expect("run");
        assert!(sim.level(y), "flip persists on a state-holding node");
    }

    #[test]
    fn dropped_transition_cancels_pending_edge() {
        use crate::fault::{Fault, FaultKind, FaultSite};
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let c = nl.find_net("b").expect("b");
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        // Inputs rise at t=1; y's rise is scheduled for t=11; drop it at 5.
        sim.inject(&FaultPlan::single(Fault::new(
            FaultSite::Net(y),
            FaultKind::DropTransition,
            5,
        )))
        .expect("inject");
        sim.settle(100).expect("settle");
        sim.drive(a, true, 1);
        sim.drive(c, true, 1);
        sim.run_until_quiescent(1000).expect("run");
        assert!(!sim.level(y), "the scheduled rise was dropped");
    }

    #[test]
    fn delay_perturbation_slows_the_gate() {
        use crate::fault::{Fault, FaultKind, FaultSite};
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let c = nl.find_net("b").expect("b");
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        sim.inject(&FaultPlan::single(Fault::new(
            FaultSite::Net(y),
            FaultKind::DelayPerturb { extra_ps: 90 },
            0,
        )))
        .expect("inject");
        sim.settle(1000).expect("settle");
        sim.drive(a, true, 1);
        sim.drive(c, true, 1);
        sim.run_until_quiescent(1000).expect("run");
        let rise = sim
            .transitions()
            .iter()
            .find(|t| t.net == y)
            .expect("y rises")
            .time_ps;
        assert_eq!(
            rise,
            1 + 10 + 90,
            "gate delay must include the perturbation"
        );
    }

    #[test]
    fn delay_perturbation_rejects_undriven_net() {
        use crate::fault::{Fault, FaultKind, FaultSite};
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        let err = sim
            .inject(&FaultPlan::single(Fault::new(
                FaultSite::Net(a),
                FaultKind::DelayPerturb { extra_ps: 10 },
                0,
            )))
            .expect_err("primary input has no driver");
        assert!(matches!(err, SimError::BadEnvironment { .. }));
    }

    #[test]
    fn glitch_on_primary_input_reasserts_stimulus() {
        use crate::fault::{Fault, FaultKind, FaultSite};
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        sim.inject(&FaultPlan::single(Fault::new(
            FaultSite::Net(a),
            FaultKind::Glitch {
                to: true,
                width_ps: 20,
            },
            50,
        )))
        .expect("inject");
        sim.settle(100).expect("settle");
        sim.run_until(60, 1000).expect("run");
        assert!(sim.level(a), "glitch pulls the input high");
        sim.run_until(300, 1000).expect("run");
        assert!(!sim.level(a), "release restores the stimulus level");
    }

    #[test]
    fn linear_delay_orders_transitions_by_capacitance() {
        // Two buffers from the same input; the heavily loaded one must
        // switch later.
        let mut b = NetlistBuilder::new("race");
        let a = b.input_net("a");
        let fast = b.gate(GateKind::Buf, "fast", &[a]);
        let slow = b.gate(GateKind::Buf, "slow", &[a]);
        b.mark_output(fast);
        b.mark_output(slow);
        let mut nl = b.finish().expect("valid");
        nl.set_routing_cap(nl.find_net("slow").expect("slow"), 64.0);
        let fast = nl.find_net("fast").expect("fast");
        let slow = nl.find_net("slow").expect("slow");
        let mut sim = Simulator::new(&nl, LinearDelay::new());
        sim.settle(100).expect("settle");
        sim.drive(a, true, 1);
        sim.run_until_quiescent(100).expect("run");
        let t = |net| {
            sim.transitions()
                .iter()
                .find(|tr| tr.net == net)
                .expect("edge logged")
                .time_ps
        };
        assert!(t(slow) > t(fast), "heavier net must switch later");
    }

    #[test]
    #[should_panic(expected = "primary inputs")]
    fn drive_rejects_internal_net() {
        let nl = and_netlist();
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(5));
        sim.drive(y, true, 1);
    }

    #[test]
    fn switched_gates_window() {
        let nl = and_netlist();
        let a = nl.find_net("a").expect("a");
        let c = nl.find_net("b").expect("b");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(10));
        sim.settle(100).expect("settle");
        sim.drive(a, true, 1);
        sim.drive(c, true, 1);
        sim.run_until_quiescent(100).expect("run");
        let gates = sim.switched_gates(0, sim.now() + 1);
        assert_eq!(gates.len(), 1); // only the AND gate drives a net
    }
}
