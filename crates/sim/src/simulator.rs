//! The inertial-delay event-driven simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use qdi_netlist::{ChannelId, ChannelState, GateId, GateKind, NetId, Netlist};
use serde::{Deserialize, Serialize};

use crate::delay::DelayModel;
use crate::error::{NetActivity, SimError};
use crate::fault::{FaultKind, FaultPlan};

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
    /// Not a fault: stop a pausable drain here (see
    /// [`Simulator::pause_at`]). It changes no state, and a drain that
    /// cannot stop passes over it.
    Pause,
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

/// A table offset: CSR offsets and pin positions are `u32`, like the ids
/// they sit beside.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("netlist pin count exceeds u32")
}

/// One gate as the event loop reads it.
#[derive(Debug, Clone, Copy)]
struct GateRow {
    kind: GateKind,
    output: NetId,
    /// Its input nets are `Compiled::inputs[first_input..end_input]`, in
    /// pin order.
    first_input: u32,
    end_input: u32,
    /// Propagation delay, asked of the delay model once.
    delay: TimePs,
}

/// The netlist compiled into flat tables once per [`Simulator::new`]. The
/// netlist is borrowed immutably for the simulator's life, so the tables
/// cannot go stale, and every clone shares them.
#[derive(Debug)]
struct Compiled {
    /// Per gate, in id order.
    gates: Vec<GateRow>,
    /// Every gate's input nets, gate after gate.
    inputs: Vec<NetId>,
    /// Per net: its loads are `loads[load_start[n]..load_start[n + 1]]`,
    /// a gate once per pin it connects.
    load_start: Vec<u32>,
    loads: Vec<GateId>,
    /// Per net: the driving gate, if any.
    driver: Vec<Option<GateId>>,
}

impl Compiled {
    fn new(netlist: &Netlist, delay: &dyn DelayModel) -> Compiled {
        let mut inputs = Vec::new();
        let gates = netlist
            .gates()
            .map(|g| {
                let first_input = offset(inputs.len());
                inputs.extend_from_slice(&g.inputs);
                GateRow {
                    kind: g.kind,
                    output: g.output,
                    first_input,
                    end_input: offset(inputs.len()),
                    delay: delay.delay_ps(netlist, g.id),
                }
            })
            .collect();
        let mut load_start = Vec::with_capacity(netlist.net_count() + 1);
        let mut loads = Vec::new();
        load_start.push(0);
        for net in netlist.nets() {
            loads.extend_from_slice(&net.loads);
            load_start.push(offset(loads.len()));
        }
        Compiled {
            gates,
            inputs,
            load_start,
            loads,
            driver: netlist.nets().map(|n| n.driver).collect(),
        }
    }

    fn loads(&self, net: NetId) -> &[GateId] {
        let n = net.index();
        &self.loads[self.load_start[n] as usize..self.load_start[n + 1] as usize]
    }

    fn inputs(&self, gate: &GateRow) -> &[NetId] {
        &self.inputs[gate.first_input as usize..gate.end_input as usize]
    }
}

/// One net's simulation state. A fork copies all of them as one
/// allocation.
#[derive(Debug, Clone, Copy, Default)]
struct NetState {
    /// Sequence number of the authoritative pending event, if any.
    pending_seq: u64,
    level: bool,
    has_pending: bool,
    pending_value: bool,
    /// The level a fault is currently forcing, if any.
    forced: Option<bool>,
    /// The level the legitimate driver/stimulus last wanted while the net
    /// was forced; re-asserted on release of undriven nets.
    masked_drive: bool,
}

impl NetState {
    /// Effective future value: the pending target if any, else the
    /// committed level.
    fn effective(self) -> bool {
        if self.has_pending {
            self.pending_value
        } else {
            self.level
        }
    }
}

/// Everything a run changes: a simulator's clone is a clone of this plus
/// a share of the compiled tables.
#[derive(Debug, Clone)]
struct State {
    nets: Vec<NetState>,
    queue: BinaryHeap<Reverse<Event>>,
    now: TimePs,
    seq: u64,
    events_processed: u64,
    queue_high_water: usize,
    log: Vec<Transition>,
    /// Extra propagation delay of the gates an active delay perturbation
    /// slows, at most one entry per gate; empty in most runs.
    slowed: Vec<(GateId, TimePs)>,
    /// Compiled fault actions, sorted by time; `next_action` is the cursor
    /// into the unfired suffix.
    actions: Vec<FaultAction>,
    next_action: usize,
    faults_applied: u64,
}

/// Event-driven simulator over a borrowed netlist.
///
/// All nets start low (the QDI reset state: every channel invalid, every
/// C-element cleared); [`Simulator::settle`] then lets gates with non-zero
/// all-low output (completion NORs, inverters) reach their idle levels
/// before any stimulus is applied.
///
/// [`Simulator::new`] compiles the netlist once into flat tables: each
/// gate's kind, output, inputs and delay (the [`DelayModel`] is asked once
/// per gate, never per event), and each net's fanout. A clone is an
/// independent simulator in the same state: levels, queued events, armed
/// faults and log. It shares only the netlist and the compiled tables, so
/// a clone taken mid-run continues exactly as the original would.
#[derive(Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    compiled: Arc<Compiled>,
    state: State,
    watchdog: WatchdogConfig,
    /// Metric handles resolved once per simulator, not per run.
    events_metric: qdi_obs::metrics::Counter,
    queue_metric: qdi_obs::metrics::Gauge,
}

impl std::fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("netlist", &self.netlist.name())
            .field("now_ps", &self.state.now)
            .field("queued", &self.state.queue.len())
            .field("logged", &self.state.log.len())
            .finish()
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator, asking `delay` once for every gate's delay.
    /// All nets start low; call [`Simulator::settle`] before applying
    /// stimulus.
    pub fn new(netlist: &'a Netlist, delay: impl DelayModel) -> Self {
        Simulator {
            netlist,
            compiled: Arc::new(Compiled::new(netlist, &delay)),
            state: State {
                nets: vec![NetState::default(); netlist.net_count()],
                queue: BinaryHeap::new(),
                now: 0,
                seq: 0,
                events_processed: 0,
                queue_high_water: 0,
                log: Vec::new(),
                slowed: Vec::new(),
                actions: Vec::new(),
                next_action: 0,
                faults_applied: 0,
            },
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
        self.state.now
    }

    /// Current level of `net`.
    pub fn level(&self, net: NetId) -> bool {
        self.state.nets[net.index()].level
    }

    /// Decoded state of `channel`.
    pub fn channel_state(&self, channel: ChannelId) -> ChannelState {
        self.netlist.channel(channel).state(|n| self.level(n))
    }

    /// The transition log accumulated so far.
    pub fn transitions(&self) -> &[Transition] {
        &self.state.log
    }

    /// Takes ownership of the log, leaving it empty.
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.state.log)
    }

    /// Clears the transition log.
    pub fn clear_log(&mut self) {
        self.state.log.clear();
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.state.events_processed
    }

    /// Deepest the event queue has ever been since construction.
    pub fn queue_high_water(&self) -> usize {
        self.state.queue_high_water
    }

    /// `true` when no event is scheduled.
    pub fn is_quiescent(&self) -> bool {
        self.state.queue.is_empty()
    }

    /// Queued events still due to fire; cancelled and superseded entries,
    /// which the queue keeps until they surface, do not count. Costs one
    /// pass over the queue.
    pub fn pending_events(&self) -> usize {
        self.state
            .queue
            .iter()
            .filter(|Reverse(ev)| self.state.is_due(ev))
            .count()
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
        let s = &mut self.state;
        for fault in plan.iter() {
            fault.check(self.netlist)?;
            let net = fault.net(self.netlist);
            let at = fault.at_ps;
            match fault.kind {
                FaultKind::TransientFlip => s.arm(at, FaultOp::Flip(net)),
                FaultKind::StuckAt(v) => {
                    s.arm(at, FaultOp::Force(net, v));
                    if let Some(d) = fault.duration_ps {
                        s.arm(at.saturating_add(d.max(1)), FaultOp::Release(net));
                    }
                }
                FaultKind::Glitch { to, width_ps } => {
                    s.arm(at, FaultOp::Force(net, to));
                    s.arm(at.saturating_add(width_ps.max(1)), FaultOp::Release(net));
                }
                FaultKind::DelayPerturb { extra_ps } => {
                    let gate = fault
                        .gate(self.netlist)
                        .expect("check() rejects a delay site without a driver");
                    s.arm(at, FaultOp::SlowGate(gate, extra_ps));
                    if let Some(d) = fault.duration_ps {
                        s.arm(
                            at.saturating_add(d.max(1)),
                            FaultOp::RestoreGate(gate, extra_ps),
                        );
                    }
                }
                FaultKind::DropTransition => s.arm(at, FaultOp::Drop(net)),
            }
        }
        s.sort_armed();
        Ok(())
    }

    /// Arms a pause at `at_ps`: a drain that may stop
    /// ([`Simulator::run_pausable`]) stops exactly where a fault armed at
    /// `at_ps` would fire, ahead of that fault if both are armed. Drains
    /// that cannot stop (`run_until_quiescent`, `run_until`, `settle`) and
    /// [`Simulator::fire_next_fault`] pass over it.
    pub(crate) fn pause_at(&mut self, at_ps: TimePs) {
        self.state.arm(at_ps, FaultOp::Pause);
        self.state.sort_armed();
    }

    /// Fault actions applied so far.
    pub fn faults_applied(&self) -> u64 {
        self.state.faults_applied
    }

    /// Applies the earliest pending fault action unconditionally, jumping
    /// the clock to its scheduled time. The testbench uses this so faults
    /// scheduled while the circuit idles still fire. Armed pauses ahead of
    /// it are passed over. Returns `false` when no action is pending.
    pub(crate) fn fire_next_fault(&mut self) -> bool {
        let s = &mut self.state;
        while let Some(&action) = s.actions.get(s.next_action) {
            s.next_action += 1;
            if !matches!(action.op, FaultOp::Pause) {
                s.apply_action(&self.compiled, action);
                return true;
            }
        }
        false
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
        let s = &mut self.state;
        let state = s.nets[net.index()];
        if state.forced.is_some() {
            // The fault wins while active; remember what the stimulus
            // wanted so a later release can re-assert it.
            s.nets[net.index()].masked_drive = value;
            return;
        }
        if state.effective() == value {
            return;
        }
        if state.has_pending {
            s.cancel_pending(net);
            if state.level == value {
                return;
            }
        }
        s.schedule(net, value, s.now + delay_ps.max(1));
    }

    /// Processes events until the queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimit`] if more than `limit` events fire —
    /// the signature of an oscillating circuit.
    pub fn run_until_quiescent(&mut self, limit: u64) -> Result<(), SimError> {
        let mut budget = limit;
        self.run(None, limit, &mut budget, false).map(drop)
    }

    /// Processes events with timestamps up to and including `t_end`, then
    /// advances the clock to `t_end`. Later events stay queued.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimit`] if more than `limit` events fire.
    pub fn run_until(&mut self, t_end: TimePs, limit: u64) -> Result<(), SimError> {
        let mut budget = limit;
        self.run(Some(t_end), limit, &mut budget, false).map(drop)
    }

    /// Processes events until the queue drains or an armed pause comes
    /// due ([`Simulator::pause_at`]). The drain may fire `budget` more
    /// events; a paused drain leaves what is left of it in `budget`, so
    /// resuming with it keeps `limit` counting across the pause. Returns
    /// the pause's time if the drain stopped at one.
    pub(crate) fn run_pausable(
        &mut self,
        limit: u64,
        budget: &mut u64,
    ) -> Result<Option<TimePs>, SimError> {
        self.run(None, limit, budget, true)
    }

    fn run(
        &mut self,
        t_end: Option<TimePs>,
        limit: u64,
        budget: &mut u64,
        pausable: bool,
    ) -> Result<Option<TimePs>, SimError> {
        let _span = qdi_obs::span::hot("sim.run");
        let start = self.state.events_processed;
        let result = self.drain(t_end, limit, budget, pausable);
        if let Some(t) = t_end {
            self.state.now = self.state.now.max(t);
        }
        self.finish_run(start, result.is_err());
        result
    }

    /// The shared event loop: pops events (up to `t_end` when bounded),
    /// commits levels and re-evaluates fanout gates. Armed fault actions
    /// are interleaved by time and win ties against events; they do not
    /// consume the event budget. An armed pause comes due exactly as a
    /// fault would; a `pausable` drain stops there and returns its time,
    /// any other drain passes over it.
    fn drain(
        &mut self,
        t_end: Option<TimePs>,
        limit: u64,
        budget: &mut u64,
        pausable: bool,
    ) -> Result<Option<TimePs>, SimError> {
        let c = &*self.compiled;
        let s = &mut self.state;
        loop {
            let next_event = s.queue.peek().map(|&Reverse(ev)| ev.time);
            let next_fault = s.actions.get(s.next_action).map(|a| a.at);
            let take_fault = match (next_fault, next_event) {
                (Some(a), Some(e)) => a <= e && t_end.is_none_or(|t| a <= t),
                // With no event due, a fault still fires inside a bounded
                // window; an unbounded run stays quiescent (the testbench
                // fires idle-time faults explicitly).
                (Some(a), None) => t_end.is_some_and(|t| a <= t),
                (None, _) => false,
            };
            if take_fault {
                let action = s.actions[s.next_action];
                s.next_action += 1;
                if pausable && matches!(action.op, FaultOp::Pause) {
                    return Ok(Some(action.at));
                }
                s.apply_action(c, action);
                continue;
            }
            let Some(&Reverse(ev)) = s.queue.peek() else {
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
            s.queue.pop();
            if !s.is_due(&ev) {
                continue; // stale (cancelled or superseded)
            }
            if *budget == 0 {
                return Err(s.budget_exhausted(&self.watchdog, limit));
            }
            *budget -= 1;
            s.events_processed += 1;
            s.now = s.now.max(ev.time);
            let net = &mut s.nets[ev.net.index()];
            net.has_pending = false;
            if net.level == ev.value {
                continue;
            }
            net.level = ev.value;
            s.log.push(Transition {
                time_ps: ev.time,
                net: ev.net,
                rising: ev.value,
            });
            s.evaluate_loads(c, ev.net);
        }
        Ok(None)
    }

    /// Per-run bookkeeping: global metrics plus one trace event (the
    /// event loop itself never touches the tracing runtime).
    fn finish_run(&mut self, start_events: u64, hit_limit: bool) {
        let s = &self.state;
        let processed = s.events_processed - start_events;
        if processed > 0 {
            self.events_metric.add(processed);
        }
        self.queue_metric.record_max(s.queue_high_water as i64);
        if hit_limit {
            qdi_obs::warn!(target: "qdi_sim::simulator",
                events = processed, now_ps = s.now,
                "event limit hit — circuit may oscillate");
        } else {
            qdi_obs::trace!(target: "qdi_sim::simulator",
                events = processed,
                queue_high_water = s.queue_high_water,
                now_ps = s.now,
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
            self.state.evaluate_gate(&self.compiled, gate.id);
        }
        self.run_until_quiescent(limit)?;
        self.clear_log();
        Ok(())
    }
}

impl State {
    /// `ev` is its net's authoritative pending event, not a cancelled or
    /// superseded one.
    fn is_due(&self, ev: &Event) -> bool {
        let net = self.nets[ev.net.index()];
        net.has_pending && net.pending_seq == ev.seq
    }

    fn arm(&mut self, at: TimePs, op: FaultOp) {
        self.actions.push(FaultAction { at, op });
    }

    /// Keeps the unfired suffix time-ordered; the stable sort preserves
    /// the push order of same-time actions (e.g. a force and its release).
    fn sort_armed(&mut self) {
        self.actions[self.next_action..].sort_by_key(|a| a.at);
    }

    fn apply_action(&mut self, c: &Compiled, action: FaultAction) {
        if let FaultOp::Pause = action.op {
            return; // not a fault: it moves nothing, not even the clock
        }
        self.now = self.now.max(action.at);
        self.faults_applied += 1;
        match action.op {
            FaultOp::Flip(net) => {
                let state = self.nets[net.index()];
                if state.forced.is_some() {
                    return; // a stuck-at dominates a transient
                }
                if state.has_pending {
                    self.cancel_pending(net);
                }
                self.commit_fault_level(c, net, !state.level);
                // The legitimate driver still computes from uncorrupted
                // inputs: a combinational node heals after one gate delay,
                // a state-holding node (Muller) keeps the corruption.
                if let Some(driver) = c.driver[net.index()] {
                    self.evaluate_gate(c, driver);
                }
            }
            FaultOp::Force(net, v) => {
                let state = self.nets[net.index()];
                if state.has_pending {
                    self.cancel_pending(net);
                }
                let slot = &mut self.nets[net.index()];
                slot.masked_drive = state.level;
                slot.forced = Some(v);
                if state.level != v {
                    self.commit_fault_level(c, net, v);
                }
            }
            FaultOp::Release(net) => {
                if self.nets[net.index()].forced.take().is_none() {
                    return;
                }
                if let Some(driver) = c.driver[net.index()] {
                    self.evaluate_gate(c, driver);
                } else {
                    // Undriven (primary input): re-assert whatever the
                    // stimulus last wanted while the force was active.
                    let state = self.nets[net.index()];
                    if state.masked_drive != state.effective() {
                        self.schedule(net, state.masked_drive, self.now + 1);
                    }
                }
            }
            FaultOp::SlowGate(gate, extra) => {
                match self.slowed.iter_mut().find(|(slowed, _)| *slowed == gate) {
                    Some((_, d)) => *d += extra,
                    None => self.slowed.push((gate, extra)),
                }
            }
            FaultOp::RestoreGate(gate, extra) => {
                if let Some((_, d)) = self.slowed.iter_mut().find(|(slowed, _)| *slowed == gate) {
                    *d = d.saturating_sub(extra);
                }
            }
            FaultOp::Drop(net) => {
                if self.nets[net.index()].has_pending {
                    self.cancel_pending(net);
                }
            }
            FaultOp::Pause => {}
        }
    }

    /// Commits a fault-driven level change: logs the edge like any other
    /// transition and lets the fanout see the corrupted value.
    fn commit_fault_level(&mut self, c: &Compiled, net: NetId, value: bool) {
        self.nets[net.index()].level = value;
        self.log.push(Transition {
            time_ps: self.now,
            net,
            rising: value,
        });
        self.evaluate_loads(c, net);
    }

    /// Re-evaluates every gate `net` feeds.
    fn evaluate_loads(&mut self, c: &Compiled, net: NetId) {
        for &load in c.loads(net) {
            self.evaluate_gate(c, load);
        }
    }

    fn schedule(&mut self, net: NetId, value: bool, at: TimePs) {
        self.seq += 1;
        let state = &mut self.nets[net.index()];
        state.pending_seq = self.seq;
        state.pending_value = value;
        state.has_pending = true;
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
        // Bump the seq so the queued event is recognised as stale.
        self.seq += 1;
        let state = &mut self.nets[net.index()];
        state.has_pending = false;
        state.pending_seq = self.seq;
    }

    fn evaluate_gate(&mut self, c: &Compiled, gate: GateId) {
        let g = &c.gates[gate.index()];
        let out = self.nets[g.output.index()];
        if out.forced.is_some() {
            return; // a stuck-at/glitch fault overpowers the gate's drive
        }
        let inputs = c.inputs(g).iter().map(|n| self.nets[n.index()].level);
        let newv = g.kind.eval(inputs, out.level);
        if newv == out.effective() {
            return;
        }
        if out.has_pending {
            // The pending change is contradicted by the new evaluation:
            // inertial behaviour cancels it.
            self.cancel_pending(g.output);
            if newv == out.level {
                return;
            }
        }
        let delay = g.delay + self.extra_delay(gate);
        self.schedule(g.output, newv, self.now + delay);
    }

    /// What active delay perturbations add to `gate`'s delay.
    fn extra_delay(&self, gate: GateId) -> TimePs {
        self.slowed
            .iter()
            .find(|&&(slowed, _)| slowed == gate)
            .map_or(0, |&(_, extra)| extra)
    }

    /// Classifies an exhausted event budget by fingerprinting the tail of
    /// the transition log: a small set of nets toggling many times each is
    /// a livelock (oscillation); anything else stays an `EventLimit`.
    fn budget_exhausted(&self, watchdog: &WatchdogConfig, limit: u64) -> SimError {
        let tail_len = watchdog.activity_tail.min(self.log.len());
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
            Some(&(_, toggles, first, last)) if toggles >= watchdog.livelock_toggles.max(2) => {
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
    fn the_delay_model_is_asked_once_per_gate_at_construction() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Counts its calls through a borrowed counter, so it is not
        /// `'static`.
        struct Counting<'c>(&'c AtomicUsize);
        impl DelayModel for Counting<'_> {
            fn delay_ps(&self, netlist: &Netlist, gate: GateId) -> TimePs {
                self.0.fetch_add(1, Ordering::Relaxed);
                LinearDelay::new().delay_ps(netlist, gate)
            }
        }
        let mut b = NetlistBuilder::new("chain");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let y = b.gate(GateKind::Muller, "y", &[a, c]);
        let n = b.gate(GateKind::Inv, "n", &[y]);
        let z = b.gate(GateKind::Nor, "z", &[n, a]);
        b.mark_output(z);
        let nl = b.finish().expect("valid");
        let (a, c) = (nl.find_net("a").expect("a"), nl.find_net("b").expect("b"));
        let calls = AtomicUsize::new(0);
        let mut sim = Simulator::new(&nl, Counting(&calls));
        assert_eq!(calls.load(Ordering::Relaxed), nl.gate_count());
        sim.settle(1000).expect("settle");
        sim.drive(a, true, 1);
        sim.drive(c, true, 1);
        sim.run_until_quiescent(1000).expect("run");
        let mut fork = sim.clone();
        fork.drive(a, false, 1);
        fork.run_until_quiescent(1000).expect("run");
        assert!(fork.transitions().len() > sim.transitions().len());
        assert_eq!(
            calls.load(Ordering::Relaxed),
            nl.gate_count(),
            "running and cloning must not ask the delay model again"
        );
        // The table holds what the model answers: the same log as the
        // model itself gives.
        let mut reference = Simulator::new(&nl, LinearDelay::new());
        reference.settle(1000).expect("settle");
        reference.drive(a, true, 1);
        reference.drive(c, true, 1);
        reference.run_until_quiescent(1000).expect("run");
        assert_eq!(reference.transitions(), sim.transitions());
    }

    #[test]
    #[should_panic(expected = "primary inputs")]
    fn drive_rejects_internal_net() {
        let nl = and_netlist();
        let y = nl.find_net("y").expect("y");
        let mut sim = Simulator::new(&nl, ConstantDelay::new(5));
        sim.drive(y, true, 1);
    }
}
