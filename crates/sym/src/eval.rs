//! Symbolic propagation of per-net activity through one four-phase cycle.
//!
//! The evaluator models the handshake cycle the way the paper's Section
//! III counts transitions: starting from the all-low reset/idle state,
//! the environment presents one 1-of-N codeword per input channel, the
//! monotone data path settles (evaluation phase), and the return-to-zero
//! phase undoes every transition. A net therefore contributes exactly two
//! transitions to the cycle iff its settled evaluation-phase level
//! differs from its idle level — so "how many transitions?" reduces to
//! "which nets change level?", a boolean function of the input data that
//! [`SymBool`] captures exactly.
//!
//! Acknowledge nets are pinned at their data-phase level (1, consumer
//! ready — they lag the data wavefront by construction of the four-phase
//! protocol) and their own deterministic toggling is not counted, exactly
//! like every other data-path analysis in this workspace cuts them.

use std::collections::HashSet;

use qdi_netlist::graph::{self, LevelAnalysis};
use qdi_netlist::symbolic::SymBool;
use qdi_netlist::{ChannelRole, GateId, NetId, Netlist, NetlistError};

use crate::SymConfig;

/// Symbolic activity of one gate over one four-phase cycle.
#[derive(Debug, Clone)]
pub struct GateActivity {
    /// Settled output level in the idle (all channels invalid) state.
    pub idle: bool,
    /// Output level at the end of the evaluation phase, as a function of
    /// the input data.
    pub eval: SymBool,
    /// Whether the gate output toggles during the cycle: `eval != idle`.
    pub switches: SymBool,
    /// `true` when the descriptor is unreliable: the joint assignment
    /// space of the fan-in cone exceeded the analysis budget.
    pub unknown: bool,
}

impl GateActivity {
    fn quiescent() -> GateActivity {
        GateActivity {
            idle: false,
            eval: SymBool::Const(false),
            switches: SymBool::Const(false),
            unknown: false,
        }
    }
}

/// The result of symbolically evaluating a netlist: levelization plus a
/// [`GateActivity`] per gate and a switch descriptor per net.
#[derive(Debug, Clone)]
pub struct SymEvaluation {
    levels: LevelAnalysis,
    gates: Vec<GateActivity>,
    net_idle: Vec<bool>,
    net_eval: Vec<SymBool>,
    net_known: Vec<bool>,
}

impl SymEvaluation {
    /// The levelized data path the evaluation ran over.
    #[must_use]
    pub fn levels(&self) -> &LevelAnalysis {
        &self.levels
    }

    /// Activity descriptor of `gate`.
    #[must_use]
    pub fn gate(&self, gate: GateId) -> &GateActivity {
        &self.gates[gate.index()]
    }

    /// Whether `net` toggles during one cycle, as a function of the input
    /// data, with a reliability flag (`false` = budget exceeded in the
    /// cone, the descriptor is not a proof).
    #[must_use]
    pub fn net_switches(&self, net: NetId) -> (SymBool, bool) {
        let idx = net.index();
        (
            self.net_eval[idx].xor_const(self.net_idle[idx]),
            self.net_known[idx],
        )
    }
}

/// Runs the symbolic evaluation over the levelized data path.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] when the data path cannot
/// be levelized; every other malformation (undriven nets, empty gates,
/// broken channels) degrades to quiescent descriptors instead of failing.
pub fn evaluate(netlist: &Netlist, cfg: &SymConfig) -> Result<SymEvaluation, NetlistError> {
    let levels = graph::levelize(netlist)?;
    let acks: HashSet<NetId> = netlist.channels().filter_map(|c| c.ack).collect();
    let arity_of = |c| netlist.channel(c).arity().max(1);

    let n_nets = netlist.net_count();
    let mut net_idle = vec![false; n_nets];
    let mut net_eval = vec![SymBool::Const(false); n_nets];
    let mut net_known = vec![true; n_nets];

    // Acknowledge nets hold the consumer-ready level for the whole data
    // phase; their deterministic toggling is not part of the data path.
    for &ack in &acks {
        net_idle[ack.index()] = true;
        net_eval[ack.index()] = SymBool::Const(true);
    }

    // Input-channel rails: rail i fires exactly when the channel carries
    // value i. Rails that something drives (malformed input channels from
    // `finish_unchecked`) are left to their driver.
    for channel in netlist.channels() {
        if channel.role != ChannelRole::Input {
            continue;
        }
        let arity = channel.arity();
        for (i, &rail) in channel.rails.iter().enumerate() {
            let idx = rail.index();
            if idx >= n_nets || netlist.net(rail).driver.is_some() || acks.contains(&rail) {
                continue;
            }
            net_idle[idx] = false;
            net_eval[idx] = SymBool::rail(channel.id, arity, i);
        }
    }

    let mut gates = vec![GateActivity::quiescent(); netlist.gate_count()];
    for (_level, level_gates) in levels.iter() {
        for &gid in level_gates {
            let gate = netlist.gate(gid);
            if gate.inputs.is_empty() {
                // `finish_unchecked` escape hatch: a gate with no inputs
                // never fires in this model.
                continue;
            }
            let idle = gate.kind.eval(
                gate.inputs
                    .iter()
                    .map(|&n| net_idle.get(n.index()).copied().unwrap_or(false)),
                false,
            );
            let unknown_in = gate
                .inputs
                .iter()
                .any(|&n| !net_known.get(n.index()).copied().unwrap_or(true));
            let input_evals: Vec<SymBool> = gate
                .inputs
                .iter()
                .map(|&n| {
                    net_eval
                        .get(n.index())
                        .cloned()
                        .unwrap_or(SymBool::Const(false))
                })
                .collect();
            let eval = if unknown_in {
                None
            } else {
                SymBool::apply(&input_evals, &arity_of, cfg.budget, |vals| {
                    gate.kind.eval(vals.iter().copied(), idle)
                })
            };
            let (eval, unknown) = match eval {
                Some(e) => (e, false),
                None => (SymBool::Const(idle), true),
            };
            let switches = eval.xor_const(idle);
            let out = gate.output.index();
            if out < n_nets && !acks.contains(&gate.output) {
                net_idle[out] = idle;
                net_eval[out] = eval.clone();
                net_known[out] = !unknown;
            }
            gates[gid.index()] = GateActivity {
                idle,
                eval,
                switches,
                unknown,
            };
        }
    }

    Ok(SymEvaluation {
        levels,
        gates,
        net_idle,
        net_eval,
        net_known,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_netlist::{cells, NetlistBuilder};

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
        b.finish().expect("valid")
    }

    #[test]
    fn xor_minterms_fire_one_hot() {
        let nl = xor_netlist();
        let eval = evaluate(&nl, &SymConfig::default()).expect("acyclic");
        let a = nl.find_channel("a").expect("a");
        let bb = nl.find_channel("b").expect("b");
        let arity = |c| nl.channel(c).arity();
        // m1 = C(a0, b0) fires exactly for (a, b) = (0, 0).
        let m1 = nl.find_gate("x.m1").expect("m1");
        for (av, bv) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let fires = eval
                .gate(m1)
                .switches
                .eval(&arity, &|c| if c == a { av } else { bv });
            assert_eq!(fires, av == 0 && bv == 0, "({av},{bv})");
        }
        let _ = bb;
    }

    #[test]
    fn completion_is_deterministic() {
        let nl = xor_netlist();
        let eval = evaluate(&nl, &SymConfig::default()).expect("acyclic");
        let n1 = nl.find_gate("x.n1").expect("n1");
        let act = eval.gate(n1);
        // NOR completion: idle 1 (all rails low), falls on every codeword.
        assert!(act.idle);
        assert_eq!(act.switches, SymBool::Const(true));
        assert!(!act.unknown);
    }

    #[test]
    fn latch_rails_depend_on_data() {
        let nl = xor_netlist();
        let eval = evaluate(&nl, &SymConfig::default()).expect("acyclic");
        let h1 = nl.find_net("x.h1").expect("h1 net");
        let (switches, known) = eval.net_switches(h1);
        assert!(known);
        assert!(!switches.is_const(), "rail firing must be data dependent");
    }

    #[test]
    fn tiny_budget_marks_gates_unknown() {
        let nl = xor_netlist();
        let cfg = SymConfig {
            budget: 1,
            ..SymConfig::default()
        };
        let eval = evaluate(&nl, &cfg).expect("acyclic");
        let m1 = nl.find_gate("x.m1").expect("m1");
        assert!(eval.gate(m1).unknown);
    }
}
