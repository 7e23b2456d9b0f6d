//! The formal current model of the paper's Section III, and DPA applied to
//! it (Section IV).
//!
//! From the annotated directed graph the model derives, for any input
//! assignment, the set of gates that fire during the evaluation phase, an
//! analytic firing schedule in which each gate contributes its
//! capacitance-dependent transition time `Δt = k·R·C`, and the resulting
//! current profile `Pdc(t) = Σ_i Σ_j I_ij(t)` (eq. 5). Averaging profiles
//! over the two DPA classes and differencing yields the closed-form bias
//! signature of eq. 12 — the analytic counterpart of what `qdi-sim` +
//! `qdi-analog` measure by simulation, compared head to head by the E2
//! test in `tests/paper_claims.rs`.

use std::collections::HashMap;

use qdi_analog::{Pulse, SynthConfig, Trace};
use qdi_netlist::graph::{self, LevelAnalysis};
use qdi_netlist::{ChannelRole, GateId, NetId, Netlist, NetlistError};

/// The formal model over a borrowed netlist.
#[derive(Debug)]
pub struct CurrentModel<'a> {
    netlist: &'a Netlist,
    levels: LevelAnalysis,
    cfg: SynthConfig,
}

impl<'a> CurrentModel<'a> {
    /// Builds the model (levelizes the data path).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the data path is
    /// cyclic.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        Ok(CurrentModel {
            netlist,
            levels: graph::levelize(netlist)?,
            cfg: SynthConfig::new(),
        })
    }

    /// Replaces the electrical configuration (defaults to
    /// [`SynthConfig::new`], matching the simulator's calibration).
    pub fn with_config(mut self, cfg: SynthConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The level analysis (`Nc` etc.) backing the model.
    pub fn levels(&self) -> &LevelAnalysis {
        &self.levels
    }

    /// The transition time `Δt` of a gate: `k·R·C` in ps with
    /// `C = Cl + Cpar + Csc` — "this time depends on the value of C"
    /// (Section IV).
    pub fn delta_t_ps(&self, gate: GateId) -> f64 {
        let c = self.netlist.switched_cap_ff(gate);
        let r = self.netlist.gate(gate).params.drive_res_kohm;
        (self.cfg.dt_k * r * c).max(1.0)
    }

    /// Evaluates the end-of-evaluation-phase value of every net for the
    /// given primary-input assignment (nets absent from `pi_values`
    /// default to 1 for output-channel acknowledges — the receiver is
    /// ready — and 0 otherwise). Starting from the all-zero reset state,
    /// a monotone QDI data path fires exactly the gates whose output ends
    /// at 1.
    pub fn eval_values(&self, pi_values: &HashMap<NetId, bool>) -> Vec<bool> {
        let mut values = vec![false; self.netlist.net_count()];
        for net in self.netlist.nets() {
            if net.is_primary_input {
                let default = self.is_output_ack(net.id);
                values[net.id.index()] = pi_values.get(&net.id).copied().unwrap_or(default);
            }
        }
        for (_, gates) in self.levels.iter() {
            for &g in gates {
                let gate = self.netlist.gate(g);
                values[gate.output.index()] = gate
                    .kind
                    .eval(gate.inputs.iter().map(|&n| values[n.index()]), false);
            }
        }
        values
    }

    fn is_output_ack(&self, net: NetId) -> bool {
        self.netlist
            .channels()
            .any(|c| c.ack == Some(net) && c.role == ChannelRole::Output)
    }

    /// Gates whose output toggles during the evaluation phase for the
    /// given assignment (output ends high, plus completion-style gates
    /// whose idle-high output falls).
    pub fn firing_gates(&self, pi_values: &HashMap<NetId, bool>) -> Vec<GateId> {
        let values = self.eval_values(pi_values);
        let idle = self.eval_values(&HashMap::new());
        self.netlist
            .gates()
            .filter(|g| values[g.output.index()] != idle[g.output.index()])
            .map(|g| g.id)
            .collect()
    }

    /// Analytic firing schedule: each firing gate starts once its latest
    /// firing predecessor has completed its `Δt`. Non-firing predecessors
    /// contribute time 0 (their values are already stable).
    pub fn schedule(&self, firing: &[GateId]) -> Vec<(GateId, f64)> {
        let firing_set: Vec<bool> = {
            let mut v = vec![false; self.netlist.gate_count()];
            for &g in firing {
                v[g.index()] = true;
            }
            v
        };
        let mut done_at: HashMap<GateId, f64> = HashMap::new();
        let mut out = Vec::with_capacity(firing.len());
        for (_, gates) in self.levels.iter() {
            for &g in gates {
                if !firing_set[g.index()] {
                    continue;
                }
                let gate = self.netlist.gate(g);
                let start = gate
                    .inputs
                    .iter()
                    .filter_map(|&n| self.netlist.net(n).driver)
                    .filter_map(|d| done_at.get(&d).copied())
                    .fold(0.0f64, f64::max);
                done_at.insert(g, start + self.delta_t_ps(g));
                out.push((g, start));
            }
        }
        out
    }

    /// The predicted current profile of one computation (eq. 5): the
    /// superposition of the scheduled gates' pulses, each of charge
    /// `C·Vdd` over its `Δt`.
    pub fn predicted_trace(&self, firing: &[GateId]) -> Trace {
        let mut trace = Trace::zeros(0, self.cfg.dt_ps, 1);
        for (g, start) in self.schedule(firing) {
            let c = self.netlist.switched_cap_ff(g);
            trace.add_pulse(
                Pulse {
                    t0_ps: start.round() as u64,
                    charge_fc: c * self.cfg.vdd_v,
                    dur_ps: self.delta_t_ps(g).round() as u64,
                },
                self.cfg.shape,
            );
        }
        trace
    }

    /// DPA applied to the model (eqs. 10–12): averages the predicted
    /// profiles of each class of firing sets and returns the difference
    /// `T = A0 − A1` — the analytic bias signature.
    ///
    /// # Panics
    ///
    /// Panics if either class is empty.
    pub fn predicted_bias(&self, class0: &[Vec<GateId>], class1: &[Vec<GateId>]) -> Trace {
        assert!(
            !class0.is_empty() && !class1.is_empty(),
            "both DPA classes need members"
        );
        let avg = |class: &[Vec<GateId>]| {
            let traces: Vec<Trace> = class.iter().map(|f| self.predicted_trace(f)).collect();
            Trace::average(&traces)
        };
        Trace::difference(&avg(class0), &avg(class1))
    }

    /// Convenience for the paper's running example: the analytic
    /// electrical signature `S(t)` of a dual-rail XOR cell built by
    /// [`qdi_netlist::cells::dual_rail_xor`] under prefix `cell`, with
    /// classes split on the output value exactly as in eqs. 10–11:
    /// `A0` averages the `(0,0)`/`(1,1)` input pairs (through `m1`/`m2`,
    /// `o1`, `h1`), `A1` the `(0,1)`/`(1,0)` pairs (through `m4`/`m3`,
    /// `o2`, `h2`); the completion gate `n1` fires in both classes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotFound`] if the cell's gates are missing.
    pub fn xor_gate_signature(&self, cell: &str) -> Result<Trace, NetlistError> {
        let gate = |suffix: &str| -> Result<GateId, NetlistError> {
            let name = format!("{cell}.{suffix}");
            self.netlist
                .find_gate(&name)
                .ok_or(NetlistError::NotFound { name })
        };
        let (m1, m2, m3, m4) = (gate("m1")?, gate("m2")?, gate("m3")?, gate("m4")?);
        let (o1, o2) = (gate("o1")?, gate("o2")?);
        let (h1, h2) = (gate("h1")?, gate("h2")?);
        let n1 = gate("n1")?;
        let class0 = vec![vec![m1, o1, h1, n1], vec![m2, o1, h1, n1]];
        let class1 = vec![vec![m3, o2, h2, n1], vec![m4, o2, h2, n1]];
        Ok(self.predicted_bias(&class0, &class1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_netlist::{cells, Channel, NetlistBuilder};

    fn xor_netlist() -> (Netlist, Channel, Channel) {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
        (b.finish().expect("valid"), a, bb)
    }

    fn xor_assignment(
        nl: &Netlist,
        a: &Channel,
        bb: &Channel,
        av: usize,
        bv: usize,
    ) -> HashMap<NetId, bool> {
        let _ = nl;
        let mut m = HashMap::new();
        for v in 0..2 {
            m.insert(a.rail(v), v == av);
            m.insert(bb.rail(v), v == bv);
        }
        m
    }

    #[test]
    fn firing_set_matches_paper_nt() {
        // Nt = 4: one C-element, one OR, one latch, plus the completion NOR.
        let (nl, a, bb) = xor_netlist();
        let model = CurrentModel::new(&nl).expect("acyclic");
        for (av, bv) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let firing = model.firing_gates(&xor_assignment(&nl, &a, &bb, av, bv));
            assert_eq!(firing.len(), 4, "({av},{bv}) fired {firing:?}");
        }
    }

    #[test]
    fn firing_set_selects_correct_minterm() {
        let (nl, a, bb) = xor_netlist();
        let model = CurrentModel::new(&nl).expect("acyclic");
        let firing = model.firing_gates(&xor_assignment(&nl, &a, &bb, 1, 1));
        let m2 = nl.find_gate("x.m2").expect("m2");
        let h1 = nl.find_gate("x.h1").expect("h1");
        assert!(firing.contains(&m2), "C(a1,b1) fires for (1,1)");
        assert!(firing.contains(&h1), "co0 rail latches for output 0");
    }

    #[test]
    fn schedule_orders_levels() {
        let (nl, a, bb) = xor_netlist();
        let model = CurrentModel::new(&nl).expect("acyclic");
        let firing = model.firing_gates(&xor_assignment(&nl, &a, &bb, 0, 1));
        let schedule = model.schedule(&firing);
        assert_eq!(schedule.len(), 4);
        let time_of = |suffix: &str| {
            let g = nl.find_gate(&format!("x.{suffix}")).expect("gate");
            schedule
                .iter()
                .find(|(id, _)| *id == g)
                .expect("scheduled")
                .1
        };
        assert!(time_of("o2") > time_of("m4"));
        assert!(time_of("h2") > time_of("o2"));
        assert!(time_of("n1") > time_of("h2"));
    }

    #[test]
    fn balanced_xor_signature_is_zero() {
        // With all capacitances at the default Cd the analytic signature
        // vanishes exactly — the ideal Fig. 6 (no parasitic mismatch in
        // the model's symmetric default parameters).
        let (nl, _, _) = xor_netlist();
        let model = CurrentModel::new(&nl).expect("acyclic");
        let sig = model.xor_gate_signature("x").expect("cell found");
        assert!(sig.abs_peak().expect("nonempty").1.abs() < 1e-9);
    }

    #[test]
    fn unbalanced_late_cap_gives_late_peak() {
        // Fig. 7a: enlarging a level-3 net produces a signature peak at
        // the *end* of the evaluation phase.
        let (mut nl, _, _) = xor_netlist();
        let h1 = nl.find_net("x.h1").expect("net");
        nl.set_routing_cap(h1, 16.0);
        let model = CurrentModel::new(&nl).expect("acyclic");
        let sig = model.xor_gate_signature("x").expect("cell found");
        let (t_peak, v) = sig.abs_peak().expect("nonempty");
        assert!(v.abs() > 0.01);
        // Levels 1 and 2 take ~2 gate delays (~150 ps); the peak must sit
        // after them.
        assert!(t_peak > 100, "peak at {t_peak} ps");
    }

    #[test]
    fn unbalanced_early_cap_shifts_downstream() {
        // Fig. 7b: a mid-path (level 2) imbalance shifts everything after
        // it, producing a wider disturbed region than a late imbalance.
        let (mut nl, _, _) = xor_netlist();
        let o1 = nl.find_net("x.o1").expect("net");
        nl.set_routing_cap(o1, 16.0);
        let model = CurrentModel::new(&nl).expect("acyclic");
        let mid = model.xor_gate_signature("x").expect("cell found");
        nl.set_routing_cap(o1, qdi_netlist::Net::DEFAULT_ROUTING_CAP_FF);
        let h1 = nl.find_net("x.h1").expect("net");
        nl.set_routing_cap(h1, 16.0);
        let model = CurrentModel::new(&nl).expect("acyclic");
        let late = model.xor_gate_signature("x").expect("cell found");
        assert!(
            mid.abs_area_fc() > late.abs_area_fc(),
            "mid-path imbalance must disturb more: {} vs {}",
            mid.abs_area_fc(),
            late.abs_area_fc()
        );
    }

    #[test]
    fn bigger_imbalance_bigger_signature() {
        // Fig. 7c vs 7d: doubling the capacitance difference grows the
        // signature.
        let (mut nl, _, _) = xor_netlist();
        let m1 = nl.find_net("x.m1").expect("net");
        nl.set_routing_cap(m1, 16.0);
        let small = CurrentModel::new(&nl)
            .expect("acyclic")
            .xor_gate_signature("x")
            .expect("cell");
        nl.set_routing_cap(m1, 32.0);
        let big = CurrentModel::new(&nl)
            .expect("acyclic")
            .xor_gate_signature("x")
            .expect("cell");
        assert!(big.abs_area_fc() > small.abs_area_fc());
    }

    #[test]
    fn delta_t_grows_with_capacitance() {
        let (mut nl, _, _) = xor_netlist();
        let m1g = nl.find_gate("x.m1").expect("gate");
        let before = CurrentModel::new(&nl).expect("ok").delta_t_ps(m1g);
        let m1 = nl.find_net("x.m1").expect("net");
        nl.set_routing_cap(m1, 64.0);
        let after = CurrentModel::new(&nl).expect("ok").delta_t_ps(m1g);
        assert!(after > before);
    }
}
