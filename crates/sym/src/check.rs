//! Per-level balance checks and the witness search.
//!
//! From the per-gate activity descriptors of [`crate::eval`], this module
//! derives the paper's per-level quantities symbolically:
//!
//! * `N_ij` — the number of gates switching at level `i` (eq. of Section
//!   III) — must be the same for every input codeword;
//! * `A_i` — the capacitance-weighted activity of level `i` (eqs. 10–12)
//!   — must be the same for every input codeword **at nominal
//!   capacitances** (default routing load `Cd`, library pin/parasitic
//!   values), so any residual is attributable to logic structure alone.
//!
//! When a level fails a check, the symbolic difference is searched
//! exhaustively over the connected support component for the input pair
//! that maximizes the imbalance, and the pair is attached as a
//! [`WitnessPair`] replayable in `qdi-sim`.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use qdi_netlist::symbolic::{AssignmentSpace, SymBool};
use qdi_netlist::{
    ChannelId, ChannelValue, Gate, GateId, GateParams, Net, NetId, Netlist, NetlistError,
    WitnessPair,
};

use crate::eval::{evaluate, SymEvaluation};
use crate::SymConfig;

/// A level whose transition count depends on the input data (`QDI0201`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountFinding {
    /// 1-based logic level.
    pub level: usize,
    /// Minimum gates switching at this level over all inputs.
    pub min: usize,
    /// Maximum gates switching at this level over all inputs.
    pub max: usize,
    /// The data-dependent gates of the offending cone, in id order.
    pub gates: Vec<GateId>,
    /// The input channels the cone depends on.
    pub channels: Vec<ChannelId>,
    /// Input pair exhibiting `min` vs `max`.
    pub witness: WitnessPair,
}

/// A level whose nominal capacitance-weighted activity depends on the
/// input data even though its transition count does not (`QDI0202`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapFinding {
    /// 1-based logic level.
    pub level: usize,
    /// Minimum nominal switched capacitance (fF) over all inputs.
    pub min_ff: f64,
    /// Maximum nominal switched capacitance (fF) over all inputs.
    pub max_ff: f64,
    /// The data-dependent gates of the offending cone, in id order.
    pub gates: Vec<GateId>,
    /// The input channels the cone depends on.
    pub channels: Vec<ChannelId>,
    /// Input pair exhibiting the extreme activities.
    pub witness: WitnessPair,
}

/// A channel rail the evaluator proves constant (`QDI0203`): it either
/// never fires (dead — the channel can never carry that value) or fires
/// on every cycle (stuck — sibling codewords become illegal).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RailFinding {
    /// The owning channel.
    pub channel: ChannelId,
    /// The constant rail.
    pub rail: NetId,
    /// `true` = fires on every input, `false` = never fires.
    pub always: bool,
}

/// The verdict of the symbolic verifier over one netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymReport {
    /// Name of the analyzed netlist.
    pub netlist: String,
    /// Number of logic levels (`Nc`).
    pub nc: usize,
    /// Gates covered by the analysis.
    pub analyzed_gates: usize,
    /// Levels with data-dependent transition counts.
    pub count_findings: Vec<CountFinding>,
    /// Levels with logic-induced activity imbalance (counts constant,
    /// nominal weighted activity not).
    pub cap_findings: Vec<CapFinding>,
    /// Rails proved constant.
    pub rail_findings: Vec<RailFinding>,
    /// Levels the analysis could not decide within the budget — *not*
    /// proved balanced.
    pub unproven_levels: Vec<usize>,
}

impl SymReport {
    /// `true` when every level is proved balanced: no count or activity
    /// finding and nothing left undecided. Rail findings do not affect
    /// this (a dead rail is a separate defect).
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        self.count_findings.is_empty()
            && self.cap_findings.is_empty()
            && self.unproven_levels.is_empty()
    }

    /// All witnesses carried by the findings, count findings first.
    #[must_use]
    pub fn witnesses(&self) -> Vec<&WitnessPair> {
        self.count_findings
            .iter()
            .map(|f| &f.witness)
            .chain(self.cap_findings.iter().map(|f| &f.witness))
            .collect()
    }
}

/// The *nominal* (pre-layout) switched capacitance of a gate: library
/// self-capacitance plus the default routing load `Cd` plus library pin
/// loads of the fanout — deliberately ignoring annotated/extracted
/// capacitances, so a data-dependence in the weighted activity can only
/// come from logic structure (which gates switch), never from layout.
#[must_use]
pub fn nominal_switched_cap_ff(netlist: &Netlist, gate: &Gate) -> f64 {
    let pin_loads: f64 = netlist
        .net(gate.output)
        .loads
        .iter()
        .map(|&l| {
            let load = netlist.gate(l);
            GateParams::for_kind(load.kind, load.arity().max(1)).pin_cap_ff
        })
        .sum();
    Net::DEFAULT_ROUTING_CAP_FF
        + pin_loads
        + GateParams::for_kind(gate.kind, gate.arity().max(1)).self_cap_ff()
}

/// Runs the full symbolic analysis: evaluation, per-level checks, witness
/// search and constant-rail detection.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] when the data path cannot
/// be levelized (the structural lints cover that case).
pub fn analyze(netlist: &Netlist, cfg: &SymConfig) -> Result<SymReport, NetlistError> {
    let mut span = qdi_obs::span_at(qdi_obs::Level::Debug, "qdi_sym", "analyze")
        .attr("netlist", netlist.name())
        .attr("gates", netlist.gate_count());
    let eval = evaluate(netlist, cfg)?;
    let mut report = SymReport {
        netlist: netlist.name().to_string(),
        nc: eval.levels().nc(),
        analyzed_gates: eval.levels().gate_count(),
        count_findings: Vec::new(),
        cap_findings: Vec::new(),
        rail_findings: Vec::new(),
        unproven_levels: Vec::new(),
    };
    for (level, gates) in eval.levels().iter() {
        check_level(netlist, cfg, &eval, level, gates, &mut report);
    }
    check_rails(netlist, &eval, &mut report);
    span.set_attr("balanced", report.is_balanced());
    span.set_attr(
        "findings",
        report.count_findings.len() + report.cap_findings.len() + report.rail_findings.len(),
    );
    Ok(report)
}

/// One data-dependent gate at a level, with its nominal weight.
struct VarGate {
    id: GateId,
    switches: SymBool,
    weight_ff: f64,
}

fn check_level(
    netlist: &Netlist,
    cfg: &SymConfig,
    eval: &SymEvaluation,
    level: usize,
    gates: &[GateId],
    report: &mut SymReport,
) {
    let mut unknown = false;
    let mut var: Vec<VarGate> = Vec::new();
    for &gid in gates {
        let act = eval.gate(gid);
        if act.unknown {
            unknown = true;
            continue;
        }
        if act.switches.is_const() {
            continue; // deterministic: contributes the same to every input
        }
        var.push(VarGate {
            id: gid,
            switches: act.switches.clone(),
            weight_ff: nominal_switched_cap_ff(netlist, netlist.gate(gid)),
        });
    }
    if unknown {
        report.unproven_levels.push(level);
        return;
    }
    if var.is_empty() {
        return;
    }
    // Partition the data-dependent gates into support-connected
    // components: gates over disjoint channel sets cannot compensate each
    // other, so each component is checked (and witnessed) independently.
    for component in components(&var) {
        check_component(netlist, cfg, level, &component, report);
    }
}

/// Groups gates by connected support components (union-find on channels).
fn components(var: &[VarGate]) -> Vec<Vec<&VarGate>> {
    let mut parent: Vec<usize> = (0..var.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut owner: HashMap<ChannelId, usize> = HashMap::new();
    for (i, g) in var.iter().enumerate() {
        for &ch in g.switches.support() {
            match owner.get(&ch) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                }
                None => {
                    owner.insert(ch, i);
                }
            }
        }
    }
    let mut buckets: HashMap<usize, Vec<&VarGate>> = HashMap::new();
    for (i, g) in var.iter().enumerate() {
        let root = find(&mut parent, i);
        buckets.entry(root).or_default().push(g);
    }
    let mut out: Vec<Vec<&VarGate>> = buckets.into_values().collect();
    out.sort_by_key(|c| c.first().map(|g| g.id).unwrap_or(GateId::from_raw(0)));
    out
}

fn check_component(
    netlist: &Netlist,
    cfg: &SymConfig,
    level: usize,
    component: &[&VarGate],
    report: &mut SymReport,
) {
    let mut channels: Vec<ChannelId> = component
        .iter()
        .flat_map(|g| g.switches.support().iter().copied())
        .collect();
    channels.sort();
    channels.dedup();
    let space = AssignmentSpace::over(netlist, &channels);
    let size = match space.size() {
        Some(n) if n <= cfg.budget => n,
        _ => {
            report.unproven_levels.push(level);
            return;
        }
    };
    let arity_of = |c| netlist.channel(c).arity().max(1);
    let mut best: Option<Extremes> = None;
    for index in 0..size {
        let values = space.decode(index);
        let lookup = |ch: ChannelId| space.value_of(&values, ch).unwrap_or(0);
        let mut count = 0usize;
        let mut cap = 0.0f64;
        for g in component {
            if g.switches.eval(&arity_of, &lookup) {
                count += 1;
                cap += g.weight_ff;
            }
        }
        best = Some(match best.take() {
            None => Extremes::seed(index, count, cap),
            Some(b) => b.absorb(index, count, cap),
        });
    }
    let Some(ext) = best else { return };
    let gate_ids: Vec<GateId> = component.iter().map(|g| g.id).collect();
    if ext.max_count > ext.min_count {
        let witness = make_witness(
            netlist,
            &space,
            ext.min_count_at,
            ext.max_count_at,
            format!("transitions at level {level}"),
            (ext.max_count - ext.min_count) as f64,
        );
        report.count_findings.push(CountFinding {
            level,
            min: ext.min_count,
            max: ext.max_count,
            gates: gate_ids,
            channels,
            witness,
        });
    } else if ext.max_cap - ext.min_cap > cfg.cap_tol_ff {
        let witness = make_witness(
            netlist,
            &space,
            ext.min_cap_at,
            ext.max_cap_at,
            format!("nominal switched capacitance (fF) at level {level}"),
            ext.max_cap - ext.min_cap,
        );
        report.cap_findings.push(CapFinding {
            level,
            min_ff: ext.min_cap,
            max_ff: ext.max_cap,
            gates: gate_ids,
            channels,
            witness,
        });
    }
}

/// Running extremes of the per-assignment count and weighted activity.
struct Extremes {
    min_count: usize,
    min_count_at: usize,
    max_count: usize,
    max_count_at: usize,
    min_cap: f64,
    min_cap_at: usize,
    max_cap: f64,
    max_cap_at: usize,
}

impl Extremes {
    fn seed(index: usize, count: usize, cap: f64) -> Extremes {
        Extremes {
            min_count: count,
            min_count_at: index,
            max_count: count,
            max_count_at: index,
            min_cap: cap,
            min_cap_at: index,
            max_cap: cap,
            max_cap_at: index,
        }
    }

    fn absorb(mut self, index: usize, count: usize, cap: f64) -> Extremes {
        if count < self.min_count {
            self.min_count = count;
            self.min_count_at = index;
        }
        if count > self.max_count {
            self.max_count = count;
            self.max_count_at = index;
        }
        if cap < self.min_cap {
            self.min_cap = cap;
            self.min_cap_at = index;
        }
        if cap > self.max_cap {
            self.max_cap = cap;
            self.max_cap_at = index;
        }
        self
    }
}

fn make_witness(
    netlist: &Netlist,
    space: &AssignmentSpace,
    lo_index: usize,
    hi_index: usize,
    metric: String,
    delta: f64,
) -> WitnessPair {
    let side = |index: usize| {
        let values = space.decode(index);
        space
            .channels
            .iter()
            .zip(&values)
            .map(|(&ch, &value)| ChannelValue {
                channel: netlist.channel(ch).name.clone(),
                value,
            })
            .collect::<Vec<_>>()
    };
    WitnessPair {
        lo: side(lo_index),
        hi: side(hi_index),
        metric,
        delta,
    }
}

/// `QDI0203`: rails the evaluator proves constant.
fn check_rails(netlist: &Netlist, eval: &SymEvaluation, report: &mut SymReport) {
    for channel in netlist.channels() {
        for &rail in &channel.rails {
            if rail.index() >= netlist.net_count() {
                continue;
            }
            let (switches, known) = eval.net_switches(rail);
            if !known {
                continue;
            }
            match switches.as_const() {
                Some(false) => report.rail_findings.push(RailFinding {
                    channel: channel.id,
                    rail,
                    always: false,
                }),
                Some(true) if channel.arity() >= 2 => report.rail_findings.push(RailFinding {
                    channel: channel.id,
                    rail,
                    always: true,
                }),
                _ => {}
            }
        }
    }
}
