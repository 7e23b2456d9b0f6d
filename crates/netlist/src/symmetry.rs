//! Formal verification of dual-rail data-path symmetry.
//!
//! The paper's graph representation "offers the opportunity to formally
//! verify the logical symmetry of the data-path" (Section III). This module
//! implements that check: for every 1-of-N channel, the transitive fan-in
//! cones of all rails are compared level by level. Two rails are *logically
//! balanced* when, at every depth behind the rail, they see the same
//! multiset of gate kinds and arities — which guarantees the same number
//! and kind of transitions per computation regardless of the data value.
//!
//! After place-and-route the same cones can be compared *electrically*
//! ([`capacitance_skew`]): logical balance with electrical imbalance is
//! exactly the residual leakage the paper attacks.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{Channel, ChannelId, GateId, NetId, Netlist};

/// A structural signature of one rail's fan-in cone: per relative depth,
/// the sorted multiset of `(kind mnemonic, arity)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConeSignature {
    per_depth: Vec<Vec<(String, usize)>>,
    gate_count: usize,
}

impl ConeSignature {
    /// Computes the signature of the cone driving `net`.
    ///
    /// Depth 0 is the driver of `net` itself; the walk stops at primary
    /// inputs and at channel acknowledge nets (handshake edges do not
    /// belong to the data path).
    pub fn of_net(netlist: &Netlist, net: NetId) -> Self {
        let acks: Vec<NetId> = netlist.channels().filter_map(|c| c.ack).collect();
        let mut best_depth: HashMap<GateId, usize> = HashMap::new();
        let mut stack: Vec<(NetId, usize)> = vec![(net, 0)];
        while let Some((n, depth)) = stack.pop() {
            if acks.contains(&n) {
                continue;
            }
            let Some(driver) = netlist.net(n).driver else {
                continue;
            };
            let entry = best_depth.entry(driver).or_insert(usize::MAX);
            if depth < *entry {
                *entry = depth;
                for &input in &netlist.gate(driver).inputs {
                    stack.push((input, depth + 1));
                }
            }
        }
        let max_depth = best_depth.values().copied().max().map_or(0, |d| d + 1);
        let mut per_depth: Vec<Vec<(String, usize)>> = vec![Vec::new(); max_depth];
        for (gate, depth) in &best_depth {
            let g = netlist.gate(*gate);
            per_depth[*depth].push((g.kind.mnemonic().to_owned(), g.arity()));
        }
        for level in &mut per_depth {
            level.sort();
        }
        ConeSignature {
            gate_count: best_depth.len(),
            per_depth,
        }
    }

    /// Number of gates in the cone.
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// Cone depth in gate levels.
    pub fn depth(&self) -> usize {
        self.per_depth.len()
    }
}

/// One symmetry violation: the first depth at which two rails' cones
/// differ.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymmetryViolation {
    /// Rail index compared against rail 0.
    pub rail: usize,
    /// Depth (0 = rail driver) of the first difference, or `None` when the
    /// cones differ in total depth only.
    pub first_differing_depth: Option<usize>,
    /// Human-readable explanation.
    pub detail: String,
}

/// Result of checking one channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymmetryReport {
    /// The checked channel.
    pub channel: ChannelId,
    /// Channel name, copied for self-contained reports.
    pub channel_name: String,
    /// `true` when all rails have identical cone signatures.
    pub balanced: bool,
    /// Violations relative to rail 0 (empty when balanced).
    pub violations: Vec<SymmetryViolation>,
}

/// Checks that every rail of `channel` sees a cone with the same per-depth
/// gate composition as rail 0.
pub fn check_channel(netlist: &Netlist, channel: &Channel) -> SymmetryReport {
    let signatures: Vec<ConeSignature> = channel
        .rails
        .iter()
        .map(|&r| ConeSignature::of_net(netlist, r))
        .collect();
    let mut violations = Vec::new();
    for (rail, sig) in signatures.iter().enumerate().skip(1) {
        let reference = &signatures[0];
        if sig == reference {
            continue;
        }
        if sig.depth() != reference.depth() {
            violations.push(SymmetryViolation {
                rail,
                first_differing_depth: None,
                detail: format!(
                    "rail {rail} cone depth {} differs from rail 0 depth {}",
                    sig.depth(),
                    reference.depth()
                ),
            });
            continue;
        }
        let depth = sig
            .per_depth
            .iter()
            .zip(&reference.per_depth)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        violations.push(SymmetryViolation {
            rail,
            first_differing_depth: Some(depth),
            detail: format!(
                "rail {rail} differs from rail 0 at depth {depth}: {:?} vs {:?}",
                sig.per_depth[depth], reference.per_depth[depth]
            ),
        });
    }
    SymmetryReport {
        channel: channel.id,
        channel_name: channel.name.clone(),
        balanced: violations.is_empty(),
        violations,
    }
}

/// Checks every multi-rail channel of the netlist; reports are returned in
/// channel-id order.
pub fn check_all(netlist: &Netlist) -> Vec<SymmetryReport> {
    let mut span = qdi_obs::span_at(qdi_obs::Level::Debug, "qdi_netlist::symmetry", "check_all")
        .attr("channels", netlist.channel_count());
    let reports: Vec<SymmetryReport> = netlist
        .channels()
        .filter(|c| c.rails.len() >= 2)
        .map(|c| check_channel(netlist, c))
        .collect();
    let unbalanced = reports.iter().filter(|r| !r.balanced).count();
    span.set_attr("checked", reports.len());
    span.set_attr("unbalanced", unbalanced);
    if unbalanced > 0 {
        let worst = reports
            .iter()
            .find(|r| !r.balanced)
            .expect("unbalanced > 0");
        qdi_obs::warn!(target: "qdi_netlist::symmetry",
            unbalanced = unbalanced,
            first_channel = worst.channel_name.as_str(),
            violations = worst.violations.len(),
            "structural symmetry check found unbalanced channels");
    }
    reports
}

/// Electrical dissymmetry of one channel: the paper's per-channel
/// criterion `dA` (eq. 13) together with the rail capacitances it was
/// computed from. Produced by [`capacitance_skew`]; consumed by the
/// `qdi-pnr` criterion table, the secure flow's alert path and the
/// `qdi-lint` `QDI0009` pass — one computation, three reporting surfaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSkew {
    /// The channel.
    pub channel: ChannelId,
    /// Channel name, copied for self-contained reports.
    pub name: String,
    /// The dissymmetry criterion `dA = (max − min) / min` over rail caps.
    pub d_a: f64,
    /// Rail interconnect capacitances in fF (`Cl0`, `Cl1`, ...).
    pub rail_caps_ff: Vec<f64>,
}

/// Electrical counterpart of the structural check: the relative spread of
/// the *rail net* capacitances of every channel, i.e. the paper's
/// dissymmetry criterion `dA` (eq. 13), sorted worst-first (ties broken
/// by name for determinism). Channels on which the criterion is undefined
/// (fewer than two rails, non-positive minimum capacitance) are omitted.
pub fn capacitance_skew(netlist: &Netlist) -> Vec<ChannelSkew> {
    let mut rows: Vec<ChannelSkew> = netlist
        .channels()
        .filter_map(|c| {
            c.dissymmetry(netlist).map(|d_a| ChannelSkew {
                channel: c.id,
                name: c.name.clone(),
                d_a,
                rail_caps_ff: c.rail_caps_ff(netlist).collect(),
            })
        })
        .collect();
    rows.sort_by(|a, b| b.d_a.total_cmp(&a.d_a).then(a.name.cmp(&b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;
    use crate::{GateKind, NetlistBuilder};

    #[test]
    fn xor_cell_is_balanced() {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        for &r in &cell.out.rails {
            b.mark_output(r);
        }
        let nl = b.finish().expect("valid");
        let report = check_channel(&nl, nl.channel(cell.out.id));
        assert!(report.balanced, "violations: {:?}", report.violations);
    }

    #[test]
    fn and_cell_is_balanced_despite_group_skew() {
        let mut b = NetlistBuilder::new("and");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_and(&mut b, "g", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        for &r in &cell.out.rails {
            b.mark_output(r);
        }
        let nl = b.finish().expect("valid");
        let report = check_channel(&nl, nl.channel(cell.out.id));
        // Same kinds at each depth except the OR arities differ (3 vs 1):
        // the structural check must flag this as a (mild) arity imbalance.
        assert!(!report.balanced);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn detects_depth_imbalance() {
        // Rail 1 has an extra buffer: cones differ in depth.
        let mut b = NetlistBuilder::new("skew");
        let a = b.input_channel("a", 2);
        let r0 = b.gate(GateKind::Buf, "r0", &[a.rail(0)]);
        let mid = b.gate(GateKind::Buf, "mid", &[a.rail(1)]);
        let r1 = b.gate(GateKind::Buf, "r1", &[mid]);
        let out = b.internal_channel("out", &[r0, r1], None);
        b.mark_output(r0);
        b.mark_output(r1);
        let nl = b.finish().expect("valid");
        let report = check_channel(&nl, nl.channel(out.id));
        assert!(!report.balanced);
        assert_eq!(report.violations[0].first_differing_depth, None);
    }

    #[test]
    fn check_all_covers_every_multirail_channel() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        for &r in &cell.out.rails {
            b.mark_output(r);
        }
        let nl = b.finish().expect("valid");
        let reports = check_all(&nl);
        assert_eq!(reports.len(), 3); // a, b, x.co
    }

    #[test]
    fn capacitance_skew_finds_worst_channel() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let o = b.gate(GateKind::Or, "o", &[a.rail(0), a.rail(1)]);
        b.mark_output(o);
        let mut nl = b.finish().expect("valid");
        nl.set_routing_cap(a.rail(1), 24.0); // vs default 8 -> dA = 2.0
        let worst = &capacitance_skew(&nl)[0];
        assert_eq!(worst.name, "a");
        assert!((worst.d_a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capacitance_skew_returns_all_channels_worst_first() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let c = b.input_channel("b", 2);
        let o = b.gate(
            GateKind::Or,
            "o",
            &[a.rail(0), a.rail(1), c.rail(0), c.rail(1)],
        );
        b.mark_output(o);
        let mut nl = b.finish().expect("valid");
        nl.set_routing_cap(a.rail(1), 16.0); // dA = 1.0
        nl.set_routing_cap(c.rail(1), 24.0); // dA = 2.0
        let rows = capacitance_skew(&nl);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "b");
        assert!((rows[0].d_a - 2.0).abs() < 1e-12);
        assert_eq!(rows[1].name, "a");
        assert!((rows[1].d_a - 1.0).abs() < 1e-12);
        assert_eq!(rows[0].rail_caps_ff, vec![8.0, 24.0]);
    }
}
