//! Post-route rail balancing by capacitive fill — the natural follow-up
//! to the paper's methodology (its conclusion announces further "design
//! perspectives" beyond hierarchical placement).
//!
//! After extraction, the lighter rail of every channel receives dummy
//! (metal-fill / trim-capacitor) load until the rails match. This drives
//! the dissymmetry criterion `dA` towards zero wherever applied, at the
//! cost of extra switched energy — the classic trade the E3 test in
//! `tests/paper_claims.rs` quantifies.

use qdi_netlist::{ChannelId, Netlist};
use serde::{Deserialize, Serialize};

/// Outcome of a balancing pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FillReport {
    /// Channels whose rails were padded.
    pub channels_padded: usize,
    /// Total dummy capacitance added, fF.
    pub added_cap_ff: f64,
    /// Worst channel `dA` before the pass.
    pub max_criterion_before: f64,
    /// Worst channel `dA` after the pass (bounded by `tolerance`).
    pub max_criterion_after: f64,
}

/// Balances every multi-rail channel of the netlist: each rail below the
/// channel's maximum rail capacitance is padded up to within
/// `tolerance` (relative). A `tolerance` of 0 matches rails exactly.
///
/// Returns what was done. Channels whose criterion is undefined (zero
/// caps) are skipped.
///
/// # Panics
///
/// Panics if `tolerance` is negative or not finite.
pub fn balance_channels(netlist: &mut Netlist, tolerance: f64) -> FillReport {
    assert!(
        tolerance.is_finite() && tolerance >= 0.0,
        "tolerance must be finite and >= 0"
    );
    let before = worst_criterion(netlist);
    let mut added = 0.0f64;
    let mut padded = 0usize;
    let channels: Vec<ChannelId> = netlist.channels().map(|c| c.id).collect();
    // A rail can belong to several channels (a cell's internal channel and
    // the boundary channel it feeds); padding for one can disturb another,
    // so iterate to a fixpoint.
    for _pass in 0..8 {
        let mut changed = false;
        for &id in &channels {
            let channel = netlist.channel(id).clone();
            if channel.rails.len() < 2 {
                continue;
            }
            let caps: Vec<f64> = channel.rail_caps_ff(netlist).collect();
            let max = caps.iter().fold(0.0f64, |m, &c| m.max(c));
            if max <= 0.0 {
                continue;
            }
            let target = max / (1.0 + tolerance);
            let mut touched = false;
            for (rail, cap) in channel.rails.iter().zip(&caps) {
                if *cap < target {
                    netlist.set_routing_cap(*rail, max);
                    added += max - cap;
                    touched = true;
                    changed = true;
                }
            }
            if touched {
                padded += 1;
            }
        }
        if !changed {
            break;
        }
    }
    FillReport {
        channels_padded: padded,
        added_cap_ff: added,
        max_criterion_before: before,
        max_criterion_after: worst_criterion(netlist),
    }
}

/// Deep rail balancing: beyond the channel rails themselves, every net at
/// a structurally corresponding position in the rails' fan-in cones is
/// padded to its correspondence group's maximum.
///
/// The channel criterion only sees the rail nets, but eq. 12 sums over
/// *every* gate of the two compared paths — a mismatched OR or minterm
/// net inside a balanced cell leaks exactly like a mismatched rail. Nets
/// are grouped per channel by `(cone depth, gate kind, arity)`: the
/// symmetry checker guarantees these groups align across rails of a
/// logically balanced design.
///
/// Returns the same [`FillReport`] shape as [`balance_channels`] (its
/// `max_criterion_*` fields still refer to the channel criterion).
pub fn balance_cones(netlist: &mut Netlist) -> FillReport {
    use std::collections::HashMap;

    let before = worst_criterion(netlist);
    let acks: Vec<qdi_netlist::NetId> = netlist.channels().filter_map(|c| c.ack).collect();
    let mut added = 0.0f64;
    let mut padded_channels = 0usize;
    let channels: Vec<ChannelId> = netlist.channels().map(|c| c.id).collect();
    for id in channels {
        let channel = netlist.channel(id).clone();
        if channel.rails.len() < 2 {
            continue;
        }
        // Collect (depth, kind, arity) -> nets over all rails' cones,
        // including the rails themselves at depth 0 via their drivers.
        let mut groups: HashMap<(usize, &'static str, usize), Vec<qdi_netlist::NetId>> =
            HashMap::new();
        // The rails themselves are one correspondence group whatever
        // drives them (covers environment-driven input channels).
        groups.insert((0, "rail", channel.rails.len()), channel.rails.clone());
        for &rail in &channel.rails {
            let mut stack = vec![(rail, 0usize)];
            let mut seen = std::collections::HashSet::new();
            while let Some((net, depth)) = stack.pop() {
                if acks.contains(&net) || !seen.insert(net) {
                    continue;
                }
                let Some(driver) = netlist.net(net).driver else {
                    continue;
                };
                let gate = netlist.gate(driver);
                groups
                    .entry((depth, gate.kind.mnemonic(), gate.arity()))
                    .or_default()
                    .push(net);
                for &input in &gate.inputs {
                    stack.push((input, depth + 1));
                }
            }
        }
        let mut touched = false;
        for nets in groups.values() {
            if nets.len() < 2 {
                continue;
            }
            let max = nets
                .iter()
                .map(|&n| netlist.net(n).routing_cap_ff)
                .fold(0.0f64, f64::max);
            for &n in nets {
                let cap = netlist.net(n).routing_cap_ff;
                if cap < max {
                    netlist.set_routing_cap(n, max);
                    added += max - cap;
                    touched = true;
                }
            }
        }
        if touched {
            padded_channels += 1;
        }
    }
    FillReport {
        channels_padded: padded_channels,
        added_cap_ff: added,
        max_criterion_before: before,
        max_criterion_after: worst_criterion(netlist),
    }
}

fn worst_criterion(netlist: &Netlist) -> f64 {
    netlist
        .channels()
        .filter_map(|c| c.dissymmetry(netlist))
        .fold(0.0f64, f64::max)
}

/// Extra switched energy the fill costs per four-phase cycle, in fJ:
/// `ΔE = ΔC · Vdd²` summed over one up and one down transition of every
/// padded rail is approximated by `2 · added_cap · Vdd²`.
pub fn fill_energy_cost_fj(report: &FillReport, vdd_v: f64) -> f64 {
    2.0 * report.added_cap_ff * vdd_v * vdd_v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{place_and_route, PnrConfig, Strategy};
    use qdi_netlist::{cells, NetlistBuilder};

    fn routed_xor() -> Netlist {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
        let mut nl = b.finish().expect("valid");
        place_and_route(&mut nl, Strategy::Flat, &PnrConfig::fast());
        nl
    }

    #[test]
    fn balancing_zeroes_the_criterion() {
        let mut nl = routed_xor();
        let report = balance_channels(&mut nl, 0.0);
        assert!(
            report.max_criterion_before > 0.0,
            "routed layout starts unbalanced"
        );
        assert!(report.max_criterion_after < 1e-9, "exact fill zeroes dA");
        assert!(report.added_cap_ff > 0.0);
        assert!(report.channels_padded > 0);
    }

    #[test]
    fn tolerance_bounds_the_residual() {
        let mut nl = routed_xor();
        let report = balance_channels(&mut nl, 0.10);
        assert!(
            report.max_criterion_after <= 0.10 + 1e-9,
            "residual {} exceeds tolerance",
            report.max_criterion_after
        );
        // Looser tolerance costs less capacitance than exact matching.
        let mut nl2 = routed_xor();
        let exact = balance_channels(&mut nl2, 0.0);
        assert!(report.added_cap_ff <= exact.added_cap_ff);
    }

    #[test]
    fn energy_cost_scales_with_added_cap() {
        let report = FillReport {
            channels_padded: 1,
            added_cap_ff: 10.0,
            max_criterion_before: 1.0,
            max_criterion_after: 0.0,
        };
        let e = fill_energy_cost_fj(&report, 1.2);
        assert!((e - 2.0 * 10.0 * 1.44).abs() < 1e-12);
    }

    #[test]
    fn balancing_is_idempotent() {
        let mut nl = routed_xor();
        balance_channels(&mut nl, 0.0);
        let second = balance_channels(&mut nl, 0.0);
        assert_eq!(second.channels_padded, 0);
        assert!(second.added_cap_ff < 1e-9);
    }
}
