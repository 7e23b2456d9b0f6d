//! Wirelength estimation.
//!
//! Routed length is estimated as the half-perimeter of the pin bounding
//! box scaled by a fanout-dependent Steiner factor — the usual pre-route
//! estimate placement tools optimise. Environment-only nets (primary
//! inputs with a single load) get a minimal stub.

use qdi_netlist::Netlist;

use crate::place::Placement;

/// Steiner correction for a net with `pins` placed pins: 1 for two- and
/// three-pin nets, growing like `√(pins−1)` beyond (a classical RSMT/HPWL
/// ratio fit).
pub fn steiner_factor(pins: usize) -> f64 {
    if pins <= 3 {
        1.0
    } else {
        0.5 + 0.5 * ((pins - 1) as f64).sqrt()
    }
}

/// Estimated routed length of every net, µm, indexed by net id.
///
/// Primary inputs and outputs additionally route to the pad ring: their
/// length includes the distance from the pin bounding box to the nearest
/// die edge. This matters for the security analysis — a dual-rail output
/// channel's two rails reach the pads from wherever the placer put their
/// drivers, and that distance difference is a first-class source of the
/// paper's channel dissymmetry.
pub fn estimate_lengths(netlist: &Netlist, placement: &Placement) -> Vec<f64> {
    let mut span = qdi_obs::span_at(qdi_obs::Level::Debug, "qdi_pnr::route", "estimate_lengths")
        .attr("nets", netlist.net_count());
    let min_stub = 2.0; // µm: via stack + local hookup for trivial nets
    let die = placement.die;
    let lengths: Vec<f64> = netlist
        .nets()
        .map(|net| {
            let mut pins: Vec<u32> = net
                .driver
                .into_iter()
                .chain(net.loads.iter().copied())
                .map(|g| g.index() as u32)
                .collect();
            pins.sort_unstable();
            pins.dedup();
            if pins.is_empty() {
                return min_stub;
            }
            let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
            let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for &p in &pins {
                let (x, y) = placement.position(qdi_netlist::GateId::from_raw(p));
                x0 = x0.min(x);
                y0 = y0.min(y);
                x1 = x1.max(x);
                y1 = y1.max(y);
            }
            let hpwl = (x1 - x0) + (y1 - y0);
            let mut length = (hpwl * steiner_factor(pins.len())).max(min_stub);
            if net.is_primary_input || net.is_primary_output {
                let cx = (x0 + x1) / 2.0;
                let cy = (y0 + y1) / 2.0;
                let to_edge = (cx - die.x0)
                    .min(die.x1 - cx)
                    .min(cy - die.y0)
                    .min(die.y1 - cy)
                    .max(0.0);
                length += to_edge;
            }
            length
        })
        .collect();
    qdi_obs::metrics::counter("pnr.nets_routed").add(lengths.len() as u64);
    span.set_attr("wirelength_um", lengths.iter().sum::<f64>());
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PnrConfig, Strategy};
    use qdi_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn steiner_factor_monotone() {
        assert_eq!(steiner_factor(2), 1.0);
        assert_eq!(steiner_factor(3), 1.0);
        assert!(steiner_factor(5) > 1.0);
        assert!(steiner_factor(17) > steiner_factor(5));
    }

    #[test]
    fn lengths_cover_every_net() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let m = b.gate(GateKind::Muller, "m", &[a, c]);
        let o = b.gate(GateKind::Or, "o", &[m, a]);
        b.mark_output(o);
        let mut nl = b.finish().expect("valid");
        let report = crate::place_and_route(&mut nl, Strategy::Flat, &PnrConfig::fast());
        let lengths = estimate_lengths(&nl, &report.placement);
        assert_eq!(lengths.len(), nl.net_count());
        assert!(lengths.iter().all(|&l| l > 0.0));
    }
}
