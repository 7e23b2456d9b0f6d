//! Parasitic extraction: estimated wirelength → net capacitance.

use qdi_netlist::{NetId, Netlist};

use crate::PnrConfig;

/// Writes extracted interconnect capacitances into the netlist:
/// `Cl = cap_fixed + cap_per_um · length` per net.
///
/// # Panics
///
/// Panics if `lengths.len() != netlist.net_count()`.
pub fn extract(netlist: &mut Netlist, lengths: &[f64], cfg: &PnrConfig) {
    let _span = qdi_obs::span::hot("pnr.extract");
    assert_eq!(lengths.len(), netlist.net_count(), "one length per net");
    let mut span = qdi_obs::span_at(qdi_obs::Level::Debug, "qdi_pnr::extract", "extract")
        .attr("nets", lengths.len());
    let mut total_cap = 0.0;
    for (i, &len) in lengths.iter().enumerate() {
        let cap = cfg.cap_fixed_ff + cfg.cap_per_um_ff * len;
        total_cap += cap;
        netlist.set_routing_cap(NetId::from_raw(i as u32), cap);
    }
    qdi_obs::metrics::counter("pnr.nets_extracted").add(lengths.len() as u64);
    span.set_attr("total_cap_ff", total_cap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{place_and_route, PnrConfig, Strategy};
    use qdi_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn extraction_replaces_default_caps() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let m = b.gate(GateKind::Muller, "m", &[a, c]);
        let o = b.gate(GateKind::Or, "o", &[m, a]);
        b.mark_output(o);
        let mut nl = b.finish().expect("valid");
        let default = qdi_netlist::Net::DEFAULT_ROUTING_CAP_FF;
        assert!(nl.nets().all(|n| n.routing_cap_ff == default));
        place_and_route(&mut nl, Strategy::Flat, &PnrConfig::fast());
        // After extraction caps reflect geometry, not the default.
        assert!(nl.nets().any(|n| n.routing_cap_ff != default));
        assert!(nl.nets().all(|n| n.routing_cap_ff > 0.0));
    }

    #[test]
    fn longer_nets_extract_more_capacitance() {
        let cfg = PnrConfig::default();
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let y = b.gate(GateKind::Buf, "y", &[a]);
        b.mark_output(y);
        let mut nl = b.finish().expect("valid");
        extract(&mut nl, &[10.0, 100.0], &cfg);
        let short = nl.net(qdi_netlist::NetId::from_raw(0)).routing_cap_ff;
        let long = nl.net(qdi_netlist::NetId::from_raw(1)).routing_cap_ff;
        assert!(long > short);
        assert!((long - (cfg.cap_fixed_ff + cfg.cap_per_um_ff * 100.0)).abs() < 1e-12);
    }
}
