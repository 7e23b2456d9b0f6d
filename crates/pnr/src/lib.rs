//! Standard-cell place and route for QDI netlists, with flat and
//! hierarchical (region-constrained) flows.
//!
//! This crate is the workspace's substitute for the SoC Encounter flows of
//! the paper's Section VI. It provides:
//!
//! * a slot-grid placement model ([`place::Placement`]) refined by
//!   simulated annealing on total half-perimeter wirelength,
//! * a **flat** flow (the paper's AES_v2 reference) where the optimizer is
//!   free — and the designer "has no control on the net capacitances",
//! * a **hierarchical** flow (the paper's AES_v1 methodology) where gates
//!   are first binned into floorplan regions by their block tag
//!   ([`floorplan`]), which "limits net length and dispersion" at a die
//!   area cost,
//! * Steiner-factor wirelength estimation ([`route`]) and parasitic
//!   extraction writing net capacitances back into the netlist
//!   ([`extract`]),
//! * the per-channel dissymmetry criterion `dA` and its reporting
//!   ([`criterion`]) — the quantity Table 2 of the paper compares across
//!   the two flows.
//!
//! # Example
//!
//! ```
//! use qdi_netlist::{cells, NetlistBuilder};
//! use qdi_pnr::{place_and_route, PnrConfig, Strategy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("xor");
//! let a = b.input_channel("a", 2);
//! let bb = b.input_channel("b", 2);
//! let ack = b.input_net("ack");
//! let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
//! b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
//! let out = b.output_channel("co", &cell.out.rails.clone(), ack);
//! # let _ = out;
//! let mut netlist = b.finish()?;
//!
//! let report = place_and_route(&mut netlist, Strategy::Flat, &PnrConfig::default());
//! assert!(report.die_area_um2 > 0.0);
//! // Nets now carry extracted capacitances:
//! let worst = qdi_pnr::criterion::criterion_table(&netlist);
//! assert!(!worst.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod criterion;
pub mod extract;
pub mod fill;
pub mod floorplan;
pub mod geometry;
pub mod place;
pub mod route;
pub mod timing;

use qdi_netlist::Netlist;
use serde::{Deserialize, Serialize};

pub use criterion::{criterion_table, stability_study_parallel, ChannelCriterion};
pub use floorplan::{Floorplan, Region};
pub use geometry::Rect;
pub use place::{AnnealConfig, Placement};

/// Which flow to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Flat placement: all gates compete for all slots (the paper's
    /// AES_v2 reference flow).
    Flat,
    /// Hierarchical placement: gates are confined to the floorplan region
    /// of their block (the paper's AES_v1 methodology).
    Hierarchical,
}

/// Knobs of the whole flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PnrConfig {
    /// Horizontal slot pitch, µm.
    pub pitch_x_um: f64,
    /// Row pitch, µm.
    pub pitch_y_um: f64,
    /// Fraction of slots occupied by cells (flat flow).
    pub utilization: f64,
    /// Extra area factor each hierarchical region reserves; this is what
    /// buys the paper's ~20 % core-area overhead.
    pub region_margin: f64,
    /// Annealing schedule.
    pub anneal: AnnealConfig,
    /// Interconnect capacitance per µm of estimated wirelength, fF/µm.
    pub cap_per_um_ff: f64,
    /// Fixed via/contact capacitance added per net, fF.
    pub cap_fixed_ff: f64,
}

impl PnrConfig {
    /// Defaults loosely calibrated so a short local net extracts to a few
    /// fF and a die-crossing net to tens of fF — the range the paper's
    /// capacitance sweeps explore (8..32 fF).
    pub fn new() -> Self {
        PnrConfig {
            pitch_x_um: 2.4,
            pitch_y_um: 2.6,
            utilization: 0.8,
            region_margin: 0.25,
            anneal: AnnealConfig::default(),
            cap_per_um_ff: 0.20,
            cap_fixed_ff: 1.0,
        }
    }

    /// A fast low-effort configuration for unit tests.
    pub fn fast() -> Self {
        let mut cfg = PnrConfig::new();
        cfg.anneal.moves_per_gate = 20;
        cfg
    }
}

impl Default for PnrConfig {
    fn default() -> Self {
        PnrConfig::new()
    }
}

/// Result of a full place-and-route run. The extracted capacitances are
/// written into the netlist's nets as a side effect.
#[derive(Debug, Clone)]
pub struct PnrReport {
    /// The flow that produced this report.
    pub strategy: Strategy,
    /// Final placement.
    pub placement: Placement,
    /// Floorplan used (hierarchical flow only).
    pub floorplan: Option<Floorplan>,
    /// Die area in µm².
    pub die_area_um2: f64,
    /// Total estimated wirelength in µm.
    pub total_wirelength_um: f64,
    /// Final annealing cost (total HPWL, µm).
    pub final_cost_um: f64,
}

/// Runs the complete flow: floorplan (hierarchical only) → placement →
/// wirelength estimation → extraction into the netlist's net capacitances.
pub fn place_and_route(netlist: &mut Netlist, strategy: Strategy, cfg: &PnrConfig) -> PnrReport {
    let _span = qdi_obs::span::hot("pnr.place_route");
    let mut span = qdi_obs::span("qdi_pnr", "place_and_route")
        .attr("netlist", netlist.name())
        .attr("strategy", format!("{strategy:?}"))
        .attr("gates", netlist.gate_count());
    let floorplan = match strategy {
        Strategy::Flat => None,
        Strategy::Hierarchical => Some(floorplan::build_floorplan(netlist, cfg)),
    };
    let mut placement = match &floorplan {
        None => Placement::random_flat(netlist, cfg),
        Some(fp) => Placement::random_in_regions(netlist, fp, cfg),
    };
    let final_cost_um = place::anneal(netlist, &mut placement, &cfg.anneal);
    let lengths = route::estimate_lengths(netlist, &placement);
    extract::extract(netlist, &lengths, cfg);
    let total_wirelength_um = lengths.iter().sum();
    span.set_attr("die_area_um2", placement.die.area());
    span.set_attr("wirelength_um", total_wirelength_um);
    span.set_attr("final_cost_um", final_cost_um);
    PnrReport {
        strategy,
        die_area_um2: placement.die.area(),
        floorplan,
        placement,
        total_wirelength_um,
        final_cost_um,
    }
}
