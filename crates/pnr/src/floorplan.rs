//! Constrained floorplanning for the hierarchical flow.
//!
//! The paper's methodology "consists in dividing the design into small
//! blocks and constraining their relative placement. The cells that
//! implement a given function are gathered in a specified physical area
//! which limits net length and dispersion." Here every distinct block tag
//! becomes a rectangular region sized for its cells plus a whitespace
//! margin, and regions are shelf-packed into the die — a simple stand-in
//! for the hand-drawn floorplan of the paper's Fig. 9.

use std::collections::BTreeMap;

use qdi_netlist::Netlist;
use serde::{Deserialize, Serialize};

use crate::geometry::Rect;
use crate::PnrConfig;

/// One floorplan region holding all cells of one block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Block name (`"<top>"` for untagged gates).
    pub name: String,
    /// The region's rectangle on the die.
    pub rect: Rect,
    /// Number of cell slots inside the region.
    pub slot_count: usize,
    /// Number of gates assigned to the region.
    pub gate_count: usize,
}

/// A complete floorplan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    /// Die bounding box.
    pub die: Rect,
    /// Regions in block-name order.
    pub regions: Vec<Region>,
}

impl Floorplan {
    /// Region index for a block name, if present.
    pub fn region_index(&self, block: &str) -> Option<usize> {
        self.regions.iter().position(|r| r.name == block)
    }

    /// Renders a textual floorplan summary (block, origin, size), the
    /// terminal stand-in for the paper's Fig. 9.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "die {:.0} x {:.0} um ({:.0} um2)\n",
            self.die.width(),
            self.die.height(),
            self.die.area()
        ));
        out.push_str("block                     x0      y0   width  height   gates\n");
        for r in &self.regions {
            out.push_str(&format!(
                "{:<22} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7}\n",
                r.name,
                r.rect.x0,
                r.rect.y0,
                r.rect.width(),
                r.rect.height(),
                r.gate_count
            ));
        }
        out
    }
}

/// The block key used for gates without a tag.
pub const TOP_BLOCK: &str = "<top>";

/// Groups gate indices by block tag, in deterministic (sorted) order.
pub fn gates_by_block(netlist: &Netlist) -> BTreeMap<String, Vec<usize>> {
    let mut map: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for gate in netlist.gates() {
        let key = gate.block.clone().unwrap_or_else(|| TOP_BLOCK.to_owned());
        map.entry(key).or_default().push(gate.id.index());
    }
    map
}

/// Builds the floorplan: one region per block, each sized to hold its
/// gates plus [`PnrConfig::region_margin`] whitespace, shelf-packed into a
/// roughly square die.
pub fn build_floorplan(netlist: &Netlist, cfg: &PnrConfig) -> Floorplan {
    let groups = gates_by_block(netlist);
    // Region dimensions per block.
    struct Pending {
        name: String,
        cols: usize,
        rows: usize,
        gate_count: usize,
    }
    let mut pending: Vec<Pending> = groups
        .iter()
        .map(|(name, gates)| {
            let slots = ((gates.len() as f64) * (1.0 + cfg.region_margin)).ceil() as usize;
            let slots = slots.max(1);
            let cols = (slots as f64).sqrt().ceil() as usize;
            let rows = slots.div_ceil(cols);
            Pending {
                name: name.clone(),
                cols,
                rows,
                gate_count: gates.len(),
            }
        })
        .collect();
    // First-fit decreasing height: tallest regions first keeps each shelf
    // nearly full-height, minimising the packing waste on top of the
    // per-region margin.
    pending.sort_by(|a, b| {
        b.rows
            .cmp(&a.rows)
            .then(b.cols.cmp(&a.cols))
            .then(a.name.cmp(&b.name))
    });

    let total_area: f64 = pending
        .iter()
        .map(|p| (p.cols as f64 * cfg.pitch_x_um) * (p.rows as f64 * cfg.pitch_y_um))
        .sum();

    // First-fit decreasing-height shelf packing: each region goes on the
    // first open shelf with enough remaining width (heights only shrink
    // because of the sort, so it always fits vertically). The target shelf
    // width is searched over a small range to minimise die area.
    struct Shelf {
        y: f64,
        height: f64,
        used_width: f64,
    }
    let pack = |shelf_width: f64| -> (Vec<Region>, Rect) {
        let mut shelves: Vec<Shelf> = Vec::new();
        let mut regions = Vec::with_capacity(pending.len());
        let mut die_w = 0.0f64;
        for p in &pending {
            let w = p.cols as f64 * cfg.pitch_x_um;
            let h = p.rows as f64 * cfg.pitch_y_um;
            let slot = shelves
                .iter_mut()
                .find(|s| s.used_width + w <= shelf_width.max(w));
            let shelf = match slot {
                Some(s) => s,
                None => {
                    let y = shelves.iter().map(|s| s.height).sum();
                    shelves.push(Shelf {
                        y,
                        height: h,
                        used_width: 0.0,
                    });
                    shelves.last_mut().expect("just pushed")
                }
            };
            let x = shelf.used_width;
            regions.push(Region {
                name: p.name.clone(),
                rect: Rect::new(x, shelf.y, x + w, shelf.y + h),
                slot_count: p.cols * p.rows,
                gate_count: p.gate_count,
            });
            shelf.used_width += w;
            die_w = die_w.max(shelf.used_width);
        }
        let die_h: f64 = shelves.iter().map(|s| s.height).sum();
        (regions, Rect::new(0.0, 0.0, die_w, die_h))
    };
    let (mut regions, mut die) = pack(total_area.sqrt());
    for step in 1..=14 {
        let candidate_width = total_area.sqrt() * (0.8 + 0.07 * step as f64);
        let (r, d) = pack(candidate_width);
        if d.area() < die.area() {
            regions = r;
            die = d;
        }
    }
    regions.sort_by(|a, b| a.name.cmp(&b.name));
    Floorplan { die, regions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_netlist::{GateKind, NetlistBuilder};

    fn tagged_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let c = b.input_net("b");
        b.push_block("alpha");
        let mut prev = b.gate(GateKind::Muller, "g0", &[a, c]);
        for i in 1..10 {
            prev = b.gate(GateKind::Or, format!("ga{i}"), &[prev, a]);
        }
        b.pop_block();
        b.push_block("beta");
        for i in 0..5 {
            prev = b.gate(GateKind::Or, format!("gb{i}"), &[prev, c]);
        }
        b.pop_block();
        let top = b.gate(GateKind::Or, "top", &[prev, a]);
        b.mark_output(top);
        b.finish().expect("valid")
    }

    #[test]
    fn regions_cover_all_blocks() {
        let nl = tagged_netlist();
        let fp = build_floorplan(&nl, &PnrConfig::default());
        let names: Vec<&str> = fp.regions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["<top>", "alpha", "beta"]);
        assert_eq!(
            fp.regions.iter().map(|r| r.gate_count).sum::<usize>(),
            nl.gate_count()
        );
    }

    #[test]
    fn regions_have_margin_slots() {
        let nl = tagged_netlist();
        let cfg = PnrConfig::default();
        let fp = build_floorplan(&nl, &cfg);
        for r in &fp.regions {
            assert!(
                r.slot_count as f64 >= r.gate_count as f64 * (1.0 + cfg.region_margin) - 1.0,
                "{}: {} slots for {} gates",
                r.name,
                r.slot_count,
                r.gate_count
            );
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let nl = tagged_netlist();
        let fp = build_floorplan(&nl, &PnrConfig::default());
        for (i, a) in fp.regions.iter().enumerate() {
            for b in &fp.regions[i + 1..] {
                let overlap_x = a.rect.x0 < b.rect.x1 && b.rect.x0 < a.rect.x1;
                let overlap_y = a.rect.y0 < b.rect.y1 && b.rect.y0 < a.rect.y1;
                assert!(!(overlap_x && overlap_y), "{} overlaps {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn die_contains_all_regions() {
        let nl = tagged_netlist();
        let fp = build_floorplan(&nl, &PnrConfig::default());
        for r in &fp.regions {
            assert!(fp.die.contains(r.rect.x0, r.rect.y0), "{}", r.name);
            assert!(fp.die.contains(r.rect.x1, r.rect.y1), "{}", r.name);
        }
    }

    #[test]
    fn table_lists_blocks() {
        let nl = tagged_netlist();
        let fp = build_floorplan(&nl, &PnrConfig::default());
        let table = fp.to_table();
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
    }
}
