//! Slot-grid placement and simulated annealing.

use qdi_netlist::{GateId, Netlist};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::floorplan::{gates_by_block, Floorplan, TOP_BLOCK};
use crate::geometry::Rect;
use crate::PnrConfig;

/// Simulated-annealing schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealConfig {
    /// Total move budget per gate (split into one sweep of `gate_count`
    /// moves per temperature step).
    pub moves_per_gate: usize,
    /// Starting temperature, µm of wirelength.
    pub t0_um: f64,
    /// Final temperature, µm.
    pub t_end_um: f64,
    /// RNG seed — different seeds give different placements; the paper's
    /// "multiple random runs" observation is reproduced by sweeping this.
    pub seed: u64,
}

impl AnnealConfig {
    /// A medium-effort default.
    pub fn new() -> Self {
        AnnealConfig {
            moves_per_gate: 120,
            t0_um: 20.0,
            t_end_um: 0.2,
            seed: 1,
        }
    }
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig::new()
    }
}

/// A placement: every gate sits in one slot of a grid; hierarchical
/// placements partition the slots into per-block groups the annealer never
/// crosses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Die bounding box.
    pub die: Rect,
    /// Slot centre coordinates.
    slots: Vec<(f64, f64)>,
    /// Group id per slot.
    slot_group: Vec<u32>,
    /// Occupying gate per slot.
    occupant: Vec<Option<u32>>,
    /// Slot index per gate.
    slot_of_gate: Vec<u32>,
    /// Group id per gate.
    gate_group: Vec<u32>,
    /// Slot indices per group.
    group_slots: Vec<Vec<u32>>,
}

impl Placement {
    /// Position of `gate` in µm.
    pub fn position(&self, gate: GateId) -> (f64, f64) {
        self.slots[self.slot_of_gate[gate.index()] as usize]
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Random flat placement: a single slot group covering a roughly
    /// square die at [`PnrConfig::utilization`].
    pub fn random_flat(netlist: &Netlist, cfg: &PnrConfig) -> Self {
        let n = netlist.gate_count().max(1);
        let slot_count = ((n as f64) / cfg.utilization).ceil() as usize;
        let cols = (slot_count as f64).sqrt().ceil() as usize;
        let rows = slot_count.div_ceil(cols);
        let mut slots = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                slots.push((
                    (c as f64 + 0.5) * cfg.pitch_x_um,
                    (r as f64 + 0.5) * cfg.pitch_y_um,
                ));
            }
        }
        let die = Rect::new(
            0.0,
            0.0,
            cols as f64 * cfg.pitch_x_um,
            rows as f64 * cfg.pitch_y_um,
        );
        let slot_group = vec![0u32; slots.len()];
        let group_slots = vec![(0..slots.len() as u32).collect()];
        let gate_group = vec![0u32; netlist.gate_count()];
        Self::assign_random(
            netlist,
            die,
            slots,
            slot_group,
            group_slots,
            gate_group,
            cfg.anneal.seed,
        )
    }

    /// Random placement constrained to floorplan regions: every gate is
    /// seeded into (and annealed within) the region of its block.
    pub fn random_in_regions(netlist: &Netlist, fp: &Floorplan, cfg: &PnrConfig) -> Self {
        let mut slots = Vec::new();
        let mut slot_group = Vec::new();
        let mut group_slots: Vec<Vec<u32>> = vec![Vec::new(); fp.regions.len()];
        for (g, region) in fp.regions.iter().enumerate() {
            let cols = (region.rect.width() / cfg.pitch_x_um).round().max(1.0) as usize;
            let rows = (region.rect.height() / cfg.pitch_y_um).round().max(1.0) as usize;
            for r in 0..rows {
                for c in 0..cols {
                    let idx = slots.len() as u32;
                    slots.push((
                        region.rect.x0 + (c as f64 + 0.5) * cfg.pitch_x_um,
                        region.rect.y0 + (r as f64 + 0.5) * cfg.pitch_y_um,
                    ));
                    slot_group.push(g as u32);
                    group_slots[g].push(idx);
                }
            }
        }
        let mut gate_group = vec![0u32; netlist.gate_count()];
        for (block, gates) in gates_by_block(netlist) {
            let g = fp
                .region_index(&block)
                .or_else(|| fp.region_index(TOP_BLOCK))
                .expect("floorplan built from the same netlist") as u32;
            for idx in gates {
                gate_group[idx] = g;
            }
        }
        Self::assign_random(
            netlist,
            fp.die,
            slots,
            slot_group,
            group_slots,
            gate_group,
            cfg.anneal.seed,
        )
    }

    fn assign_random(
        netlist: &Netlist,
        die: Rect,
        slots: Vec<(f64, f64)>,
        slot_group: Vec<u32>,
        group_slots: Vec<Vec<u32>>,
        gate_group: Vec<u32>,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut occupant = vec![None; slots.len()];
        let mut slot_of_gate = vec![0u32; netlist.gate_count()];
        // Shuffle each group's slots and deal them out to its gates.
        let mut free: Vec<Vec<u32>> = group_slots.clone();
        for pool in &mut free {
            // Fisher–Yates.
            for i in (1..pool.len()).rev() {
                let j = rng.gen_range(0..=i);
                pool.swap(i, j);
            }
        }
        for gate in netlist.gates() {
            let g = gate_group[gate.id.index()] as usize;
            let slot = free[g]
                .pop()
                .unwrap_or_else(|| panic!("region {g} ran out of slots — margin too small"));
            occupant[slot as usize] = Some(gate.id.index() as u32);
            slot_of_gate[gate.id.index()] = slot;
        }
        Placement {
            die,
            slots,
            slot_group,
            occupant,
            slot_of_gate,
            gate_group,
            group_slots,
        }
    }
}

/// Net incidence used by the annealer: for every net, the gates pinned to
/// it (driver plus loads, deduplicated).
fn net_pins(netlist: &Netlist) -> Vec<Vec<u32>> {
    netlist
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
            pins
        })
        .collect()
}

fn hpwl(placement: &Placement, pins: &[u32]) -> f64 {
    if pins.len() < 2 {
        return 0.0;
    }
    let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
    let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &p in pins {
        let (x, y) = placement.slots[placement.slot_of_gate[p as usize] as usize];
        x0 = x0.min(x);
        y0 = y0.min(y);
        x1 = x1.max(x);
        y1 = y1.max(y);
    }
    (x1 - x0) + (y1 - y0)
}

/// Total HPWL of the placement, µm.
pub fn total_cost(netlist: &Netlist, placement: &Placement) -> f64 {
    let pins = net_pins(netlist);
    pins.iter().map(|p| hpwl(placement, p)).sum()
}

/// Anneals the placement in place; returns the final total HPWL (µm).
///
/// Moves swap a random gate with another slot of the *same group*, so the
/// hierarchical flow's region constraint is enforced by construction.
pub fn anneal(netlist: &Netlist, placement: &mut Placement, cfg: &AnnealConfig) -> f64 {
    let n = netlist.gate_count();
    if n < 2 {
        return total_cost(netlist, placement);
    }
    let pins = net_pins(netlist);
    // Nets incident to each gate.
    let mut gate_nets: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (net_idx, pin_list) in pins.iter().enumerate() {
        for &g in pin_list {
            gate_nets[g as usize].push(net_idx as u32);
        }
    }
    let mut cost: f64 = pins.iter().map(|p| hpwl(placement, p)).sum();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let sweeps = cfg.moves_per_gate.max(1);
    let alpha = (cfg.t_end_um / cfg.t0_um).powf(1.0 / sweeps as f64);
    let mut temp = cfg.t0_um;
    let mut affected: Vec<u32> = Vec::with_capacity(16);

    let mut span = qdi_obs::span_at(qdi_obs::Level::Debug, "qdi_pnr::place", "anneal")
        .attr("gates", n)
        .attr("sweeps", sweeps)
        .attr("seed", cfg.seed)
        .attr("initial_cost_um", cost);
    // Per-sweep stats are summarized locally and reported at most once
    // per sweep, so the hot move loop never touches the tracing runtime.
    let sweep_log = qdi_obs::enabled(qdi_obs::Level::Debug, "qdi_pnr::place");
    let mut attempted_total: u64 = 0;
    let mut accepted_total: u64 = 0;

    for sweep in 0..sweeps {
        let mut attempted: u64 = 0;
        let mut accepted: u64 = 0;
        for _ in 0..n {
            let g1 = rng.gen_range(0..n);
            let group = placement.gate_group[g1] as usize;
            let pool = &placement.group_slots[group];
            if pool.len() < 2 {
                continue;
            }
            let target_slot = pool[rng.gen_range(0..pool.len())];
            let s1 = placement.slot_of_gate[g1];
            if target_slot == s1 {
                continue;
            }
            let g2 = placement.occupant[target_slot as usize];

            affected.clear();
            affected.extend_from_slice(&gate_nets[g1]);
            if let Some(g2) = g2 {
                affected.extend_from_slice(&gate_nets[g2 as usize]);
            }
            affected.sort_unstable();
            affected.dedup();

            let before: f64 = affected
                .iter()
                .map(|&i| hpwl(placement, &pins[i as usize]))
                .sum();
            apply_move(placement, g1, s1, target_slot, g2);
            let after: f64 = affected
                .iter()
                .map(|&i| hpwl(placement, &pins[i as usize]))
                .sum();
            let delta = after - before;
            attempted += 1;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
            if accept {
                cost += delta;
                accepted += 1;
            } else {
                // Undo.
                apply_move(placement, g1, target_slot, s1, g2);
            }
        }
        attempted_total += attempted;
        accepted_total += accepted;
        if sweep_log {
            qdi_obs::debug!(target: "qdi_pnr::place",
                sweep = sweep,
                temp_um = temp,
                cost_um = cost,
                acceptance = if attempted > 0 { accepted as f64 / attempted as f64 } else { 0.0 },
                "anneal sweep");
        }
        temp *= alpha;
    }
    qdi_obs::metrics::counter("pnr.moves_attempted").add(attempted_total);
    qdi_obs::metrics::counter("pnr.moves_accepted").add(accepted_total);
    span.set_attr("final_cost_um", cost);
    span.set_attr("moves_attempted", attempted_total);
    span.set_attr("moves_accepted", accepted_total);
    cost
}

fn apply_move(placement: &mut Placement, g1: usize, from: u32, to: u32, g2: Option<u32>) {
    placement.slot_of_gate[g1] = to;
    placement.occupant[to as usize] = Some(g1 as u32);
    if let Some(g2) = g2 {
        placement.slot_of_gate[g2 as usize] = from;
        placement.occupant[from as usize] = Some(g2);
    } else {
        placement.occupant[from as usize] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::build_floorplan;
    use qdi_netlist::{GateKind, NetlistBuilder};

    fn chain_netlist(len: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input_net("a");
        let mut prev = b.gate(GateKind::Buf, "g0", &[a]);
        for i in 1..len {
            prev = b.gate(GateKind::Or, format!("g{i}"), &[prev, a]);
        }
        b.mark_output(prev);
        b.finish().expect("valid")
    }

    #[test]
    fn random_flat_assigns_unique_slots() {
        let nl = chain_netlist(40);
        let p = Placement::random_flat(&nl, &PnrConfig::default());
        let mut seen: Vec<u32> = (0..nl.gate_count()).map(|g| p.slot_of_gate[g]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), nl.gate_count());
        assert!(p.slot_count() >= nl.gate_count());
    }

    #[test]
    fn anneal_reduces_cost() {
        let nl = chain_netlist(60);
        let cfg = PnrConfig::fast();
        let mut p = Placement::random_flat(&nl, &cfg);
        let before = total_cost(&nl, &p);
        let after = anneal(&nl, &mut p, &cfg.anneal);
        assert!(
            after < before,
            "annealing should improve {before} -> {after}"
        );
        let recomputed = total_cost(&nl, &p);
        assert!(
            (after - recomputed).abs() < 1e-6 * recomputed.max(1.0),
            "incremental cost {after} drifted from recomputed {recomputed}"
        );
    }

    #[test]
    fn seeds_give_different_placements() {
        let nl = chain_netlist(30);
        let mut cfg1 = PnrConfig::fast();
        cfg1.anneal.seed = 1;
        let mut cfg2 = PnrConfig::fast();
        cfg2.anneal.seed = 2;
        let mut p1 = Placement::random_flat(&nl, &cfg1);
        let mut p2 = Placement::random_flat(&nl, &cfg2);
        anneal(&nl, &mut p1, &cfg1.anneal);
        anneal(&nl, &mut p2, &cfg2.anneal);
        let same = (0..nl.gate_count()).all(|g| {
            p1.position(GateId::from_raw(g as u32)) == p2.position(GateId::from_raw(g as u32))
        });
        assert!(!same, "different seeds must explore different placements");
    }

    #[test]
    fn hierarchical_keeps_gates_in_their_region() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        b.push_block("alpha");
        let mut prev = b.gate(GateKind::Buf, "g0", &[a]);
        for i in 1..12 {
            prev = b.gate(GateKind::Or, format!("ga{i}"), &[prev, a]);
        }
        b.pop_block();
        b.push_block("beta");
        for i in 0..12 {
            prev = b.gate(GateKind::Or, format!("gb{i}"), &[prev, a]);
        }
        b.pop_block();
        b.mark_output(prev);
        let nl = b.finish().expect("valid");
        let cfg = PnrConfig::fast();
        let fp = build_floorplan(&nl, &cfg);
        let mut p = Placement::random_in_regions(&nl, &fp, &cfg);
        anneal(&nl, &mut p, &cfg.anneal);
        for gate in nl.gates() {
            let (x, y) = p.position(gate.id);
            let block = gate.block.clone().unwrap_or_else(|| TOP_BLOCK.to_owned());
            let region = &fp.regions[fp.region_index(&block).expect("region")];
            assert!(
                region.rect.contains(x, y),
                "{} at ({x:.1},{y:.1}) escaped region {}",
                gate.name,
                region.name
            );
        }
    }

    #[test]
    fn anneal_pulls_connected_gates_together() {
        // Independent connected pairs: the random placement scatters each
        // pair across the die; annealing should bring partners close and
        // cut total wirelength substantially.
        let mut b = NetlistBuilder::new("pairs");
        let a = b.input_net("a");
        for i in 0..25 {
            let first = b.gate(GateKind::Buf, format!("p{i}a"), &[a]);
            let second = b.gate(GateKind::Buf, format!("p{i}b"), &[first]);
            b.mark_output(second);
        }
        let nl = b.finish().expect("valid");
        let mut cfg = PnrConfig::fast();
        cfg.anneal.moves_per_gate = 100;
        let mut p = Placement::random_flat(&nl, &cfg);
        // Pair wirelength only (the shared input net `a` spans the die
        // whatever the placement, so exclude nets with > 2 pins).
        let pair_cost = |nl: &Netlist, p: &Placement| -> f64 {
            nl.nets()
                .filter(|n| n.driver.is_some() && n.loads.len() == 1)
                .map(|n| {
                    let (x0, y0) = p.position(n.driver.expect("driver"));
                    let (x1, y1) = p.position(n.loads[0]);
                    (x1 - x0).abs() + (y1 - y0).abs()
                })
                .sum()
        };
        let before = pair_cost(&nl, &p);
        anneal(&nl, &mut p, &cfg.anneal);
        let after = pair_cost(&nl, &p);
        assert!(
            after < 0.7 * before,
            "pairs should compact: {before} -> {after}"
        );
    }
}
