//! The paper's channel dissymmetry criterion and its reporting.
//!
//! Section VI defines, for a dual-rail channel with rail capacitances
//! `Cl0`, `Cl1`:
//!
//! ```text
//! dA = |Cl0 − Cl1| / min(Cl0, Cl1)
//! ```
//!
//! "The lower the value of dA, the more resistant to DPA the chip is."
//! Table 2 of the paper lists the most critical channels (highest `dA`)
//! for the hierarchical and flat AES layouts; [`criterion_table`] produces
//! that ranking for any extracted netlist, and [`stability_study_parallel`]
//! reproduces the observation that under the flat flow "the most sensitive
//! channels are never the same from one place and route to another".

use qdi_netlist::{symmetry, ChannelId, Netlist};
use serde::{Deserialize, Serialize};

use crate::{place_and_route, PnrConfig, Strategy};

/// Criterion value of one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelCriterion {
    /// The channel.
    pub channel: ChannelId,
    /// Channel name.
    pub name: String,
    /// The dissymmetry criterion `dA`.
    pub d: f64,
    /// Rail capacitances in fF (`Cl0`, `Cl1`, ...).
    pub rail_caps_ff: Vec<f64>,
}

impl From<symmetry::ChannelSkew> for ChannelCriterion {
    fn from(row: symmetry::ChannelSkew) -> ChannelCriterion {
        ChannelCriterion {
            channel: row.channel,
            name: row.name,
            d: row.d_a,
            rail_caps_ff: row.rail_caps_ff,
        }
    }
}

/// Computes `dA` for every multi-rail channel, sorted worst first.
///
/// This is a reporting view over [`qdi_netlist::symmetry::capacitance_skew`],
/// which owns the single implementation of the eq. 13 criterion.
pub fn criterion_table(netlist: &Netlist) -> Vec<ChannelCriterion> {
    symmetry::capacitance_skew(netlist)
        .into_iter()
        .map(ChannelCriterion::from)
        .collect()
}

/// Like [`criterion_table`], restricted to *internal* channels — the ones
/// the paper's Table 2 reports. Boundary channels route to pads whose
/// symmetric bonding is outside the layout model.
pub fn internal_criterion_table(netlist: &Netlist) -> Vec<ChannelCriterion> {
    let internal: std::collections::HashSet<ChannelId> = netlist
        .channels()
        .filter(|c| c.role == qdi_netlist::ChannelRole::Internal)
        .map(|c| c.id)
        .collect();
    symmetry::capacitance_skew(netlist)
        .into_iter()
        .filter(|row| internal.contains(&row.channel))
        .map(ChannelCriterion::from)
        .collect()
}

/// The `k` most critical channels.
pub fn worst_channels(netlist: &Netlist, k: usize) -> Vec<ChannelCriterion> {
    let mut table = criterion_table(netlist);
    table.truncate(k);
    table
}

/// Formats a Table 2-style report: rank, channel, rail capacitances, `dA`.
pub fn format_table(rows: &[ChannelCriterion]) -> String {
    let mut out = String::new();
    out.push_str("rank  channel                              Cl0 | Cl1 (fF)      dA\n");
    for (i, row) in rows.iter().enumerate() {
        let caps = row
            .rail_caps_ff
            .iter()
            .map(|c| format!("{c:.1}"))
            .collect::<Vec<_>>()
            .join(" | ");
        out.push_str(&format!(
            "{:>4}  {:<36} {:<18} {:>5.2}\n",
            i + 1,
            row.name,
            caps,
            row.d
        ));
    }
    out
}

/// One seed's outcome in a stability study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedOutcome {
    /// The annealing seed.
    pub seed: u64,
    /// Worst channel name for this run.
    pub worst_channel: String,
    /// Its criterion value.
    pub worst_d: f64,
}

/// Re-runs the flow across `seeds` and records the worst channel of each
/// run — the paper's evidence that the flat flow is "not under the
/// designer's control" is that these differ from run to run.
///
/// The per-seed annealing runs execute on the `qdi-exec` pool
/// (`exec.workers == 1` runs them in order on the calling thread). Each
/// run's randomness comes from its own seed and results are merged in
/// seed order, so the outcome list is bit-identical at every worker
/// count.
pub fn stability_study_parallel(
    netlist: &Netlist,
    strategy: Strategy,
    cfg: &PnrConfig,
    seeds: &[u64],
    exec: qdi_exec::ExecConfig,
) -> Vec<SeedOutcome> {
    let mut span = qdi_obs::span("qdi_pnr::criterion", "stability_study_parallel")
        .attr("seeds", seeds.len())
        .attr("workers", exec.workers);
    // Inert unless `qdi_obs::progress` is enabled; feeds `qdi-mon watch`.
    let progress = qdi_obs::progress::task("pnr.stability_study", seeds.len());
    let outcomes = qdi_exec::run_indexed(&exec, seeds.len(), |i| {
        let mut nl = netlist.clone();
        let mut cfg = *cfg;
        cfg.anneal.seed = seeds[i];
        place_and_route(&mut nl, strategy, &cfg);
        // Prefer internal channels (the paper's Table 2 scope); fall
        // back to all channels for IO-only fixtures.
        let mut worst = internal_criterion_table(&nl);
        if worst.is_empty() {
            worst = criterion_table(&nl);
        }
        let first = worst.first().expect("netlist has channels");
        progress.advance(1);
        SeedOutcome {
            seed: seeds[i],
            worst_channel: first.name.clone(),
            worst_d: first.d,
        }
    });
    progress.finish();
    span.set_attr("outcomes", outcomes.len());
    outcomes
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
    fn table_is_sorted_worst_first() {
        let mut nl = xor_netlist();
        place_and_route(&mut nl, Strategy::Flat, &PnrConfig::fast());
        let table = criterion_table(&nl);
        assert!(!table.is_empty());
        for w in table.windows(2) {
            assert!(w[0].d >= w[1].d);
        }
    }

    #[test]
    fn pre_layout_criterion_is_zero() {
        // Before extraction every net carries the default Cd: dA = 0.
        let nl = xor_netlist();
        for row in criterion_table(&nl) {
            assert_eq!(row.d, 0.0, "{}", row.name);
        }
    }

    #[test]
    fn worst_channels_truncates() {
        let mut nl = xor_netlist();
        place_and_route(&mut nl, Strategy::Flat, &PnrConfig::fast());
        assert_eq!(worst_channels(&nl, 2).len(), 2);
    }

    #[test]
    fn format_table_mentions_channels() {
        let mut nl = xor_netlist();
        place_and_route(&mut nl, Strategy::Flat, &PnrConfig::fast());
        let text = format_table(&worst_channels(&nl, 3));
        assert!(text.contains("dA"));
        assert!(text.lines().count() >= 3);
    }

    /// Reference for the pool driver, built from the public pieces: one
    /// flow run per seed, in order, reading the worst internal channel
    /// (any channel for this IO-only fixture).
    fn reference_study(nl: &Netlist, seeds: &[u64]) -> Vec<SeedOutcome> {
        seeds
            .iter()
            .map(|&seed| {
                let mut nl = nl.clone();
                let mut cfg = PnrConfig::fast();
                cfg.anneal.seed = seed;
                place_and_route(&mut nl, Strategy::Flat, &cfg);
                let worst = internal_criterion_table(&nl)
                    .into_iter()
                    .chain(criterion_table(&nl))
                    .next()
                    .expect("netlist has channels");
                SeedOutcome {
                    seed,
                    worst_channel: worst.name,
                    worst_d: worst.d,
                }
            })
            .collect()
    }

    #[test]
    fn stability_study_is_worker_count_invariant_and_matches_reference() {
        let nl = xor_netlist();
        let seeds = [1u64, 2, 3, 4, 5];
        let reference = reference_study(&nl, &seeds);
        assert!(reference
            .iter()
            .all(|o| o.worst_d >= 0.0 && !o.worst_channel.is_empty()));
        for workers in [1usize, 2, 8] {
            let outcomes = stability_study_parallel(
                &nl,
                Strategy::Flat,
                &PnrConfig::fast(),
                &seeds,
                qdi_exec::ExecConfig { workers },
            );
            assert_eq!(reference, outcomes, "outcomes @ {workers} workers");
        }
    }
}
