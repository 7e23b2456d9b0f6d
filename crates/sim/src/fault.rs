//! Fault models and injection plans.
//!
//! The paper's security argument (Section II) treats the four-phase 1-of-N
//! handshake as a built-in alarm: a perturbed QDI circuit either *absorbs*
//! the perturbation (the corrupted node is re-driven before anyone samples
//! it) or *stalls* a handshake, so faults surface as deadlocks instead of
//! silent data corruption. The types here describe the perturbations; the
//! [`crate::Simulator::inject`] hook applies them at their scheduled
//! simulation times, and `qdi-fi` runs whole campaigns of them.
//!
//! Supported fault models:
//!
//! * [`FaultKind::TransientFlip`] — a single-event upset: the net's level
//!   is inverted in place. On a combinational node the driving gate
//!   re-evaluates and heals the node after its propagation delay; on a
//!   state-holding node (Muller C-element output) the flip can persist.
//! * [`FaultKind::StuckAt`] — the net is forced to a constant level from
//!   the fault time, optionally releasing after `duration_ps`.
//! * [`FaultKind::Glitch`] — a voltage pulse: the net is forced to a level
//!   for `width_ps`, then released back to its driver.
//! * [`FaultKind::DelayPerturb`] — the site's driving gate becomes slower
//!   by `extra_ps` (a local supply-droop / coupling model), optionally
//!   recovering after `duration_ps`.
//! * [`FaultKind::DropTransition`] — the pending scheduled transition on
//!   the net, if any, is cancelled: the edge never happens.

use serde::{Deserialize, Serialize};

use qdi_netlist::{GateId, NetId, Netlist};

use crate::error::SimError;
use crate::simulator::TimePs;

/// What a fault does to its site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Single-event upset: invert the net's current level in place.
    TransientFlip,
    /// Force the net to a constant level (stuck-at-0 / stuck-at-1).
    StuckAt(bool),
    /// Force the net to `to` for `width_ps`, then release.
    Glitch {
        /// Level driven during the pulse.
        to: bool,
        /// Pulse width in ps.
        width_ps: TimePs,
    },
    /// Slow the site's driving gate down by `extra_ps`.
    DelayPerturb {
        /// Additional propagation delay in ps.
        extra_ps: TimePs,
    },
    /// Cancel the pending scheduled transition on the net, if any.
    DropTransition,
}

impl FaultKind {
    /// Short mnemonic used in reports and CLIs.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FaultKind::TransientFlip => "seu",
            FaultKind::StuckAt(false) => "stuck0",
            FaultKind::StuckAt(true) => "stuck1",
            FaultKind::Glitch { .. } => "glitch",
            FaultKind::DelayPerturb { .. } => "delay",
            FaultKind::DropTransition => "drop",
        }
    }
}

/// Where a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSite {
    /// A net. Delay perturbations resolve to the net's driving gate.
    Net(NetId),
    /// A gate. Level faults resolve to the gate's output net.
    Gate(GateId),
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Where the fault strikes.
    pub site: FaultSite,
    /// The fault model.
    pub kind: FaultKind,
    /// Simulation time at which the fault is applied, in ps.
    pub at_ps: TimePs,
    /// For [`FaultKind::StuckAt`] and [`FaultKind::DelayPerturb`]: how long
    /// the fault lasts. `None` means until the end of the run.
    pub duration_ps: Option<TimePs>,
}

impl Fault {
    /// A permanent fault (no automatic release).
    #[must_use]
    pub fn new(site: FaultSite, kind: FaultKind, at_ps: TimePs) -> Fault {
        Fault {
            site,
            kind,
            at_ps,
            duration_ps: None,
        }
    }

    /// The net the fault's level component acts on, given the owning
    /// netlist. Gate sites resolve to the gate's output.
    #[must_use]
    pub fn net(&self, netlist: &Netlist) -> NetId {
        match self.site {
            FaultSite::Net(net) => net,
            FaultSite::Gate(gate) => netlist.gate(gate).output,
        }
    }

    /// The gate the fault's delay component acts on: the site gate, or the
    /// site net's driver.
    #[must_use]
    pub fn gate(&self, netlist: &Netlist) -> Option<GateId> {
        match self.site {
            FaultSite::Net(net) => netlist.net(net).driver,
            FaultSite::Gate(gate) => Some(gate),
        }
    }

    /// Checks that the fault fits `netlist`, as
    /// [`crate::Simulator::inject`] does before arming it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadEnvironment`] if the site is out of range for
    /// `netlist`, or a delay perturbation targets a net with no driving
    /// gate.
    pub fn check(&self, netlist: &Netlist) -> Result<(), SimError> {
        let out_of_range = match self.site {
            FaultSite::Net(net) => (net.index() >= netlist.net_count()).then(|| net.to_string()),
            FaultSite::Gate(gate) => {
                (gate.index() >= netlist.gate_count()).then(|| gate.to_string())
            }
        };
        if let Some(site) = out_of_range {
            return Err(SimError::BadEnvironment {
                reason: format!("fault site {site} is out of range for this netlist"),
            });
        }
        if matches!(self.kind, FaultKind::DelayPerturb { .. }) && self.gate(netlist).is_none() {
            return Err(SimError::BadEnvironment {
                reason: format!(
                    "delay perturbation targets net {} which has no driving gate",
                    netlist.net(self.net(netlist)).name
                ),
            });
        }
        Ok(())
    }

    /// One-line description for reports, resolving names through `netlist`.
    #[must_use]
    pub fn describe(&self, netlist: &Netlist) -> String {
        let site = match self.site {
            FaultSite::Net(net) => format!("net {}", netlist.net(net).name),
            FaultSite::Gate(gate) => format!("gate {}", netlist.gate(gate).name),
        };
        match self.kind {
            FaultKind::TransientFlip => format!("seu on {site} at {} ps", self.at_ps),
            FaultKind::StuckAt(v) => {
                format!("stuck-at-{} on {site} from {} ps", v as u8, self.at_ps)
            }
            FaultKind::Glitch { to, width_ps } => format!(
                "glitch to {} on {site} at {} ps for {width_ps} ps",
                to as u8, self.at_ps
            ),
            FaultKind::DelayPerturb { extra_ps } => {
                format!("+{extra_ps} ps delay on {site} from {} ps", self.at_ps)
            }
            FaultKind::DropTransition => {
                format!("dropped transition on {site} at {} ps", self.at_ps)
            }
        }
    }
}

/// A schedule of faults to inject into one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults. Injecting it leaves the simulation
    /// bit-identical to an uninjected run.
    #[must_use]
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    #[must_use]
    pub fn single(fault: Fault) -> FaultPlan {
        FaultPlan {
            faults: vec![fault],
        }
    }

    /// Adds a fault to the plan.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Number of faults in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Fault> {
        self.faults.iter()
    }
}

impl FromIterator<Fault> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> FaultPlan {
        FaultPlan {
            faults: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(FaultKind::TransientFlip.mnemonic(), "seu");
        assert_eq!(FaultKind::StuckAt(false).mnemonic(), "stuck0");
        assert_eq!(FaultKind::StuckAt(true).mnemonic(), "stuck1");
        assert_eq!(
            FaultKind::Glitch {
                to: true,
                width_ps: 5
            }
            .mnemonic(),
            "glitch"
        );
        assert_eq!(FaultKind::DelayPerturb { extra_ps: 5 }.mnemonic(), "delay");
        assert_eq!(FaultKind::DropTransition.mnemonic(), "drop");
    }

    #[test]
    fn plan_collects_and_counts() {
        let f = Fault::new(
            FaultSite::Net(NetId::from_raw(0)),
            FaultKind::TransientFlip,
            10,
        );
        let plan: FaultPlan = [f, f].into_iter().collect();
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert!(FaultPlan::empty().is_empty());
        assert_eq!(FaultPlan::single(f).len(), 1);
    }

    #[test]
    fn plan_serializes() {
        let plan = FaultPlan::single(Fault {
            site: FaultSite::Gate(GateId::from_raw(3)),
            kind: FaultKind::Glitch {
                to: true,
                width_ps: 40,
            },
            at_ps: 100,
            duration_ps: None,
        });
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, plan);
    }
}
