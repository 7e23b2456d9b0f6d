//! Fault-outcome classification against a golden run.
//!
//! The paper's Section II argues that a perturbed QDI circuit either
//! absorbs the perturbation or stalls a handshake — the fault surfaces as
//! a *deadlock*, never as silently wrong data. A campaign makes that
//! claim measurable: every injected run lands in exactly one
//! [`FaultOutcome`] class, and [`FaultOutcome::SilentCorruption`] is the
//! class the paper predicts to be empty for dual-rail logic.

use qdi_netlist::Netlist;
use qdi_sim::protocol::PinIndex;
use qdi_sim::{SimError, TestbenchRun};
use serde::{Deserialize, Serialize};

use crate::harness::{output_values, OutputValues};

/// How one injected run ended, relative to the golden (fault-free) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// The run completed, the handshake protocol stayed clean, and every
    /// output channel delivered the golden values: the circuit absorbed
    /// the fault.
    Masked,
    /// A handshake stalled ([`SimError::Deadlock`]) — the Section II
    /// alarm. The fault is detected.
    Deadlock,
    /// The watchdog flagged non-quiescence: an oscillation fingerprint
    /// ([`SimError::Livelock`]) or an exhausted event/time budget. The
    /// fault is detected (the circuit visibly hangs), though less
    /// gracefully than a deadlock.
    Livelock,
    /// The run completed but the transition log shows a 1-of-N encoding
    /// or phase-order violation (`QDI0101`/`QDI0102`): a completion
    /// detector downstream would flag this in silicon, so the fault
    /// counts as detected.
    ProtocolViolation,
    /// The run completed, the protocol stayed clean, but an output
    /// channel delivered wrong data — undetectable by the QDI handshake.
    /// This is the failure class the paper's argument excludes for
    /// dual-rail gates.
    SilentCorruption,
    /// The fault could not be injected ([`SimError::BadEnvironment`]):
    /// a harness problem, not a circuit verdict.
    Aborted,
}

impl FaultOutcome {
    /// Short mnemonic used in reports and CLIs.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::Deadlock => "deadlock",
            FaultOutcome::Livelock => "livelock",
            FaultOutcome::ProtocolViolation => "protocol",
            FaultOutcome::SilentCorruption => "silent",
            FaultOutcome::Aborted => "aborted",
        }
    }

    /// Parses a mnemonic (for `--fail-on` style options).
    #[must_use]
    pub fn parse(name: &str) -> Option<FaultOutcome> {
        match name {
            "masked" => Some(FaultOutcome::Masked),
            "deadlock" => Some(FaultOutcome::Deadlock),
            "livelock" => Some(FaultOutcome::Livelock),
            "protocol" => Some(FaultOutcome::ProtocolViolation),
            "silent" => Some(FaultOutcome::SilentCorruption),
            "aborted" => Some(FaultOutcome::Aborted),
            _ => None,
        }
    }

    /// `true` when the fault was *detected*: the circuit (or its
    /// environment) visibly failed instead of delivering wrong data.
    #[must_use]
    pub fn is_detected(self) -> bool {
        matches!(
            self,
            FaultOutcome::Deadlock | FaultOutcome::Livelock | FaultOutcome::ProtocolViolation
        )
    }

    /// All classes, in report order.
    #[must_use]
    pub fn all() -> [FaultOutcome; 6] {
        [
            FaultOutcome::Masked,
            FaultOutcome::Deadlock,
            FaultOutcome::Livelock,
            FaultOutcome::ProtocolViolation,
            FaultOutcome::SilentCorruption,
            FaultOutcome::Aborted,
        ]
    }
}

impl std::fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Classifies one injected run against the golden outputs.
///
/// Completed runs are checked in two stages: the four-phase protocol
/// checker first (a completion detector would catch those faults in
/// silicon), then a value comparison per output channel. A run that
/// delivers *extra or missing* tokens on a channel also differs from the
/// golden values and classifies as corruption.
///
/// This checks the whole log from idle. A campaign classifies its forked
/// runs with [`crate::GoldenRun::outcome`] instead, which checks only the
/// log past the fork's snapshot, with the same checker and the same
/// result.
#[must_use]
pub fn classify(
    netlist: &Netlist,
    golden: &OutputValues,
    result: &Result<TestbenchRun, SimError>,
) -> FaultOutcome {
    match result {
        Err(err) => failed(err),
        Ok(run) => {
            let index = PinIndex::new(netlist.channels());
            let conformant = index.idle().feed(&index, &run.transitions);
            completed(conformant, || output_values(run) == *golden)
        }
    }
}

/// The class of a run that failed with `err`.
pub(crate) fn failed(err: &SimError) -> FaultOutcome {
    match err {
        SimError::Deadlock { .. } => FaultOutcome::Deadlock,
        SimError::Livelock { .. } | SimError::EventLimit { .. } | SimError::SimTimeout { .. } => {
            FaultOutcome::Livelock
        }
        SimError::BadEnvironment { .. } => FaultOutcome::Aborted,
        _ => FaultOutcome::Aborted,
    }
}

/// The class of a run that completed: the protocol verdict first, then
/// whether every output channel delivered the golden values.
pub(crate) fn completed(conformant: bool, golden_values: impl FnOnce() -> bool) -> FaultOutcome {
    if !conformant {
        FaultOutcome::ProtocolViolation
    } else if golden_values() {
        FaultOutcome::Masked
    } else {
        FaultOutcome::SilentCorruption
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_round_trip() {
        for outcome in FaultOutcome::all() {
            assert_eq!(FaultOutcome::parse(outcome.mnemonic()), Some(outcome));
        }
        assert_eq!(FaultOutcome::parse("meh"), None);
    }

    #[test]
    fn detection_classes() {
        assert!(FaultOutcome::Deadlock.is_detected());
        assert!(FaultOutcome::Livelock.is_detected());
        assert!(FaultOutcome::ProtocolViolation.is_detected());
        assert!(!FaultOutcome::Masked.is_detected());
        assert!(!FaultOutcome::SilentCorruption.is_detected());
        assert!(!FaultOutcome::Aborted.is_detected());
    }

    #[test]
    fn outcome_serializes() {
        let json = serde_json::to_string(&FaultOutcome::SilentCorruption).expect("serializes");
        let back: FaultOutcome = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, FaultOutcome::SilentCorruption);
    }
}
