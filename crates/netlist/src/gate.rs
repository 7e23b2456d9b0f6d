//! Gate kinds, electrical parameters and evaluation semantics.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{GateId, NetId};

/// The logic function of a gate.
///
/// The set is the one needed by secured QDI asynchronous design: Muller
/// C-elements (plain and resettable), the monotone gates used for completion
/// detection and minterm recombination, and ordinary CMOS gates for
/// environments and test fixtures.
///
/// Arity is carried by the gate's input list, not by the kind; see
/// [`GateKind::supports_arity`] for the per-kind constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GateKind {
    /// Muller C-element: output rises when *all* inputs are 1, falls when
    /// *all* inputs are 0, and holds its value otherwise (the paper's
    /// Fig. 5 truth table, `Z = XY + Z(X + Y)`).
    Muller,
    /// Muller C-element with an asynchronous reset (`Cr` in the paper's
    /// Fig. 4). Identical to [`GateKind::Muller`] in steady-state operation;
    /// simulation starts from the reset (all-zero) state.
    MullerReset,
    /// Logical AND.
    And,
    /// Logical OR. Arity 1 is allowed and acts as a buffer; balanced QDI
    /// cells use arity-1 ORs to equalise logical depth between rails.
    Or,
    /// Logical NOR — the completion detector of the paper's Fig. 4.
    Nor,
    /// Logical NAND.
    Nand,
    /// Two-input exclusive OR.
    Xor,
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
}

impl GateKind {
    /// Returns `true` if the gate holds state (output depends on its
    /// previous value), i.e. it is a Muller C-element.
    pub fn is_state_holding(self) -> bool {
        matches!(self, GateKind::Muller | GateKind::MullerReset)
    }

    /// Returns `true` if `arity` inputs are legal for this kind.
    pub fn supports_arity(self, arity: usize) -> bool {
        match self {
            GateKind::Muller | GateKind::MullerReset => arity >= 2,
            GateKind::And | GateKind::Nor | GateKind::Nand => arity >= 2,
            GateKind::Or => arity >= 1,
            GateKind::Xor => arity == 2,
            GateKind::Inv | GateKind::Buf => arity == 1,
        }
    }

    /// Evaluates the gate from its input levels, in pin order.
    ///
    /// `prev` is the previous output value; it only matters for
    /// state-holding kinds (Muller C-elements) and is ignored otherwise.
    /// The levels are consumed in one pass, so a caller can feed them
    /// straight from its own level table without collecting them first.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty; builders reject such gates up front.
    pub fn eval(self, inputs: impl IntoIterator<Item = bool>, prev: bool) -> bool {
        let mut inputs = inputs.into_iter();
        let first = inputs.next().expect("gate evaluated with no inputs");
        let (mut all, mut any, mut parity) = (first, first, first);
        for v in inputs {
            all &= v;
            any |= v;
            parity ^= v;
        }
        match self {
            // Z = XY + Z(X + Y), generalised to N inputs.
            GateKind::Muller | GateKind::MullerReset => all || (any && prev),
            GateKind::And => all,
            GateKind::Or => any,
            GateKind::Nor => !any,
            GateKind::Nand => !all,
            GateKind::Xor => parity,
            GateKind::Inv => !first,
            GateKind::Buf => first,
        }
    }

    /// Returns `true` for monotone gates, for which a four-phase evaluation
    /// phase can only produce rising transitions and a return-to-zero phase
    /// only falling ones. All QDI data-path gates are monotone; hazard-free
    /// operation (the paper's Fig. 3) relies on this.
    pub fn is_monotone(self) -> bool {
        matches!(
            self,
            GateKind::Muller | GateKind::MullerReset | GateKind::And | GateKind::Or | GateKind::Buf
        )
    }

    /// Short mnemonic used in reports and DOT dumps.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Muller => "C",
            GateKind::MullerReset => "Cr",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Nand => "NAND",
            GateKind::Xor => "XOR",
            GateKind::Inv => "INV",
            GateKind::Buf => "BUF",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Electrical parameters of a gate instance, in the units used throughout
/// the workspace (femtofarads and kiloohms).
///
/// They model the decomposition of the paper's Section III: the total
/// capacitance charged on a transition is `C = Cl + Cpar + Csc`, where `Cl`
/// lives on the *net* (interconnect plus fanout pin loads) and `Cpar`/`Csc`
/// are contributed by the driving gate itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GateParams {
    /// Parasitic (diffusion) capacitance of the gate output, `Cpar`, in fF.
    pub cpar_ff: f64,
    /// Short-circuit equivalent capacitance, `Csc`, in fF.
    pub csc_ff: f64,
    /// Input pin capacitance presented to the driving net, in fF per pin.
    pub pin_cap_ff: f64,
    /// Equivalent drive resistance, in kΩ; together with the total output
    /// capacitance it sets the transition time `Δt ≈ k·R·C`.
    pub drive_res_kohm: f64,
}

impl GateParams {
    /// Typical parameters for `kind` with `arity` inputs, loosely calibrated
    /// on a 0.13 µm standard-cell library (the paper used HCMOS9).
    ///
    /// Capacitances grow with arity because wider gates have larger
    /// diffusion area; C-elements are heavier than simple gates because of
    /// their internal feedback structure.
    pub fn for_kind(kind: GateKind, arity: usize) -> Self {
        let a = arity as f64;
        match kind {
            GateKind::Muller | GateKind::MullerReset => GateParams {
                cpar_ff: 1.6 + 0.5 * a,
                csc_ff: 0.9,
                pin_cap_ff: 2.4,
                drive_res_kohm: 8.0,
            },
            GateKind::And | GateKind::Nand => GateParams {
                cpar_ff: 1.0 + 0.35 * a,
                csc_ff: 0.6,
                pin_cap_ff: 1.8,
                drive_res_kohm: 6.0,
            },
            GateKind::Or | GateKind::Nor => GateParams {
                cpar_ff: 1.0 + 0.4 * a,
                csc_ff: 0.6,
                pin_cap_ff: 1.8,
                drive_res_kohm: 6.5,
            },
            GateKind::Xor => GateParams {
                cpar_ff: 2.2,
                csc_ff: 1.1,
                pin_cap_ff: 2.6,
                drive_res_kohm: 9.0,
            },
            GateKind::Inv | GateKind::Buf => GateParams {
                cpar_ff: 0.7,
                csc_ff: 0.4,
                pin_cap_ff: 1.2,
                drive_res_kohm: 4.0,
            },
        }
    }

    /// Capacitance contributed by the gate itself (excluding the net),
    /// `Cpar + Csc`, in fF.
    pub fn self_cap_ff(&self) -> f64 {
        self.cpar_ff + self.csc_ff
    }
}

impl Default for GateParams {
    fn default() -> Self {
        GateParams::for_kind(GateKind::Buf, 1)
    }
}

/// A gate instance: a vertex of the paper's annotated directed graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// Identifier within the owning netlist.
    pub id: GateId,
    /// Instance name (unique within the netlist).
    pub name: String,
    /// Logic function.
    pub kind: GateKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
    /// Electrical parameters.
    pub params: GateParams,
    /// Hierarchical block path (e.g. `"aes_core/bytesub0"`) used by the
    /// hierarchical place-and-route flow; `None` means top level.
    pub block: Option<String>,
}

impl Gate {
    /// Number of input pins.
    pub fn arity(&self) -> usize {
        self.inputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn muller_truth_table_matches_paper_fig5() {
        // Z = XY + Z(X+Y): rows of the paper's truth table.
        let c = GateKind::Muller;
        assert!(!c.eval([false, false], false));
        assert!(!c.eval([false, false], true));
        assert!(!c.eval([false, true], false));
        assert!(c.eval([false, true], true));
        assert!(!c.eval([true, false], false));
        assert!(c.eval([true, false], true));
        assert!(c.eval([true, true], false));
        assert!(c.eval([true, true], true));
    }

    #[test]
    fn muller_generalises_to_three_inputs() {
        let c = GateKind::Muller;
        assert!(c.eval([true, true, true], false));
        assert!(!c.eval([false, false, false], true));
        assert!(c.eval([true, false, true], true));
        assert!(!c.eval([true, false, true], false));
    }

    #[test]
    fn simple_gates_evaluate() {
        assert!(GateKind::And.eval([true, true], false));
        assert!(!GateKind::And.eval([true, false], true));
        assert!(GateKind::Or.eval([false, true], false));
        assert!(GateKind::Or.eval([true], false)); // arity-1 OR = buffer
        assert!(GateKind::Nor.eval([false, false], false));
        assert!(!GateKind::Nor.eval([true, false], false));
        assert!(GateKind::Nand.eval([true, false], false));
        assert!(GateKind::Xor.eval([true, false], false));
        assert!(!GateKind::Xor.eval([true, true], false));
        assert!(GateKind::Inv.eval([false], false));
        assert!(GateKind::Buf.eval([true], false));
    }

    #[test]
    fn arity_constraints() {
        assert!(GateKind::Muller.supports_arity(2));
        assert!(GateKind::Muller.supports_arity(4));
        assert!(!GateKind::Muller.supports_arity(1));
        assert!(GateKind::Or.supports_arity(1));
        assert!(!GateKind::And.supports_arity(1));
        assert!(GateKind::Inv.supports_arity(1));
        assert!(!GateKind::Inv.supports_arity(2));
        assert!(GateKind::Xor.supports_arity(2));
        assert!(!GateKind::Xor.supports_arity(3));
    }

    #[test]
    fn monotone_classification() {
        assert!(GateKind::Muller.is_monotone());
        assert!(GateKind::Or.is_monotone());
        assert!(GateKind::And.is_monotone());
        assert!(!GateKind::Nor.is_monotone());
        assert!(!GateKind::Inv.is_monotone());
        assert!(!GateKind::Xor.is_monotone());
    }

    #[test]
    fn params_scale_with_arity() {
        let c2 = GateParams::for_kind(GateKind::Muller, 2);
        let c4 = GateParams::for_kind(GateKind::Muller, 4);
        assert!(c4.cpar_ff > c2.cpar_ff);
        assert!(c2.self_cap_ff() > 0.0);
    }

    #[test]
    fn state_holding_classification() {
        assert!(GateKind::Muller.is_state_holding());
        assert!(GateKind::MullerReset.is_state_holding());
        assert!(!GateKind::Or.is_state_holding());
    }
}
