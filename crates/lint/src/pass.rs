//! The lint pass abstraction and the pass registry.

use qdi_netlist::diag::{Diagnostic, LintCode, Severity};
use qdi_netlist::Netlist;

use crate::config::LintConfig;
use crate::passes;
use crate::report::LintReport;

/// Static description of one lint a pass can emit — the row of the
/// crate-level lint-code table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintDescriptor {
    /// Stable code.
    pub code: LintCode,
    /// Kebab-case lint name, e.g. `channel-dissymmetry`.
    pub name: &'static str,
    /// Natural severity of a typical finding.
    pub default_severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// Extended help: what the lint enforces, why a violation leaks, and
    /// where in the paper the property comes from. Shown by
    /// `qdi-lint --explain CODE`.
    pub explanation: &'static str,
}

/// Everything a pass gets to look at.
pub struct LintContext<'a> {
    /// The netlist under analysis.
    pub netlist: &'a Netlist,
    /// Severity and threshold configuration.
    pub config: &'a LintConfig,
}

impl LintContext<'_> {
    /// Resolves the effective severity for a finding of `code` whose
    /// natural severity is `natural`, per the config.
    #[must_use]
    pub fn severity(&self, code: LintCode, natural: Severity) -> Severity {
        self.config.severity_for(code, natural)
    }
}

/// One static analysis pass over a netlist.
pub trait LintPass {
    /// Pass name, e.g. `structure`.
    fn name(&self) -> &'static str;

    /// The lints this pass can emit.
    fn descriptors(&self) -> &'static [LintDescriptor];

    /// Runs the pass, appending findings to `out`. Passes must resolve
    /// severities through [`LintContext::severity`] so config overrides
    /// apply uniformly.
    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// An ordered collection of passes, run as one unit.
pub struct Registry {
    passes: Vec<Box<dyn LintPass>>,
}

impl Registry {
    /// An empty registry; add passes with [`Registry::register`].
    #[must_use]
    pub fn new() -> Registry {
        Registry { passes: Vec::new() }
    }

    /// The structural (pre-layout) passes: validity, cycles, encoding,
    /// acknowledgement and rail symmetry. Everything here is meaningful
    /// on a netlist whose capacitances have not been extracted yet.
    #[must_use]
    pub fn structural() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(passes::structure::StructurePass));
        r.register(Box::new(passes::cycles::CyclePass));
        r.register(Box::new(passes::encoding::EncodingPass));
        r.register(Box::new(passes::ack::AckPass));
        r.register(Box::new(passes::symmetry::SymmetryPass));
        r
    }

    /// The electrical (post-extraction) passes: per-level capacitance
    /// imbalance (eqs. 10–12 residual) and the `dA` criterion (eq. 13).
    #[must_use]
    pub fn electrical() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(passes::capacitance::CapacitancePass));
        r
    }

    /// The symbolic pass: data-independence proofs over one handshake
    /// cycle (`QDI0201`–`QDI0203`), with witness search on refutation.
    #[must_use]
    pub fn symbolic() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(passes::symbolic::SymbolicPass));
        r
    }

    /// All passes: structural, then symbolic, then electrical.
    #[must_use]
    pub fn full() -> Registry {
        let mut r = Registry::structural();
        r.register(Box::new(passes::symbolic::SymbolicPass));
        r.register(Box::new(passes::capacitance::CapacitancePass));
        r
    }

    /// Appends a pass.
    pub fn register(&mut self, pass: Box<dyn LintPass>) {
        self.passes.push(pass);
    }

    /// The registered passes.
    #[must_use]
    pub fn passes(&self) -> &[Box<dyn LintPass>] {
        &self.passes
    }

    /// Every lint the registered passes can emit, in code order.
    #[must_use]
    pub fn descriptors(&self) -> Vec<LintDescriptor> {
        let mut all: Vec<LintDescriptor> = self
            .passes
            .iter()
            .flat_map(|p| p.descriptors().iter().copied())
            .collect();
        all.sort_by_key(|d| d.code);
        all.dedup_by_key(|d| d.code);
        all
    }

    /// Runs every pass over `netlist` and collects the findings into a
    /// [`LintReport`]. Findings are sorted by `(code, subject, message)`
    /// regardless of which pass produced them, so output is byte-stable
    /// across registry compositions and pass reorderings.
    #[must_use]
    pub fn run(&self, netlist: &Netlist, config: &LintConfig) -> LintReport {
        let mut span = qdi_obs::span_at(qdi_obs::Level::Debug, "qdi_lint", "lint")
            .attr("netlist", netlist.name())
            .attr("passes", self.passes.len());
        let ctx = LintContext { netlist, config };
        let mut diagnostics = Vec::new();
        for pass in &self.passes {
            let before = diagnostics.len();
            pass.run(&ctx, &mut diagnostics);
            qdi_obs::debug!(target: "qdi_lint",
                pass = pass.name(),
                findings = diagnostics.len() - before,
                "lint pass finished");
        }
        diagnostics.sort_by(|a, b| {
            (
                a.code,
                a.subject.kind(),
                a.subject.name(),
                a.message.as_str(),
            )
                .cmp(&(
                    b.code,
                    b.subject.kind(),
                    b.subject.name(),
                    b.message.as_str(),
                ))
        });
        let report = LintReport::new(netlist.name(), diagnostics);
        span.set_attr("findings", report.len());
        span.set_attr("denied", report.deny_count());
        report
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_netlist::NetlistBuilder;

    #[test]
    fn registries_compose() {
        assert_eq!(Registry::structural().passes().len(), 5);
        assert_eq!(Registry::electrical().passes().len(), 1);
        assert_eq!(Registry::symbolic().passes().len(), 1);
        assert_eq!(Registry::full().passes().len(), 7);
    }

    #[test]
    fn full_registry_documents_all_twelve_codes() {
        let codes: Vec<u16> = Registry::full()
            .descriptors()
            .iter()
            .map(|d| d.code.0)
            .collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 201, 202, 203]);
    }

    #[test]
    fn every_code_has_an_explanation() {
        for d in Registry::full().descriptors() {
            assert!(
                !d.explanation.trim().is_empty(),
                "{} ({}) has no --explain text",
                d.code,
                d.name
            );
        }
    }

    /// A tangle of defects whose findings arrive from several passes:
    /// the report must come out sorted by (code, subject, message).
    #[test]
    fn findings_are_sorted_by_code_then_subject() {
        let mut b = NetlistBuilder::new("messy");
        let z = b.net("z");
        let y = b.net("y");
        let _ = b.gate(qdi_netlist::GateKind::Or, "g2", &[z]);
        let _ = b.gate(qdi_netlist::GateKind::Or, "g1", &[y]);
        let netlist = b.finish_unchecked();
        let report = Registry::full().run(&netlist, &LintConfig::default());
        assert!(report.len() >= 2, "{}", report.render_human(false));
        let keys: Vec<(u16, String, String)> = report
            .diagnostics
            .iter()
            .map(|d| {
                (
                    d.code.0,
                    d.subject.kind().to_string(),
                    d.subject.name().to_string(),
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // The two undriven-net findings specifically: subject order, not
        // emission (gate-id) order.
        let undriven: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code.0 == 1)
            .map(|d| d.subject.name())
            .collect();
        let mut expected = undriven.clone();
        expected.sort_unstable();
        assert_eq!(undriven, expected);
    }

    #[test]
    fn sorted_output_is_byte_stable_across_runs() {
        let mut b = NetlistBuilder::new("stable");
        let x = b.net("x");
        let _ = b.gate(qdi_netlist::GateKind::Or, "g", &[x]);
        let netlist = b.finish_unchecked();
        let cfg = LintConfig::default();
        let first = Registry::full().run(&netlist, &cfg).render_human(false);
        for _ in 0..3 {
            let again = Registry::full().run(&netlist, &cfg).render_human(false);
            assert_eq!(first, again);
        }
    }
}
