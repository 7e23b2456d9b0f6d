//! The paper's running example as a test fixture: the dual-rail XOR of
//! Fig. 4 with its environment, and its simulated electrical signature.
//!
//! `tests/paper_claims.rs` (one test per reproduced table and figure,
//! see EXPERIMENTS.md), `tests/end_to_end.rs` and the kernel
//! micro-benchmarks in `benches/` share it.

#![forbid(unsafe_code)]

use qdi_analog::{SynthConfig, Trace, TraceSynthesizer};
use qdi_netlist::{cells, Channel, Netlist, NetlistBuilder};
use qdi_sim::{DelayModel, Testbench, TestbenchConfig};

/// The paper's running example: the dual-rail XOR of Fig. 4 with
/// environment channels attached.
pub struct XorFixture {
    /// The netlist.
    pub netlist: Netlist,
    /// Operand channel `a`.
    pub a: Channel,
    /// Operand channel `b`.
    pub b: Channel,
    /// Output channel.
    pub out: Channel,
}

impl XorFixture {
    /// Builds the fixture with all nets at the default `Cd`.
    pub fn new() -> Self {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let out = b.output_channel("co", &cell.out.rails.clone(), ack);
        XorFixture {
            netlist: b.finish().expect("valid xor fixture"),
            a,
            b: bb,
            out,
        }
    }

    /// Overrides the routing capacitance of named internal nets
    /// (e.g. `("x.h1", 16.0)` for the paper's `Cl31 = 16 fF`).
    pub fn set_caps(&mut self, caps: &[(&str, f64)]) {
        for (name, cap) in caps {
            let id = self
                .netlist
                .find_net(name)
                .unwrap_or_else(|| panic!("no net {name}"));
            self.netlist.set_routing_cap(id, *cap);
        }
    }

    /// Runs one communication with the given operand values and returns
    /// the transition log.
    pub fn run_pair(&self, av: usize, bv: usize) -> Vec<qdi_sim::Transition> {
        let mut tb = Testbench::new(&self.netlist, TestbenchConfig::default()).expect("testbench");
        tb.source(self.a.id, vec![av]).expect("source a");
        tb.source(self.b.id, vec![bv]).expect("source b");
        tb.sink(self.out.id).expect("sink");
        tb.run().expect("xor handshake completes").transitions
    }

    /// Like [`XorFixture::run_pair`] with a custom delay model.
    pub fn run_pair_with_delay(
        &self,
        av: usize,
        bv: usize,
        delay: impl DelayModel + 'static,
    ) -> Vec<qdi_sim::Transition> {
        let mut tb = Testbench::with_delay(&self.netlist, TestbenchConfig::default(), delay);
        tb.source(self.a.id, vec![av]).expect("source a");
        tb.source(self.b.id, vec![bv]).expect("source b");
        tb.sink(self.out.id).expect("sink");
        tb.run().expect("xor handshake completes").transitions
    }

    /// The simulated electrical signature `S(t) = Axor0 − Axor1`
    /// (eqs. 10–11: classes split on the XOR output value).
    pub fn signature(&self, synth_cfg: SynthConfig) -> Trace {
        let synth = TraceSynthesizer::new(&self.netlist, synth_cfg);
        let avg = |pairs: &[(usize, usize)]| {
            let traces: Vec<Trace> = pairs
                .iter()
                .map(|&(av, bv)| synth.synthesize(&self.run_pair(av, bv)))
                .collect();
            Trace::average(&traces)
        };
        Trace::difference(&avg(&[(0, 0), (1, 1)]), &avg(&[(0, 1), (1, 0)]))
    }
}

impl Default for XorFixture {
    fn default() -> Self {
        XorFixture::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_signature_is_flat_when_balanced() {
        let fx = XorFixture::new();
        let sig = fx.signature(SynthConfig::default());
        assert!(sig.abs_peak().expect("nonempty").1.abs() < 0.05);
    }

    #[test]
    fn set_caps_changes_signature() {
        let mut fx = XorFixture::new();
        fx.set_caps(&[("x.h1", 32.0)]);
        let sig = fx.signature(SynthConfig::default());
        assert!(sig.abs_peak().expect("nonempty").1.abs() > 0.1);
    }
}
