//! Transition-log → current-trace synthesis.

#![allow(clippy::needless_range_loop)] // index loops run over parallel channel/ack arrays
use qdi_netlist::Netlist;
use qdi_sim::Transition;
use serde::{Deserialize, Serialize};

use crate::pulse::{Pulse, PulseShape};
use crate::trace::Trace;

/// Parameters of the electrical synthesis.
///
/// Serializable so campaign job specs (`qdi-serve`) can carry the full
/// electrical setup over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Supply voltage, volts.
    pub vdd_v: f64,
    /// Sampling period of the produced traces, ps.
    pub dt_ps: u64,
    /// Pulse shape.
    pub shape: PulseShape,
    /// Transition-time slope: `Δt = dt_k · R[kΩ] · C[fF]` ps — keep equal
    /// to the simulator's [`qdi_sim::LinearDelay::k`] so electrical and
    /// digital timing agree.
    pub dt_k: f64,
    /// Drive resistance assumed for environment-driven (primary input)
    /// nets, kΩ.
    pub input_drive_kohm: f64,
    /// Standard deviation of the Gaussian noise a campaign adds to each
    /// synthesized trace with [`Trace::add_gaussian_noise`] (same units
    /// as trace samples). [`TraceSynthesizer::synthesize`] itself is
    /// noiseless and ignores it.
    pub noise_sigma: f64,
}

impl SynthConfig {
    /// Defaults matching [`qdi_sim::LinearDelay::new`] and a 1.2 V supply.
    pub fn new() -> Self {
        SynthConfig {
            vdd_v: 1.2,
            dt_ps: 10,
            shape: PulseShape::RcExponential,
            dt_k: 0.6,
            input_drive_kohm: 4.0,
            noise_sigma: 0.0,
        }
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig::new()
    }
}

/// Turns simulator transition logs into supply-current traces.
///
/// Every edge contributes one pulse: charge `Q = C·Vdd` where
/// `C = Cl + Cpar + Csc` of the driving gate's output (or the net's load
/// capacitance alone for environment-driven nets), spread over
/// `Δt = k·R·C`. Both rising and falling edges draw supply/ground current
/// of the same polarity, as a current probe on the power pins sees.
#[derive(Debug, Clone)]
pub struct TraceSynthesizer<'a> {
    netlist: &'a Netlist,
    cfg: SynthConfig,
    /// Metric handles resolved once per synthesizer, not per trace.
    pulses_metric: qdi_obs::metrics::Counter,
    samples_metric: qdi_obs::metrics::Counter,
}

impl<'a> TraceSynthesizer<'a> {
    /// Creates a synthesizer for `netlist`.
    pub fn new(netlist: &'a Netlist, cfg: SynthConfig) -> Self {
        TraceSynthesizer {
            netlist,
            cfg,
            pulses_metric: qdi_obs::metrics::counter("analog.pulses"),
            samples_metric: qdi_obs::metrics::counter("analog.samples"),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SynthConfig {
        &self.cfg
    }

    /// Charge (fC) and duration (ps) of one edge on `net`.
    fn pulse_params(&self, t: &Transition) -> (f64, u64) {
        let net = self.netlist.net(t.net);
        let (c_ff, r_kohm) = match net.driver {
            Some(gate) => (
                self.netlist.switched_cap_ff(gate),
                self.netlist.gate(gate).params.drive_res_kohm,
            ),
            None => (self.netlist.total_load_ff(t.net), self.cfg.input_drive_kohm),
        };
        let charge = c_ff * self.cfg.vdd_v;
        let dur = (self.cfg.dt_k * r_kohm * c_ff).max(1.0).round() as u64;
        (charge, dur)
    }

    /// Synthesizes a noiseless trace from a transition log.
    pub fn synthesize(&self, transitions: &[Transition]) -> Trace {
        let _span = qdi_obs::span::hot("analog.synth");
        let mut trace = Trace::zeros(0, self.cfg.dt_ps, 1);
        for t in transitions {
            let (charge_fc, dur_ps) = self.pulse_params(t);
            trace.add_pulse(
                Pulse {
                    t0_ps: t.time_ps,
                    charge_fc,
                    dur_ps,
                },
                self.cfg.shape,
            );
        }
        self.pulses_metric.add(transitions.len() as u64);
        self.samples_metric.add(trace.len() as u64);
        qdi_obs::trace!(target: "qdi_analog::synth",
            pulses = transitions.len(),
            samples = trace.len(),
            charge_fc = trace.charge_fc(),
            "synthesized trace");
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_netlist::{cells, NetlistBuilder};
    use qdi_sim::{Testbench, TestbenchConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn xor_netlist() -> (
        Netlist,
        qdi_netlist::Channel,
        qdi_netlist::Channel,
        qdi_netlist::Channel,
    ) {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let out = b.output_channel("co", &cell.out.rails.clone(), ack);
        (b.finish().expect("valid"), a, bb, out)
    }

    fn run_xor(
        nl: &Netlist,
        a: &qdi_netlist::Channel,
        bb: &qdi_netlist::Channel,
        out: &qdi_netlist::Channel,
        av: usize,
        bv: usize,
    ) -> Vec<Transition> {
        let mut tb = Testbench::new(nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, vec![av]).expect("src");
        tb.source(bb.id, vec![bv]).expect("src");
        tb.sink(out.id).expect("sink");
        tb.run().expect("completes").transitions
    }

    #[test]
    fn balanced_xor_traces_have_equal_charge() {
        let (nl, a, bb, out) = xor_netlist();
        let synth = TraceSynthesizer::new(&nl, SynthConfig::default());
        let charges: Vec<f64> = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .into_iter()
            .map(|(av, bv)| {
                synth
                    .synthesize(&run_xor(&nl, &a, &bb, &out, av, bv))
                    .charge_fc()
            })
            .collect();
        for w in charges.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-6,
                "balanced cell must draw identical charge: {charges:?}"
            );
        }
        assert!(charges[0] > 0.0);
    }

    #[test]
    fn unbalancing_one_net_changes_one_data_class_only() {
        // Enlarge the cap on m1 (fires only when a=0, b=0): the (0,0) trace
        // gains charge, the (1,1) trace must not.
        let (mut nl, a, bb, out) = xor_netlist();
        let m1 = nl.find_net("x.m1").expect("m1");
        let base_00;
        let base_11;
        {
            let synth = TraceSynthesizer::new(&nl, SynthConfig::default());
            base_00 = synth
                .synthesize(&run_xor(&nl, &a, &bb, &out, 0, 0))
                .charge_fc();
            base_11 = synth
                .synthesize(&run_xor(&nl, &a, &bb, &out, 1, 1))
                .charge_fc();
        }
        nl.set_routing_cap(m1, 32.0);
        let synth = TraceSynthesizer::new(&nl, SynthConfig::default());
        let new_00 = synth
            .synthesize(&run_xor(&nl, &a, &bb, &out, 0, 0))
            .charge_fc();
        let new_11 = synth
            .synthesize(&run_xor(&nl, &a, &bb, &out, 1, 1))
            .charge_fc();
        assert!(new_00 > base_00 + 1.0, "m1 fires for (0,0)");
        assert!((new_11 - base_11).abs() < 1e-6, "m1 idle for (1,1)");
    }

    #[test]
    fn noise_changes_trace_but_not_mean_much() {
        let (nl, a, bb, out) = xor_netlist();
        let cfg = SynthConfig {
            noise_sigma: 0.05,
            ..SynthConfig::default()
        };
        let synth = TraceSynthesizer::new(&nl, cfg);
        let log = run_xor(&nl, &a, &bb, &out, 0, 1);
        let clean = synth.synthesize(&log);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut noisy = synth.synthesize(&log);
        noisy.add_gaussian_noise(&mut rng, synth.config().noise_sigma);
        assert_eq!(clean.len(), noisy.len());
        assert!(clean.samples() != noisy.samples());
    }

    #[test]
    fn input_edges_use_input_drive() {
        let mut b = NetlistBuilder::new("pi");
        let a = b.input_net("a");
        let y = b.gate(qdi_netlist::GateKind::Buf, "y", &[a]);
        b.mark_output(y);
        let nl = b.finish().expect("valid");
        let a = nl.find_net("a").expect("a");
        let synth = TraceSynthesizer::new(&nl, SynthConfig::default());
        let log = vec![Transition {
            time_ps: 100,
            net: a,
            rising: true,
        }];
        let trace = synth.synthesize(&log);
        let expected = nl.total_load_ff(a) * 1.2;
        assert!((trace.charge_fc() - expected).abs() < 0.3);
    }
}
