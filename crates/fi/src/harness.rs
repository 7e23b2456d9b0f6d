//! Self-configuring stimulus for arbitrary QDI netlists.
//!
//! Campaigns run the *same* stimulus hundreds of times — once clean, once
//! per fault — so the token values must be a pure function of the seed.
//! [`Stimulus`] walks the netlist boundary, attaches a seeded source to
//! every input channel and a sink to every output channel, and replays
//! the identical run on demand, optionally with a [`FaultPlan`].

use std::collections::BTreeMap;

use qdi_netlist::{ChannelId, ChannelRole, Netlist};
use qdi_sim::{FaultPlan, SimError, Testbench, TestbenchConfig, TestbenchRun};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Most tokens [`Stimulus::random`] feeds into one input channel. A run
/// logs ~240 edges per token on the S-box slice, so the bound is far
/// above any campaign, and it keeps an untrusted count (a served job
/// spec) from asking for an allocation that aborts the process.
pub const MAX_TOKENS: usize = 1_024;

/// The values each output channel delivered, keyed by channel — the
/// comparison baseline for fault classification.
pub type OutputValues = BTreeMap<ChannelId, Vec<usize>>;

/// Collects a run's received values into a comparable map.
#[must_use]
pub fn output_values(run: &TestbenchRun) -> OutputValues {
    run.received_all()
        .map(|(ch, values)| (ch, values.to_vec()))
        .collect()
}

/// A reproducible environment for one netlist: seeded token values for
/// every input channel, a sink on every output channel.
#[derive(Debug, Clone)]
pub struct Stimulus {
    inputs: Vec<(ChannelId, Vec<usize>)>,
    outputs: Vec<ChannelId>,
}

impl Stimulus {
    /// Builds a stimulus feeding `tokens` seeded-random values into every
    /// input channel of `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadEnvironment`] if `tokens` exceeds
    /// [`MAX_TOKENS`], or the netlist has no input or no output channels —
    /// there is nothing to drive or observe.
    pub fn random(netlist: &Netlist, tokens: usize, seed: u64) -> Result<Stimulus, SimError> {
        if tokens > MAX_TOKENS {
            return Err(SimError::BadEnvironment {
                reason: format!(
                    "{tokens} tokens per input channel exceeds the bound of {MAX_TOKENS}"
                ),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for ch in netlist.channels() {
            match ch.role {
                ChannelRole::Input => {
                    let values = (0..tokens).map(|_| rng.gen_range(0..ch.arity())).collect();
                    inputs.push((ch.id, values));
                }
                ChannelRole::Output => outputs.push(ch.id),
                ChannelRole::Internal => {}
            }
        }
        if inputs.is_empty() {
            return Err(SimError::BadEnvironment {
                reason: format!(
                    "netlist `{}` has no input channels to drive",
                    netlist.name()
                ),
            });
        }
        if outputs.is_empty() {
            return Err(SimError::BadEnvironment {
                reason: format!(
                    "netlist `{}` has no output channels to observe",
                    netlist.name()
                ),
            });
        }
        Ok(Stimulus { inputs, outputs })
    }

    /// The driven input channels and their token values.
    #[must_use]
    pub fn inputs(&self) -> &[(ChannelId, Vec<usize>)] {
        &self.inputs
    }

    /// The observed output channels.
    #[must_use]
    pub fn outputs(&self) -> &[ChannelId] {
        &self.outputs
    }

    /// Runs the stimulus against `netlist`, injecting `plan` when given.
    /// The simulation is deterministic: two calls with the same plan
    /// produce identical transition logs.
    ///
    /// # Errors
    ///
    /// Propagates environment-attachment and simulation errors
    /// ([`SimError`]).
    pub fn run(
        &self,
        netlist: &Netlist,
        cfg: &TestbenchConfig,
        plan: Option<&FaultPlan>,
    ) -> Result<TestbenchRun, SimError> {
        let mut tb = Testbench::new(netlist, *cfg)?;
        for (channel, values) in &self.inputs {
            tb.source(*channel, values.clone())?;
        }
        for &channel in &self.outputs {
            tb.sink(channel)?;
        }
        if let Some(plan) = plan {
            tb.inject(plan)?;
        }
        tb.run()
    }
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
    fn stimulus_attaches_to_the_boundary_and_computes_xor() {
        let nl = xor_netlist();
        let stim = Stimulus::random(&nl, 3, 5).expect("builds");
        assert_eq!(stim.inputs().len(), 2);
        assert_eq!(stim.outputs().len(), 1);
        let run = stim
            .run(&nl, &TestbenchConfig::default(), None)
            .expect("runs");
        let out = output_values(&run);
        let expect: Vec<usize> = (0..3)
            .map(|i| stim.inputs()[0].1[i] ^ stim.inputs()[1].1[i])
            .collect();
        assert_eq!(out.values().next().expect("one channel"), &expect);
    }

    #[test]
    fn same_seed_same_stimulus_different_seed_diverges() {
        let nl = xor_netlist();
        let a = Stimulus::random(&nl, 16, 7).expect("builds");
        let b = Stimulus::random(&nl, 16, 7).expect("builds");
        assert_eq!(a.inputs(), b.inputs());
        let c = Stimulus::random(&nl, 16, 8).expect("builds");
        assert_ne!(a.inputs(), c.inputs());
    }

    #[test]
    fn token_count_is_bounded() {
        let nl = xor_netlist();
        assert!(Stimulus::random(&nl, MAX_TOKENS, 1).is_ok());
        for tokens in [MAX_TOKENS + 1, 1 << 40] {
            let err = Stimulus::random(&nl, tokens, 1).expect_err("over the bound");
            assert!(matches!(err, SimError::BadEnvironment { .. }), "{err}");
        }
    }

    #[test]
    fn netlist_without_channels_is_rejected() {
        let mut b = NetlistBuilder::new("bare");
        let a = b.input_net("a");
        let o = b.gate(qdi_netlist::GateKind::Buf, "g", &[a]);
        b.mark_output(o);
        let nl = b.finish_unchecked();
        let err = Stimulus::random(&nl, 1, 1).expect_err("no channels");
        assert!(matches!(err, SimError::BadEnvironment { .. }));
    }
}
