//! The [`Netlist`] container and its fluent [`NetlistBuilder`].

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::channel::{Channel, ChannelId, ChannelRole};
use crate::error::NetlistError;
use crate::gate::{Gate, GateKind, GateParams};
use crate::id::{GateId, NetId};
use crate::net::Net;

/// A flattened gate-level netlist of a QDI asynchronous circuit.
///
/// A netlist owns gates, nets and channels. It is the value on which every
/// other crate in the workspace operates: the simulator executes it, the
/// place-and-route flow annotates its nets with extracted capacitances, the
/// graph analysis derives the paper's `Nt`/`Nc`/`N_ij` from it, and the
/// formal current model turns it into a predicted power signature.
///
/// Construct one with [`NetlistBuilder`]; a finished netlist has passed
/// structural validation (single driver per net, legal gate arities,
/// well-formed channels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    nets: Vec<Net>,
    channels: Vec<Channel>,
    net_names: HashMap<String, NetId>,
    gate_names: HashMap<String, GateId>,
    channel_names: HashMap<String, ChannelId>,
}

/// Aggregate counts over a netlist, used in reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Total number of gates.
    pub gates: usize,
    /// Total number of nets.
    pub nets: usize,
    /// Total number of channels.
    pub channels: usize,
    /// Gate count per kind mnemonic (`"C"`, `"OR"`, ...).
    pub by_kind: Vec<(String, usize)>,
}

impl Netlist {
    /// Netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Gate accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Net accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Channel accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Iterates over all gates in id order.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = &Gate> {
        self.gates.iter()
    }

    /// Iterates over all nets in id order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = &Net> {
        self.nets.iter()
    }

    /// Iterates over all channels in id order.
    pub fn channels(&self) -> impl ExactSizeIterator<Item = &Channel> {
        self.channels.iter()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Looks up a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Looks up a gate by name.
    pub fn find_gate(&self, name: &str) -> Option<GateId> {
        self.gate_names.get(name).copied()
    }

    /// Looks up a channel by name.
    pub fn find_channel(&self, name: &str) -> Option<ChannelId> {
        self.channel_names.get(name).copied()
    }

    /// Total capacitance hanging on `net`: interconnect (`routing_cap_ff`)
    /// plus the pin capacitance of every load gate. This is the paper's
    /// load capacitance `Cl`.
    pub fn total_load_ff(&self, net: NetId) -> f64 {
        let n = self.net(net);
        let pin_sum: f64 = n
            .loads
            .iter()
            .map(|&g| self.gate(g).params.pin_cap_ff)
            .sum();
        n.routing_cap_ff + pin_sum
    }

    /// Total capacitance switched when `gate` toggles its output:
    /// `C = Cl + Cpar + Csc` (paper, Section III).
    pub fn switched_cap_ff(&self, gate: GateId) -> f64 {
        let g = self.gate(gate);
        self.total_load_ff(g.output) + g.params.self_cap_ff()
    }

    /// Overwrites the interconnect capacitance of `net`, in fF.
    ///
    /// Used by parasitic extraction after place-and-route, and by the
    /// capacitance-sweep experiments of the paper's Section V.
    ///
    /// # Panics
    ///
    /// Panics if `cap_ff` is negative or not finite.
    pub fn set_routing_cap(&mut self, net: NetId, cap_ff: f64) {
        assert!(
            cap_ff.is_finite() && cap_ff >= 0.0,
            "capacitance must be finite and >= 0"
        );
        self.nets[net.index()].routing_cap_ff = cap_ff;
    }

    /// Overrides a channel's boundary role — used by the text-format
    /// loader, which reconstructs channels through the generic builder
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn set_channel_role(&mut self, id: ChannelId, role: ChannelRole) {
        self.channels[id.index()].role = role;
    }

    /// Mutable access to a gate's electrical parameters — used to model
    /// per-instance process mismatch (the paper's Fig. 6 attributes the
    /// residual signature of a perfectly balanced layout to `Cpar`/`Csc`
    /// variations between nominally identical gates).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn gate_params_mut(&mut self, id: GateId) -> &mut GateParams {
        &mut self.gates[id.index()].params
    }

    /// Applies deterministic pseudo-random process mismatch: every gate's
    /// `Cpar` and `Csc` are scaled by a factor in `1 ± spread` derived
    /// from `seed` and the gate index. `spread` of a few percent models
    /// intra-die variation.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is not in `[0, 1)`.
    pub fn apply_process_mismatch(&mut self, seed: u64, spread: f64) {
        assert!((0.0..1.0).contains(&spread), "spread must be in [0, 1)");
        for gate in &mut self.gates {
            // SplitMix64 keeps the mismatch deterministic and dependency
            // free.
            let mut z = seed ^ (gate.id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            let factor = 1.0 + spread * (2.0 * unit - 1.0);
            gate.params.cpar_ff *= factor;
            gate.params.csc_ff *= factor;
        }
    }

    /// Resets every net's interconnect capacitance to the pre-layout
    /// default `Cd` ([`Net::DEFAULT_ROUTING_CAP_FF`]).
    pub fn reset_routing_caps(&mut self) {
        for net in &mut self.nets {
            net.routing_cap_ff = Net::DEFAULT_ROUTING_CAP_FF;
        }
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut by_kind: HashMap<&'static str, usize> = HashMap::new();
        for g in &self.gates {
            *by_kind.entry(g.kind.mnemonic()).or_default() += 1;
        }
        let mut by_kind: Vec<(String, usize)> = by_kind
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        by_kind.sort();
        NetlistStats {
            gates: self.gates.len(),
            nets: self.nets.len(),
            channels: self.channels.len(),
            by_kind,
        }
    }

    /// Distinct hierarchical block names appearing on gates, sorted.
    pub fn block_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.gates.iter().filter_map(|g| g.block.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Runs structural validation; builders call this from
    /// [`NetlistBuilder::finish`], so an already-finished netlist passes.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found: unsupported arity,
    /// undriven internal net, or malformed channel.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for g in &self.gates {
            if !g.kind.supports_arity(g.arity()) {
                return Err(NetlistError::BadArity {
                    gate: g.id,
                    kind: g.kind.mnemonic().to_owned(),
                    arity: g.arity(),
                });
            }
        }
        for n in &self.nets {
            if n.is_undriven() && !n.is_primary_input {
                return Err(NetlistError::UndrivenNet {
                    net: n.id,
                    name: n.name.clone(),
                });
            }
        }
        for c in &self.channels {
            if c.rails.is_empty() {
                return Err(NetlistError::MalformedChannel {
                    name: c.name.clone(),
                    reason: "no rails".to_owned(),
                });
            }
            let mut seen = c.rails.clone();
            seen.sort();
            seen.dedup();
            if seen.len() != c.rails.len() {
                return Err(NetlistError::MalformedChannel {
                    name: c.name.clone(),
                    reason: "duplicate rail".to_owned(),
                });
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Netlist`].
///
/// The builder is infallible per call — errors (duplicate names, double
/// drivers, bad arities) are recorded and reported by [`NetlistBuilder::finish`],
/// which keeps generator code free of `?` noise while still guaranteeing
/// that no invalid netlist escapes.
///
/// # Example
///
/// ```
/// use qdi_netlist::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), qdi_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("demo");
/// let a = b.input_net("a");
/// let c = b.input_net("b");
/// let y = b.gate(GateKind::And, "y", &[a, c]);
/// b.mark_output(y);
/// let netlist = b.finish()?;
/// assert_eq!(netlist.gate_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    nets: Vec<Net>,
    channels: Vec<Channel>,
    net_names: HashMap<String, NetId>,
    gate_names: HashMap<String, GateId>,
    channel_names: HashMap<String, ChannelId>,
    block_stack: Vec<String>,
    first_error: Option<NetlistError>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a netlist called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            gates: Vec::new(),
            nets: Vec::new(),
            channels: Vec::new(),
            net_names: HashMap::new(),
            gate_names: HashMap::new(),
            channel_names: HashMap::new(),
            block_stack: Vec::new(),
            first_error: None,
        }
    }

    fn record_error(&mut self, err: NetlistError) {
        if self.first_error.is_none() {
            self.first_error = Some(err);
        }
    }

    /// Creates a plain internal net.
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let id = NetId(self.nets.len() as u32);
        if self.net_names.contains_key(&name) {
            self.record_error(NetlistError::DuplicateName { name: name.clone() });
        }
        self.net_names.insert(name.clone(), id);
        self.nets.push(Net {
            id,
            name,
            driver: None,
            loads: Vec::new(),
            routing_cap_ff: Net::DEFAULT_ROUTING_CAP_FF,
            is_primary_input: false,
            is_primary_output: false,
        });
        id
    }

    /// Creates a primary-input net (driven by the environment).
    pub fn input_net(&mut self, name: impl Into<String>) -> NetId {
        let id = self.net(name);
        self.nets[id.index()].is_primary_input = true;
        id
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.nets[net.index()].is_primary_output = true;
    }

    /// Instantiates a gate and returns its freshly created output net,
    /// which is named after the gate.
    ///
    /// Electrical parameters default to [`GateParams::for_kind`].
    pub fn gate(&mut self, kind: GateKind, name: impl Into<String>, inputs: &[NetId]) -> NetId {
        let name = name.into();
        let out = self.net(name.clone());
        self.gate_into(kind, name, inputs, out);
        out
    }

    /// Instantiates a gate driving an existing net.
    pub fn gate_into(
        &mut self,
        kind: GateKind,
        name: impl Into<String>,
        inputs: &[NetId],
        output: NetId,
    ) -> GateId {
        let name = name.into();
        let id = GateId(self.gates.len() as u32);
        if self.gate_names.contains_key(&name) {
            self.record_error(NetlistError::DuplicateName { name: name.clone() });
        }
        if !kind.supports_arity(inputs.len()) {
            self.record_error(NetlistError::BadArity {
                gate: id,
                kind: kind.mnemonic().to_owned(),
                arity: inputs.len(),
            });
        }
        if let Some(first) = self.nets[output.index()].driver {
            self.record_error(NetlistError::MultipleDrivers {
                net: output,
                first,
                second: id,
            });
        }
        self.nets[output.index()].driver = Some(id);
        for &input in inputs {
            self.nets[input.index()].loads.push(id);
        }
        let params = GateParams::for_kind(kind, inputs.len());
        let block = if self.block_stack.is_empty() {
            None
        } else {
            Some(self.block_stack.join("/"))
        };
        self.gate_names.insert(name.clone(), id);
        self.gates.push(Gate {
            id,
            name,
            kind,
            inputs: inputs.to_vec(),
            output,
            params,
            block,
        });
        id
    }

    /// Creates an input channel: `n` primary-input rails named
    /// `{name}.r{i}`. The acknowledge net is attached later with
    /// [`NetlistBuilder::connect_input_acks`] once the completion logic
    /// that drives it exists.
    pub fn input_channel(&mut self, name: impl Into<String>, n: usize) -> Channel {
        let name = name.into();
        let rails: Vec<NetId> = (0..n)
            .map(|i| self.input_net(format!("{name}.r{i}")))
            .collect();
        self.add_channel(name, rails, None, ChannelRole::Input)
    }

    /// Declares an output channel over existing rails. The rails are marked
    /// as primary outputs; `ack` must be a net the environment drives
    /// (typically created with [`NetlistBuilder::input_net`]).
    pub fn output_channel(
        &mut self,
        name: impl Into<String>,
        rails: &[NetId],
        ack: NetId,
    ) -> Channel {
        for &r in rails {
            self.mark_output(r);
        }
        self.add_channel(name, rails.to_vec(), Some(ack), ChannelRole::Output)
    }

    /// Declares an internal channel (a point-to-point link between two
    /// modules of the same netlist).
    pub fn internal_channel(
        &mut self,
        name: impl Into<String>,
        rails: &[NetId],
        ack: Option<NetId>,
    ) -> Channel {
        self.add_channel(name, rails.to_vec(), ack, ChannelRole::Internal)
    }

    fn add_channel(
        &mut self,
        name: impl Into<String>,
        rails: Vec<NetId>,
        ack: Option<NetId>,
        role: ChannelRole,
    ) -> Channel {
        let name = name.into();
        let id = ChannelId(self.channels.len() as u32);
        if self.channel_names.contains_key(&name) {
            self.record_error(NetlistError::DuplicateName { name: name.clone() });
        }
        self.channel_names.insert(name.clone(), id);
        let ch = Channel {
            id,
            name,
            rails,
            ack,
            role,
        };
        self.channels.push(ch.clone());
        ch
    }

    /// Attaches `ack` as the acknowledge net of the given input channels
    /// and marks it as a primary output (it is observed by the sending
    /// environment). Several input channels acknowledged by one completion
    /// detector — as in the paper's Fig. 4 — share the net.
    pub fn connect_input_acks(&mut self, channels: &[ChannelId], ack: NetId) {
        self.mark_output(ack);
        for &c in channels {
            self.channels[c.index()].ack = Some(ack);
        }
    }

    /// Pushes a hierarchical block scope; gates created until the matching
    /// [`NetlistBuilder::pop_block`] are tagged with the joined path. Used
    /// by the hierarchical place-and-route flow to know which region each
    /// gate belongs to.
    pub fn push_block(&mut self, name: impl Into<String>) {
        self.block_stack.push(name.into());
    }

    /// Pops the innermost block scope.
    pub fn pop_block(&mut self) {
        self.block_stack.pop();
    }

    /// Number of gates created so far (useful for generator progress and
    /// unique-name construction).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Looks up a net created earlier in this builder by name — useful
    /// for generators that allocate placeholder nets and wire them later.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Finalises the netlist.
    ///
    /// # Errors
    ///
    /// Returns the first error recorded during construction, or the first
    /// failure of [`Netlist::validate`].
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if let Some(err) = self.first_error {
            return Err(err);
        }
        let netlist = Netlist {
            name: self.name,
            gates: self.gates,
            nets: self.nets,
            channels: self.channels,
            net_names: self.net_names,
            gate_names: self.gate_names,
            channel_names: self.channel_names,
        };
        netlist.validate()?;
        Ok(netlist)
    }

    /// Builds the netlist **without** validating it and ignoring any error
    /// recorded during construction.
    ///
    /// This is the escape hatch for analysis tooling: `qdi-lint` exists to
    /// *diagnose* malformed netlists (undriven nets, double drivers,
    /// malformed channels) with proper context, which requires being able
    /// to hold one. Simulation and place-and-route assume a validated
    /// netlist; do not feed them the result of this method.
    #[must_use]
    pub fn finish_unchecked(self) -> Netlist {
        Netlist {
            name: self.name,
            gates: self.gates,
            nets: self.nets,
            channels: self.channels,
            net_names: self.net_names,
            gate_names: self.gate_names,
            channel_names: self.channel_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_single_gate() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let y = b.gate(GateKind::And, "y", &[a, c]);
        b.mark_output(y);
        let nl = b.finish().expect("valid");
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.net_count(), 3);
        assert_eq!(nl.net(y).driver, Some(GateId::from_raw(0)));
        assert_eq!(nl.net(a).loads.len(), 1);
        assert_eq!(nl.find_gate("y"), Some(GateId::from_raw(0)));
        assert_eq!(nl.find_net("a"), Some(a));
    }

    #[test]
    fn rejects_double_driver() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let y = b.gate(GateKind::Or, "y", &[a, c]);
        b.gate_into(GateKind::And, "z", &[a, c], y);
        let err = b.finish().expect_err("double driver");
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn rejects_bad_arity() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        b.gate(GateKind::Inv, "y", &[a, a]);
        let err = b.finish().expect_err("bad arity");
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn rejects_undriven_internal_net() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let floating = b.net("f");
        b.gate(GateKind::Or, "y", &[a, floating]);
        let err = b.finish().expect_err("floating net");
        assert!(matches!(err, NetlistError::UndrivenNet { .. }));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = NetlistBuilder::new("t");
        b.input_net("a");
        b.input_net("a");
        let err = b.finish().expect_err("dup");
        assert!(matches!(err, NetlistError::DuplicateName { .. }));
    }

    #[test]
    fn input_channel_creates_primary_input_rails() {
        let mut b = NetlistBuilder::new("t");
        let ch = b.input_channel("a", 2);
        let o = b.gate(GateKind::Or, "o", &[ch.rail(0), ch.rail(1)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        assert_eq!(nl.channel_count(), 1);
        assert!(nl.net(ch.rail(0)).is_primary_input);
        assert!(nl.net(ch.rail(1)).is_primary_input);
        assert_eq!(nl.net(ch.rail(0)).name, "a.r0");
    }

    #[test]
    fn connect_input_acks_wires_shared_ack() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let c = b.input_channel("b", 2);
        let done = b.gate(GateKind::Nor, "done", &[a.rail(0), a.rail(1)]);
        b.connect_input_acks(&[a.id, c.id], done);
        let o = b.gate(GateKind::Or, "o", &[c.rail(0), c.rail(1)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        assert_eq!(nl.channel(a.id).ack, Some(done));
        assert_eq!(nl.channel(c.id).ack, Some(done));
        assert!(nl.net(done).is_primary_output);
    }

    #[test]
    fn block_scopes_tag_gates() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let c = b.input_net("b");
        b.push_block("core");
        b.push_block("bytesub");
        let y = b.gate(GateKind::And, "y", &[a, c]);
        b.pop_block();
        let z = b.gate(GateKind::Or, "z", &[a, y]);
        b.pop_block();
        b.mark_output(z);
        let nl = b.finish().expect("valid");
        assert_eq!(
            nl.gate(GateId::from_raw(0)).block.as_deref(),
            Some("core/bytesub")
        );
        assert_eq!(nl.gate(GateId::from_raw(1)).block.as_deref(), Some("core"));
        assert_eq!(
            nl.block_names(),
            vec!["core".to_owned(), "core/bytesub".to_owned()]
        );
    }

    #[test]
    fn switched_cap_sums_components() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let y = b.gate(GateKind::Muller, "y", &[a, c]);
        let z = b.gate(GateKind::Inv, "z", &[y]);
        b.mark_output(z);
        let nl = b.finish().expect("valid");
        let g = nl.find_gate("y").expect("gate y");
        let inv_pin = GateParams::for_kind(GateKind::Inv, 1).pin_cap_ff;
        let muller = GateParams::for_kind(GateKind::Muller, 2);
        let expect = Net::DEFAULT_ROUTING_CAP_FF + inv_pin + muller.self_cap_ff();
        assert!((nl.switched_cap_ff(g) - expect).abs() < 1e-12);
    }

    #[test]
    fn stats_count_by_kind() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let c = b.input_net("b");
        let m = b.gate(GateKind::Muller, "m", &[a, c]);
        let o = b.gate(GateKind::Or, "o", &[m, a]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        let stats = nl.stats();
        assert_eq!(stats.gates, 2);
        assert!(stats.by_kind.contains(&("C".to_owned(), 1)));
        assert!(stats.by_kind.contains(&("OR".to_owned(), 1)));
    }

    #[test]
    fn reset_routing_caps_restores_default() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let y = b.gate(GateKind::Buf, "y", &[a]);
        b.mark_output(y);
        let mut nl = b.finish().expect("valid");
        nl.set_routing_cap(y, 99.0);
        assert_eq!(nl.net(y).routing_cap_ff, 99.0);
        nl.reset_routing_caps();
        assert_eq!(nl.net(y).routing_cap_ff, Net::DEFAULT_ROUTING_CAP_FF);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn set_routing_cap_rejects_negative() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_net("a");
        let y = b.gate(GateKind::Buf, "y", &[a]);
        b.mark_output(y);
        let mut nl = b.finish().expect("valid");
        nl.set_routing_cap(y, -1.0);
    }
}
