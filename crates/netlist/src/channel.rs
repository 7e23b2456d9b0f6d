//! 1-of-N delay-insensitive channels and their encoding (paper Table 1).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Net, NetId, Netlist};

/// Index of a channel within a netlist.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(pub(crate) u32);

impl ChannelId {
    /// Creates a channel id from a raw index.
    pub fn from_raw(index: u32) -> Self {
        ChannelId(index)
    }

    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Where a channel sits relative to the netlist boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelRole {
    /// Driven by the environment (data flows into the netlist).
    Input,
    /// Driven by the netlist, observed by the environment.
    Output,
    /// Fully internal point-to-point channel between two modules.
    Internal,
}

/// Observed state of a 1-of-N channel, per the encoding of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelState {
    /// All rails low: the return-to-zero spacer between communications.
    Invalid,
    /// Exactly one rail high, carrying this value.
    Valid(usize),
    /// More than one rail high — the "unused" row of Table 1; never occurs
    /// in a correct QDI circuit and is flagged by the protocol checker.
    Illegal,
}

impl ChannelState {
    /// Decodes rail levels into a channel state.
    pub fn from_rails(levels: &[bool]) -> Self {
        ChannelState::decode(levels.iter().copied())
    }

    /// Decodes rail levels, in rail order, without collecting them: stops
    /// at the second high rail.
    fn decode(levels: impl IntoIterator<Item = bool>) -> Self {
        let mut high = levels
            .into_iter()
            .enumerate()
            .filter_map(|(rail, v)| v.then_some(rail));
        match (high.next(), high.next()) {
            (None, _) => ChannelState::Invalid,
            (Some(rail), None) => ChannelState::Valid(rail),
            (Some(_), Some(_)) => ChannelState::Illegal,
        }
    }
}

/// Encodes `value` as a 1-of-`n` rail vector (Table 1 generalised to N
/// rails).
///
/// # Panics
///
/// Panics if `value >= n`.
pub fn encode_one_hot(value: usize, n: usize) -> Vec<bool> {
    assert!(
        value < n,
        "value {value} not representable in 1-of-{n} code"
    );
    let mut rails = vec![false; n];
    rails[value] = true;
    rails
}

/// A 1-of-N channel: `N` data rails plus an acknowledge net.
///
/// For `N = 2` this is the dual-rail encoding of the paper's Table 1:
/// rail 0 high encodes the value 0, rail 1 high encodes 1, all rails low is
/// the invalid (spacer) state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    /// Identifier within the owning netlist.
    pub id: ChannelId,
    /// Channel name (unique within the netlist).
    pub name: String,
    /// Data rails; `rails[v]` is the rail encoding value `v`.
    pub rails: Vec<NetId>,
    /// Acknowledge net (NOR-completion convention: 1 = consumer ready,
    /// 0 = data captured). `None` for channels whose handshake is managed
    /// outside the netlist.
    pub ack: Option<NetId>,
    /// Boundary role.
    pub role: ChannelRole,
}

impl Channel {
    /// Number of rails (the `N` of 1-of-N).
    pub fn arity(&self) -> usize {
        self.rails.len()
    }

    /// `true` for dual-rail channels.
    pub fn is_dual_rail(&self) -> bool {
        self.rails.len() == 2
    }

    /// The rail net encoding `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value >= self.arity()`.
    pub fn rail(&self, value: usize) -> NetId {
        self.rails[value]
    }

    /// Interconnect capacitance of each rail, in fF, as annotated on the
    /// netlist (after extraction these are the routed `Cl` values).
    pub fn rail_caps_ff<'a>(&'a self, netlist: &'a Netlist) -> impl Iterator<Item = f64> + 'a {
        self.rails.iter().map(|&r| netlist.net(r).routing_cap_ff)
    }

    /// The paper's per-channel dissymmetry criterion (Section VI):
    ///
    /// ```text
    /// dA = |Cl0 − Cl1| / min(Cl0, Cl1)
    /// ```
    ///
    /// generalised to 1-of-N channels as `(max − min) / min` over the rail
    /// capacitances. Lower is better; `0` means perfectly matched rails.
    ///
    /// Returns `None` for channels with fewer than two rails or when the
    /// minimum capacitance is not strictly positive (the criterion is then
    /// undefined).
    pub fn dissymmetry(&self, netlist: &Netlist) -> Option<f64> {
        if self.rails.len() < 2 {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for cap in self.rail_caps_ff(netlist) {
            min = min.min(cap);
            max = max.max(cap);
        }
        if min > 0.0 {
            Some((max - min) / min)
        } else {
            None
        }
    }

    /// Decodes the channel state from a per-net level lookup.
    pub fn state(&self, level_of: impl Fn(NetId) -> bool) -> ChannelState {
        ChannelState::decode(self.rails.iter().map(|&r| level_of(r)))
    }
}

/// Borrowing helper pairing a channel with its netlist, mostly for display.
#[derive(Debug, Clone, Copy)]
pub struct ChannelDisplay<'a> {
    netlist: &'a Netlist,
    channel: &'a Channel,
}

impl<'a> ChannelDisplay<'a> {
    /// Creates a display adaptor.
    pub fn new(netlist: &'a Netlist, channel: &'a Channel) -> Self {
        ChannelDisplay { netlist, channel }
    }
}

impl fmt::Display for ChannelDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.channel.name)?;
        for (i, &rail) in self.channel.rails.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            let net: &Net = self.netlist.net(rail);
            write!(f, "{}={:.2}fF", net.name, net.routing_cap_ff)?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, NetlistBuilder};

    #[test]
    fn table1_dual_rail_encoding() {
        // Channel data 0 -> (A0, A1) = (1, 0); data 1 -> (0, 1);
        // invalid -> (0, 0); (1, 1) is unused/illegal.
        assert_eq!(encode_one_hot(0, 2), vec![true, false]);
        assert_eq!(encode_one_hot(1, 2), vec![false, true]);
        assert_eq!(
            ChannelState::from_rails(&[false, false]),
            ChannelState::Invalid
        );
        assert_eq!(
            ChannelState::from_rails(&[true, false]),
            ChannelState::Valid(0)
        );
        assert_eq!(
            ChannelState::from_rails(&[false, true]),
            ChannelState::Valid(1)
        );
        assert_eq!(
            ChannelState::from_rails(&[true, true]),
            ChannelState::Illegal
        );
    }

    #[test]
    fn one_of_four_encoding() {
        assert_eq!(encode_one_hot(2, 4), vec![false, false, true, false]);
        assert_eq!(
            ChannelState::from_rails(&[false, false, true, false]),
            ChannelState::Valid(2)
        );
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn encode_rejects_out_of_range() {
        let _ = encode_one_hot(2, 2);
    }

    #[test]
    fn dissymmetry_matches_paper_formula() {
        let mut b = NetlistBuilder::new("t");
        let ch = b.input_channel("a", 2);
        let o = b.gate(GateKind::Or, "o", &[ch.rail(0), ch.rail(1)]);
        b.mark_output(o);
        let mut nl = b.finish().expect("valid netlist");
        nl.set_routing_cap(ch.rail(0), 20.0);
        nl.set_routing_cap(ch.rail(1), 45.0);
        let ch = nl.channel(ch.id).clone();
        let d = ch.dissymmetry(&nl).expect("defined");
        assert!((d - (45.0 - 20.0) / 20.0).abs() < 1e-12);
    }

    #[test]
    fn dissymmetry_undefined_for_single_rail() {
        let mut b = NetlistBuilder::new("t");
        let ch = b.input_channel("a", 1);
        let o = b.gate(GateKind::Buf, "o", &[ch.rail(0)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid netlist");
        assert_eq!(nl.channel(ch.id).dissymmetry(&nl), None);
    }

    #[test]
    fn dissymmetry_undefined_for_zero_minimum_cap() {
        // A rail with zero routing capacitance makes the denominator of
        // eq. 13 vanish: the criterion is undefined, not infinite.
        let mut b = NetlistBuilder::new("t");
        let ch = b.input_channel("a", 2);
        let o = b.gate(GateKind::Or, "o", &[ch.rail(0), ch.rail(1)]);
        b.mark_output(o);
        let mut nl = b.finish().expect("valid netlist");
        nl.set_routing_cap(ch.rail(0), 0.0);
        assert_eq!(nl.channel(ch.id).dissymmetry(&nl), None);
    }

    #[test]
    fn dissymmetry_generalises_to_one_of_four_spread() {
        // For a 1-of-4 channel the criterion is (max − min) / min over all
        // four rails, regardless of which rails carry the extremes.
        let mut b = NetlistBuilder::new("t");
        let ch = b.input_channel("a", 4);
        let o = b.gate(
            GateKind::Or,
            "o",
            &[ch.rail(0), ch.rail(1), ch.rail(2), ch.rail(3)],
        );
        b.mark_output(o);
        let mut nl = b.finish().expect("valid netlist");
        nl.set_routing_cap(ch.rail(0), 12.0);
        nl.set_routing_cap(ch.rail(1), 10.0);
        nl.set_routing_cap(ch.rail(2), 30.0);
        nl.set_routing_cap(ch.rail(3), 15.0);
        let d = nl.channel(ch.id).dissymmetry(&nl).expect("defined");
        assert!((d - (30.0 - 10.0) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn dissymmetry_zero_for_matched_rails() {
        let mut b = NetlistBuilder::new("t");
        let ch = b.input_channel("a", 2);
        let o = b.gate(GateKind::Or, "o", &[ch.rail(0), ch.rail(1)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid netlist");
        let d = nl.channel(ch.id).dissymmetry(&nl).expect("defined");
        assert_eq!(d, 0.0);
    }
}
