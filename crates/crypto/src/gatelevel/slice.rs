//! The DPA workload: a first-round AES byte slice
//! (AddRoundKey, optionally followed by ByteSub) as a standalone netlist.
//!
//! The paper's AES selection function targets the first-round key XOR,
//! `D(C1, P8, K8) = XOR(P8, K8)(C1)`; the classic Messerges-style variant
//! targets `SBOX(p ⊕ k)`. This generator produces the matching hardware:
//! a plaintext byte and a key byte enter as dual-rail channels, flow
//! through a balanced XOR bank and (optionally) a dual-rail S-box, and
//! leave as eight output channels. Every power-analysis experiment in the
//! workspace runs trace campaigns against this netlist.

use qdi_netlist::{ChannelId, NetId, Netlist, NetlistBuilder, NetlistError};

use crate::aes;

use super::{bridge_ack, sbox::aes_sbox_byte, xor_bank::xor_byte, DualRailByte};

/// How deep the slice goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceStage {
    /// Plaintext ⊕ key only (the paper's AES `D` function target).
    XorOnly,
    /// Plaintext ⊕ key followed by the AES S-box (the classic DPA target).
    XorSbox,
}

/// A generated first-round byte slice.
#[derive(Debug, Clone)]
pub struct AesByteSlice {
    /// The finished netlist.
    pub netlist: Netlist,
    /// Plaintext input channels, LSB first.
    pub pt: Vec<ChannelId>,
    /// Key input channels, LSB first.
    pub key: Vec<ChannelId>,
    /// Output channels, LSB first.
    pub out: Vec<ChannelId>,
    /// The stage the slice was built for.
    pub stage: SliceStage,
}

impl AesByteSlice {
    /// The reference value the slice computes for `(pt, key)`.
    pub fn expected_output(&self, pt: u8, key: u8) -> u8 {
        expected_output(self.stage, pt, key)
    }
}

/// Reference model of the slice.
pub fn expected_output(stage: SliceStage, pt: u8, key: u8) -> u8 {
    match stage {
        SliceStage::XorOnly => pt ^ key,
        SliceStage::XorSbox => aes::SBOX[(pt ^ key) as usize],
    }
}

/// Builds the slice netlist.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction (which indicates a bug in
/// the generator rather than bad input).
pub fn aes_first_round_slice(name: &str, stage: SliceStage) -> Result<AesByteSlice, NetlistError> {
    let mut span = qdi_obs::span_at(qdi_obs::Level::Debug, "qdi_crypto::slice", "build_slice")
        .attr("name", name)
        .attr("stage", format!("{stage:?}"));
    let mut b = NetlistBuilder::new(name);
    let pt = DualRailByte::inputs(&mut b, "pt");
    let key = DualRailByte::inputs(&mut b, "key");
    let out_acks: Vec<NetId> = (0..8).map(|i| b.input_net(format!("out.ack{i}"))).collect();

    let out = match stage {
        SliceStage::XorOnly => {
            b.push_block("addkey");
            let xor = xor_byte(&mut b, "ak", &pt, &key, &out_acks);
            b.pop_block();
            for i in 0..8 {
                b.connect_input_acks(&[pt.bits[i].id, key.bits[i].id], xor.acks_to_senders[i]);
            }
            xor.out
        }
        SliceStage::XorSbox => {
            // The S-box acknowledges all eight XOR outputs with one net,
            // created as a placeholder and bridged after construction.
            let sbox_ack = b.net("sb.ack_fwd");
            b.push_block("addkey");
            let xor = xor_byte(&mut b, "ak", &pt, &key, &[sbox_ack; 8]);
            b.pop_block();
            b.push_block("bytesub");
            let sbox = aes_sbox_byte(&mut b, "sb", &xor.out, &out_acks);
            b.pop_block();
            bridge_ack(&mut b, "sb", sbox.ack_to_senders, sbox_ack);
            for i in 0..8 {
                b.connect_input_acks(&[pt.bits[i].id, key.bits[i].id], xor.acks_to_senders[i]);
            }
            DualRailByte::from_channels(sbox.out)
        }
    };

    let out_ids: Vec<ChannelId> = out
        .bits
        .iter()
        .enumerate()
        .map(|(i, ch)| {
            b.output_channel(format!("out.b{i}"), &ch.rails.clone(), out_acks[i])
                .id
        })
        .collect();
    let slice = AesByteSlice {
        pt: pt.channel_ids(),
        key: key.channel_ids(),
        out: out_ids,
        stage,
        netlist: b.finish()?,
    };
    span.set_attr("gates", slice.netlist.gate_count());
    span.set_attr("nets", slice.netlist.net_count());
    qdi_obs::metrics::counter("crypto.slices_built").inc();
    Ok(slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gatelevel::{bit_values, byte_from_bits};
    use qdi_sim::{Testbench, TestbenchConfig};

    fn run_slice(slice: &AesByteSlice, pt: u8, key: u8) -> u8 {
        let mut tb = Testbench::new(&slice.netlist, TestbenchConfig::default()).expect("tb");
        let pbits = bit_values(pt);
        let kbits = bit_values(key);
        for i in 0..8 {
            tb.source(slice.pt[i], vec![pbits[i]]).expect("src pt");
            tb.source(slice.key[i], vec![kbits[i]]).expect("src key");
            tb.sink(slice.out[i]).expect("sink");
        }
        let run = tb.run().expect("completes");
        let bits: Vec<usize> = (0..8).map(|i| run.received(slice.out[i])[0]).collect();
        byte_from_bits(&bits)
    }

    #[test]
    fn xor_only_slice_computes_pt_xor_key() {
        let slice = aes_first_round_slice("slice", SliceStage::XorOnly).expect("builds");
        for (p, k) in [(0x00u8, 0x00u8), (0x5A, 0xC3), (0xFF, 0x01)] {
            assert_eq!(run_slice(&slice, p, k), p ^ k);
        }
    }

    #[test]
    fn xor_sbox_slice_computes_sbox_of_xor() {
        let slice = aes_first_round_slice("slice", SliceStage::XorSbox).expect("builds");
        for (p, k) in [(0x00u8, 0x00u8), (0x5A, 0xC3)] {
            assert_eq!(run_slice(&slice, p, k), aes::SBOX[(p ^ k) as usize]);
        }
    }

    #[test]
    fn slice_blocks_are_tagged_for_hierarchical_pnr() {
        let slice = aes_first_round_slice("slice", SliceStage::XorSbox).expect("builds");
        let blocks = slice.netlist.block_names();
        assert!(blocks.iter().any(|b| b.starts_with("addkey")), "{blocks:?}");
        assert!(
            blocks.iter().any(|b| b.starts_with("bytesub")),
            "{blocks:?}"
        );
    }

    #[test]
    fn slice_transition_count_is_data_independent() {
        let slice = aes_first_round_slice("slice", SliceStage::XorSbox).expect("builds");
        let mut counts = Vec::new();
        for (p, k) in [(0x00u8, 0x00u8), (0xFF, 0x00), (0x12, 0x34)] {
            let mut tb = Testbench::new(&slice.netlist, TestbenchConfig::default()).expect("tb");
            let pbits = bit_values(p);
            let kbits = bit_values(k);
            for i in 0..8 {
                tb.source(slice.pt[i], vec![pbits[i]]).expect("src");
                tb.source(slice.key[i], vec![kbits[i]]).expect("src");
                tb.sink(slice.out[i]).expect("sink");
            }
            counts.push(tb.run().expect("completes").transitions.len());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn expected_output_matches_reference() {
        assert_eq!(
            expected_output(SliceStage::XorOnly, 0xAB, 0x12),
            0xAB ^ 0x12
        );
        assert_eq!(
            expected_output(SliceStage::XorSbox, 0xAB, 0x12),
            aes::SBOX[0xAB ^ 0x12]
        );
    }
}
