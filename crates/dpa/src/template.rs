//! Profiled (template) DPA on the first-round key XOR — the attack the
//! paper's AES selection function `D(C1, P8, K8) = XOR(P8, K8)(C1)`
//! actually supports.
//!
//! The XOR selection function is linear: guesses sharing the targeted key
//! bit produce identical partitions and complementary guesses flip the
//! bias sign. A profiling phase on an identical device therefore
//! characterises, per bit, the two possible bias values (key bit 0 vs 1);
//! the attack phase matches the measured bias against the templates.
//!
//! The per-bit **margin** — half the distance between the two templates —
//! is the exploitable leakage of that bit's dual-rail channel, the
//! measured counterpart of eq. 12's `V·(C/Δt − C'/Δt')` term. The paper's
//! countermeasure works precisely by shrinking these margins.

#![allow(clippy::needless_range_loop)] // index loops run over parallel channel/ack arrays
use qdi_crypto::gatelevel::slice::AesByteSlice;
use qdi_sim::SimError;
use serde::{Deserialize, Serialize};

use crate::campaign::CampaignConfig;
use crate::parallel::{parallel_bias_signal, run_parallel_campaign};
use crate::selection::AesXorSelect;
use crate::traceset::TraceSet;
use qdi_exec::ExecConfig;

/// Per-bit charge templates for the two key-bit hypotheses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitTemplates {
    /// The point-of-interest window the charges are integrated over.
    pub window: (u64, u64),
    /// Expected bias charge (fC) when the key bit is 0, per bit.
    pub key_bit0: [f64; 8],
    /// Expected bias charge (fC) when the key bit is 1, per bit.
    pub key_bit1: [f64; 8],
}

impl BitTemplates {
    /// Exploitable leakage per bit: half the template separation, in fC.
    pub fn margins(&self) -> [f64; 8] {
        std::array::from_fn(|b| (self.key_bit0[b] - self.key_bit1[b]).abs() / 2.0)
    }

    /// The weakest bit's margin — the layout's limiting leakage for full
    /// key-byte recovery.
    pub fn min_margin(&self) -> f64 {
        self.margins().into_iter().fold(f64::INFINITY, f64::min)
    }
}

/// Per-bit bias charges of a trace set under the plaintext-bit partition
/// (the XOR selection with guess 0).
pub fn bit_bias_charges(set: &TraceSet, window: (u64, u64)) -> [f64; 8] {
    std::array::from_fn(|bit| {
        let sel = AesXorSelect {
            byte: 0,
            bit: bit as u8,
        };
        parallel_bias_signal(set, &sel, 0, ExecConfig::serial())
            .map(|b| b.charge_in_fc(window.0, window.1))
            .unwrap_or(0.0)
    })
}

/// Profiling phase: runs two campaigns on the device with the known keys
/// `0x00` and `0xFF` and records the per-bit bias charges. The profiling
/// device is assumed noiseless (the attacker averages at will).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn profile_bit_templates(
    slice: &AesByteSlice,
    base: &CampaignConfig,
    window: (u64, u64),
) -> Result<BitTemplates, SimError> {
    let mut cfg = *base;
    cfg.synth.noise_sigma = 0.0;
    cfg.plaintexts = crate::campaign::PlaintextSource::FullCodebook;
    cfg.traces = cfg.traces.max(256);
    cfg.key = 0x00;
    let set0 = run_parallel_campaign(slice, &cfg, ExecConfig::serial())?;
    cfg.key = 0xFF;
    let set1 = run_parallel_campaign(slice, &cfg, ExecConfig::serial())?;
    Ok(BitTemplates {
        window,
        key_bit0: bit_bias_charges(&set0, window),
        key_bit1: bit_bias_charges(&set1, window),
    })
}

/// Attack phase: matches the victim trace set's per-bit bias charges to
/// the nearest template and returns the recovered key byte.
pub fn template_attack(set: &TraceSet, templates: &BitTemplates) -> u8 {
    let charges = bit_bias_charges(set, templates.window);
    let mut key = 0u8;
    for bit in 0..8 {
        let d0 = (charges[bit] - templates.key_bit0[bit]).abs();
        let d1 = (charges[bit] - templates.key_bit1[bit]).abs();
        if d1 < d0 {
            key |= 1 << bit;
        }
    }
    key
}

/// Number of matching bits between two bytes (8 = full recovery).
pub fn bits_correct(recovered: u8, true_key: u8) -> usize {
    8 - (recovered ^ true_key).count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::xor_stage_window;
    use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};

    fn unbalanced_slice() -> AesByteSlice {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        // Give every bit's output rail-1 a distinct extra load, as a
        // sloppy router would.
        for i in 0..8 {
            let net = slice
                .netlist
                .find_net(&format!("ak.x{i}.h2"))
                .expect("rail");
            slice.netlist.set_routing_cap(net, 14.0 + 3.0 * i as f64);
        }
        slice
    }

    #[test]
    fn templates_have_positive_margins_on_unbalanced_layout() {
        let slice = unbalanced_slice();
        let mut cfg = CampaignConfig::full_codebook(0);
        cfg.traces = 256;
        let window = xor_stage_window(&slice, &cfg, 30).expect("calibrates");
        let t = profile_bit_templates(&slice, &cfg, window).expect("profiles");
        for (bit, m) in t.margins().into_iter().enumerate() {
            assert!(m > 0.1, "bit {bit} margin {m}");
        }
        assert!(t.min_margin() > 0.1);
    }

    #[test]
    fn template_attack_recovers_key_noiselessly() {
        let slice = unbalanced_slice();
        let mut cfg = CampaignConfig::full_codebook(0);
        cfg.traces = 256;
        let window = xor_stage_window(&slice, &cfg, 30).expect("calibrates");
        let templates = profile_bit_templates(&slice, &cfg, window).expect("profiles");
        for key in [0x00u8, 0xFF, 0x6B, 0xA5] {
            let mut atk = cfg;
            atk.key = key;
            atk.seed = 99;
            let set = run_parallel_campaign(&slice, &atk, ExecConfig::serial()).expect("campaign");
            let recovered = template_attack(&set, &templates);
            assert_eq!(recovered, key, "recovered 0x{recovered:02x}");
        }
    }

    #[test]
    fn balanced_layout_has_tiny_margins() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = CampaignConfig::full_codebook(0);
        cfg.traces = 256;
        let window = xor_stage_window(&slice, &cfg, 30).expect("calibrates");
        let t = profile_bit_templates(&slice, &cfg, window).expect("profiles");
        let unbalanced = unbalanced_slice();
        let tu = profile_bit_templates(&unbalanced, &cfg, window).expect("profiles");
        assert!(
            t.min_margin() < 0.3 * tu.min_margin(),
            "balanced {} vs unbalanced {}",
            t.min_margin(),
            tu.min_margin()
        );
    }

    #[test]
    fn bits_correct_counts_matches() {
        assert_eq!(bits_correct(0xFF, 0xFF), 8);
        assert_eq!(bits_correct(0x00, 0xFF), 0);
        assert_eq!(bits_correct(0b1010, 0b1000), 7);
    }
}
