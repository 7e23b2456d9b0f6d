//! Property-based tests of the attack machinery.

use proptest::prelude::*;

use qdi_analog::{Pulse, PulseShape, Trace};
use qdi_dpa::attack::multibit_attack;
use qdi_dpa::selection::{AesSboxSelect, AesXorSelect, SelectionFunction};
use qdi_dpa::{parallel_attack, parallel_attack_windowed, parallel_bias_signal, TraceSet};
use qdi_exec::ExecConfig;

/// A deterministic trace set where bit `bit` of `p ^ key` adds a pulse.
fn xor_leaky_set(key: u8, bit: u8, n: usize) -> TraceSet {
    let mut set = TraceSet::new();
    for i in 0..n {
        let p = (i as u8).wrapping_mul(151).wrapping_add(43);
        let mut t = Trace::zeros(0, 10, 32);
        if ((p ^ key) >> bit) & 1 == 1 {
            t.add_pulse(
                Pulse {
                    t0_ps: 100,
                    charge_fc: 5.0,
                    dur_ps: 40,
                },
                PulseShape::Triangular,
            );
        }
        set.push(vec![p], t);
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Linearity of the XOR selection: complementary key-bit guesses give
    /// exactly negated bias signals (the property the template attack
    /// builds on).
    #[test]
    fn xor_selection_bias_is_antisymmetric(key in any::<u8>(), bit in 0u8..8,
                                           guess in any::<u8>()) {
        let set = xor_leaky_set(key, bit, 64);
        let sel = AesXorSelect { byte: 0, bit };
        let flip = 1u16 << bit;
        let (Some(t1), Some(t2)) = (
            parallel_bias_signal(&set, &sel, guess as u16, ExecConfig::serial()),
            parallel_bias_signal(&set, &sel, guess as u16 ^ flip, ExecConfig::serial()),
        ) else {
            // Degenerate partition (all plaintext bits equal) cannot occur
            // with 64 distinct plaintexts, but keep proptest happy.
            return Ok(());
        };
        let mut sum = t1.clone();
        sum.add_assign(&t2);
        prop_assert!(sum.abs_area_fc() < 1e-9, "T(g) + T(g^bit) must cancel");
    }

    /// Guesses that agree on the targeted bit produce identical biases.
    #[test]
    fn xor_selection_depends_only_on_target_bit(key in any::<u8>(), bit in 0u8..8,
                                                g1 in any::<u8>(), g2 in any::<u8>()) {
        prop_assume!((g1 >> bit) & 1 == (g2 >> bit) & 1);
        let set = xor_leaky_set(key, bit, 64);
        let sel = AesXorSelect { byte: 0, bit };
        let t1 = parallel_bias_signal(&set, &sel, g1 as u16, ExecConfig::serial()).expect("splits");
        let t2 = parallel_bias_signal(&set, &sel, g2 as u16, ExecConfig::serial()).expect("splits");
        let diff = Trace::difference(&t1, &t2);
        prop_assert!(diff.abs_area_fc() < 1e-9);
    }

    /// An S-box-bit leak is always won by the correct guess over any decoy
    /// set that includes it, regardless of the key.
    #[test]
    fn sbox_leak_ranks_correct_key_first(key in any::<u8>(), decoy_step in 1u16..97) {
        let mut set = TraceSet::new();
        for i in 0..200usize {
            let p = (i as u8).wrapping_mul(151).wrapping_add(43);
            let mut t = Trace::zeros(0, 10, 32);
            if qdi_crypto::aes::first_round_sbox(p, key) & 1 == 1 {
                t.add_pulse(
                    Pulse { t0_ps: 100, charge_fc: 5.0, dur_ps: 40 },
                    PulseShape::Triangular,
                );
            }
            set.push(vec![p], t);
        }
        let sel = AesSboxSelect { byte: 0, bit: 0 };
        let guesses: Vec<u16> =
            (0..8).map(|i| (key as u16 + i * decoy_step) & 0xFF).collect();
        let result = parallel_attack_windowed(&set, &sel, &guesses, None, ExecConfig::serial());
        prop_assert_eq!(result.best().guess, key as u16);
    }

    /// Multibit combination never scores below its strongest single bit
    /// for the correct key (scores are sums of non-negative peaks).
    #[test]
    fn multibit_dominates_single_bits(key in any::<u8>()) {
        let mut set = TraceSet::new();
        for i in 0..128usize {
            let p = (i as u8).wrapping_mul(151).wrapping_add(43);
            let v = qdi_crypto::aes::first_round_sbox(p, key);
            let mut t = Trace::zeros(0, 10, 32);
            for bit in 0..2u8 {
                if (v >> bit) & 1 == 1 {
                    t.add_pulse(
                        Pulse { t0_ps: 60 + 60 * bit as u64, charge_fc: 4.0, dur_ps: 30 },
                        PulseShape::Triangular,
                    );
                }
            }
            set.push(vec![p], t);
        }
        let sels = [
            AesSboxSelect { byte: 0, bit: 0 },
            AesSboxSelect { byte: 0, bit: 1 },
        ];
        let refs: Vec<&dyn SelectionFunction> =
            sels.iter().map(|s| s as &dyn SelectionFunction).collect();
        let multi = multibit_attack(&set, &refs);
        let combined = multi
            .scores
            .iter()
            .find(|s| s.guess == key as u16)
            .expect("scored")
            .peak_abs;
        // Each single-bit score is bounded by the combined score.
        for sel in &sels {
            let r = parallel_attack(&set, sel, ExecConfig::serial());
            let s = r.scores.iter().find(|s| s.guess == key as u16).expect("scored").peak_abs;
            prop_assert!(combined >= s - 1e-12);
        }
    }
}
