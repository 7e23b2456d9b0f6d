//! The parallel determinism contract: for arbitrary campaign parameters,
//! the trace set and the bias signal `T = A0 − A1` are bit-identical
//! across 1, 2 and 8 workers — and every bias in the workspace, in memory
//! or streamed, in the templates or the secure flow, is the same
//! fixed-shard summation tree.

use proptest::prelude::*;

use qdi_core::{run_slice_flow, FlowConfig};
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::campaign::xor_stage_window;
use qdi_dpa::selection::{AesXorSelect, ClosureSelect};
use qdi_dpa::template::bit_bias_charges;
use qdi_dpa::{
    bias_signal_from_store, bias_signals_from_store, parallel_attack, parallel_bias_signal,
    run_parallel_campaign, CampaignConfig, PlaintextSource, SelectionFunction, BIAS_SHARD,
};
use qdi_exec::{ExecConfig, StoreOptions};
use qdi_pnr::{PnrConfig, Strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn campaign_and_bias_are_bit_identical_across_1_2_and_8_workers(
        seed in any::<u64>(),
        traces in 4usize..16,
        key in any::<u8>(),
        noisy in any::<bool>(),
        codebook in any::<bool>(),
    ) {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("slice builds");
        let mut cfg = CampaignConfig::new(key);
        cfg.traces = traces;
        cfg.seed = seed;
        cfg.plaintexts = if codebook {
            PlaintextSource::FullCodebook
        } else {
            PlaintextSource::Random
        };
        cfg.synth.noise_sigma = if noisy { 0.05 } else { 0.0 };

        let golden =
            run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("1 worker");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let golden_bias = parallel_bias_signal(&golden, &sel, key as u16, ExecConfig { workers: 1 });

        for workers in [2usize, 8] {
            let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers })
                .expect("parallel campaign");
            prop_assert_eq!(golden.len(), set.len());
            for i in 0..golden.len() {
                prop_assert_eq!(golden.input(i), set.input(i), "plaintext {} @ {}w", i, workers);
                prop_assert_eq!(
                    golden.trace(i).samples(),
                    set.trace(i).samples(),
                    "trace {} @ {} workers", i, workers
                );
            }
            let bias = parallel_bias_signal(&set, &sel, key as u16, ExecConfig { workers });
            match (&golden_bias, &bias) {
                (Some(a), Some(b)) => prop_assert_eq!(
                    a.samples(), b.samples(),
                    "T = A0 - A1 must be bit-identical @ {} workers", workers
                ),
                (None, None) => {} // degenerate partition degenerates identically
                _ => prop_assert!(false, "partition degeneracy differed across worker counts"),
            }
        }
    }
}

/// A noisy full-codebook campaign of 600 traces: three shards of
/// [`BIAS_SHARD`], so the summation tree differs from one left-to-right
/// chain in the last bits of most samples.
fn three_shard_cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::full_codebook(0x42);
    cfg.traces = 600;
    cfg.seed = 11;
    cfg.synth.noise_sigma = 0.02;
    cfg
}

#[test]
fn one_tree_serves_every_bias_path() {
    let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("slice builds");
    let cfg = three_shard_cfg();
    assert!(cfg.traces > 2 * BIAS_SHARD);
    let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("campaign");
    let window = xor_stage_window(&slice, &cfg, 30).expect("calibrates");
    let store = std::env::temp_dir().join(format!("qdi_dpa_one_tree_{}.qtrs", std::process::id()));
    set.to_store(&store, StoreOptions::new()).expect("stores");

    let mut charges = [0.0; 8];
    for (bit, charge) in charges.iter_mut().enumerate() {
        let sel = AesXorSelect {
            byte: 0,
            bit: bit as u8,
        };
        let tree = parallel_bias_signal(&set, &sel, 0, ExecConfig::serial()).expect("bias");
        for workers in [2, 8] {
            let bias = parallel_bias_signal(&set, &sel, 0, ExecConfig { workers }).expect("bias");
            assert_eq!(
                tree.samples(),
                bias.samples(),
                "bit {bit} @ {workers} workers"
            );
        }
        for chunk in [1, 7, 256, 600] {
            let streamed = bias_signal_from_store(&store, &sel, 0, chunk)
                .expect("store reads")
                .expect("bias");
            assert_eq!(
                tree.samples(),
                streamed.samples(),
                "bit {bit} @ chunk {chunk}"
            );
        }
        *charge = tree.charge_in_fc(window.0, window.1);
    }
    std::fs::remove_file(&store).ok();
    // The templates' per-bit charges integrate that same tree.
    assert_eq!(bit_bias_charges(&set, window), charges);
}

#[test]
fn one_store_pass_gives_every_guess_its_own_tree() {
    let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("slice builds");
    let cfg = three_shard_cfg();
    let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("campaign");
    let store = std::env::temp_dir().join(format!("qdi_dpa_one_pass_{}.qtrs", std::process::id()));
    set.to_store(&store, StoreOptions::new()).expect("stores");

    // Bit 0 of `p ^ k`, except that guess `EMPTY` sends every trace to
    // `D = 0`, so its `D = 1` partition is empty.
    const EMPTY: u16 = 0x100;
    let xor = AesXorSelect { byte: 0, bit: 0 };
    let sel = ClosureSelect::new("xor-bit0-or-empty", EMPTY + 1, |input: &[u8], guess| {
        guess != EMPTY && xor.select(input, guess)
    });
    let key = u16::from(cfg.key);
    let guesses = [key, key ^ 1, EMPTY];
    let golden: Vec<_> = guesses
        .iter()
        .map(|&g| parallel_bias_signal(&set, &sel, g, ExecConfig::serial()))
        .collect();
    assert!(golden[0].is_some() && golden[1].is_some());
    assert!(
        golden[2].is_none(),
        "guess {EMPTY:#x} must leave D = 1 empty"
    );
    for chunk in [1, 7, 256, 600] {
        let one_pass = bias_signals_from_store(&store, &sel, &guesses, chunk).expect("store reads");
        assert_eq!(one_pass.len(), guesses.len());
        for ((guess, want), got) in guesses.iter().zip(&golden).zip(&one_pass) {
            assert_eq!(
                want.as_ref().map(|t| t.samples()),
                got.as_ref().map(|t| t.samples()),
                "guess {guess:#x} @ chunk {chunk}"
            );
        }
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn slice_flow_attack_is_the_one_tree_ranking() {
    let sel = AesXorSelect { byte: 0, bit: 0 };
    for workers in [1usize, 2] {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("slice builds");
        let mut cfg = FlowConfig::new(Strategy::Flat, 0x42);
        cfg.pnr = PnrConfig::fast();
        cfg.campaign = three_shard_cfg();
        cfg.workers = workers;
        let report = run_slice_flow(&mut slice, &sel, &cfg).expect("flow completes");
        let flow = report.attack.expect("attack ran");
        // `slice` now carries the extracted capacitances the flow attacked.
        let set =
            run_parallel_campaign(&slice, &cfg.campaign, ExecConfig::serial()).expect("campaign");
        let direct = parallel_attack(&set, &sel, ExecConfig::serial());
        assert_eq!(flow.traces, 600);
        assert_eq!(flow, direct, "flow attack @ {workers} workers");
    }
}
