//! The parallel determinism contract: for arbitrary campaign parameters,
//! the trace set and the bias signal `T = A0 − A1` are bit-identical
//! across 1, 2 and 8 workers — and every bias in the workspace, in memory
//! or streamed, in the templates or the secure flow, is the same
//! fixed-shard summation tree, which an in-test oracle spells out one
//! `add_assign` at a time.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use qdi_analog::Trace;
use qdi_core::{run_slice_flow, FlowConfig};
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::campaign::xor_stage_window;
use qdi_dpa::selection::{AesXorSelect, ClosureSelect};
use qdi_dpa::template::bit_bias_charges;
use qdi_dpa::{
    bias_signal_from_store, bias_signals_from_store, parallel_attack, parallel_attack_windowed,
    parallel_bias_signal, run_parallel_campaign, CampaignConfig, GuessScore, PlaintextSource,
    SelectionFunction, TraceSet, BIAS_SHARD,
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

/// The fixed-shard bias written out one trace at a time: per shard of
/// [`BIAS_SHARD`] traces, each trace starts its partition's shard sum as
/// a copy or is added to it with `add_assign`; shard sums merge in shard
/// order; then each sum is averaged and `T = A0 − A1` formed.
fn oracle_bias(set: &TraceSet, sel: &dyn SelectionFunction, guess: u16) -> Option<Trace> {
    let mut totals: [Option<Trace>; 2] = [None, None];
    let mut counts = [0usize; 2];
    for lo in (0..set.len()).step_by(BIAS_SHARD) {
        let mut shard: [Option<Trace>; 2] = [None, None];
        for i in lo..(lo + BIAS_SHARD).min(set.len()) {
            let d = usize::from(sel.select(set.input(i), guess));
            counts[d] += 1;
            match &mut shard[d] {
                Some(sum) => sum.add_assign(set.trace(i)),
                empty => *empty = Some(set.trace(i).clone()),
            }
        }
        for (total, sum) in totals.iter_mut().zip(shard) {
            match (total.as_mut(), sum) {
                (Some(total), Some(sum)) => total.add_assign(&sum),
                (None, sum) => *total = sum,
                (Some(_), None) => {}
            }
        }
    }
    let [Some(mut a0), Some(mut a1)] = totals else {
        return None;
    };
    a0.scale(1.0 / counts[0] as f64);
    a1.scale(1.0 / counts[1] as f64);
    Some(Trace::difference(&a0, &a1))
}

/// Every guess's score from [`oracle_bias`], best first, as the attack
/// ranks them.
fn oracle_scores(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    guesses: &[u16],
    window: Option<(u64, u64)>,
) -> Vec<GuessScore> {
    let mut scores: Vec<GuessScore> = guesses
        .iter()
        .filter_map(|&guess| {
            let bias = oracle_bias(set, sel, guess)?;
            let (peak_time_ps, peak) = match window {
                Some((t0, t1)) => bias.abs_peak_in(t0, t1)?,
                None => bias.abs_peak()?,
            };
            Some(GuessScore {
                guess,
                peak_abs: peak.abs(),
                peak_signed: peak,
                peak_time_ps,
                area: bias.abs_area_fc(),
            })
        })
        .collect();
    scores.sort_by(|a, b| {
        b.peak_abs
            .total_cmp(&a.peak_abs)
            .then(a.guess.cmp(&b.guess))
    });
    scores
}

/// A bias's grid and sample bits, so `-0.0` and `+0.0` differ.
fn trace_bits(trace: &Option<Trace>) -> Option<(u64, u64, Vec<u64>)> {
    trace.as_ref().map(|t| {
        let samples = t.samples().iter().map(|s| s.to_bits()).collect();
        (t.t0_ps(), t.dt_ps(), samples)
    })
}

/// Every field of every score, as bits, in ranking order.
fn score_bits(scores: &[GuessScore]) -> Vec<(u16, u64, u64, u64, u64)> {
    scores
        .iter()
        .map(|s| {
            let (abs, signed, area) = (s.peak_abs.to_bits(), s.peak_signed.to_bits(), s.area);
            (s.guess, abs, signed, s.peak_time_ps, area.to_bits())
        })
        .collect()
}

/// `n` synthetic acquisitions of 5, 9 or 12 samples, so partition sums
/// have tails. A dense set draws magnitudes from 1e-3 to 1e3 of either
/// sign, with a few ±0.0; a sparse one is mostly `-0.0`, so a sum whose
/// every addend is `-0.0` must stay `-0.0`.
fn synthetic_set(seed: u64, n: usize, sparse: bool) -> TraceSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut set = TraceSet::new();
    for _ in 0..n {
        let len: usize = [5, 9, 12][rng.gen_range(0..3usize)];
        let samples = (0..len)
            .map(|_| match rng.gen_range(0..20) {
                0 => 0.0,
                1 => -0.0,
                k if sparse && k < 18 => -0.0,
                _ => {
                    let v = 10f64.powf(rng.gen_range(-3.0..3.0));
                    if rng.gen::<bool>() {
                        v
                    } else {
                        -v
                    }
                }
            })
            .collect();
        set.push(vec![rng.gen::<u8>()], Trace::from_samples(0, 10, samples));
    }
    set
}

/// Guesses `0..EMPTY` split on an S-box bit; guess `EMPTY` sends every
/// trace to `D = 0`.
const EMPTY: u16 = 40;

fn oracle_selection() -> impl SelectionFunction {
    ClosureSelect::new("sbox-bit-or-empty", EMPTY + 1, |input: &[u8], guess| {
        guess != EMPTY && qdi_crypto::aes::first_round_sbox(input[0], guess as u8) & 1 == 1
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one kernel against the oracle, bit for bit, on all three bias
    /// paths: the per-shard jobs of `parallel_bias_signal`, the guess
    /// blocks of `parallel_attack_windowed` and the chunked store fold.
    #[test]
    fn every_bias_path_is_the_one_add_at_a_time_tree(
        seed in any::<u64>(),
        size in (0usize..2, 1usize..(3 * BIAS_SHARD + 41), 1usize..17),
        sparse in any::<bool>(),
        count in 1usize..(EMPTY as usize + 2),
    ) {
        let n = if size.0 == 0 { size.1 } else { size.2 };
        let set = synthetic_set(seed, n, sparse);
        let sel = oracle_selection();
        // A stride through `0..=EMPTY`: any count, the empty guess once
        // the subset is large enough, and rarely a multiple of a block.
        let guesses: Vec<u16> = (0..count).map(|j| (j * 17 % (EMPTY as usize + 1)) as u16).collect();
        let want: Vec<_> = guesses.iter().map(|&g| oracle_bias(&set, &sel, g)).collect();
        if let Some(empty) = guesses.iter().position(|&g| g == EMPTY) {
            prop_assert!(want[empty].is_none(), "guess {} must leave D = 1 empty", EMPTY);
        }

        for workers in [1, 2, 8] {
            let exec = ExecConfig { workers };
            for (&guess, want) in guesses.iter().zip(&want) {
                let got = parallel_bias_signal(&set, &sel, guess, exec);
                prop_assert_eq!(trace_bits(&got), trace_bits(want), "guess {} @ {}w", guess, workers);
            }
            for window in [None, Some((20, 90))] {
                let got = parallel_attack_windowed(&set, &sel, &guesses, window, exec);
                prop_assert_eq!(
                    score_bits(&got.scores),
                    score_bits(&oracle_scores(&set, &sel, &guesses, window)),
                    "{} guesses, window {:?} @ {}w", guesses.len(), window, workers
                );
            }
        }

        let store = std::env::temp_dir().join(format!(
            "qdi_dpa_oracle_{}_{seed:016x}_{n}.qtrs",
            std::process::id()
        ));
        set.to_store(&store, StoreOptions::new()).expect("stores");
        for chunk in [1, 7, 64, 256, 600] {
            let got = bias_signals_from_store(&store, &sel, &guesses, chunk).expect("store reads");
            for ((guess, want), got) in guesses.iter().zip(&want).zip(&got) {
                prop_assert_eq!(trace_bits(got), trace_bits(want), "guess {} @ chunk {}", guess, chunk);
            }
        }
        std::fs::remove_file(&store).ok();
    }
}
