//! Deterministic parallel campaigns and attacks on the `qdi-exec` pool.
//!
//! # Determinism contract
//!
//! Everything in this module is **worker-count invariant**: running with
//! 1, 2 or 8 workers produces bit-identical trace sets, bias signals and
//! rankings. Two mechanisms make that hold:
//!
//! * **Per-index noise seeding.** [`run_parallel_campaign`] draws all
//!   plaintexts serially from the root RNG stream, then gives acquisition
//!   `i` its own noise RNG [`qdi_exec::job_rng`]`(cfg.seed, i)` — so a
//!   trace's noise depends only on its index, never on which worker ran
//!   it or in what order. This is the only noise schedule in the crate:
//!   the store-backed runner uses it too.
//! * **Fixed-shard accumulation.** Every bias folds shards of
//!   [`BIAS_SHARD`] traces — a shard structure that depends only on the
//!   set size — and merges them in index order. Per sample, a shard's
//!   partition sum starts from a copy of its first trace and adds the
//!   rest in index order, which fixes the f64 summation tree. The fold
//!   adds eight traces per pass over the samples
//!   ([`qdi_analog::Trace::add_assign_all`]) without changing any
//!   sample's order of adds.
//!
//! This tree is the crate's only bias computation, in three job shapes:
//! [`parallel_bias_signal`] runs one pool job per shard for one guess;
//! [`parallel_attack_windowed`] runs one job per block of guesses, which
//! reads each shard once for the whole block; and
//! [`crate::bias_signals_from_store`] folds each chunk, cut at shard
//! boundaries, into every guess's running shard sums. The templates,
//! measurements to disclosure, multi-bit attacks and the secure flow all
//! rank through the first two (with [`ExecConfig::serial`] where they
//! have no worker count).
//!
//! Each campaign driver also simulates and synthesizes every distinct
//! plaintext only once ([`crate::campaign`]'s noiseless-trace cache) and
//! adds the per-index noise to a copy, so the same f64 samples receive
//! the same noise in the same order as an uncached acquisition: the
//! cache changes no bit of any result.

use qdi_analog::Trace;
use qdi_crypto::gatelevel::slice::AesByteSlice;
use qdi_exec::ExecConfig;
use qdi_sim::SimError;

use crate::attack::{score_bias, sort_scores, AttackResult, BiasAccumulator, GuessScore};
use crate::campaign::{acquire_trace, plaintext_schedule, CampaignConfig, TraceCache};
use crate::selection::SelectionFunction;
use crate::traceset::TraceSet;

/// Fixed shard size for parallel bias accumulation. Shard boundaries
/// depend only on the trace count, so the summation tree — and the bias
/// trace's bit pattern — is the same for every worker count.
pub const BIAS_SHARD: usize = 256;

/// Runs a trace campaign on the `qdi-exec` work-stealing pool.
///
/// Bit-identical across worker counts (see the module docs). With
/// `exec.workers == 1` the pool runs on the calling thread: that is the
/// serial campaign, and it doubles as the golden reference in tests.
///
/// # Errors
///
/// Propagates the first simulator error; remaining jobs are cancelled.
pub fn run_parallel_campaign(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    exec: ExecConfig,
) -> Result<TraceSet, SimError> {
    let mut span = qdi_obs::span("qdi_dpa::parallel", "run_parallel_campaign")
        .attr("traces", cfg.traces)
        .attr("workers", exec.workers);
    let start = std::time::Instant::now();
    let pts = plaintext_schedule(cfg);
    let cache = TraceCache::new(slice, cfg)?;
    // Inert unless `qdi_obs::progress` is enabled; `qdi-mon watch` tails
    // the streamed snapshots for a live completed/total + ETA view.
    let progress = qdi_obs::progress::task("dpa.campaign", cfg.traces);
    let traces = qdi_exec::try_run_indexed(&exec, cfg.traces, |i| {
        let trace = acquire_trace(&cache, cfg, pts[i], i);
        progress.advance(1);
        trace
    })?;
    progress.finish();
    let mut set = TraceSet::new();
    for (pt, trace) in pts.into_iter().zip(traces) {
        set.push(vec![pt], trace);
    }
    qdi_obs::metrics::counter("dpa.traces").add(set.len() as u64);
    span.set_attr("simulated", cache.simulated());
    let elapsed = start.elapsed().as_secs_f64();
    span.set_attr("wall_s", elapsed);
    if elapsed > 0.0 {
        span.set_attr("traces_per_s", set.len() as f64 / elapsed);
    }
    Ok(set)
}

/// Folds shard `s` of `set` for `guess` into a fresh accumulator — the
/// per-shard work of every in-memory bias.
fn fold_shard(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    guess: u16,
    s: usize,
) -> BiasAccumulator {
    let lo = s * BIAS_SHARD;
    let hi = (lo + BIAS_SHARD).min(set.len());
    let mut acc = BiasAccumulator::default();
    acc.fold((lo..hi).map(|i| (set.input(i), set.trace(i))), sel, guess);
    acc
}

/// Computes the DPA bias `T = A0 − A1` for one guess with shards of
/// [`BIAS_SHARD`] traces accumulated in parallel and merged in index
/// order. Bit-identical for every worker count; `None` when a partition
/// is empty.
pub fn parallel_bias_signal(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    guess: u16,
    exec: ExecConfig,
) -> Option<Trace> {
    let n = set.len();
    if n == 0 {
        return None;
    }
    let accs = qdi_exec::run_indexed(&exec, n.div_ceil(BIAS_SHARD), |s| {
        let _span = qdi_obs::span::hot("dpa.bias.shard");
        fold_shard(set, sel, guess, s)
    });
    let mut total = BiasAccumulator::default();
    for acc in accs {
        total.merge(acc);
    }
    total.finish()
}

/// Most guesses one [`parallel_attack_windowed`] job folds per pass
/// over a shard.
const MAX_GUESS_BLOCK: usize = 16;

/// The biases of a block of guesses: the shards are walked in order and
/// each is folded for every guess of the block while it is still in
/// cache, its sums merging into the guess's total in shard order.
fn block_biases(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    guesses: &[u16],
) -> Vec<Option<Trace>> {
    let mut totals = vec![BiasAccumulator::default(); guesses.len()];
    for s in 0..set.len().div_ceil(BIAS_SHARD) {
        let _span = qdi_obs::span::hot("dpa.bias.shard");
        for (total, &guess) in totals.iter_mut().zip(guesses) {
            total.merge(fold_shard(set, sel, guess, s));
        }
    }
    totals.into_iter().map(BiasAccumulator::finish).collect()
}

/// Ranks every guess of the selection function in parallel — one pool
/// job per block of guesses (see [`parallel_attack_windowed`]).
pub fn parallel_attack(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    exec: ExecConfig,
) -> AttackResult {
    let guesses: Vec<u16> = (0..sel.guess_count()).collect();
    parallel_attack_windowed(set, sel, &guesses, None, exec)
}

/// Parallel guess ranking over an explicit guess subset, scoring peaks
/// only inside `window` when one is given. Each pool job takes a block
/// of consecutive guesses and walks the shards once for all of them;
/// the block holds at most 16 guesses and is sized so there are at least
/// as many jobs as workers when there are that many guesses. The ranking
/// is worker-count invariant: per-guess biases use the fixed-shard
/// summation tree whatever the block, and results are merged in guess
/// order before the (stable, total) sort.
pub fn parallel_attack_windowed(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    guesses: &[u16],
    window: Option<(u64, u64)>,
    exec: ExecConfig,
) -> AttackResult {
    let mut span = qdi_obs::span("qdi_dpa::parallel", "parallel_attack")
        .attr("selection", sel.name())
        .attr("guesses", guesses.len())
        .attr("traces", set.len())
        .attr("workers", exec.workers);
    let start = std::time::Instant::now();
    let block = (guesses.len() / exec.effective_workers(guesses.len())).clamp(1, MAX_GUESS_BLOCK);
    let blocks: Vec<&[u16]> = guesses.chunks(block).collect();
    let scored = qdi_exec::run_indexed(&exec, blocks.len(), |b| {
        let biases = block_biases(set, sel, blocks[b]);
        blocks[b]
            .iter()
            .zip(biases)
            .filter_map(|(&guess, bias)| score_bias(guess, &bias?, window))
            .collect::<Vec<_>>()
    });
    let mut scores: Vec<GuessScore> = scored.into_iter().flatten().collect();
    sort_scores(&mut scores);
    let ranking_ms = start.elapsed().as_secs_f64() * 1e3;
    qdi_obs::metrics::counter("dpa.guesses_scored").add(scores.len() as u64);
    qdi_obs::metrics::histogram(
        "dpa.guess_ranking_ms",
        &[1.0, 10.0, 100.0, 1_000.0, 10_000.0],
    )
    .observe(ranking_ms);
    span.set_attr("scored", scores.len());
    span.set_attr("ranking_ms", ranking_ms);
    if let Some(best) = scores.first() {
        span.set_attr("best_guess", best.guess);
        span.set_attr("best_peak", best.peak_abs);
    }
    AttackResult {
        selection: sel.name(),
        scores,
        traces: set.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::AesXorSelect;
    use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};

    fn noisy_cfg(traces: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::full_codebook(0x42);
        cfg.traces = traces;
        cfg.seed = 11;
        cfg.synth.noise_sigma = 0.02;
        cfg
    }

    #[test]
    fn parallel_campaign_is_worker_count_invariant() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(10);
        let one = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("w1");
        for workers in [2, 3, 8] {
            let many =
                run_parallel_campaign(&slice, &cfg, ExecConfig { workers }).expect("parallel");
            assert_eq!(one.len(), many.len());
            for i in 0..one.len() {
                assert_eq!(one.input(i), many.input(i), "plaintext {i} @ {workers}w");
                assert_eq!(
                    one.trace(i).samples(),
                    many.trace(i).samples(),
                    "trace {i} @ {workers}w"
                );
            }
        }
    }

    #[test]
    fn noiseless_trace_is_a_function_of_the_plaintext_alone() {
        // Only the noise draw depends on the acquisition index: without
        // noise, every acquisition of one plaintext is the same trace.
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = noisy_cfg(512);
        cfg.synth.noise_sigma = 0.0;
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("runs");
        let mut first_of = std::collections::HashMap::new();
        for i in 0..set.len() {
            let j = *first_of.entry(set.input(i)[0]).or_insert(i);
            assert_eq!(set.trace(i).samples(), set.trace(j).samples(), "{i} vs {j}");
        }
        // Two full-codebook passes: each plaintext exactly twice.
        assert_eq!(first_of.len(), 256);
    }

    #[test]
    fn parallel_bias_is_worker_count_invariant_and_matches_sharded_serial() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(20);
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("runs");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let golden = block_biases(&set, &sel, &[0x42])
            .pop()
            .flatten()
            .expect("bias");
        for workers in [1, 2, 8] {
            let t = parallel_bias_signal(&set, &sel, 0x42, ExecConfig { workers }).expect("bias");
            assert_eq!(golden.samples(), t.samples(), "bias @ {workers} workers");
        }
    }

    #[test]
    fn parallel_attack_matches_serial_ranking() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = noisy_cfg(16);
        cfg.synth.noise_sigma = 0.0;
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("runs");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let guesses: Vec<u16> = (0..32).collect();
        let serial = parallel_attack_windowed(&set, &sel, &guesses, None, ExecConfig::serial());
        for workers in [2, 4] {
            let par = parallel_attack_windowed(&set, &sel, &guesses, None, ExecConfig { workers });
            assert_eq!(serial.scores.len(), par.scores.len());
            for (a, b) in serial.scores.iter().zip(&par.scores) {
                assert_eq!(a.guess, b.guess, "ranking order @ {workers} workers");
                assert_eq!(a.peak_abs, b.peak_abs);
                assert_eq!(a.peak_time_ps, b.peak_time_ps);
            }
        }
    }

    #[test]
    fn parallel_bias_empty_set_is_none() {
        let sel = AesXorSelect { byte: 0, bit: 0 };
        assert!(
            parallel_bias_signal(&TraceSet::new(), &sel, 0, ExecConfig { workers: 4 }).is_none()
        );
    }
}
