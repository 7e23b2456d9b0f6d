//! Trace-campaign configuration and the per-acquisition kernel: drive
//! the gate-level AES byte slice with one plaintext and synthesize its
//! power trace — once per distinct plaintext per campaign, through a
//! noiseless-trace cache — then add the acquisition's noise. The
//! campaign drivers ([`crate::run_parallel_campaign`],
//! [`crate::StoreCampaignRunner`]) run this kernel on the `qdi-exec` pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use qdi_analog::{SynthConfig, Trace, TraceSynthesizer};
use qdi_crypto::gatelevel::{bit_values, slice::AesByteSlice};
use qdi_sim::{SimError, Testbench, TestbenchConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How plaintexts are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlaintextSource {
    /// Independent uniform random bytes (known-plaintext attack).
    Random,
    /// Each of the 256 byte values exactly once per 256 traces, in a
    /// seeded pseudo-random order (chosen-plaintext attack). Balancing
    /// the codebook makes every bit and bit-pair partition exact, which
    /// removes plaintext-sampling noise from the bias estimates.
    FullCodebook,
}

/// Parameters of a trace campaign.
///
/// Serializable end to end: a `qdi-serve` job spec embeds this struct
/// verbatim, so a remote campaign is configured by exactly the same
/// knobs as a local one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of traces (`N` in the paper).
    pub traces: usize,
    /// The device's secret key byte.
    pub key: u8,
    /// Root seed: the plaintext schedule is drawn from it, and
    /// acquisition `i` draws its noise from
    /// [`qdi_exec::job_rng`]`(seed, i)`.
    pub seed: u64,
    /// Plaintext generation strategy.
    pub plaintexts: PlaintextSource,
    /// Electrical synthesis configuration (noise included).
    pub synth: SynthConfig,
    /// Testbench configuration.
    pub testbench: TestbenchConfig,
}

impl CampaignConfig {
    /// A noiseless 256-trace random-plaintext campaign with key byte
    /// `key`.
    pub fn new(key: u8) -> Self {
        CampaignConfig {
            traces: 256,
            key,
            seed: 1,
            plaintexts: PlaintextSource::Random,
            synth: SynthConfig::default(),
            testbench: TestbenchConfig::default(),
        }
    }

    /// A chosen-plaintext campaign cycling the full byte codebook.
    pub fn full_codebook(key: u8) -> Self {
        let mut cfg = CampaignConfig::new(key);
        cfg.plaintexts = PlaintextSource::FullCodebook;
        cfg
    }
}

/// The campaign's plaintext schedule: plaintext `n` of `cfg.traces`,
/// drawn serially from one root stream seeded with `cfg.seed`, so the
/// plaintext of every acquisition is a pure function of the config.
pub(crate) fn plaintext_schedule(cfg: &CampaignConfig) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut codebook: Vec<u8> = (0..=255).collect();
    (0..cfg.traces)
        .map(|n| match cfg.plaintexts {
            PlaintextSource::Random => rng.gen(),
            PlaintextSource::FullCodebook => {
                if n.is_multiple_of(256) {
                    // Fisher-Yates reshuffle per codebook pass.
                    for i in (1..codebook.len()).rev() {
                        let j = rng.gen_range(0..=i);
                        codebook.swap(i, j);
                    }
                }
                codebook[n % 256]
            }
        })
        .collect()
}

/// The noiseless traces of one campaign: one lazily filled slot per
/// plaintext byte.
///
/// The slice's simulation is deterministic and noise is the only
/// per-acquisition randomness, so within a campaign the noiseless trace
/// is a function of the plaintext alone: a byte-slice campaign simulates
/// at most 256 times whatever its trace count. Each campaign driver owns
/// one cache and drops it when it finishes.
pub(crate) struct TraceCache<'a> {
    slice: &'a AesByteSlice,
    /// The slice's testbench under the campaign's budgets, with no sources
    /// or sinks: a miss clones it, so the campaign compiles the netlist
    /// once and every miss shares the compiled tables.
    blank: Testbench<'a>,
    synth: TraceSynthesizer<'a>,
    slots: Vec<OnceLock<Trace>>,
    simulated: AtomicUsize,
    simulated_metric: qdi_obs::metrics::Counter,
}

impl<'a> TraceCache<'a> {
    /// An empty cache for campaigns on `slice` under `cfg`'s testbench
    /// budgets and synthesis configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`Testbench::new`]'s errors.
    pub(crate) fn new(slice: &'a AesByteSlice, cfg: &CampaignConfig) -> Result<Self, SimError> {
        Ok(TraceCache {
            slice,
            blank: Testbench::new(&slice.netlist, cfg.testbench)?,
            synth: TraceSynthesizer::new(&slice.netlist, cfg.synth),
            slots: std::iter::repeat_with(OnceLock::new).take(256).collect(),
            simulated: AtomicUsize::new(0),
            simulated_metric: qdi_obs::metrics::counter("dpa.acquire.simulated"),
        })
    }

    /// Acquisitions that ran the simulator (cache misses) so far.
    pub(crate) fn simulated(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }

    /// The testbench of a miss: a clone of the blank testbench with the
    /// stimulus attached.
    fn testbench(&self, key: u8, pt: u8) -> Result<Testbench<'a>, SimError> {
        let _span = qdi_obs::span::hot("sim.tb.new");
        attach_stimulus(self.slice, self.blank.clone(), key, pt)
    }
}

/// Acquisition `index` of a campaign: the supply-current trace of a
/// four-phase computation of the slice for plaintext `pt`, plus noise
/// from the per-index RNG [`qdi_exec::job_rng`]`(cfg.seed, index)`.
///
/// The noiseless trace comes from `cache`, which must be built from the
/// same `cfg`; on a miss the slice is simulated and synthesized under the
/// cache's budgets. Errors and panics never fill a slot, so a failing
/// stimulus fails at every index that uses it. Two workers missing the same slot both simulate; the first
/// to store wins, and both traces are equal. The trace therefore depends
/// only on the config, `pt` and `index` — never on the worker that ran
/// it, the attempt number, the order of acquisition or the cache state.
pub(crate) fn acquire_trace(
    cache: &TraceCache<'_>,
    cfg: &CampaignConfig,
    pt: u8,
    index: usize,
) -> Result<Trace, SimError> {
    let _span = qdi_obs::span::hot("dpa.acquire");
    let slot = &cache.slots[usize::from(pt)];
    let noiseless = match slot.get() {
        Some(trace) => trace,
        None => {
            cache.simulated.fetch_add(1, Ordering::Relaxed);
            cache.simulated_metric.inc();
            let run = cache.testbench(cfg.key, pt)?.run()?;
            let trace = cache.synth.synthesize(&run.transitions);
            // The clone drops the growth capacity synthesis left behind.
            slot.get_or_init(|| trace.clone())
        }
    };
    let mut trace = noiseless.clone();
    let _noise = qdi_obs::span::hot("analog.noise");
    let mut noise_rng = qdi_exec::job_rng(cfg.seed, index as u64);
    trace.add_gaussian_noise(&mut noise_rng, cfg.synth.noise_sigma);
    Ok(trace)
}

/// A testbench driving the slice with plaintext `pt` and key `key` for
/// one token, built from scratch.
fn slice_testbench<'n>(
    slice: &'n AesByteSlice,
    testbench: &TestbenchConfig,
    key: u8,
    pt: u8,
) -> Result<Testbench<'n>, SimError> {
    let _span = qdi_obs::span::hot("sim.tb.new");
    attach_stimulus(slice, Testbench::new(&slice.netlist, *testbench)?, key, pt)
}

/// Attaches to `tb` the slice's sources, fed plaintext `pt` and key `key`
/// for one token, and its sinks.
fn attach_stimulus<'n>(
    slice: &AesByteSlice,
    mut tb: Testbench<'n>,
    key: u8,
    pt: u8,
) -> Result<Testbench<'n>, SimError> {
    let pbits = bit_values(pt);
    let kbits = bit_values(key);
    for i in 0..8 {
        tb.source(slice.pt[i], vec![pbits[i]])?;
        tb.source(slice.key[i], vec![kbits[i]])?;
        tb.sink(slice.out[i])?;
    }
    Ok(tb)
}

/// The span in which `rails` make their rising (evaluation) transitions
/// for a reference plaintext, padded by `pad_ps` on both sides.
fn rising_window(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    rails: &[qdi_netlist::NetId],
    pad_ps: u64,
) -> Result<(u64, u64), SimError> {
    let run = slice_testbench(slice, &cfg.testbench, cfg.key, 0x5A)?.run()?;
    let mut first: Option<u64> = None;
    let mut last: Option<u64> = None;
    for t in &run.transitions {
        if t.rising && rails.contains(&t.net) {
            first = Some(first.map_or(t.time_ps, |f| f.min(t.time_ps)));
            last = Some(last.map_or(t.time_ps, |l| l.max(t.time_ps)));
        }
    }
    let first = first.unwrap_or(0);
    let last = last.unwrap_or(run.end_time_ps);
    Ok((first.saturating_sub(pad_ps), last + pad_ps))
}

/// Calibrates a point-of-interest window for attacks on the slice: the
/// time span in which the slice's *output rails* make their evaluation
/// transition (padded by `pad_ps` on both sides). An attacker obtains the
/// same window by profiling; here it comes from one reference simulation.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn output_window(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    pad_ps: u64,
) -> Result<(u64, u64), SimError> {
    let out_rails: Vec<_> = slice
        .out
        .iter()
        .flat_map(|&c| slice.netlist.channel(c).rails.clone())
        .collect();
    rising_window(slice, cfg, &out_rails, pad_ps)
}

/// Like [`output_window`] but calibrated on the AddRoundKey stage: the
/// span in which the XOR bank's latch rails (`ak.x{i}.h1/h2`) make their
/// evaluation transitions. This is the point of interest for the paper's
/// XOR selection function — before the S-box avalanche starts.
///
/// # Errors
///
/// Propagates simulator errors; returns [`SimError::BadEnvironment`] if
/// the slice was not generated by
/// [`qdi_crypto::gatelevel::slice::aes_first_round_slice`] (rail names not
/// found).
pub fn xor_stage_window(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    pad_ps: u64,
) -> Result<(u64, u64), SimError> {
    let mut rails = Vec::with_capacity(16);
    for i in 0..8 {
        for rail in ["h1", "h2"] {
            let name = format!("ak.x{i}.{rail}");
            let net = slice
                .netlist
                .find_net(&name)
                .ok_or_else(|| SimError::BadEnvironment {
                    reason: format!("slice has no net {name}; not a generated first-round slice"),
                })?;
            rails.push(net);
        }
    }
    rising_window(slice, cfg, &rails, pad_ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{parallel_attack_windowed, parallel_bias_signal, run_parallel_campaign};
    use crate::selection::{AesSboxSelect, AesXorSelect};
    use crate::traceset::TraceSet;
    use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
    use qdi_exec::ExecConfig;

    fn campaign(slice: &AesByteSlice, cfg: &CampaignConfig) -> TraceSet {
        run_parallel_campaign(slice, cfg, ExecConfig::serial()).expect("runs")
    }

    #[test]
    fn cache_simulates_each_plaintext_once_and_never_stores_a_failure() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = CampaignConfig::full_codebook(0x42);
        cfg.traces = 512;
        let pts = plaintext_schedule(&cfg);
        // A starved budget fails every acquisition and fills no slot, so
        // each one simulates again...
        let mut starved = cfg;
        starved.testbench.event_limit = 1;
        let starved_cache = TraceCache::new(&slice, &starved).expect("builds");
        for (i, &pt) in pts.iter().enumerate() {
            assert!(
                acquire_trace(&starved_cache, &starved, pt, i).is_err(),
                "index {i}"
            );
        }
        assert_eq!(starved_cache.simulated(), 512);
        assert!(starved_cache.slots.iter().all(|slot| slot.get().is_none()));
        // ...while a campaign that fits simulates each plaintext once.
        let cache = TraceCache::new(&slice, &cfg).expect("builds");
        for (i, &pt) in pts.iter().enumerate() {
            acquire_trace(&cache, &cfg, pt, i).expect("fits the default budget");
        }
        assert_eq!(cache.simulated(), 256);
    }

    #[test]
    fn campaign_produces_aligned_traces() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = CampaignConfig::new(0x42);
        cfg.traces = 8;
        let set = campaign(&slice, &cfg);
        assert_eq!(set.len(), 8);
        let dt = set.trace(0).dt_ps();
        for i in 1..8 {
            assert_eq!(set.trace(i).dt_ps(), dt);
        }
    }

    #[test]
    fn balanced_slice_leaks_little() {
        // Pre-layout (all caps equal): the bias for the correct key is of
        // the same order as for wrong keys — the secured-QDI baseline.
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let key = 0x42;
        let mut cfg = CampaignConfig::new(key);
        cfg.traces = 64;
        let set = campaign(&slice, &cfg);
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let correct =
            parallel_bias_signal(&set, &sel, key as u16, ExecConfig::serial()).expect("split");
        let peak = correct.abs_peak().expect("nonempty").1.abs();
        // All nets still carry the default Cd; rails are symmetric except
        // for tiny fanout-count differences, so the bias stays small
        // relative to a single gate's pulse (~10 fF * 1.2 V over ~70 ps
        // gives peak current ~0.35).
        assert!(peak < 0.1, "balanced slice peaked at {peak}");
    }

    #[test]
    fn unbalanced_rail_is_detected_by_xor_selection() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        // Unbalance the output rail-1 of XOR bit 0 (net ak.x0.h2 is the
        // co1 rail): valid-1 outputs now charge 4x the default.
        let h2 = slice.netlist.find_net("ak.x0.h2").expect("rail net");
        slice.netlist.set_routing_cap(h2, 32.0);
        let key = 0xB5;
        let mut cfg = CampaignConfig::new(key);
        cfg.traces = 64;
        let set = campaign(&slice, &cfg);
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let correct =
            parallel_bias_signal(&set, &sel, key as u16, ExecConfig::serial()).expect("split");
        let peak = correct.abs_peak().expect("peak").1.abs();
        // The heavier rail both draws more charge and — exactly as the
        // paper's Fig. 7 observes — shifts every downstream transition of
        // the D=1 class, so the bias towers over the balanced baseline.
        assert!(peak > 1.0, "expected a strong DPA peak, got {peak}");
        // The XOR selection is linear: the complementary key bit produces
        // the exactly inverted partition, hence the negated bias signal.
        let flipped = parallel_bias_signal(&set, &sel, (key ^ 1) as u16, ExecConfig::serial())
            .expect("split");
        let mut sum = flipped.clone();
        sum.add_assign(&correct);
        assert!(
            sum.abs_peak().expect("peak").1.abs() < 1e-9,
            "T(k) + T(k^1) must cancel for a linear selection"
        );
    }

    #[test]
    fn sbox_slice_attack_ranks_correct_key_first_in_subset() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorSbox).expect("builds");
        // Unbalance one S-box output rail.
        let rail = slice.netlist.find_net("sb.b0.h1").expect("rail net");
        slice.netlist.set_routing_cap(rail, 40.0);
        let key = 0x6B;
        let mut cfg = CampaignConfig::new(key);
        cfg.traces = 96;
        let set = campaign(&slice, &cfg);
        let sel = AesSboxSelect { byte: 0, bit: 0 };
        // Rank the correct key against 15 decoys (a full 256-guess attack
        // lives in the benches).
        let guesses: Vec<u16> = (0..16).map(|i| (key as u16 + i * 13) & 0xFF).collect();
        let result = parallel_attack_windowed(&set, &sel, &guesses, None, ExecConfig::serial());
        assert_eq!(
            result.best().guess,
            key as u16,
            "scores: {:?}",
            &result.scores[..3]
        );
    }
}
