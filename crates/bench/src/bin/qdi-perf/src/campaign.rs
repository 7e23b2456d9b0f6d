//! `campaign_xor`: DPA trace campaigns on the XOR-only slice with one
//! rail loaded to 16 fF (the paper's Fig. 7 perturbation), each followed
//! by the bias `T = A0 − A1` for the key guess and its complement.
//!
//! Simulation, synthesis and noise do nearly all the work, and with 256
//! possible plaintexts almost every acquisition repeats a stimulus, so a
//! per-stimulus trace cache would show here.

use qdi_analog::{Trace, TraceSynthesizer};
use qdi_crypto::gatelevel::bit_values;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, AesByteSlice, SliceStage};
use qdi_dpa::selection::AesXorSelect;
use qdi_dpa::{parallel_bias_signal, run_parallel_campaign, CampaignConfig, TraceSet};
use qdi_exec::{derive_seed, job_rng, ExecConfig};
use qdi_sim::{SimError, Testbench};

use crate::report::{self, Digest, Outcome, WORKERS};
use crate::spans;

/// Traces per campaign and in the set-up warm-up campaign.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub traces: usize,
    pub warmup: usize,
}

pub const SIZES: Sizes = Sizes {
    traces: 65_536,
    warmup: 4_096,
};

const KEY: u8 = 0x5a;
const NOISE_SIGMA: f64 = 0.05;
const EXEC: ExecConfig = ExecConfig { workers: WORKERS };

/// `T(k) + T(k^1)` must cancel to within this for a linear selection.
pub const CANCEL_TOLERANCE: f64 = 1e-9;

/// A first-round slice with `rail` loaded to 16 fF, double the default:
/// the imbalance of the paper's Fig. 7 that DPA then detects.
pub fn loaded_slice(stage: SliceStage, rail: &str) -> Result<AesByteSlice, String> {
    let mut slice = aes_first_round_slice("perf", stage).map_err(|e| format!("slice: {e}"))?;
    let net = slice
        .netlist
        .find_net(rail)
        .ok_or_else(|| format!("slice has no net {rail}"))?;
    slice.netlist.set_routing_cap(net, 16.0);
    Ok(slice)
}

fn config(traces: usize, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(KEY);
    cfg.traces = traces;
    cfg.seed = seed;
    cfg.synth.noise_sigma = NOISE_SIGMA;
    cfg
}

const SEL: AesXorSelect = AesXorSelect { byte: 0, bit: 0 };
const GUESSES: [u16; 2] = [KEY as u16, (KEY ^ 1) as u16];

/// The bias pair `[T(k), T(k^1)]` of one campaign.
struct Unit {
    set: TraceSet,
    bias: [Trace; 2],
}

/// One campaign and its two biases through the public API.
fn unit(slice: &AesByteSlice, cfg: &CampaignConfig) -> Result<Unit, String> {
    let set = run_parallel_campaign(slice, cfg, EXEC).map_err(|e| format!("campaign: {e}"))?;
    let bias = GUESSES.map(|g| parallel_bias_signal(&set, &SEL, g, EXEC));
    let [Some(k), Some(k1)] = bias else {
        return Err("a bias partition is empty".into());
    };
    Ok(Unit { set, bias: [k, k1] })
}

/// Largest `|T(k)[j] + T(k^1)[j]|`, or infinity when the grids differ.
pub fn cancellation(k: &Trace, k1: &Trace) -> f64 {
    if k.len() != k1.len() {
        return f64::INFINITY;
    }
    k.samples()
        .iter()
        .zip(k1.samples())
        .map(|(a, b)| (a + b).abs())
        .fold(0.0, f64::max)
}

pub fn digest(bias: &[Trace]) -> u64 {
    let mut d = Digest::default();
    for t in bias {
        d.f64s(t.samples());
    }
    d.value()
}

/// One minus distinct stimuli over acquisitions.
pub fn repeat_frac(set: &TraceSet) -> f64 {
    let distinct: std::collections::BTreeSet<&[u8]> =
        (0..set.len()).map(|i| set.input(i)).collect();
    1.0 - distinct.len() as f64 / set.len().max(1) as f64
}

/// The same acquisition as `run_parallel_campaign`, decomposed into the
/// public calls of each layer with a span around each.
pub fn acquire(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    synth: &TraceSynthesizer<'_>,
    pt: u8,
    index: usize,
) -> Result<Trace, SimError> {
    let tb = {
        let _s = spans::span("sim.tb_setup");
        let mut tb = Testbench::new(&slice.netlist, cfg.testbench)?;
        let (pbits, kbits) = (bit_values(pt), bit_values(cfg.key));
        for i in 0..8 {
            tb.source(slice.pt[i], vec![pbits[i]])?;
            tb.source(slice.key[i], vec![kbits[i]])?;
            tb.sink(slice.out[i])?;
        }
        tb
    };
    let run = {
        let mut s = spans::span("sim.run");
        let run = tb.run()?;
        s.work(run.transitions.len());
        run
    };
    let mut trace = {
        let mut s = spans::span("analog.synth");
        let trace = synth.synthesize(&run.transitions);
        s.work(trace.len());
        trace
    };
    let mut s = spans::span("analog.noise");
    trace.add_gaussian_noise(&mut job_rng(cfg.seed, index as u64), cfg.synth.noise_sigma);
    s.work(trace.len());
    Ok(trace)
}

/// Replays `reference`'s campaign through [`acquire`] on the pool, then
/// its biases one guess per job and one worker per guess. Returns the
/// replica and the id of its root span.
fn replica(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    reference: &TraceSet,
) -> Result<(Unit, Option<u64>), String> {
    let root = spans::span("perf.replica");
    let synth = TraceSynthesizer::new(&slice.netlist, cfg.synth);
    let parent = spans::current();
    let traces = {
        let _s = spans::span("exec.run_indexed");
        qdi_exec::try_run_indexed(&EXEC, cfg.traces, |i| {
            let _job = spans::child_of(parent, "exec.job");
            acquire(slice, cfg, &synth, reference.input(i)[0], i)
        })
        .map_err(|e| format!("replica acquisition: {e}"))?
    };
    let mut set = TraceSet::new();
    for (i, trace) in traces.into_iter().enumerate() {
        set.push(reference.input(i).to_vec(), trace);
    }
    let bias = {
        let _s = spans::span("exec.run_indexed");
        qdi_exec::run_indexed(&EXEC, GUESSES.len(), |g| {
            let _job = spans::child_of(parent, "exec.job");
            let mut s = spans::span("dpa.bias");
            s.work(set.len());
            parallel_bias_signal(&set, &SEL, GUESSES[g], ExecConfig::serial())
        })
    };
    let [Some(k), Some(k1)]: [Option<Trace>; 2] = bias.try_into().expect("two guesses") else {
        return Err("replica: a bias partition is empty".into());
    };
    Ok((Unit { set, bias: [k, k1] }, root.id()))
}

fn identical(a: &TraceSet, b: &TraceSet) -> bool {
    a.len() == b.len()
        && (0..a.len())
            .all(|i| a.input(i) == b.input(i) && a.trace(i).samples() == b.trace(i).samples())
}

/// Runs the workload: set-up, then campaigns for `seconds` (untraced),
/// or one campaign through the API and once more through the traced
/// replica (`trace`).
pub fn run(sizes: Sizes, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        sizes: vec![
            ("traces_per_campaign", sizes.traces as u64),
            ("warmup_traces", sizes.warmup as u64),
            ("workers", WORKERS as u64),
        ],
        ..Outcome::default()
    };
    let (slice, setup_s) = report::set_up(|_| {
        let slice = loaded_slice(SliceStage::XorOnly, "ak.x0.h2")?;
        unit(&slice, &config(sizes.warmup, derive_seed(seed, u64::MAX)))?;
        Ok::<_, String>(slice)
    })?;
    out.set("setup_s", setup_s);

    let check = |out: &mut Outcome, i: u64, unit: &Unit| {
        let worst = cancellation(&unit.bias[0], &unit.bias[1]);
        out.check(worst <= CANCEL_TOLERANCE, sizes.traces as u64, || {
            format!("campaign {i}: |T(k) + T(k^1)| reaches {worst:e}")
        });
        if i == 0 {
            out.digest = digest(&unit.bias);
            out.set("dpa.stimulus_repeat_frac", repeat_frac(&unit.set));
        }
    };

    if !trace {
        let units = report::run_for(seconds, |i| {
            out.ops += sizes.traces as u64;
            let campaign = unit(&slice, &config(sizes.traces, derive_seed(seed, i)))?;
            check(&mut out, i, &campaign);
            Ok(sizes.traces as u64)
        })?;
        units.record(&mut out);
        return Ok(out);
    }

    let cfg = config(sizes.traces, derive_seed(seed, 0));
    let t = std::time::Instant::now();
    let api = unit(&slice, &cfg)?;
    let untraced_s = t.elapsed().as_secs_f64();
    out.ops += sizes.traces as u64;
    check(&mut out, 0, &api);
    spans::enable(true);
    let t = std::time::Instant::now();
    let replayed = replica(&slice, &cfg, &api.set);
    out.traced_s = t.elapsed().as_secs_f64();
    spans::enable(false);
    let (copy, root) = replayed?;
    let same = identical(&api.set, &copy.set)
        && api
            .bias
            .iter()
            .zip(&copy.bias)
            .all(|(a, b)| a.samples() == b.samples());
    out.check(same, sizes.traces as u64, || {
        "traced replica differs from run_parallel_campaign".into()
    });
    out.root = root;
    out.workers = WORKERS;
    out.untraced_s = untraced_s;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_percent_campaign_passes_its_gates_traced_and_untraced() {
        let _serial = crate::TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let sizes = Sizes {
            traces: 655,
            warmup: 41,
        };
        let plain = run(sizes, 7, 0.0, false).expect("runs");
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert_eq!((plain.ops, plain.failed), (655, 0));
        let traced = run(sizes, 7, 0.0, true).expect("runs");
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(traced.digest, plain.digest, "same seed, same biases");
        let spans = spans::take();
        assert_eq!(
            spans.iter().filter(|s| s.name == "sim.run").count(),
            655,
            "one sim.run span per acquisition"
        );
        let other = run(sizes, 8, 0.0, false).expect("runs");
        assert_ne!(other.digest, plain.digest, "the seed varies the inputs");
    }
}
