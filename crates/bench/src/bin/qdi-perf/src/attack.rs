//! `attack_sbox`: the analysis half. The set-up acquires a full-codebook
//! campaign of the XOR+S-box slice, with one S-box rail loaded to 16 fF,
//! into a `.qtrs` store; each timed unit loads the store and ranks all
//! 256 key guesses for each of the 8 S-box output bits.
//!
//! The timed part is bias accumulation and store decoding with no
//! simulation, so a change to simulation or synthesis must leave it flat.

use std::path::Path;

use qdi_analog::{Trace, TraceSynthesizer};
use qdi_crypto::gatelevel::slice::{AesByteSlice, SliceStage};
use qdi_dpa::selection::AesSboxSelect;
use qdi_dpa::{
    parallel_attack, parallel_bias_signal, run_parallel_campaign, AttackResult, CampaignConfig,
    TraceSet,
};
use qdi_exec::{derive_seed, ExecConfig, StoreOptions, StoreWriter};

use crate::campaign::loaded_slice;
use crate::report::{self, Digest, Outcome, WORKERS};
use crate::spans;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Traces in the store: whole passes over the 256-plaintext codebook.
    pub traces: usize,
}

pub const SIZES: Sizes = Sizes { traces: 4_096 };

const KEY: u8 = 0x6b;
const NOISE_SIGMA: f64 = 0.05;
const BITS: u8 = 8;
const EXEC: ExecConfig = ExecConfig { workers: WORKERS };

fn config(sizes: Sizes, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::full_codebook(KEY);
    cfg.traces = sizes.traces;
    cfg.seed = derive_seed(seed, 0);
    cfg.synth.noise_sigma = NOISE_SIGMA;
    cfg
}

fn selection(bit: u8) -> AesSboxSelect {
    AesSboxSelect { byte: 0, bit }
}

/// Every guess's score, bits in order, guesses in ranking order.
fn digest(results: &[AttackResult]) -> u64 {
    let mut d = Digest::default();
    for r in results {
        for s in &r.scores {
            d.u64(u64::from(s.guess));
            d.f64s(&[s.peak_abs, s.peak_signed, s.area]);
            d.u64(s.peak_time_ps);
        }
    }
    d.value()
}

/// One unit through the public API: load the store, attack every bit.
fn unit(store: &Path) -> Result<Vec<AttackResult>, String> {
    let set = TraceSet::from_store(store).map_err(|e| format!("load store: {e}"))?;
    Ok((0..BITS)
        .map(|bit| parallel_attack(&set, &selection(bit), EXEC))
        .collect())
}

/// Acquires the campaign into a store through the API.
fn acquire(slice: &AesByteSlice, cfg: &CampaignConfig, store: &Path) -> Result<TraceSet, String> {
    let set = run_parallel_campaign(slice, cfg, EXEC).map_err(|e| format!("campaign: {e}"))?;
    set.to_store(store, StoreOptions::new())
        .map_err(|e| format!("write store: {e}"))?;
    Ok(set)
}

/// The set-up's acquisition decomposed into traced layer calls, written
/// to a second store record by record.
fn acquire_replica(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    reference: &TraceSet,
    store: &Path,
) -> Result<(), String> {
    let synth = TraceSynthesizer::new(&slice.netlist, cfg.synth);
    let parent = spans::current();
    let traces: Vec<Trace> = {
        let _s = spans::span("exec.run_indexed");
        qdi_exec::try_run_indexed(&EXEC, cfg.traces, |i| {
            let _job = spans::child_of(parent, "exec.job");
            crate::campaign::acquire(slice, cfg, &synth, reference.input(i)[0], i)
        })
        .map_err(|e| format!("replica acquisition: {e}"))?
    };
    let first = &traces[0];
    let mut writer = StoreWriter::create(store, first.t0_ps(), first.dt_ps(), StoreOptions::new())
        .map_err(|e| format!("create store: {e}"))?;
    for (i, trace) in traces.iter().enumerate() {
        let mut s = spans::span("exec.qtrs.encode");
        let before = writer.offset();
        writer
            .append(reference.input(i), trace)
            .map_err(|e| format!("append: {e}"))?;
        s.work((writer.offset() - before) as usize);
    }
    writer.finish().map_err(|e| format!("finish store: {e}"))
}

/// A guess's `(|peak|, signed peak, peak time, area)`, as `GuessScore`
/// holds them.
type Score = (f64, f64, u64, f64);

/// One unit decomposed: the traced store load, then every (bit, guess)
/// bias as its own pool job on one worker. Returns, per bit, the score
/// of each guess in guess order.
fn unit_replica(store: &Path) -> Result<Vec<Vec<Score>>, String> {
    let set = {
        let mut s = spans::span("exec.qtrs.decode");
        s.work(std::fs::metadata(store).map_or(0, |m| m.len() as usize));
        TraceSet::from_store(store).map_err(|e| format!("load store: {e}"))?
    };
    let parent = spans::current();
    let per_guess = {
        let _s = spans::span("exec.run_indexed");
        qdi_exec::run_indexed(&EXEC, usize::from(BITS) * 256, |j| {
            let _job = spans::child_of(parent, "exec.job");
            let sel = selection((j / 256) as u8);
            let bias = {
                let mut s = spans::span("dpa.bias");
                s.work(set.len());
                parallel_bias_signal(&set, &sel, (j % 256) as u16, ExecConfig::serial())
            };
            bias.and_then(|b| {
                let (t, peak) = b.abs_peak()?;
                Some((peak.abs(), peak, t, b.abs_area_fc()))
            })
        })
    };
    per_guess
        .chunks(256)
        .map(|bit| bit.iter().map(|g| g.ok_or("empty partition")).collect())
        .collect::<Result<_, _>>()
        .map_err(|e: &str| e.to_owned())
}

/// Whether the API ranking holds exactly the replica's per-guess scores.
fn same_scores(api: &[AttackResult], copy: &[Vec<Score>]) -> bool {
    api.len() == copy.len()
        && api.iter().zip(copy).all(|(r, guesses)| {
            r.scores.len() == guesses.len()
                && r.scores.iter().all(|s| {
                    let (peak_abs, peak, t, area) = guesses[usize::from(s.guess)];
                    s.peak_abs.to_bits() == peak_abs.to_bits()
                        && s.peak_signed.to_bits() == peak.to_bits()
                        && s.peak_time_ps == t
                        && s.area.to_bits() == area.to_bits()
                })
        })
}

pub fn run(
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        sizes: vec![
            ("traces", sizes.traces as u64),
            ("bits", u64::from(BITS)),
            ("guesses", 256),
            ("workers", WORKERS as u64),
        ],
        ..Outcome::default()
    };
    let cfg = config(sizes, seed);
    let store = work.join("attack.qtrs");
    let ((slice, set), setup_s) = report::set_up(|_| {
        let slice = loaded_slice(SliceStage::XorSbox, "sb.b0.h1")?;
        let set = acquire(&slice, &cfg, &store)?;
        Ok::<_, String>((slice, set))
    })?;
    out.set("setup_s", setup_s);
    out.set(
        "dpa.stimulus_repeat_frac",
        crate::campaign::repeat_frac(&set),
    );

    // Every unit attacks the same store, so every unit must rank alike.
    let check = |out: &mut Outcome, i: u64, results: &[AttackResult]| {
        out.ops += u64::from(BITS);
        let best = results[0].best().guess;
        out.check(best == u16::from(KEY), 1, || {
            format!("unit {i}: bit 0 ranks guess {best:#04x} first, not the key {KEY:#04x}")
        });
        let d = digest(results);
        if i == 0 {
            out.digest = d;
        }
        let first = out.digest;
        out.check(d == first, u64::from(BITS), || {
            format!("unit {i}: the same store ranked differently ({d:016x} vs {first:016x})")
        });
    };

    if !trace {
        let trace_guesses = u64::from(BITS) * 256 * sizes.traces as u64;
        let units = report::run_for(seconds, |i| {
            check(&mut out, i, &unit(&store)?);
            Ok(trace_guesses)
        })?;
        units.record(&mut out);
        return Ok(out);
    }

    let t = std::time::Instant::now();
    let api = unit(&store)?;
    let untraced_s = t.elapsed().as_secs_f64();
    check(&mut out, 0, &api);
    let replica_store = work.join("attack-replica.qtrs");
    spans::enable(true);
    let acquired = {
        let _setup = spans::span("perf.setup_replica");
        acquire_replica(&slice, &cfg, &set, &replica_store)
    };
    let (scored, root) = {
        let t = std::time::Instant::now();
        let root = spans::span("perf.replica");
        let scored = acquired.and_then(|()| unit_replica(&replica_store));
        out.traced_s = t.elapsed().as_secs_f64();
        (scored, root.id())
    };
    spans::enable(false);
    let scores = scored?;
    let same_store = std::fs::read(&store).ok() == std::fs::read(&replica_store).ok();
    out.check(same_store, 0, || {
        "traced acquisition wrote a different store than TraceSet::to_store".into()
    });
    out.check(same_scores(&api, &scores), u64::from(BITS), || {
        "traced replica scores differ from parallel_attack".into()
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
    fn small_attack_passes_its_gates_traced_and_untraced() {
        let _serial = crate::TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let work = crate::work_dir().expect("work dir");
        let sizes = Sizes { traces: 2_048 };
        let plain = run(sizes, 3, 0.0, false, &work).expect("runs");
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert_eq!((plain.ops, plain.failed), (8, 0));
        let traced = run(sizes, 3, 0.0, true, &work).expect("runs");
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(traced.digest, plain.digest);
        let _ = spans::take();
        let _ = std::fs::remove_dir_all(&work);
    }
}
