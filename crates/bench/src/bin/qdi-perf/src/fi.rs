//! `fi_sbox`: fault-injection campaigns over the XOR+S-box slice. Each
//! unit draws a stimulus seed and injects every fault model at every gate
//! at the default injection times.
//!
//! The same simulator as `campaign_xor`, but every run carries a distinct
//! fault plan, so no run repeats another: simulator reuse shows here, a
//! per-stimulus trace cache cannot. No synthesis, no store.

use std::collections::BTreeSet;

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, AesByteSlice, SliceStage};
use qdi_exec::{derive_seed, ExecConfig};
use qdi_fi::campaign::CampaignConfig;
use qdi_fi::{
    classify, default_injection_times, enumerate_faults, output_values, run_campaign_parallel,
    FaultOutcome, Stimulus,
};
use qdi_sim::{Fault, FaultKind, FaultPlan};

use crate::report::{self, Digest, Outcome, WORKERS};
use crate::spans;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Faults per unit: `None` injects the full cross product, `Some(n)`
    /// its first `n` faults.
    pub faults: Option<usize>,
}

pub const SIZES: Sizes = Sizes { faults: None };

const MODELS: &str = "seu,stuck0,stuck1,delay,glitch";
/// Tokens per input channel in each run, as `qdi_fi`'s default.
const TOKENS: usize = 2;
const EXEC: ExecConfig = ExecConfig { workers: WORKERS };

fn slice() -> Result<AesByteSlice, String> {
    aes_first_round_slice("perf", SliceStage::XorSbox).map_err(|e| format!("slice: {e}"))
}

fn models() -> Result<Vec<FaultKind>, String> {
    qdi_fi::parse_models(MODELS).map_err(|m| format!("fault model {m:?}"))
}

fn config(seed: u64, i: u64) -> CampaignConfig {
    CampaignConfig {
        tokens: TOKENS,
        seed: derive_seed(seed, i),
        ..CampaignConfig::new()
    }
}

/// The unit's fault list: models × gates × the default injection times
/// of its stimulus.
fn faults(
    slice: &AesByteSlice,
    models: &[FaultKind],
    cfg: &CampaignConfig,
    sizes: Sizes,
) -> Result<Vec<Fault>, String> {
    let times = default_injection_times(&slice.netlist, cfg).map_err(|e| format!("golden: {e}"))?;
    let mut faults = enumerate_faults(&slice.netlist, models, &times);
    if let Some(n) = sizes.faults {
        faults.truncate(n);
    }
    Ok(faults)
}

fn outcome_index(o: FaultOutcome) -> u64 {
    FaultOutcome::all()
        .iter()
        .position(|&x| x == o)
        .expect("all() lists every outcome") as u64
}

fn digest(outcomes: &[FaultOutcome]) -> u64 {
    let mut d = Digest::default();
    for &o in outcomes {
        d.u64(outcome_index(o));
    }
    d.value()
}

/// One unit through the public API: the outcome of each fault, in order.
fn unit(
    slice: &AesByteSlice,
    faults: &[Fault],
    cfg: &CampaignConfig,
) -> Result<Vec<FaultOutcome>, String> {
    let report = run_campaign_parallel(&slice.netlist, faults, cfg, EXEC)
        .map_err(|e| format!("campaign: {e}"))?;
    Ok(report.records.iter().map(|r| r.outcome).collect())
}

/// The unit decomposed: golden run, then each fault's run and
/// classification as traced pool jobs.
fn replica(
    slice: &AesByteSlice,
    models: &[FaultKind],
    cfg: &CampaignConfig,
    sizes: Sizes,
) -> Result<Vec<FaultOutcome>, String> {
    let netlist = &slice.netlist;
    let faults = {
        let _s = spans::span("fi.injection_times");
        faults(slice, models, cfg, sizes)?
    };
    let stim = Stimulus::random(netlist, cfg.tokens, cfg.seed).map_err(|e| e.to_string())?;
    let golden = {
        let mut s = spans::span("sim.run");
        let run = stim
            .run(netlist, &cfg.testbench, None)
            .map_err(|e| format!("golden: {e}"))?;
        s.work(run.transitions.len());
        output_values(&run)
    };
    let parent = spans::current();
    let _s = spans::span("exec.run_indexed");
    Ok(qdi_exec::run_indexed(&EXEC, faults.len(), |i| {
        let _job = spans::child_of(parent, "exec.job");
        let result = {
            let _s = spans::span("sim.fault_run");
            stim.run(netlist, &cfg.testbench, Some(&FaultPlan::single(faults[i])))
        };
        let _s = spans::span("fi.classify");
        classify(netlist, &golden, &result)
    }))
}

pub fn run(sizes: Sizes, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let models = models()?;
    let (slice, setup_s) = report::set_up(|_| {
        let slice = slice()?;
        // Warm up on as many injections as there are gates, so
        // first-touch costs stay out of the timed units.
        let cfg = config(seed, u64::MAX);
        let mut warmup = faults(&slice, &models[..1], &cfg, sizes)?;
        warmup.truncate(slice.netlist.gate_count());
        unit(&slice, &warmup, &cfg)?;
        Ok::<_, String>(slice)
    })?;
    let mut out = Outcome {
        sizes: vec![
            ("gates", slice.netlist.gate_count() as u64),
            ("models", models.len() as u64),
            ("tokens", TOKENS as u64),
            ("workers", WORKERS as u64),
        ],
        ..Outcome::default()
    };
    out.set("setup_s", setup_s);

    let check = |out: &mut Outcome, i: u64, faults: &[Fault], outcomes: &[FaultOutcome]| {
        out.ops += faults.len() as u64;
        out.check(outcomes.len() == faults.len(), faults.len() as u64, || {
            format!(
                "unit {i}: {} records for {} injections",
                outcomes.len(),
                faults.len()
            )
        });
        let aborted = outcomes
            .iter()
            .filter(|&&o| o == FaultOutcome::Aborted)
            .count();
        out.check(aborted == 0, aborted as u64, || {
            format!("unit {i}: {aborted} injections aborted")
        });
        if i == 0 {
            out.digest = digest(outcomes);
            out.sizes.push(("injections_per_unit", faults.len() as u64));
            let distinct: BTreeSet<String> = faults.iter().map(|f| format!("{f:?}")).collect();
            out.set(
                "dpa.stimulus_repeat_frac",
                1.0 - distinct.len() as f64 / faults.len().max(1) as f64,
            );
            for o in FaultOutcome::all() {
                let n = outcomes.iter().filter(|&&x| x == o).count();
                out.set(&format!("fi.outcome.{}", o.mnemonic()), n as f64);
            }
        }
    };

    if !trace {
        let units = report::run_for(seconds, |i| {
            let cfg = config(seed, i);
            let faults = faults(&slice, &models, &cfg, sizes)?;
            check(&mut out, i, &faults, &unit(&slice, &faults, &cfg)?);
            Ok(faults.len() as u64)
        })?;
        units.record(&mut out);
        return Ok(out);
    }

    let cfg = config(seed, 0);
    let t = std::time::Instant::now();
    let faults = faults(&slice, &models, &cfg, sizes)?;
    let api = unit(&slice, &faults, &cfg)?;
    let untraced_s = t.elapsed().as_secs_f64();
    check(&mut out, 0, &faults, &api);
    spans::enable(true);
    let t = std::time::Instant::now();
    let (copy, root) = {
        let root = spans::span("perf.replica");
        (replica(&slice, &models, &cfg, sizes), root.id())
    };
    out.traced_s = t.elapsed().as_secs_f64();
    spans::enable(false);
    let copy = copy?;
    out.check(copy == api, faults.len() as u64, || {
        "traced replica outcomes differ from run_campaign_parallel".into()
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
    fn one_percent_fault_campaign_passes_its_gates_traced_and_untraced() {
        let _serial = crate::TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let sizes = Sizes { faults: Some(165) };
        let plain = run(sizes, 5, 0.0, false).expect("runs");
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert_eq!((plain.ops, plain.failed), (165, 0));
        assert_eq!(plain.metrics["dpa.stimulus_repeat_frac"], 0.0);
        let traced = run(sizes, 5, 0.0, true).expect("runs");
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(traced.digest, plain.digest);
        let spans = spans::take();
        assert_eq!(
            spans.iter().filter(|s| s.name == "fi.classify").count(),
            165
        );
    }
}
