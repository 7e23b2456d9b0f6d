//! Differential oracle for the noiseless-trace cache: every campaign
//! driver returns, bit for bit, the traces of an uncached reference built
//! only from the public per-layer calls — a `Testbench` run,
//! `TraceSynthesizer::synthesize` and `Trace::add_gaussian_noise` with
//! `job_rng(seed, i)` — at every worker count, checkpoint granularity
//! and resume point, on slices with randomly loaded rails. Campaigns of
//! 300–600 traces over 256 plaintexts mix cache hits with misses.

use std::path::PathBuf;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use qdi_analog::{Trace, TraceSynthesizer};
use qdi_crypto::gatelevel::bit_values;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, AesByteSlice, SliceStage};
use qdi_dpa::{
    run_parallel_campaign, CampaignConfig, PlaintextSource, ResilienceConfig, StoreCampaignRunner,
    StoreCheckpoint, TraceSet,
};
use qdi_exec::{job_rng, ExecConfig, StoreOptions, SupervisorPolicy};
use qdi_sim::Testbench;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qdi_dpa_cache_{}_{name}", std::process::id()))
}

/// Acquisition `index` with no cache: a fresh simulation and synthesis
/// of plaintext `pt`, then the per-index noise.
fn uncached_trace(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    synth: &TraceSynthesizer<'_>,
    pt: u8,
    index: usize,
) -> Trace {
    let mut tb = Testbench::new(&slice.netlist, cfg.testbench).expect("testbench");
    let (pbits, kbits) = (bit_values(pt), bit_values(cfg.key));
    for i in 0..8 {
        tb.source(slice.pt[i], vec![pbits[i]]).expect("pt source");
        tb.source(slice.key[i], vec![kbits[i]]).expect("key source");
        tb.sink(slice.out[i]).expect("sink");
    }
    let run = tb.run().expect("reference run");
    let mut trace = synth.synthesize(&run.transitions);
    trace.add_gaussian_noise(&mut job_rng(cfg.seed, index as u64), cfg.synth.noise_sigma);
    trace
}

/// Checks `set` against the uncached reference, trace by trace, with the
/// plaintexts the set itself records.
fn assert_matches_reference(
    what: &str,
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    set: &TraceSet,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.len(), cfg.traces, "{}: trace count", what);
    let synth = TraceSynthesizer::new(&slice.netlist, cfg.synth);
    for i in 0..set.len() {
        let reference = uncached_trace(slice, cfg, &synth, set.input(i)[0], i);
        prop_assert_eq!(
            set.trace(i).samples(),
            reference.samples(),
            "{}: trace {} differs from the uncached reference",
            what,
            i
        );
    }
    Ok(())
}

fn supervise(runner: StoreCampaignRunner<'_>, supervised: bool) -> StoreCampaignRunner<'_> {
    if supervised {
        runner.with_supervisor(SupervisorPolicy::new())
    } else {
        runner
    }
}

/// Runs a store campaign in chunks of `checkpoint_every`, checkpoints
/// after `stop_after` chunks, drops the runner and finishes the campaign
/// in a resumed one (whose cache starts empty), then loads the store.
fn store_campaign_with_resume(
    slice: &AesByteSlice,
    cfg: CampaignConfig,
    exec: ExecConfig,
    checkpoint_every: usize,
    stop_after: usize,
    supervised: bool,
) -> TraceSet {
    let tag = format!("{}_{}_{}", cfg.seed, checkpoint_every, stop_after);
    let path = tmp(&format!("{tag}.qtrs"));
    let ckpt = tmp(&format!("{tag}.ckpt.json"));
    let resilience = ResilienceConfig { checkpoint_every };
    let mut first = supervise(
        StoreCampaignRunner::new(slice, cfg, resilience, exec, &path, StoreOptions::new())
            .expect("creates"),
        supervised,
    );
    for _ in 0..stop_after {
        first.step_chunk().expect("chunk");
    }
    first.checkpoint().save(&ckpt).expect("saves");
    drop(first);

    let checkpoint = StoreCheckpoint::load(&ckpt).expect("loads");
    let mut resumed = supervise(
        StoreCampaignRunner::resume(slice, cfg, resilience, exec, checkpoint).expect("resumes"),
        supervised,
    );
    while resumed.step_chunk().expect("chunk") {}
    assert!(
        resumed.quarantined().is_empty(),
        "clean campaign quarantined"
    );
    resumed.finish().expect("closes");
    let set = TraceSet::from_store(&path).expect("store loads");
    for file in [path, ckpt.clone(), ckpt.with_extension("json.bak")] {
        std::fs::remove_file(file).ok();
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cached_drivers_match_the_uncached_reference_bit_for_bit(
        seed in any::<u64>(),
        key in any::<u8>(),
        noisy in any::<bool>(),
        codebook in any::<bool>(),
        workers_pick in 0usize..3,
        traces in 300usize..601,
        layout_seed in any::<u64>(),
        checkpoint_every in 1usize..200,
        stop_fraction in 0.0f64..1.0,
        supervised in any::<bool>(),
    ) {
        // Every rail randomly loaded, as after layout extraction: distinct
        // plaintexts then give distinct noiseless traces, so a cache slot
        // served to the wrong plaintext shows.
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("slice builds");
        let mut layout = ChaCha8Rng::seed_from_u64(layout_seed);
        let nets: Vec<_> = slice.netlist.nets().map(|n| n.id).collect();
        for net in nets {
            slice.netlist.set_routing_cap(net, layout.gen_range(4.0..16.0));
        }
        let mut cfg = CampaignConfig::new(key);
        cfg.traces = traces;
        cfg.seed = seed;
        cfg.plaintexts = if codebook {
            PlaintextSource::FullCodebook
        } else {
            PlaintextSource::Random
        };
        cfg.synth.noise_sigma = if noisy { 0.05 } else { 0.0 };
        let exec = ExecConfig { workers: [1, 2, 8][workers_pick] };

        let set = run_parallel_campaign(&slice, &cfg, exec).expect("campaign");
        assert_matches_reference("run_parallel_campaign", &slice, &cfg, &set)?;

        let chunks = traces.div_ceil(checkpoint_every);
        let stop_after = 1 + (stop_fraction * (chunks - 1) as f64) as usize;
        let stored =
            store_campaign_with_resume(&slice, cfg, exec, checkpoint_every, stop_after, supervised);
        assert_matches_reference("StoreCampaignRunner + resume", &slice, &cfg, &stored)?;
    }
}

#[test]
fn failing_stimuli_fail_at_every_index_not_once_per_plaintext() {
    let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("slice builds");
    let mut cfg = CampaignConfig::full_codebook(0x42);
    cfg.traces = 512;
    cfg.seed = 7;
    // A budget no acquisition fits in: each plaintext occurs twice, and
    // both of its acquisitions must fail.
    cfg.testbench.event_limit = 1;
    let resilience = ResilienceConfig {
        checkpoint_every: 128,
    };
    let path = tmp("starved.qtrs");
    let mut runner = StoreCampaignRunner::new(
        &slice,
        cfg,
        resilience,
        ExecConfig { workers: 2 },
        &path,
        StoreOptions::new(),
    )
    .expect("creates")
    .with_supervisor(SupervisorPolicy::new());
    while runner.step_chunk().expect("degrades, does not abort") {}
    assert_eq!(runner.quarantined(), (0..512).collect::<Vec<_>>());
    let manifest = runner.quarantine();
    assert_eq!(manifest.len(), 512);
    for entry in &manifest.entries {
        assert!(
            entry.reason.contains("EventLimit"),
            "index {}: {}",
            entry.index,
            entry.reason
        );
    }
    runner.finish().expect("closes");
    let stored = TraceSet::from_store(&path).expect("store loads");
    std::fs::remove_file(&path).ok();
    assert!(stored.is_empty(), "no failed acquisition reaches the store");
}
