//! Streaming trace store: run a DPA campaign on the qdi-exec pool,
//! persist it as a `.qtrs` binary store, recompute the bias `T = A0 − A1`
//! one chunk at a time, and resume a checkpointed campaign from the
//! store offset alone.
//!
//! Run with: `cargo run --example trace_store`

use qdi::crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi::dpa::selection::AesXorSelect;
use qdi::dpa::{
    bias_signal_from_store, parallel_bias_signal, run_parallel_campaign, CampaignConfig,
    ResilienceConfig, StoreCampaignRunner, TraceSet,
};
use qdi::exec::{store, ExecConfig, StoreOptions};

const KEY: u8 = 0x5a;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir();
    let store_path = dir.join("trace_store_example.qtrs");
    let ckpt_path = dir.join("trace_store_example.ckpt.json");

    // 1. Acquire a campaign on the work-stealing pool. Per-index seeding
    //    makes the set bit-identical at every worker count.
    let slice = aes_first_round_slice("s", SliceStage::XorOnly)?;
    let mut cfg = CampaignConfig::new(KEY);
    cfg.traces = 256;
    cfg.synth.noise_sigma = 0.05;
    let set = run_parallel_campaign(&slice, &cfg, ExecConfig::new())?;
    println!(
        "campaign: {} traces acquired on the qdi-exec pool",
        set.len()
    );

    // 2. Persist as a .qtrs store and inspect it (what `qdi-trace info`
    //    prints for the same file).
    set.to_store(&store_path, StoreOptions::new())?;
    let info = store::info(&store_path)?;
    println!(
        "store:    {} records, {} samples, {} bytes, dt = {} ps, {:?} encoding",
        info.records, info.samples, info.bytes, info.dt_ps, info.encoding
    );

    // 3. Stream the bias off disk, 64 traces per chunk: memory stays
    //    bounded by one chunk, the result stays bit-identical.
    let sel = AesXorSelect { byte: 0, bit: 0 };
    let in_memory = parallel_bias_signal(&set, &sel, KEY as u16, ExecConfig::new())
        .expect("partition is non-degenerate");
    let streamed = bias_signal_from_store(&store_path, &sel, KEY as u16, 64)?
        .expect("partition is non-degenerate");
    assert_eq!(in_memory.samples(), streamed.samples());
    let (t, v) = streamed.abs_peak().expect("nonempty");
    println!("bias:     streamed == in-memory, peak |T| = {v:.3} at {t} ps");

    // 4. Round-trip: a store loads back into a TraceSet.
    let reloaded = TraceSet::from_store(&store_path)?;
    assert_eq!(reloaded.len(), set.len());

    // 5. Checkpoint/resume: the store offset is the whole resume state —
    //    per-index seeding makes every trace derivable from the config.
    let resumable_store = dir.join("trace_store_example_resumable.qtrs");
    let resilience = ResilienceConfig {
        checkpoint_every: 64,
    };
    let exec = ExecConfig::new();
    let mut runner = StoreCampaignRunner::new(
        &slice,
        cfg,
        resilience,
        exec,
        &resumable_store,
        StoreOptions::new(),
    )?;
    // Collect only the first chunk, then drop the runner mid-campaign.
    runner.step_chunk()?;
    let checkpoint = runner.checkpoint();
    checkpoint.save(&ckpt_path)?;
    drop(runner);

    let checkpoint = qdi::dpa::StoreCheckpoint::load(&ckpt_path)?;
    println!(
        "resume:   checkpoint at {} traces, store offset {}",
        checkpoint.completed, checkpoint.store_offset
    );
    let mut runner = StoreCampaignRunner::resume(&slice, cfg, resilience, exec, checkpoint)?;
    while runner.step_chunk()? {}
    runner.finish()?;

    let resumed = TraceSet::from_store(&resumable_store)?;
    assert_eq!(resumed.len(), cfg.traces);
    for i in 0..resumed.len() {
        assert_eq!(resumed.trace(i).samples(), set.trace(i).samples());
    }
    println!("resume:   resumed campaign is bit-identical to the uninterrupted one");

    for p in [&store_path, &ckpt_path, &resumable_store] {
        let _ = std::fs::remove_file(p);
    }
    Ok(())
}
