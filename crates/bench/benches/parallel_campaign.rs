//! Parallel campaign throughput: traces/sec of the dual-rail XOR DPA
//! campaign at 1 worker vs. all available cores, with the determinism
//! contract checked on the way (bias `T = A0 − A1` bit-identical across
//! worker counts and when streamed back from a `.qtrs` store).
//!
//! Prints the numbers and writes `BENCH_parallel_campaign.qprof.json`
//! at the workspace root: the wall-clock attribution profile of the
//! parallel leg (`qdi-mon analyze` explains the speedup, `qdi-mon
//! flame`/`timeline` render it). Trace count defaults to 10 000 and can
//! be overridden with `QDI_BENCH_TRACES` for quick smoke runs. The
//! gating benchmark, with host fingerprint, is `qdi-perf`.

use std::time::Instant;

use qdi_bench::banner;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::selection::AesXorSelect;
use qdi_dpa::{
    bias_signal_from_store, parallel_bias_signal, run_parallel_campaign, CampaignConfig, TraceSet,
};
use qdi_exec::{ExecConfig, StoreOptions};

const KEY: u8 = 0x5a;
const SEED: u64 = 0xb0e5;
const STREAM_CHUNK: usize = 512;

fn trace_count() -> usize {
    std::env::var("QDI_BENCH_TRACES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn timed_campaign(
    slice: &qdi_crypto::gatelevel::slice::AesByteSlice,
    cfg: &CampaignConfig,
    workers: usize,
) -> (TraceSet, f64) {
    let start = Instant::now();
    let set = run_parallel_campaign(slice, cfg, ExecConfig { workers }).expect("campaign runs");
    (set, start.elapsed().as_secs_f64())
}

fn main() {
    banner("Parallel campaign: traces/sec at 1 worker vs. all cores");

    let traces = trace_count();
    let available = cores();
    let workers = ExecConfig::new().effective_workers(traces.max(1));
    let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("slice builds");
    let mut cfg = CampaignConfig::new(KEY);
    cfg.traces = traces;
    cfg.seed = SEED;
    cfg.synth.noise_sigma = 0.05;

    let (serial_set, serial_s) = timed_campaign(&slice, &cfg, 1);
    // Profile only the parallel leg: its .qprof is the attribution
    // trail of the speedup.
    qdi_obs::prof::install();
    let (parallel_set, parallel_s) = timed_campaign(&slice, &cfg, 0);
    let profile = qdi_obs::prof::report();
    qdi_obs::prof::uninstall();

    let serial_tps = traces as f64 / serial_s.max(1e-9);
    let parallel_tps = traces as f64 / parallel_s.max(1e-9);
    let speedup = parallel_tps / serial_tps.max(1e-9);
    println!("traces               {traces}");
    println!("available cores      {available}");
    println!("serial   (1 worker)  {serial_s:>8.2} s   {serial_tps:>9.1} traces/s");
    println!("parallel ({workers} workers) {parallel_s:>8.2} s   {parallel_tps:>9.1} traces/s");
    println!("speedup              {speedup:>8.2}x");

    // Determinism contract: the trace set and the bias T = A0 - A1 are
    // bit-identical at every worker count.
    let sel = AesXorSelect { byte: 0, bit: 0 };
    let serial_bias =
        parallel_bias_signal(&serial_set, &sel, KEY as u16, ExecConfig { workers: 1 })
            .expect("non-degenerate partition");
    let parallel_bias = parallel_bias_signal(&parallel_set, &sel, KEY as u16, ExecConfig::new())
        .expect("non-degenerate partition");
    let traces_identical = (0..serial_set.len())
        .all(|i| serial_set.trace(i).samples() == parallel_set.trace(i).samples());
    let bias_identical = serial_bias.samples() == parallel_bias.samples();
    assert!(traces_identical, "trace sets differ across worker counts");
    assert!(bias_identical, "bias T differs across worker counts");

    // Streaming path: the same campaign round-tripped through a .qtrs
    // store, bias recomputed one chunk at a time.
    let store = std::env::temp_dir().join("qdi_bench_parallel_campaign.qtrs");
    parallel_set
        .to_store(&store, StoreOptions::new())
        .expect("store writes");
    let streamed_bias = bias_signal_from_store(&store, &sel, KEY as u16, STREAM_CHUNK)
        .expect("store reads")
        .expect("non-degenerate partition");
    let streamed_identical = streamed_bias.samples() == parallel_bias.samples();
    assert!(streamed_identical, "streamed bias differs from in-memory");
    let store_bytes = std::fs::metadata(&store).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&store);
    println!("bias bit-identical   1w == {workers}w == streamed ({STREAM_CHUNK}-trace chunks)");
    println!("store                {store_bytes} bytes");

    let qprof_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_campaign.qprof.json"
    );
    profile.save(qprof_path).expect("profile writes");
    println!("wrote {qprof_path} (qdi-mon analyze / flame / timeline)");
}
