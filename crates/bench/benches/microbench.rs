//! Criterion micro-benchmarks of the computational kernels: handshake
//! simulation, trace synthesis, bias computation and placement annealing.

use criterion::{criterion_group, criterion_main, Criterion};
use qdi_analog::{SynthConfig, TraceSynthesizer};
use qdi_bench::XorFixture;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::selection::AesSboxSelect;
use qdi_dpa::{parallel_bias_signal, run_parallel_campaign, CampaignConfig};
use qdi_exec::ExecConfig;
use qdi_pnr::{place, PnrConfig};

fn bench_xor_handshake(c: &mut Criterion) {
    let fx = XorFixture::new();
    c.bench_function("xor_cell_four_phase_cycle", |b| {
        b.iter(|| std::hint::black_box(fx.run_pair(1, 0)))
    });
}

fn bench_slice_simulation(c: &mut Criterion) {
    let slice = aes_first_round_slice("s", SliceStage::XorSbox).expect("builds");
    let mut cfg = CampaignConfig::new(0x42);
    cfg.traces = 1;
    c.bench_function("sbox_slice_trace_acquisition", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("runs"),
            )
        })
    });
}

fn bench_trace_synthesis(c: &mut Criterion) {
    let fx = XorFixture::new();
    let log = fx.run_pair(0, 1);
    let synth = TraceSynthesizer::new(&fx.netlist, SynthConfig::default());
    c.bench_function("trace_synthesis_xor_log", |b| {
        b.iter(|| std::hint::black_box(synth.synthesize(&log)))
    });
}

fn bench_bias_computation(c: &mut Criterion) {
    let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let mut cfg = CampaignConfig::new(0x42);
    cfg.traces = 64;
    let set = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("runs");
    let sel = AesSboxSelect { byte: 0, bit: 0 };
    c.bench_function("bias_signal_64_traces", |b| {
        b.iter(|| {
            std::hint::black_box(parallel_bias_signal(&set, &sel, 0x42, ExecConfig::serial()))
        })
    });
}

fn bench_annealing(c: &mut Criterion) {
    let slice = aes_first_round_slice("s", SliceStage::XorSbox).expect("builds");
    let mut cfg = PnrConfig::default();
    cfg.anneal.moves_per_gate = 10;
    c.bench_function("anneal_sbox_slice_10_moves_per_gate", |b| {
        b.iter(|| {
            let mut placement = place::Placement::random_flat(&slice.netlist, &cfg);
            std::hint::black_box(place::anneal(&slice.netlist, &mut placement, &cfg.anneal))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_xor_handshake, bench_slice_simulation, bench_trace_synthesis,
              bench_bias_computation, bench_annealing
}
criterion_main!(benches);
