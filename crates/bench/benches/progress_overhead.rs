//! Progress hook overhead: the acceptance bar for the monitoring layer
//! is "near-zero cost when disabled". Two variants isolate it — an
//! advance on a disabled (inert) handle and an advance on a live task.
//! The disabled advance must stay within noise of the empty baseline:
//! it is one relaxed atomic load at registration plus an `Option`
//! branch per call.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_progress_overhead(c: &mut Criterion) {
    // Baseline: the loop body with no hook at all.
    let mut acc = 0u64;
    c.bench_function("progress_baseline_no_hook", |b| {
        b.iter(|| {
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });

    // Disabled facility: `task` hands back an inert handle; advance is
    // an `Option::as_ref` branch. This is what every campaign pays when
    // nobody is watching.
    qdi_obs::progress::set_enabled(false);
    let inert = qdi_obs::progress::task("bench.progress.disabled", 1_000_000);
    assert!(!inert.is_enabled());
    c.bench_function("progress_advance_disabled", |b| {
        b.iter(|| {
            inert.advance(1);
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });

    // Enabled: completed counter + EWMA CAS per call (still lock-free).
    qdi_obs::progress::set_enabled(true);
    let live = qdi_obs::progress::task("bench.progress.enabled", 1_000_000);
    assert!(live.is_enabled());
    c.bench_function("progress_advance_enabled", |b| {
        b.iter(|| {
            live.advance(1);
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });
    qdi_obs::progress::set_enabled(false);
    qdi_obs::progress::clear();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_progress_overhead
}
criterion_main!(benches);
