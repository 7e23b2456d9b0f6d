//! Span overhead: the disabled-cost contract of `qdi_obs::span` pins a
//! disabled span at the same order as a disabled progress handle — one
//! relaxed atomic load plus a branch on drop, ~ns. The enabled variants
//! measure what a profiled run pays per hot-span visit (stack push/pop,
//! roll-up node lookup, two clock reads) and per ordinary span (ids,
//! one record to every consumer), so instrumentation stays honest about
//! its observer effect. The enabled cases install the run record, the
//! one consumer that turns spans on without `QDI_LOG`, on the null
//! device, so they pay for every record without filling a disk.
//! `span_hot_disabled` moves by ~1 ns with code layout alone, so it is
//! not a regression signal at that scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_span_overhead(c: &mut Criterion) {
    // Baseline: the loop body with no span at all.
    let mut acc = 0u64;
    c.bench_function("span_baseline_none", |b| {
        b.iter(|| {
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });

    // Disabled: one relaxed load in `hot`, one branch in the guard's
    // drop. This is what every instrumented hot path (simulator event
    // loop, `.qtrs` codec, pool dispatch) pays in production.
    c.bench_function("span_hot_disabled", |b| {
        b.iter(|| {
            let _s = qdi_obs::span::hot("bench.span.disabled");
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });

    // Enabled, under an ordinary span: the realistic shape — a kernel
    // folding into the roll-up of its enclosing step.
    qdi_obs::span::set_file("/dev/null");
    c.bench_function("span_hot_enabled", |b| {
        let _step = qdi_obs::span("bench", "step");
        b.iter(|| {
            let _s = qdi_obs::span::hot("bench.span.enabled");
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });

    // Enabled, nested: a leaf under an open hot parent, exercising the
    // child-time attribution path.
    c.bench_function("span_hot_enabled_nested", |b| {
        let _step = qdi_obs::span("bench", "step");
        let _outer = qdi_obs::span::hot("bench.span.outer");
        b.iter(|| {
            let _s = qdi_obs::span::hot("bench.span.inner");
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });

    // An ordinary span: one record per close, to the run record.
    c.bench_function("span_ordinary_enabled", |b| {
        b.iter(|| {
            let _s = qdi_obs::span("bench", "ordinary");
            acc = acc.wrapping_add(1);
            black_box(acc)
        })
    });
    qdi_obs::span::close_file();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_span_overhead
}
criterion_main!(benches);
