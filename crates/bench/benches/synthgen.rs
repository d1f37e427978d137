//! Criterion benches of sharded world generation: every config preset under
//! the sequential and parallel schedules, so the committed `BENCH_synth.json`
//! records the multicore speedup (`Parallel` degrades to the sequential
//! schedule on 1-core hosts; the committed report is from a 2-CPU host).
//!
//! Regenerate the committed report with (from the workspace root; the path
//! must be absolute because cargo runs the bench binary with `crates/bench`
//! as its working directory):
//!
//! ```sh
//! BENCH_JSON=$PWD/BENCH_synth.json cargo bench -p redsus_bench --bench synthgen
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use synth::{GenMode, SynthConfig, SynthUs};

fn gen(config: &SynthConfig, mode: GenMode) -> SynthUs {
    SynthUs::generate_with(config, mode)
        .expect("preset configs are valid")
        .0
}

fn bench_synthgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthgen");
    group.sample_size(10);
    let tiny = SynthConfig::tiny(5);
    group.bench_function("tiny_sequential", |b| {
        b.iter(|| black_box(gen(&tiny, GenMode::Sequential)))
    });
    group.bench_function("tiny_parallel", |b| {
        b.iter(|| black_box(gen(&tiny, GenMode::Parallel)))
    });
    group.bench_function("tiny_threads2", |b| {
        b.iter(|| black_box(gen(&tiny, GenMode::Threads(2))))
    });
    group.finish();

    // The larger presets run the full payload per iteration; keep samples low.
    let mut group = c.benchmark_group("synthgen_scale");
    group.sample_size(3);
    let experiment = SynthConfig::experiment(5);
    group.bench_function("experiment_sequential", |b| {
        b.iter(|| black_box(gen(&experiment, GenMode::Sequential)))
    });
    group.bench_function("experiment_parallel", |b| {
        b.iter(|| black_box(gen(&experiment, GenMode::Parallel)))
    });
    let large = SynthConfig::large(5);
    group.bench_function("large_sequential", |b| {
        b.iter(|| black_box(gen(&large, GenMode::Sequential)))
    });
    group.bench_function("large_parallel", |b| {
        b.iter(|| black_box(gen(&large, GenMode::Parallel)))
    });
    group.finish();
}

criterion_group!(benches, bench_synthgen);
criterion_main!(benches);
