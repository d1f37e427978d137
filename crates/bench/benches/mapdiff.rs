//! Criterion benches of the release-diff engines: the batch `MapDiff`
//! (materialises both releases as `BTreeMap`s) against the streaming
//! merge-join (`diff_releases`, at most one chunk per stream) and the full
//! `DiffChain` fold over every release of the timeline.
//!
//! Alongside wall-clock, the bench reports the *memory model* as metrics:
//! the batch engine's resident entries (every record of both releases) vs
//! the streaming engine's observed peak resident entries — that ratio, not
//! the wall-clock, is what unlocks multi-release national-scale datasets.
//!
//! Regenerate the committed report with (from the workspace root; the path
//! must be absolute because cargo runs the bench binary with `crates/bench`
//! as its working directory):
//!
//! ```sh
//! BENCH_JSON=$PWD/BENCH_diff.json cargo bench -p redsus_bench --bench mapdiff
//! ```

use bdc::stream::{diff_releases, DiffChain, DiffMode, ShardableRelease, DEFAULT_DIFF_CHUNK};
use bdc::{MapDiff, NbmRelease};
use criterion::{criterion_group, criterion_main, report_metric, Criterion};
use redsus_core::pipeline::stage_release_diff;
use std::hint::black_box;
use synth::{SynthConfig, SynthUs};

/// The batch baseline: every release of the timeline materialised as the
/// initial release's records the world's `ReleaseEmitter` keeps in it.
fn materialised_releases(world: &SynthUs) -> Vec<NbmRelease> {
    let emitter = world.release_emitter();
    let initial = world.initial_release().records();
    (0..emitter.n_releases())
        .map(|k| {
            let release = emitter.release(k);
            let records = initial.iter().filter(|r| release.is_live(&r.claim_key()));
            let (version, published) = (release.version(), release.published());
            NbmRelease::from_records(
                version,
                published,
                records.cloned().collect(),
                &world.fabric,
            )
        })
        .collect()
}

/// The chain over the *materialised* releases — the comparison point for the
/// pipeline path ([`stage_release_diff`]), which streams the same timeline
/// from the world's `ReleaseEmitter` instead.
fn chain_over_materialised(releases: &[NbmRelease], mode: DiffMode) -> DiffChain {
    let mut chain = DiffChain::new(releases[0].version);
    for pair in releases.windows(2) {
        chain.extend_with(&pair[0], &pair[1], DEFAULT_DIFF_CHUNK, mode);
    }
    chain
}

fn bench_preset(c: &mut Criterion, label: &str, world: &SynthUs) {
    let releases = materialised_releases(world);
    let initial = &releases[0];
    let latest = &releases[releases.len() - 1];

    let mut group = c.benchmark_group(&format!("mapdiff_{label}"));
    group.sample_size(10);
    group.bench_function("batch_initial_vs_latest", |b| {
        b.iter(|| black_box(MapDiff::between(initial, latest)))
    });
    group.bench_function("stream_initial_vs_latest", |b| {
        b.iter(|| {
            black_box(diff_releases(
                initial,
                latest,
                DEFAULT_DIFF_CHUNK,
                DiffMode::Sequential,
            ))
        })
    });
    group.bench_function("stream_initial_vs_latest_threads2", |b| {
        b.iter(|| {
            black_box(diff_releases(
                initial,
                latest,
                DEFAULT_DIFF_CHUNK,
                DiffMode::Threads(2),
            ))
        })
    });
    group.finish();

    let mut group = c.benchmark_group(&format!("diffchain_{label}"));
    group.sample_size(10);
    group.bench_function("batch_pairwise", |b| {
        // The batch equivalent of the chain: one full MapDiff per pair.
        b.iter(|| {
            for pair in releases.windows(2) {
                black_box(MapDiff::between(&pair[0], &pair[1]));
            }
        })
    });
    group.bench_function("stream_chain_materialised", |b| {
        b.iter(|| black_box(chain_over_materialised(&releases, DiffMode::Sequential)))
    });
    group.bench_function("stream_chain_pipeline_stage", |b| {
        // Exactly what the pipeline's release_diff stage runs: emitter
        // construction plus the fully streaming chain (releases emitted from
        // the removal schedule, never materialised).
        b.iter(|| black_box(stage_release_diff(world, DiffMode::Sequential)))
    });
    group.finish();

    // Memory model: what each path must hold resident. The in-memory
    // NbmRelease adapter owns full sorted copies (its stats admit it), so
    // the bounded numbers belong to the emitter-backed paths: one shared
    // sorted base for the whole timeline plus at most one chunk per
    // in-flight stream.
    let batch_resident = initial.records().len() + latest.records().len();
    let adapter = diff_releases(initial, latest, DEFAULT_DIFF_CHUNK, DiffMode::Sequential);
    let emitter = world.release_emitter();
    let emitted = diff_releases(
        &emitter.release(0),
        &emitter.release(emitter.n_releases() - 1),
        DEFAULT_DIFF_CHUNK,
        DiffMode::Sequential,
    );
    let chain = stage_release_diff(world, DiffMode::Sequential);
    report_metric(
        format!("mapdiff_{label}/batch_resident"),
        batch_resident as f64,
        "entries",
    );
    report_metric(
        format!("mapdiff_{label}/adapter_stream_peak_resident"),
        adapter.stats.peak_resident_entries as f64,
        "entries",
    );
    report_metric(
        format!("mapdiff_{label}/emitter_stream_peak_resident"),
        emitted.stats.peak_resident_entries as f64,
        "entries",
    );
    report_metric(
        format!("diffchain_{label}/emitter_base"),
        emitter.base_len() as f64,
        "entries",
    );
    report_metric(
        format!("diffchain_{label}/stream_peak_resident"),
        chain.peak_resident_entries() as f64,
        "entries",
    );
    report_metric(
        format!("diffchain_{label}/net_removals"),
        chain.removal_count() as f64,
        "claims",
    );
}

fn bench_mapdiff(c: &mut Criterion) {
    let tiny = SynthUs::generate(&SynthConfig::tiny(5));
    bench_preset(c, "tiny", &tiny);
    let experiment = SynthUs::generate(&SynthConfig::experiment(5));
    bench_preset(c, "experiment", &experiment);
}

criterion_group!(benches, bench_mapdiff);
criterion_main!(benches);
