//! Criterion benches of the two dataset stages — `label_construction` and
//! `feature_engineering` — under the worker-invariance contract: the same
//! bits under every schedule, so the sweep measures pure scheduling overhead
//! or win (on a single-core container the worker counts are forced and the
//! overhead is the honest number).
//!
//! Alongside wall-clock, the bench reports rows/s throughput and the staged
//! engine's per-stage wall-clock and residency as metrics.
//!
//! Regenerate the committed report with (from the workspace root; the path
//! must be absolute because cargo runs the bench binary with `crates/bench`
//! as its working directory):
//!
//! ```sh
//! BENCH_JSON=$PWD/BENCH_features.json cargo bench -p redsus_bench --bench labelfeat
//! ```

use criterion::{criterion_group, criterion_main, report_metric, Criterion};
use redsus_core::features::FeatureConfig;
use redsus_core::labels::{LabelMode, LabelingOptions};
use redsus_core::pipeline::{
    stage_feature_engineering, stage_label_construction, AnalysisContext, PipelineEngine,
};
use redsus_core::Telemetry;
use std::hint::black_box;
use std::time::Instant;
use synth::{SynthConfig, SynthUs};

/// The forced worker counts of the sweep (beyond the sequential baseline).
const SWEEP: [usize; 2] = [2, 4];

fn bench_preset(c: &mut Criterion, label: &str, world: &SynthUs) {
    let ctx = AnalysisContext::prepare(world);
    let options = LabelingOptions::default();
    let config = FeatureConfig::default();
    let labels = |mode| stage_label_construction(world, &ctx, &options, mode);

    let mut group = c.benchmark_group(&format!("labels_{label}"));
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(labels(LabelMode::Sequential)))
    });
    for workers in SWEEP {
        group.bench_function(format!("threads{workers}"), |b| {
            b.iter(|| black_box(labels(LabelMode::Threads(workers))))
        });
    }
    group.finish();

    let labelled = labels(LabelMode::Parallel);
    let features = |mode| stage_feature_engineering(world, &ctx, &labelled, &config, mode);
    let mut group = c.benchmark_group(&format!("features_{label}"));
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(features(LabelMode::Sequential)))
    });
    for workers in SWEEP {
        group.bench_function(format!("threads{workers}"), |b| {
            b.iter(|| black_box(features(LabelMode::Threads(workers))))
        });
    }
    group.finish();

    // Throughput: observations labelled / rows vectorised per second on the
    // sequential schedule (the per-worker number the sweep scales from).
    let start = Instant::now();
    let observations = labels(LabelMode::Sequential);
    let label_wall = start.elapsed();
    let start = Instant::now();
    let matrix =
        stage_feature_engineering(world, &ctx, &observations, &config, LabelMode::Sequential);
    let feature_wall = start.elapsed();
    report_metric(
        format!("labels_{label}/observations"),
        observations.len() as f64,
        "rows",
    );
    report_metric(
        format!("labels_{label}/rows_per_s"),
        observations.len() as f64 / label_wall.as_secs_f64(),
        "rows/s",
    );
    report_metric(
        format!("features_{label}/rows_per_s"),
        matrix.dataset.n_rows() as f64 / feature_wall.as_secs_f64(),
        "rows/s",
    );
    report_metric(
        format!("features_{label}/row_width"),
        matrix.dataset.n_features() as f64,
        "features",
    );

    // The staged engine's own view: per-stage wall-clock of the two dataset
    // stages, and every stage's metered residency.
    let run = PipelineEngine.run_to_dataset_with(world, &options, &config, &Telemetry::disabled());
    for stage in &run.report.stages {
        if matches!(stage.name, "label_construction" | "feature_engineering") {
            report_metric(
                format!("stage_{label}/{}_ms", stage.name),
                stage.wall.as_secs_f64() * 1e3,
                "ms",
            );
        }
        report_metric(
            format!("stage_{label}/{}_peak_resident", stage.name),
            stage.peak_resident_entries as f64,
            "entries",
        );
    }
}

fn bench_labelfeat(c: &mut Criterion) {
    let tiny = SynthUs::generate(&SynthConfig::tiny(5));
    bench_preset(c, "tiny", &tiny);
    let experiment = SynthUs::generate(&SynthConfig::experiment(5));
    bench_preset(c, "experiment", &experiment);
}

criterion_group!(benches, bench_labelfeat);
criterion_main!(benches);
