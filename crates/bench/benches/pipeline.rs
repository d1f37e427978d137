//! Criterion benches of the pipeline stages themselves: world generation,
//! provider→ASN matching + speed-test attribution, label construction,
//! feature engineering, model training and prediction throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use redsus_bench::{bench_config, micro_config};
use redsus_core::features::{build_features, FeatureConfig};
use redsus_core::labels::LabelingOptions;
use redsus_core::model::{default_params, run_holdout, HoldoutStrategy};
use redsus_core::pipeline::AnalysisContext;
use std::hint::black_box;
use synth::SynthUs;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    // World generation at micro scale (measured end to end).
    group.bench_function("generate_world_micro", |b| {
        b.iter(|| black_box(SynthUs::generate(&micro_config(7))))
    });

    // The remaining stages run over a shared, larger world.
    let world = SynthUs::generate(&bench_config(5));
    group.bench_function("prepare_context", |b| {
        b.iter(|| black_box(AnalysisContext::prepare(&world)))
    });

    let ctx = AnalysisContext::prepare(&world);
    group.bench_function("build_labels", |b| {
        b.iter(|| black_box(ctx.build_labels(&world, &LabelingOptions::default())))
    });

    let labels = ctx.build_labels(&world, &LabelingOptions::default());
    group.bench_function("build_features", |b| {
        b.iter(|| {
            black_box(build_features(
                &world,
                &ctx,
                &labels,
                &FeatureConfig::default(),
            ))
        })
    });

    let matrix = build_features(&world, &ctx, &labels, &FeatureConfig::default());
    group.bench_function("train_state_holdout", |b| {
        b.iter(|| {
            black_box(run_holdout(
                &matrix,
                &HoldoutStrategy::States(vec!["NE".into(), "GA".into()]),
                default_params(1),
            ))
        })
    });

    let outcome = run_holdout(
        &matrix,
        &HoldoutStrategy::RandomObservations { fraction: 0.1 },
        default_params(1),
    );
    group.bench_function("predict_10k_rows", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..matrix.dataset.n_rows().min(10_000) {
                acc += outcome.model.predict_proba(matrix.dataset.row(i));
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
