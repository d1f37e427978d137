//! Ablation benches: the retraining-heavy experiments (Figure 7's label-source
//! ablation, Figure 8's JCC case study) and two design-choice ablations of the
//! dataset (embedding dimensionality, dataset balancing).

use criterion::{criterion_group, criterion_main, Criterion};
use redsus_bench::micro_config;
use redsus_core::experiments as exp;
use redsus_core::features::FeatureConfig;
use redsus_core::labels::{LabelMode, LabelingOptions};
use redsus_core::pipeline::{stage_feature_engineering, stage_label_construction, AnalysisContext};
use std::hint::black_box;
use synth::SynthUs;

fn bench_ablations(c: &mut Criterion) {
    let world = SynthUs::generate(&micro_config(11));
    let ctx = AnalysisContext::prepare(&world);
    let labels = |options| stage_label_construction(&world, &ctx, &options, LabelMode::Parallel);
    let observations = labels(LabelingOptions::default());

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    group.bench_function("fig7_dataset_ablation", |b| {
        b.iter(|| black_box(exp::figure7(&world, &ctx)))
    });
    group.bench_function("fig8_jcc_case_study", |b| {
        b.iter(|| black_box(exp::figure8(&world, &ctx)))
    });

    // Balancing ablation: labelled-set construction with and without the
    // likely-served balancing step.
    group.bench_function("labels_balanced", |b| {
        b.iter(|| black_box(labels(LabelingOptions::default())))
    });
    group.bench_function("labels_unbalanced_challenges_changes", |b| {
        b.iter(|| black_box(labels(LabelingOptions::challenges_and_changes())))
    });

    // Embedding-dimensionality ablation for the methodology feature.
    for dim in [32usize, 128, 384] {
        group.bench_function(format!("features_embedding_dim_{dim}"), |b| {
            let config = FeatureConfig {
                embedding_dim: dim,
                ..FeatureConfig::default()
            };
            b.iter(|| {
                black_box(stage_feature_engineering(
                    &world,
                    &ctx,
                    &observations,
                    &config,
                    LabelMode::Parallel,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
