//! Ablation benches: the retraining-heavy experiments (Figure 7's label-source
//! ablation, Figure 8's JCC case study) and two design-choice ablations of the
//! dataset (embedding dimensionality, dataset balancing).

use criterion::{criterion_group, criterion_main, Criterion};
use redsus_bench::micro_config;
use redsus_core::experiments as exp;
use redsus_core::features::{build_features, FeatureConfig};
use redsus_core::labels::LabelingOptions;
use redsus_core::pipeline::AnalysisContext;
use std::hint::black_box;
use synth::SynthUs;

fn bench_ablations(c: &mut Criterion) {
    let world = SynthUs::generate(&micro_config(11));
    let ctx = AnalysisContext::prepare(&world);
    let labels = ctx.build_labels(&world, &LabelingOptions::default());

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
        b.iter(|| black_box(ctx.build_labels(&world, &LabelingOptions::default())))
    });
    group.bench_function("labels_unbalanced_challenges_changes", |b| {
        b.iter(|| black_box(ctx.build_labels(&world, &LabelingOptions::challenges_and_changes())))
    });

    // Embedding-dimensionality ablation for the methodology feature.
    for dim in [32usize, 128, 384] {
        group.bench_function(format!("features_embedding_dim_{dim}"), |b| {
            let config = FeatureConfig {
                embedding_dim: dim,
                ..FeatureConfig::default()
            };
            b.iter(|| black_box(build_features(&world, &ctx, &labels, &config)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
