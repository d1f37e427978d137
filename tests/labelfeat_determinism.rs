//! The dataset stages' determinism contract, end to end:
//!
//! * `label_construction` and `feature_engineering` are bit-identical under
//!   `Sequential`, `Parallel` and forced-`Threads(n)` schedules for the
//!   tiny and experiment presets (the `GenMode`/`DiffMode`/`ScoreMode`
//!   worker-invariance contract, extended to the last pipeline half),
//! * the staged engine path (`run_to_dataset_with`) reproduces the direct
//!   calls,
//! * distinct seeds produce distinct labelled datasets,
//! * and a seeded loop over labelling/feature ablation corners holds the
//!   contract in every configuration, not just the defaults.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use red_is_sus::core::features::{dataset_fingerprint, FeatureConfig};
use red_is_sus::core::labels::{observations_fingerprint, LabelMode, LabelingOptions};
use red_is_sus::core::pipeline::{
    stage_feature_engineering, stage_label_construction, AnalysisContext, PipelineEngine,
};
use red_is_sus::obs::Telemetry;
use red_is_sus::synth::{SynthConfig, SynthUs};

const MODES: [LabelMode; 3] = [
    LabelMode::Sequential,
    LabelMode::Parallel,
    LabelMode::Threads(3),
];

/// Both stage fingerprints of one (world, options, config, mode) run.
fn stage_fingerprints(
    world: &SynthUs,
    ctx: &AnalysisContext,
    options: &LabelingOptions,
    config: &FeatureConfig,
    mode: LabelMode,
) -> (u64, u64) {
    let observations = stage_label_construction(world, ctx, options, mode);
    let matrix = stage_feature_engineering(world, ctx, &observations, config, mode);
    (
        observations_fingerprint(&observations),
        dataset_fingerprint(&matrix.dataset),
    )
}

fn assert_modes_bit_identical(config: &SynthConfig) {
    let world = SynthUs::generate(config);
    let ctx = AnalysisContext::prepare(&world);
    let options = LabelingOptions::default();
    let features = FeatureConfig::default();
    let base = stage_fingerprints(&world, &ctx, &options, &features, LabelMode::Sequential);
    assert_ne!(base.0, 0);
    for mode in [
        LabelMode::Parallel,
        LabelMode::Threads(2),
        LabelMode::Threads(3),
        LabelMode::Threads(16),
    ] {
        assert_eq!(
            stage_fingerprints(&world, &ctx, &options, &features, mode),
            base,
            "dataset stages differ under {mode:?} (seed {})",
            config.seed
        );
    }
}

#[test]
fn tiny_schedules_are_bit_identical() {
    assert_modes_bit_identical(&SynthConfig::tiny(2024));
}

#[test]
fn experiment_schedules_are_bit_identical() {
    assert_modes_bit_identical(&SynthConfig::experiment(2024));
}

#[test]
fn distinct_seeds_produce_distinct_datasets() {
    let mut label_prints = std::collections::BTreeSet::new();
    let mut dataset_prints = std::collections::BTreeSet::new();
    for seed in [1u64, 2, 2024] {
        let world = SynthUs::generate(&SynthConfig::tiny(seed));
        let ctx = AnalysisContext::prepare(&world);
        let (labels, dataset) = stage_fingerprints(
            &world,
            &ctx,
            &LabelingOptions::default(),
            &FeatureConfig::default(),
            LabelMode::Parallel,
        );
        assert!(
            label_prints.insert(labels),
            "label fingerprint collision at seed {seed}"
        );
        assert!(
            dataset_prints.insert(dataset),
            "dataset fingerprint collision at seed {seed}"
        );
    }
}

#[test]
fn ablation_corners_hold_the_contract() {
    // Seeded loop over random labelling options and feature configs,
    // including the degenerate embedding_dim: 0 corner that used to panic.
    let mut rng = StdRng::seed_from_u64(0x1ABE1);
    let world = SynthUs::generate(&SynthConfig::tiny(7));
    let ctx = AnalysisContext::prepare(&world);
    for case in 0..12 {
        let options = LabelingOptions {
            include_changes: rng.gen_bool(0.5),
            include_likely_served: rng.gen_bool(0.5),
            balance: rng.gen_bool(0.5),
        };
        let config = FeatureConfig {
            embedding_dim: *[0usize, 1, 8, 32].get(rng.gen_range(0..4)).unwrap(),
            include_methodology: rng.gen_bool(0.5),
            include_speedtest: rng.gen_bool(0.5),
            include_location: rng.gen_bool(0.5),
            include_state: rng.gen_bool(0.5),
        };
        let base = stage_fingerprints(&world, &ctx, &options, &config, LabelMode::Sequential);
        for mode in MODES {
            assert_eq!(
                stage_fingerprints(&world, &ctx, &options, &config, mode),
                base,
                "case {case}: {options:?} / {config:?} differs under {mode:?}"
            );
        }
    }
}

#[test]
fn staged_engine_matches_direct_calls() {
    let world = SynthUs::generate(&SynthConfig::tiny(11));
    let options = LabelingOptions::default();
    let features = FeatureConfig::default();
    let run =
        PipelineEngine.run_to_dataset_with(&world, &options, &features, &Telemetry::disabled());
    // All eight stages timed, the two dataset stages last.
    assert_eq!(run.report.stages.len(), 8);
    let last: Vec<&str> = run.report.stages[6..].iter().map(|s| s.name).collect();
    assert_eq!(last, ["label_construction", "feature_engineering"]);
    assert_eq!(run.matrix.dataset.n_rows(), run.matrix.observations.len());
    // The engine ≡ the direct stage calls on the sequential schedule.
    let ctx = AnalysisContext::prepare(&world);
    assert_eq!(
        (
            observations_fingerprint(&run.matrix.observations),
            dataset_fingerprint(&run.matrix.dataset)
        ),
        stage_fingerprints(&world, &ctx, &options, &features, LabelMode::Sequential)
    );
}
