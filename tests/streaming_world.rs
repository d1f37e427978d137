//! Stream ≡ materialised: the national-scale streaming path must reproduce
//! the materialised world, labels and dataset byte for byte, on every
//! schedule.
//!
//! `StreamWorld` regenerates fabric/claim/speed-test shards on demand from
//! per-`(seed, stage, shard)` RNG streams instead of holding a `SynthUs` in
//! memory; these tests pin that the two paths cannot drift — the same
//! worker-invariance contract `GenMode` pins for the materialised generator,
//! extended across the whole synth → dataset run.

use red_is_sus::core::features::{dataset_fingerprint, FeatureConfig};
use red_is_sus::core::labels::{observations_fingerprint, LabelingOptions};
use red_is_sus::core::pipeline::PipelineEngine;
use red_is_sus::core::streaming::run_synth_streaming_to_dataset;
use red_is_sus::synth::{GenMode, StreamReport, StreamWorld, SynthConfig, SynthUs};

/// The two scales the contract is pinned at: the unit-test world and the
/// benchmark harness's experiment world.
fn configs() -> [(&'static str, SynthConfig); 2] {
    [
        ("tiny", SynthConfig::tiny(123)),
        ("experiment", SynthConfig::experiment(123)),
    ]
}

/// `(name, shards, peak)` of every source stage: the accounting a schedule
/// must not change.
fn stage_rows(report: &StreamReport) -> Vec<(&'static str, usize, usize)> {
    report
        .stages
        .iter()
        .map(|s| (s.name, s.shards, s.peak_resident_entries))
        .collect()
}

#[test]
fn streamed_world_matches_materialised_on_every_schedule() {
    for (name, config) in configs() {
        let world = SynthUs::generate(&config);
        let reference = world.initial_release();
        let sequential = StreamWorld::generate(&config, GenMode::Sequential)
            .unwrap_or_else(|e| panic!("{name} under Sequential: {e}"));
        for mode in [
            GenMode::Sequential,
            GenMode::Parallel,
            GenMode::Threads(2),
            GenMode::Threads(3),
        ] {
            let streamed = StreamWorld::generate(&config, mode)
                .unwrap_or_else(|e| panic!("{name} under {mode:?}: {e}"));
            // Schedules may not change the accounting either: the regulatory
            // pass's regeneration count and every stage's peak repeat.
            assert_eq!(
                streamed.removal_evidence, sequential.removal_evidence,
                "{name}: removal evidence differs under {mode:?}"
            );
            assert_eq!(
                streamed.served_hexes_by_provider, sequential.served_hexes_by_provider,
                "{name}: served hexes differ under {mode:?}"
            );
            assert_eq!(
                stage_rows(&streamed.report),
                stage_rows(&sequential.report),
                "{name}: stage shards or peaks differ under {mode:?}"
            );
            assert_eq!(
                streamed.initial_release.hex_claims(),
                reference.hex_claims(),
                "{name}: streamed hex claims differ under {mode:?}"
            );
            assert_eq!(
                streamed.challenges, world.challenges,
                "{name}: streamed challenge wave differs under {mode:?}"
            );
            assert_eq!(
                streamed.later_challenges, world.later_challenges,
                "{name}: streamed later wave differs under {mode:?}"
            );
        }
    }
}

#[test]
fn streamed_dataset_matches_materialised_on_every_schedule() {
    let options = LabelingOptions::default();
    let features = FeatureConfig::default();
    for (name, config) in configs() {
        let world = SynthUs::generate(&config);
        let materialised = PipelineEngine.run_to_dataset(&world, &options, &features);
        let want_labels = observations_fingerprint(&materialised.matrix.observations);
        let want_dataset = dataset_fingerprint(&materialised.matrix.dataset);
        for mode in [GenMode::Sequential, GenMode::Parallel, GenMode::Threads(3)] {
            let streamed = run_synth_streaming_to_dataset(&config, &options, &features, mode)
                .unwrap_or_else(|e| panic!("{name} under {mode:?}: {e}"));
            assert_eq!(
                observations_fingerprint(&streamed.matrix.observations),
                want_labels,
                "{name}: streamed labels differ under {mode:?}"
            );
            assert_eq!(
                dataset_fingerprint(&streamed.matrix.dataset),
                want_dataset,
                "{name}: streamed dataset differs under {mode:?}"
            );
            // The report covers both halves of the run and the peak is real.
            assert!(streamed.report.stage("fabric_hex_table").is_some());
            assert!(streamed.report.stage("feature_engineering").is_some());
            assert!(streamed.report.peak_resident_entries > 0);
        }
    }
}

#[test]
fn scaled_national_preset_runs_inside_its_budget() {
    // The CI smoke scale: the national preset shrunk far enough to run in a
    // test, with the budget shrunk the same way — so the budget enforcement
    // machinery is exercised on every `cargo test`, not just in CI.
    let config = SynthConfig::national_scaled(7, 4096);
    let run = run_synth_streaming_to_dataset(
        &config,
        &LabelingOptions::default(),
        &FeatureConfig::default(),
        GenMode::Parallel,
    )
    .expect("scaled national run must fit its scaled budget");
    let budget = run.report.budget.expect("national presets set a budget");
    assert!(
        run.report.peak_resident_entries <= budget,
        "peak {} exceeds budget {}",
        run.report.peak_resident_entries,
        budget
    );
    assert!(run.matrix.dataset.n_rows() > 0);
}
