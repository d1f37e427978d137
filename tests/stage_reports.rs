//! One stage report, told truthfully by every producer: world generation,
//! and the one streaming runner over the resident world (the engine), a
//! synthetic and a file-backed source, all return a `bdc::StreamReport`
//! whose stage walls sum to no more than its total. Every runner report
//! lists the runner's stages in the same order, after the source's own.

use std::path::PathBuf;

use red_is_sus::bdc::{DiffMode, StreamReport};
use red_is_sus::core::features::FeatureConfig;
use red_is_sus::core::labels::LabelingOptions;
use red_is_sus::core::pipeline::PipelineEngine;
use red_is_sus::core::streaming::run_streaming_to_dataset_with;
use red_is_sus::ingest::{FileWorld, IngestOptions};
use red_is_sus::obs::Telemetry;
use red_is_sus::synth::{StreamWorld, SynthConfig, SynthUs};

/// The runner's stages, in canonical order.
const SHARED_STAGES: [&str; 6] = [
    "asn_matching",
    "ookla_reprojection",
    "coverage_scoring",
    "mlab_attribution",
    "label_construction",
    "feature_engineering",
];

#[test]
fn every_report_producer_has_truthful_totals_and_one_stage_order() {
    let config = SynthConfig::tiny(31);
    let options = LabelingOptions::default();
    let features = FeatureConfig::default();
    let (mode, telemetry) = (DiffMode::Parallel, Telemetry::disabled());
    let (world, generated) = SynthUs::generate_with(&config, mode).expect("valid config");
    let stream_world = StreamWorld::generate(&config, mode).expect("valid config");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bdc_sample");
    let file_world = FileWorld::load(&fixture, &IngestOptions::default())
        .unwrap_or_else(|e| panic!("fixture must load: {e}"));

    // (producer, report, whether it runs the pipeline stages)
    let cases: [(&str, StreamReport, bool); 4] = [
        ("SynthUs::generate_with", generated, false),
        (
            "PipelineEngine::run_to_dataset_with",
            PipelineEngine
                .run_to_dataset_with(&world, &options, &features, &telemetry)
                .report,
            true,
        ),
        (
            "runner over StreamWorld",
            run_streaming_to_dataset_with(stream_world, &options, &features, mode, &telemetry)
                .expect("tiny config fits any budget")
                .report,
            true,
        ),
        (
            "runner over FileWorld",
            run_streaming_to_dataset_with(file_world, &options, &features, mode, &telemetry)
                .expect("fixture run")
                .report,
            true,
        ),
    ];
    for (producer, report, runs_pipeline) in &cases {
        assert!(!report.stages.is_empty(), "{producer}: empty report");
        assert!(
            report.stage_sum() <= report.total_wall,
            "{producer}: stages sum to {:?}, more than the total {:?}",
            report.stage_sum(),
            report.total_wall
        );
        if *runs_pipeline {
            let shared: Vec<&str> = report
                .stages
                .iter()
                .map(|s| s.name)
                .filter(|name| SHARED_STAGES.contains(name))
                .collect();
            assert_eq!(shared, SHARED_STAGES, "{producer}: shared stage order");
        }
    }
    // The engine's source half is the resident world's two stages.
    let engine: Vec<&str> = cases[1].1.stages.iter().map(|s| s.name).collect();
    let source_half = ["methodology_collection", "release_diff"];
    assert_eq!(engine, [&source_half[..], &SHARED_STAGES[..]].concat());
}
