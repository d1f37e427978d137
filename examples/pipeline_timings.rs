//! Print the pipeline engine's per-stage wall-clock and residency report
//! over a bench-scale world — all eight stages: the resident world's
//! methodology collection and release diff, then the runner's six, from
//! provider→ASN matching through label construction and feature
//! engineering.
//!
//! ```sh
//! cargo run --release --example pipeline_timings [seed] [--json]
//! ```
//!
//! `--json` replaces the table with one machine-readable JSON document on
//! stdout: the stage report plus the metrics-registry snapshot the run
//! recorded.

use std::sync::Arc;

use red_is_sus::core::features::FeatureConfig;
use red_is_sus::core::labels::LabelingOptions;
use red_is_sus::core::pipeline::PipelineEngine;
use red_is_sus::obs::{MetricsRegistry, Telemetry};
use red_is_sus::synth::{SynthConfig, SynthUs};

fn main() {
    let mut seed = 5u64;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            other => match other.parse() {
                Ok(s) => seed = s,
                Err(_) => {
                    eprintln!("usage: pipeline_timings [seed] [--json]");
                    std::process::exit(2);
                }
            },
        }
    }
    let world = SynthUs::generate(&SynthConfig::tiny(seed));
    let registry = Arc::new(MetricsRegistry::new());
    let run = PipelineEngine.run_to_dataset_with(
        &world,
        &LabelingOptions::default(),
        &FeatureConfig::default(),
        &Telemetry::with_metrics(Arc::clone(&registry)),
    );
    if json {
        println!(
            "{{\"world\":{{\"seed\":{seed},\"bsls\":{},\"providers\":{},\"mlab_tests\":{}}},\
             \"report\":{},\"dataset\":{{\"rows\":{},\"features\":{}}},\"metrics\":{}}}",
            world.fabric.len(),
            world.providers.len(),
            world.mlab.len(),
            run.report.to_json(),
            run.matrix.dataset.n_rows(),
            run.matrix.dataset.n_features(),
            registry.snapshot_json(),
        );
        return;
    }
    println!(
        "world: {} BSLs, {} providers, {} MLab tests (seed {seed})\n",
        world.fabric.len(),
        world.providers.len(),
        world.mlab.len(),
    );
    print!("{}", run.report.render());
    println!(
        "dataset: {} observations x {} features",
        run.matrix.dataset.n_rows(),
        run.matrix.dataset.n_features(),
    );
}
