//! Quickstart: generate a small synthetic United States, build the labelled
//! dataset, train the classifier and evaluate it against the random baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use red_is_sus::core::experiments::{figure5a, figure5c, render_roc, ExperimentSuite};
use red_is_sus::core::labels::source_composition;
use red_is_sus::synth::SynthConfig;

fn main() {
    // 1. Generate a synthetic world and run the full pipeline (provider→ASN
    //    matching, speed-test attribution, labelling, features, training).
    let config = SynthConfig::tiny(42);
    println!(
        "generating a synthetic US with {} BSLs and {} providers...",
        config.n_bsls, config.n_providers
    );
    let suite = ExperimentSuite::prepare(&config);

    // 2. Inspect the labelled dataset composition (§4.3 of the paper).
    let labels = &suite.matrix.observations;
    println!("labelled observations: {}", labels.len());
    for (source, count) in source_composition(labels) {
        println!("  {source:<14} {count}");
    }

    // 3. Evaluate on the paper's two main hold-outs.
    print!("{}", render_roc("observation holdout", figure5a(&suite)));
    print!("{}", render_roc("state holdout      ", figure5c(&suite)));

    // 4. Score an individual claim: the first held-out observation.
    let row = suite.observation_holdout.test_rows[0];
    let obs = &suite.matrix.observations[row];
    let p = suite
        .observation_holdout
        .model
        .predict_dataset(&suite.matrix.dataset.subset(&[row]))[0];
    println!(
        "example claim: provider {} / {} / hex {} -> P(claim fails challenge) = {:.2}",
        obs.provider, obs.technology, obs.hex, p
    );
}
