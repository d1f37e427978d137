//! Plan a state broadband office's bulk-challenge campaign.
//!
//! The intended use of the paper's model: rank a state's claimed hexes by the
//! probability that the claim would fail a challenge, so a challenger with a
//! limited budget files where it is most likely to succeed.
//!
//! ```text
//! cargo run --release --example challenge_campaign [STATE] [BUDGET]
//! ```

use red_is_sus::core::experiments::ExperimentSuite;
use red_is_sus::synth::SynthConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let state = args.get(1).cloned().unwrap_or_else(|| "NE".to_string());
    let budget: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(25);

    let suite = ExperimentSuite::prepare(&SynthConfig::tiny(42));
    let model = &suite.state_holdout.model;

    // Score every labelled observation in the target state with the
    // state-holdout model (so the state itself was never trained on).
    let rows = suite.matrix.rows_where(|o| o.state == state);
    let probs = model.predict_dataset(&suite.matrix.dataset.subset(&rows));
    let mut ranked: Vec<(usize, f64)> = rows.into_iter().zip(probs).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!(
        "challenge campaign plan for {state}: top {budget} of {} claimed observations",
        ranked.len()
    );
    println!(
        "{:<12} {:<22} {:<18} P(fail)",
        "provider", "technology", "hex"
    );
    let mut hits = 0usize;
    for (row, p) in ranked.iter().take(budget) {
        let obs = &suite.matrix.observations[*row];
        let truth = suite
            .world
            .is_truly_served(obs.provider, obs.hex, obs.technology);
        if truth == Some(false) {
            hits += 1;
        }
        println!(
            "{:<12} {:<22} {:<18} {:.2}",
            obs.provider.to_string(),
            obs.technology.to_string(),
            obs.hex.to_string(),
            p
        );
    }
    println!(
        "\n{hits}/{budget} of the recommended challenges target claims that are actually false (synthetic ground truth)"
    );
}
