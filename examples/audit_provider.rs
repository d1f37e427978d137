//! Audit a single provider's filing, Jefferson-County-Cable style (§6.3).
//!
//! Trains the classifier with every state bordering the target provider's
//! service area held out, then scores each hex the provider claims and prints
//! the region most likely to be misrepresented.
//!
//! ```text
//! cargo run --release --example audit_provider
//! ```

use red_is_sus::core::experiments::{figure8, ExperimentSuite};
use red_is_sus::synth::SynthConfig;

fn main() {
    let suite = ExperimentSuite::prepare(&SynthConfig::tiny(42));
    let world = &suite.world;

    let Some(jcc) = world.jcc.as_ref() else {
        println!("the JCC scenario is disabled in this configuration");
        return;
    };
    let provider = world.providers.get(jcc.provider).expect("provider exists");
    println!(
        "auditing {} (provider id {}), home state {}",
        provider.name, provider.id, jcc.home_state
    );
    println!(
        "training holdout excludes bordering states: {:?}",
        jcc.excluded_states
    );
    println!(
        "ground truth: {} genuinely served hexes, {} over-claimed hexes",
        jcc.served_hexes.len(),
        jcc.overclaimed_hexes.len()
    );

    match figure8(&suite) {
        Some(result) => {
            println!("{}", result.render());
            if result.overclaimed_flagged_pct > result.served_flagged_pct {
                println!(
                    "=> the model concentrates suspicion on the over-claimed region, as in the paper's Figure 8"
                );
            } else {
                println!("=> warning: the model did not separate the regions on this seed");
            }
        }
        None => println!("no JCC scenario present"),
    }
}
