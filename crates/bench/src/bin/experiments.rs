//! Regenerate every table and figure of the paper from a synthetic world and
//! print them in the order they appear in the paper.
//!
//! ```text
//! cargo run --release -p redsus_bench --bin experiments -- [seed] [--scale tiny|default|large]
//! ```

use redsus_core::experiments as exp;
use redsus_core::features::FeatureConfig;
use redsus_core::pipeline::AnalysisContext;
use synth::{SynthConfig, SynthUs};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .iter()
        .skip(1)
        .find_map(|a| a.parse::<u64>().ok())
        .unwrap_or(20221118);
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("tiny");
    let config: SynthConfig = match scale {
        "default" => SynthConfig::experiment(seed),
        "large" => SynthConfig::large(seed),
        _ => SynthConfig::tiny(seed),
    };

    eprintln!(
        "generating synthetic world (scale={scale}, seed={seed}, {} BSLs, {} providers)...",
        config.n_bsls, config.n_providers
    );
    let suite = exp::ExperimentSuite::prepare(&config);
    let world: &SynthUs = &suite.world;
    let ctx: &AnalysisContext = &suite.ctx;

    println!("=== red_is_sus experiment harness (seed {seed}, scale {scale}) ===\n");
    println!("{}", exp::table1_schema());
    println!("{}", exp::table2(world).render());
    println!("{}", exp::table3(world).render());
    println!("{}", exp::table4_schema(&FeatureConfig::default()));
    println!("{}", exp::table5(ctx).render());
    println!("{}", exp::figure1(world).render());
    println!("{}", exp::figure2(world).render());
    println!("{}", exp::render_figure3(&exp::figure3(ctx)));
    println!("{}", exp::figure4(world, ctx).render());
    print!(
        "{}",
        exp::render_roc("Figure 5a (observation holdout)", exp::figure5a(&suite))
    );
    print!(
        "{}",
        exp::render_roc("Figure 5b (FCC-adjudicated holdout)", exp::figure5b(&suite))
    );
    println!(
        "{}",
        exp::render_roc("Figure 5c (state holdout)", exp::figure5c(&suite))
    );
    println!(
        "{}",
        exp::render_breakdowns(
            "Figure 6: major-ISP breakdown (holdout states)",
            &exp::figure6(&suite)
        )
    );
    println!("{}", exp::figure7(world, ctx).render());
    match exp::figure8(world, ctx) {
        Some(f8) => println!("{}", f8.render()),
        None => println!("Figure 8: JCC scenario disabled in this configuration\n"),
    }
    println!("{}", exp::figure9(world).render());
    println!("{}", exp::render_figure10(&exp::figure10(&suite, 12)));
    let f11 = exp::figure11(&suite, 3);
    println!("{}", exp::render_figure11(&suite, &f11, 10));
    println!(
        "{}",
        exp::render_breakdowns(
            "Table 7: classification by access technology",
            &exp::table7(&suite)
        )
    );
    println!(
        "{}",
        exp::render_breakdowns(
            "Table 8: classification by holdout state",
            &exp::table8(&suite)
        )
    );
    eprintln!("done.");
}
