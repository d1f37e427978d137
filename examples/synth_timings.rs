//! Print the sharded world generator's per-stage wall-clock and shard-count
//! report, plus the world's canonical fingerprint.
//!
//! ```sh
//! cargo run --release --example synth_timings [tiny|experiment|large] [seed]
//! ```

use red_is_sus::synth::{GenMode, SynthConfig, SynthUs};

fn main() {
    let preset = std::env::args().nth(1).unwrap_or_else(|| "tiny".into());
    let seed = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let config = match preset.as_str() {
        "experiment" => SynthConfig::experiment(seed),
        "large" => SynthConfig::large(seed),
        _ => SynthConfig::tiny(seed),
    };
    println!(
        "preset {preset} (seed {seed}): {} BSLs, {} providers, {} shard workers\n",
        config.n_bsls,
        config.n_providers,
        GenMode::default().worker_count(),
    );
    let (world, report) =
        SynthUs::generate_with(&config, GenMode::default()).expect("valid preset");
    print!("{}", report.render());
    println!("fingerprint {:#018x}", world.canonical_fingerprint());
}
