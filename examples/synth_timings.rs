//! Print the sharded world generator's per-stage wall-clock and shard-count
//! report, the process's peak resident set size after generation (`VmHWM`,
//! where `/proc/self/status` exists), and the world's canonical fingerprint.
//! The seed defaults to the benchmark's world seed, 20221118, so
//! `synth_timings experiment` generates the paper workload's world.
//!
//! ```sh
//! cargo run --release --example synth_timings [tiny|experiment|large] [seed]
//! ```

use red_is_sus::synth::{GenMode, SynthConfig, SynthUs};

/// The process's peak resident set size in kB, from `/proc/self/status`.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let preset = std::env::args().nth(1).unwrap_or_else(|| "tiny".into());
    let seed = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20221118);
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
    if let Some(kb) = peak_rss_kb() {
        println!("peak RSS (VmHWM) {:.1} MB", kb as f64 / 1024.0);
    }
    println!("fingerprint {:#018x}", world.canonical_fingerprint());
}
