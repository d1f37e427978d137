//! Walk a synthetic world's release timeline through the streaming diff
//! engine and print the per-pair execution report: what changed between each
//! pair of bi-weekly releases, how many chunks the merge pulled, and the
//! peak number of claim entries ever resident — against the batch engine's
//! materialise-everything footprint.
//!
//! ```sh
//! cargo run --release --example mapdiff_streaming [seed]
//! ```

use red_is_sus::bdc::stream::{DiffMode, ShardableRelease, DEFAULT_DIFF_CHUNK};
use red_is_sus::bdc::DiffChain;
use red_is_sus::core::pipeline::PipelineEngine;
use red_is_sus::obs::Telemetry;
use red_is_sus::synth::{SynthConfig, SynthUs};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let world = SynthUs::generate(&SynthConfig::tiny(seed));
    let emitter = world.release_emitter();
    println!(
        "world: {} BSLs, {} providers, {} releases (seed {seed})\n",
        world.fabric.len(),
        world.providers.len(),
        emitter.n_releases(),
    );

    // The fully streaming path: releases emitted from the removal schedule,
    // never materialised; each pairwise diff holds one chunk per stream.
    let mut chain = DiffChain::new(ShardableRelease::version(&emitter.release(0)));
    for k in 0..emitter.n_releases() - 1 {
        chain.extend_with(
            &emitter.release(k),
            &emitter.release(k + 1),
            DEFAULT_DIFF_CHUNK,
            DiffMode::Parallel,
        );
    }

    println!("per-pair streaming diff report (chunk = {DEFAULT_DIFF_CHUNK} entries):");
    println!(
        "  {:<14} {:>8} {:>8} {:>9} {:>8} {:>12} {:>10}",
        "pair", "added", "removed", "modified", "chunks", "peak entries", "wall"
    );
    for p in chain.pair_reports() {
        println!(
            "  {:<14} {:>8} {:>8} {:>9} {:>8} {:>12} {:>9.2?}",
            format!("{} -> {}", p.from, p.to),
            p.added,
            p.removed,
            p.modified,
            p.stats.chunks_pulled,
            p.stats.peak_resident_entries,
            p.wall,
        );
    }

    // The batch baseline: every release materialised as the initial
    // release's records it keeps.
    let batch_resident: usize = (0..emitter.n_releases())
        .map(|k| emitter.release(k).live_claims())
        .sum();
    println!(
        "\ncumulative evidence: {} net removals across {} providers",
        chain.removal_count(),
        chain.removals_by_provider().len(),
    );
    println!(
        "memory model: streaming peak {} entries vs {} entries to materialise every release",
        chain.peak_resident_entries(),
        batch_resident,
    );

    // The same chain runs inside the pipeline engine as the release_diff
    // stage, feeding label construction incrementally.
    let run = PipelineEngine.run_with(&world, &Telemetry::disabled());
    let wall = run
        .report
        .stage("release_diff")
        .expect("release_diff stage always runs")
        .wall;
    println!(
        "\npipeline: release_diff stage took {wall:.2?}, evidence = {} removals",
        run.context.diff_chain.removal_count(),
    );
    let labels = run.context.build_labels(&world, &Default::default());
    println!(
        "labels built from streamed evidence: {} observations",
        labels.len()
    );
}
