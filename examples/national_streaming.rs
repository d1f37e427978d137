//! Drive the national preset end to end through the streaming synth →
//! dataset path and print the per-stage wall-clock / peak-residency report.
//!
//! The full preset (~115M BSLs) never materialises the world: fabric, claim
//! and speed-test shards are regenerated on demand and every stage is
//! metered against the config's resident-entry budget. `--scale N` divides
//! the fabric and the budget by `N` for smoke runs (CI uses `--scale 64`).
//!
//! ```sh
//! cargo run --release --example national_streaming -- [--scale N] [--seed S] \
//!     [--out BENCH_national.json] [--json] [--trace-out trace.jsonl]
//! ```
//!
//! `--json` replaces the human-readable table with one machine-readable
//! JSON document on stdout (including the metrics-registry snapshot);
//! `--trace-out FILE` appends the run's JSONL trace events (per-stage spans
//! plus strided per-shard drain events) to FILE. `--out FILE` writes each
//! stage's wall, shard count and peak as `BENCH_*.json` metrics, stamped with
//! the host's `nproc` and the commit (`git rev-parse HEAD`, with `-dirty`
//! when tracked files differ from it, or `unknown` outside a checkout).

use std::fmt::Write as _;
use std::sync::Arc;

use red_is_sus::core::features::FeatureConfig;
use red_is_sus::core::labels::LabelingOptions;
use red_is_sus::core::streaming::run_streaming_to_dataset_with;
use red_is_sus::obs::{MetricsRegistry, Telemetry, TraceSink};
use red_is_sus::synth::{GenMode, StreamWorld, SynthConfig};

fn main() {
    let mut scale = 1usize;
    let mut seed = 7u64;
    let mut out: Option<String> = None;
    let mut json = false;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = args.next().and_then(|v| v.parse().ok()).unwrap_or(1),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(7),
            "--out" => out = args.next(),
            "--json" => json = true,
            "--trace-out" => trace_out = args.next(),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: national_streaming [--scale N] [--seed S] [--out FILE] [--json] [--trace-out FILE]"
                );
                std::process::exit(2);
            }
        }
    }

    let config = SynthConfig::national_scaled(seed, scale);
    if !json {
        println!(
            "national streaming run: {} BSLs, {} providers, scale 1/{scale}, seed {seed}",
            config.n_bsls, config.n_providers
        );
        println!(
            "resident-entry budget: {} entries\n",
            config
                .max_resident_entries
                .map(|b| b.to_string())
                .unwrap_or_else(|| "none".into())
        );
    }

    // The run records into its own registry so the `--json` report can
    // carry the full metrics snapshot alongside the stage report.
    let registry = Arc::new(MetricsRegistry::new());
    let mut telemetry = Telemetry::with_metrics(Arc::clone(&registry));
    if let Some(path) = &trace_out {
        let sink = TraceSink::to_path(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("failed to open trace file {path}: {e}");
            std::process::exit(1);
        });
        telemetry = telemetry.with_trace(Arc::new(sink));
    }

    let run = StreamWorld::generate(&config, GenMode::Parallel)
        .and_then(|source| {
            run_streaming_to_dataset_with(
                source,
                &LabelingOptions::default(),
                &FeatureConfig::default(),
                GenMode::Parallel,
                &telemetry,
            )
        })
        .unwrap_or_else(|e| {
            eprintln!("streaming run failed: {e}");
            std::process::exit(1);
        });
    if let Some(sink) = telemetry.trace_sink() {
        sink.flush();
        if !json {
            println!(
                "wrote {} trace events to {}\n",
                sink.events(),
                trace_out.as_deref().unwrap_or("?"),
            );
        }
    }

    if json {
        // The report's own keys (`stages`, `total_wall_s`, ...) stay
        // top-level keys of the document.
        let report = run.report.to_json();
        println!(
            "{{\"config\":{{\"scale_divisor\":{scale},\"seed\":{seed},\"bsls\":{},\"providers\":{},\"budget\":{}}},\
             {},\"dataset\":{{\"rows\":{},\"features\":{}}},\"metrics\":{}}}",
            config.n_bsls,
            config.n_providers,
            config
                .max_resident_entries
                .map_or("null".into(), |b| b.to_string()),
            &report[1..report.len() - 1],
            run.matrix.dataset.n_rows(),
            run.matrix.dataset.n_features(),
            registry.snapshot_json(),
        );
    } else {
        print!("{}", run.report.render());
        println!(
            "dataset: {} observations x {} features",
            run.matrix.dataset.n_rows(),
            run.matrix.dataset.n_features(),
        );
    }

    if let Some(path) = out {
        let mut metrics = String::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            if !metrics.is_empty() {
                metrics.push_str(",\n");
            }
            let _ = write!(
                metrics,
                "    {{\"name\": \"national/{name}\", \"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        };
        push("scale_divisor", scale as f64, "x");
        push("bsls", config.n_bsls as f64, "locations");
        push("providers", config.n_providers as f64, "providers");
        if let Some(b) = run.report.budget {
            push("budget", b as f64, "entries");
        }
        for stage in &run.report.stages {
            push(
                &format!("{}_wall_ms", stage.name),
                stage.wall.as_secs_f64() * 1e3,
                "ms",
            );
            push(
                &format!("{}_shards", stage.name),
                stage.shards as f64,
                "shards",
            );
            push(
                &format!("{}_peak_resident", stage.name),
                stage.peak_resident_entries as f64,
                "entries",
            );
        }
        push("total_wall_s", run.report.total_wall.as_secs_f64(), "s");
        push(
            "peak_resident",
            run.report.peak_resident_entries as f64,
            "entries",
        );
        push("dataset_rows", run.matrix.dataset.n_rows() as f64, "rows");
        // Stamp the host and the code, so records from different machines
        // or commits are never compared as if they were one series.
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let bench_json = format!(
            "{{\n  \"nproc\": {nproc},\n  \"commit\": \"{}\",\n  \"benchmarks\": [],\n  \"metrics\": [\n{metrics}\n  ]\n}}\n",
            commit()
        );
        std::fs::write(&path, bench_json).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        // stderr so `--json` stdout stays one parseable document.
        eprintln!("wrote {path}");
    }
}

/// `git rev-parse HEAD` of the working directory, suffixed `-dirty` when
/// tracked files differ from it, or `unknown` outside a checkout.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|text| text.trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(sha) if !sha.is_empty() => {
            let status = git(&["status", "--porcelain", "--untracked-files=no"]);
            if status.is_some_and(|s| !s.is_empty()) {
                format!("{sha}-dirty")
            } else {
                sha
            }
        }
        _ => "unknown".into(),
    }
}
