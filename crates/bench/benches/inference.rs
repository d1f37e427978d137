//! Criterion benches of the inference kernels and of training: the
//! block-batched flat kernel (the one production kernel) vs the quantised
//! one (rows/sec) on the bench suite's 60-tree depth-5 forest and on a
//! 500-tree depth-8 forest, and the wall-clock of one `GbdtModel::fit`.
//!
//! Both kernels are bit-identical — these numbers are pure throughput, which
//! is why the comparison is honest: same bits out, different seconds. The
//! 500 × 8 forest outgrows L2, the one shape where the quantised kernel's
//! smaller nodes could win; the `*_500x8` rows are the evidence for which
//! kernel `ServedModel` scores on.
//!
//! Regenerate the committed report with (from the workspace root; the path
//! must be absolute because cargo runs the bench binary with `crates/bench`
//! as its working directory):
//!
//! ```sh
//! BENCH_JSON=$PWD/BENCH_infer.json cargo bench -p redsus_bench --bench inference
//! ```

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, report_metric, BenchmarkGroup, Criterion};
use ml::{Dataset, FlatForest, GbdtModel, GbdtParams, QuantForest};
use redsus_core::experiments::ExperimentSuite;
use redsus_core::model::default_params;
use synth::SynthConfig;

/// Best-of-N wall-clock of one closure, in seconds.
fn best_seconds(n: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// A dataset's rows tiled to about 50k: a small matrix's scoring pass sits
/// inside timer jitter, and tiling changes row count, not row content, so
/// every kernel still does identical per-row work.
fn tiled_rows(dataset: &Dataset) -> Vec<f32> {
    let tiles = (50_000 / dataset.n_rows()).max(1);
    dataset.data().repeat(tiles)
}

/// The batched and quantised kernels over one forest: a Criterion row and a
/// best-of-10 rows/sec metric each, plus the quantised ÷ batched ratio.
fn block_kernels(group: &mut BenchmarkGroup<'_>, model: &GbdtModel, data: &[f32], suffix: &str) {
    let forest = FlatForest::from_model(model);
    let quant = QuantForest::from_model(model);
    let n_rows = data.len() / forest.n_features();
    for (name, value, unit) in [
        ("rows", n_rows, "rows"),
        ("trees", forest.n_trees(), "trees"),
        ("nodes", forest.n_nodes(), "nodes"),
        ("quantised_exact_trees", quant.n_exact_trees(), "trees"),
    ] {
        report_metric(format!("infer/{name}{suffix}"), value as f64, unit);
    }
    let mut out = vec![0.0f64; n_rows];
    group.bench_function(format!("batched{suffix}"), |b| {
        b.iter(|| {
            forest.predict_margin_rows_into(data, &mut out);
            black_box(out[0])
        })
    });
    group.bench_function(format!("quantised{suffix}"), |b| {
        b.iter(|| {
            quant.predict_margin_rows_into(data, &mut out);
            black_box(out[0])
        })
    });
    let batched = best_seconds(10, || {
        forest.predict_margin_rows_into(data, &mut out);
        black_box(out[0]);
    });
    let quantised = best_seconds(10, || {
        quant.predict_margin_rows_into(data, &mut out);
        black_box(out[0]);
    });
    report_metric(
        format!("infer/batched{suffix}_rows_per_sec"),
        n_rows as f64 / batched,
        "rows/s",
    );
    report_metric(
        format!("infer/quantised{suffix}_rows_per_sec"),
        n_rows as f64 / quantised,
        "rows/s",
    );
    report_metric(
        format!("infer/quantised_over_batched{suffix}"),
        batched / quantised,
        "x",
    );
}

fn bench_inference(c: &mut Criterion) {
    let suite = ExperimentSuite::prepare(&SynthConfig::tiny(5));
    let model = &suite.observation_holdout.model;
    let dataset = &suite.matrix.dataset;
    let data = tiled_rows(dataset);

    // Both kernels write raw margins, so they do the same arithmetic.
    let mut group = c.benchmark_group("inference_kernels");
    group.sample_size(10);
    block_kernels(&mut group, model, &data, "");

    // The deciding case for the serving kernel: 500 trees at depth 8, fit
    // on the experiment preset's matrix and scored over its rows.
    let experiment = ExperimentSuite::prepare(&SynthConfig::experiment(5));
    let big = &experiment.matrix.dataset;
    let big_model = GbdtModel::fit(
        big,
        GbdtParams {
            n_estimators: 500,
            max_depth: 8,
            ..default_params(1)
        },
    );
    block_kernels(&mut group, &big_model, &tiled_rows(big), "_500x8");
    group.finish();

    // Training: one fit with the params the paper pipeline trains with.
    let params = default_params(1);
    let fit_secs = best_seconds(2, || {
        black_box(GbdtModel::fit(dataset, params));
    });
    report_metric("train/histogram_ms", fit_secs * 1e3, "ms");
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
