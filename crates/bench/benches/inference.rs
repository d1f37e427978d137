//! Criterion benches of the inference kernels and of training: recursive
//! walk vs flat scalar vs block-batched vs quantised traversal (rows/sec at
//! several block sizes), and the wall-clock of one `GbdtModel::fit`.
//!
//! Every kernel is bit-identical — these numbers are pure throughput, which
//! is why the comparison is honest: same bits out, different seconds.
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

use criterion::{criterion_group, criterion_main, report_metric, Criterion};
use ml::{FlatForest, GbdtModel, QuantForest};
use redsus_bench::bench_suite;
use redsus_core::model::default_params;

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

fn bench_inference(c: &mut Criterion) {
    let suite = bench_suite(5);
    let model = &suite.observation_holdout.model;
    let dataset = &suite.matrix.dataset;
    let width = dataset.n_features();
    // Tile the matrix to ~50k rows: the suite's own matrix is small enough
    // that a full scoring pass sits inside timer jitter on the CI
    // container; tiling changes row count, not row content, so every kernel
    // still does identical per-row work.
    let tiles = (50_000 / dataset.n_rows()).max(1);
    let mut data = Vec::with_capacity(tiles * dataset.data().len());
    for _ in 0..tiles {
        data.extend_from_slice(dataset.data());
    }
    let data = &data[..];
    let n_rows = tiles * dataset.n_rows();
    let forest = FlatForest::from_model(model);
    let quant = QuantForest::from_model(model);

    report_metric("infer/rows", n_rows as f64, "rows");
    report_metric("infer/trees", forest.n_trees() as f64, "trees");
    report_metric(
        "infer/quantised_exact_trees",
        quant.n_exact_trees() as f64,
        "trees",
    );

    // Criterion wall-clock groups, margins everywhere so the kernels do the
    // same arithmetic.
    let mut group = c.benchmark_group("inference_kernels");
    group.sample_size(10);
    group.bench_function("recursive", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for r in 0..n_rows {
                acc += model.predict_margin(&data[r * width..(r + 1) * width]);
            }
            black_box(acc)
        })
    });
    group.bench_function("flat_scalar", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for r in 0..n_rows {
                acc += forest.predict_margin(&data[r * width..(r + 1) * width]);
            }
            black_box(acc)
        })
    });
    let mut out = vec![0.0f64; n_rows];
    for block in [16usize, 64, 256] {
        group.bench_function(format!("batched_block{block}"), |b| {
            b.iter(|| {
                forest.predict_margin_rows_into(data, &mut out, block);
                black_box(out[0])
            })
        });
    }
    group.bench_function("quantised_block64", |b| {
        b.iter(|| {
            quant.predict_margin_rows_into(data, &mut out, 64);
            black_box(out[0])
        })
    });
    group.finish();

    // Throughput metrics: rows/sec at best-of-10 — the capacity-plan
    // numbers the ROADMAP item quotes.
    let recursive = best_seconds(10, || {
        let mut acc = 0.0;
        for r in 0..n_rows {
            acc += model.predict_margin(&data[r * width..(r + 1) * width]);
        }
        black_box(acc);
    });
    let flat_scalar = best_seconds(10, || {
        let mut acc = 0.0;
        for r in 0..n_rows {
            acc += forest.predict_margin(&data[r * width..(r + 1) * width]);
        }
        black_box(acc);
    });
    report_metric(
        "infer/recursive_rows_per_sec",
        n_rows as f64 / recursive,
        "rows/s",
    );
    report_metric(
        "infer/flat_scalar_rows_per_sec",
        n_rows as f64 / flat_scalar,
        "rows/s",
    );
    for block in [16usize, 64, 256] {
        let batched = best_seconds(10, || {
            forest.predict_margin_rows_into(data, &mut out, block);
            black_box(out[0]);
        });
        report_metric(
            format!("infer/batched_block{block}_rows_per_sec"),
            n_rows as f64 / batched,
            "rows/s",
        );
        if block == 64 {
            report_metric(
                "infer/batched_speedup_vs_recursive",
                recursive / batched,
                "x",
            );
        }
    }
    let quantised = best_seconds(10, || {
        quant.predict_margin_rows_into(data, &mut out, 64);
        black_box(out[0]);
    });
    report_metric(
        "infer/quantised_rows_per_sec",
        n_rows as f64 / quantised,
        "rows/s",
    );
    report_metric(
        "infer/quantised_speedup_vs_recursive",
        recursive / quantised,
        "x",
    );

    // Training: one fit with the params the paper pipeline trains with.
    let params = default_params(1);
    let fit_secs = best_seconds(2, || {
        black_box(GbdtModel::fit(dataset, params));
    });
    report_metric("train/histogram_ms", fit_secs * 1e3, "ms");
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
