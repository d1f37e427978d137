//! Criterion benches of the serving subsystem: artifact encode/decode/load,
//! flattened vs recursive traversal and the batch scorer's worker sweep.
//!
//! Alongside wall-clock, the bench reports rows/sec throughput metrics for
//! the recursive and flattened paths — the number that matters for a
//! scoring service — plus the artifact's size on the wire. Request latency
//! on a live server is `perfbench`'s `serve` workload.
//!
//! Regenerate the committed report with (from the workspace root; the path
//! must be absolute because cargo runs the bench binary with `crates/bench`
//! as its working directory):
//!
//! ```sh
//! BENCH_JSON=$PWD/BENCH_serve.json cargo bench -p redsus_bench --bench serving
//! ```

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, report_metric, Criterion};
use ml::FlatForest;
use redsus_bench::bench_suite;
use redsus_serve::{
    decode_model, encode_model, score_dataset, ScoreMode, ScoreOutput, ServedModel,
};

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

fn bench_serving(c: &mut Criterion) {
    let suite = bench_suite(5);
    let model = &suite.observation_holdout.model;
    let data = &suite.matrix.dataset;
    let forest = FlatForest::from_model(model);
    let bytes = encode_model(model);

    report_metric("serving/artifact_bytes", bytes.len() as f64, "bytes");
    report_metric("serving/forest_trees", forest.n_trees() as f64, "trees");
    report_metric("serving/forest_nodes", forest.n_nodes() as f64, "nodes");
    report_metric("serving/scored_rows", data.n_rows() as f64, "rows");

    let mut group = c.benchmark_group("serving_artifact");
    group.sample_size(20);
    group.bench_function("encode", |b| b.iter(|| black_box(encode_model(model))));
    group.bench_function("decode", |b| {
        b.iter(|| black_box(decode_model(&bytes).expect("decode")))
    });
    group.bench_function("load_and_flatten", |b| {
        // What a serving process pays at startup: decode + FlatForest.
        b.iter(|| black_box(ServedModel::from_bytes(&bytes).expect("load")))
    });
    group.finish();

    let mut group = c.benchmark_group("serving_scoring");
    group.sample_size(10);
    group.bench_function("recursive_predict_dataset", |b| {
        b.iter(|| black_box(model.predict_dataset(data)))
    });
    group.bench_function("flat_sequential", |b| {
        b.iter(|| {
            black_box(score_dataset(
                &forest,
                data,
                ScoreOutput::Probability,
                ScoreMode::Sequential,
            ))
        })
    });
    // Worker sweep: on multicore hosts the fan-out shrinks wall-clock; on
    // the 1-core CI container it documents the (bit-identical) overhead of
    // forcing workers.
    for workers in [2usize, 4] {
        group.bench_function(format!("flat_threads{workers}"), |b| {
            b.iter(|| {
                black_box(score_dataset(
                    &forest,
                    data,
                    ScoreOutput::Probability,
                    ScoreMode::Threads(workers),
                ))
            })
        });
    }
    group.finish();

    // Throughput metrics: rows/sec at best-of-10, the number a capacity
    // plan starts from.
    let n_rows = data.n_rows() as f64;
    let recursive = best_seconds(10, || {
        black_box(model.predict_dataset(data));
    });
    let flat = best_seconds(10, || {
        black_box(score_dataset(
            &forest,
            data,
            ScoreOutput::Probability,
            ScoreMode::Sequential,
        ));
    });
    report_metric(
        "serving/recursive_rows_per_sec",
        n_rows / recursive,
        "rows/s",
    );
    report_metric("serving/flat_rows_per_sec", n_rows / flat, "rows/s");
    report_metric("serving/flat_speedup", recursive / flat, "x");
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
