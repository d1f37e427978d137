//! Criterion bench of the model artifact: encode, decode, and what a
//! serving process pays at startup (decode + flatten), plus the artifact's
//! size on the wire. Scoring throughput is the inference bench's kernel
//! matrix; request latency on a live server is `perfbench`'s `serve`
//! workload.
//!
//! Regenerate the committed report with (from the workspace root; the path
//! must be absolute because cargo runs the bench binary with `crates/bench`
//! as its working directory):
//!
//! ```sh
//! BENCH_JSON=$PWD/BENCH_serve.json cargo bench -p redsus_bench --bench serving
//! ```

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, report_metric, Criterion};
use redsus_core::experiments::ExperimentSuite;
use redsus_serve::{decode_model, encode_model, ServedModel};
use synth::SynthConfig;

fn bench_serving(c: &mut Criterion) {
    let suite = ExperimentSuite::prepare(&SynthConfig::tiny(5));
    let model = &suite.observation_holdout.model;
    let bytes = encode_model(model);
    let served = ServedModel::from_bytes(&bytes).expect("load");

    report_metric("serving/artifact_bytes", bytes.len() as f64, "bytes");
    report_metric(
        "serving/forest_trees",
        served.forest().n_trees() as f64,
        "trees",
    );
    report_metric(
        "serving/forest_nodes",
        served.forest().n_nodes() as f64,
        "nodes",
    );

    let mut group = c.benchmark_group("serving_artifact");
    group.sample_size(20);
    group.bench_function("encode", |b| b.iter(|| black_box(encode_model(model))));
    group.bench_function("decode", |b| {
        b.iter(|| black_box(decode_model(&bytes).expect("decode")))
    });
    group.bench_function("load_and_flatten", |b| {
        b.iter(|| black_box(ServedModel::from_bytes(&bytes).expect("load")))
    });
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
