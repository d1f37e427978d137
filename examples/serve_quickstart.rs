//! Serving quickstart: train a claim-quality model, export it as a
//! versioned artifact, load it back, and query it three ways — in-process
//! batch scoring, the `redsus-score`-style CSV path, and the HTTP endpoint
//! over loopback.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```
//!
//! The equivalent CLI session, once an artifact exists:
//!
//! ```sh
//! cargo run --release -p redsus_serve --bin redsus-score -- inspect model.rsm
//! cargo run --release -p redsus_serve --bin redsus-score -- score model.rsm rows.csv
//! cargo run --release -p redsus_serve --bin redsus-score -- serve model.rsm --addr 127.0.0.1:8080
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;

use red_is_sus::core::experiments::ExperimentSuite;
use red_is_sus::serve::{
    FeatureFrame, ScoreMode, ScoreOutput, ScoreServer, ServeConfig, ServedModel,
};
use red_is_sus::synth::SynthConfig;

fn main() {
    // Train: the usual synthetic world and its observation hold-out model.
    let suite = ExperimentSuite::prepare(&SynthConfig::tiny(5));
    println!(
        "trained {} trees on {} rows ({} features)",
        suite.observation_holdout.model.n_trees(),
        suite.matrix.dataset.n_rows(),
        suite.matrix.dataset.n_features()
    );

    // Serialize: every hold-out model into a bundle of versioned artifacts.
    let dir = std::env::temp_dir().join(format!("redsus_serve_quickstart_{}", std::process::id()));
    let exported = suite
        .export_artifact_bundle(&dir)
        .expect("export artifact bundle");
    for artifact in &exported {
        println!(
            "exported {:<22} fingerprint {:#018x} ({} trees) -> {}",
            artifact.name,
            artifact.fingerprint,
            artifact.n_trees,
            artifact.path.display()
        );
    }

    // Load: back from disk into a serving-ready flattened forest.
    let served = ServedModel::load(&exported[0].path).expect("load artifact");
    println!(
        "loaded model {} ({} nodes across {} trees)",
        served.fingerprint_hex(),
        served.forest().n_nodes(),
        served.forest().n_trees()
    );
    println!("scoring kernel: {}", served.kernel().name());

    // Query 1: in-process batch scoring over the hold-out rows.
    let test = suite
        .matrix
        .dataset
        .subset(&suite.observation_holdout.test_rows);
    let scores = served.score_block(test.data(), ScoreOutput::Probability, ScoreMode::Parallel);
    let flagged = scores.iter().filter(|&&p| p >= 0.5).count();
    println!(
        "batch-scored {} hold-out rows on the {} kernel: {flagged} flagged as likely unserved",
        scores.len(),
        served.kernel().name()
    );

    // Query 2: the CSV path the CLI uses, with columns resolved by name.
    let names = test.feature_names();
    let mut csv = format!("{},{}\n", names[0], names[1]);
    csv.push_str("100.0,1.0\n0.0,\n");
    let frame = FeatureFrame::parse_csv(&csv).expect("parse csv");
    let aligned = frame.align(served.forest());
    let sparse = red_is_sus::serve::score_rows(
        served.forest(),
        &aligned.data,
        ScoreOutput::Probability,
        ScoreMode::Sequential,
    );
    println!(
        "csv-scored {} sparse rows ({} model features filled as missing): {:?}",
        sparse.len(),
        aligned.missing_features.len(),
        sparse
    );

    // Query 3: the HTTP endpoint on an ephemeral loopback port.
    let server =
        ScoreServer::start(served, ServeConfig::default()).expect("bind loopback endpoint");
    println!("serving at {}", server.url());
    let mut body = names.join(",");
    body.push('\n');
    for r in 0..3.min(test.n_rows()) {
        let cells: Vec<String> = test
            .row(r)
            .iter()
            .map(|v| {
                if v.is_nan() {
                    String::new()
                } else {
                    format!("{v}")
                }
            })
            .collect();
        body.push_str(&cells.join(","));
        body.push('\n');
    }
    let request = format!(
        "POST /score HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let json = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("");
    println!("endpoint answered: {json}");

    let stats = server.shutdown();
    println!(
        "server drained cleanly after {} request(s) / {} scored row(s)",
        stats.requests, stats.scored_rows
    );
    std::fs::remove_dir_all(&dir).ok();
}
