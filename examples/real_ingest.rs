//! Real-data ingest end to end: a BDC/Ookla data directory → the generic
//! streaming runner → a trained model → live `/score` requests over
//! loopback HTTP. Defaults to the committed sample fixture, so this runs
//! hermetically on a fresh checkout:
//!
//! ```sh
//! cargo run --release --example real_ingest -- \
//!     [--data-dir tests/fixtures/bdc_sample] [--json] [--out report.json]
//! ```
//!
//! `--json` replaces the human-readable report with one machine-readable
//! JSON document on stdout; `--out FILE` writes that document to FILE as
//! well (CI uploads it next to the bench artifacts).

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use red_is_sus::bdc::DiffMode;
use red_is_sus::core::features::FeatureConfig;
use red_is_sus::core::labels::LabelingOptions;
use red_is_sus::core::streaming::run_streaming_to_dataset_with;
use red_is_sus::ingest::{FileWorld, IngestOptions};
use red_is_sus::ml::{GbdtModel, GbdtParams};
use red_is_sus::obs::Telemetry;
use red_is_sus::serve::{ScoreServer, ServeConfig, ServedModel};

fn main() {
    let mut data_dir = PathBuf::from("tests/fixtures/bdc_sample");
    let mut json = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--data-dir" => {
                data_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--data-dir needs a value");
                    std::process::exit(2);
                }))
            }
            "--json" => json = true,
            "--out" => out = args.next(),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: real_ingest [--data-dir DIR] [--json] [--out FILE]");
                std::process::exit(2);
            }
        }
    }

    // Ingest the directory, then run the source through the same generic
    // streaming pipeline the synth world uses.
    let world = FileWorld::load(&data_dir, &IngestOptions::default()).unwrap_or_else(|e| {
        eprintln!("ingest failed: {e}");
        std::process::exit(1);
    });
    if !json {
        let meta_detail = {
            use red_is_sus::bdc::WorldSource as _;
            world.meta().detail
        };
        println!("ingested {meta_detail}");
    }
    let run = run_streaming_to_dataset_with(
        world,
        &LabelingOptions::default(),
        &FeatureConfig::default(),
        DiffMode::Parallel,
        &Telemetry::disabled(),
    )
    .unwrap_or_else(|e| {
        eprintln!("streaming run failed: {e}");
        std::process::exit(1);
    });

    // Train a small forest on the ingested dataset and serve it.
    let model = GbdtModel::fit(
        &run.matrix.dataset,
        GbdtParams {
            n_estimators: 8,
            max_depth: 3,
            ..GbdtParams::default()
        },
    );
    let served = ServedModel::from_model(model);
    let fingerprint = served.fingerprint_hex();
    let server = ScoreServer::start(served, ServeConfig::default()).expect("bind loopback");

    // Score the first few ingested rows back through the HTTP endpoint.
    let score_rows = run.matrix.dataset.n_rows().min(5);
    let mut csv = run.matrix.dataset.feature_names().join(",");
    csv.push('\n');
    for i in 0..score_rows {
        let row = run.matrix.dataset.row(i);
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                csv.push(',');
            }
            // The frame parser treats `nan` as a missing cell.
            let _ = write!(csv, "{v}");
        }
        csv.push('\n');
    }
    let score_body = post_score(&server, &csv);
    let stats = server.shutdown();
    assert_eq!(stats.requests, 1, "exactly one /score request was sent");
    assert_eq!(stats.scored_rows as usize, score_rows);

    if json || out.is_some() {
        let mut doc = format!(
            "{{\"data_dir\":\"{}\",\"stages\":[",
            data_dir.display().to_string().replace('\\', "/"),
        );
        for (i, stage) in run.report.stages.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let _ = write!(
                doc,
                "{{\"name\":\"{}\",\"wall_s\":{},\"shards\":{},\"peak_resident_entries\":{}}}",
                stage.name,
                stage.wall.as_secs_f64(),
                stage.shards,
                stage.peak_resident_entries,
            );
        }
        let _ = write!(
            doc,
            "],\"peak_resident_entries\":{},\"dataset\":{{\"rows\":{},\"features\":{}}},\
             \"model\":{{\"fingerprint\":\"{fingerprint}\"}},\
             \"score\":{{\"rows_scored\":{score_rows},\"response\":{score_body}}}}}",
            run.report.peak_resident_entries,
            run.matrix.dataset.n_rows(),
            run.matrix.dataset.n_features(),
        );
        if json {
            println!("{doc}");
        }
        if let Some(path) = out {
            std::fs::write(&path, &doc).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
    }
    if !json {
        println!(
            "{:<22} {:>12} {:>10} {:>16}",
            "stage", "wall ms", "shards", "peak entries"
        );
        for stage in &run.report.stages {
            println!(
                "{:<22} {:>12.1} {:>10} {:>16}",
                stage.name,
                stage.wall.as_secs_f64() * 1e3,
                stage.shards,
                stage.peak_resident_entries,
            );
        }
        println!(
            "\ndataset: {} observations x {} features",
            run.matrix.dataset.n_rows(),
            run.matrix.dataset.n_features(),
        );
        println!("model {fingerprint} served; scored {score_rows} rows over /score");
        println!("score response: {score_body}");
    }
}

/// One `POST /score` over a throwaway connection; returns the JSON body.
fn post_score(server: &ScoreServer, csv: &str) -> String {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(
            format!(
                "POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{csv}",
                csv.len()
            )
            .as_bytes(),
        )
        .expect("write score request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response framing");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    body.to_string()
}
