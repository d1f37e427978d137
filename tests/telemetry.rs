//! Cross-layer telemetry acceptance: one `MetricsRegistry` shared between
//! the staged pipeline and the scoring server, scraped once over HTTP —
//! pipeline stage histograms and HTTP request counters land in the same
//! Prometheus exposition, and observing a run never perturbs its output.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use red_is_sus::core::features::FeatureConfig;
use red_is_sus::core::labels::LabelingOptions;
use red_is_sus::core::pipeline::PipelineEngine;
use red_is_sus::ml::{Dataset, GbdtModel, GbdtParams};
use red_is_sus::obs::{MetricsRegistry, Telemetry};
use red_is_sus::serve::{ModelRegistry, ScoreServer, ServeConfig, ServedModel};
use red_is_sus::synth::{SynthConfig, SynthUs};

fn tiny_model() -> ServedModel {
    let mut d = Dataset::new(vec!["a".into(), "b".into()]);
    for i in 0..60 {
        let x = i as f32 / 60.0;
        d.push_row(&[x, 1.0 - x], if x > 0.5 { 1.0 } else { 0.0 });
    }
    ServedModel::from_model(GbdtModel::fit(
        &d,
        GbdtParams {
            n_estimators: 3,
            max_depth: 3,
            ..GbdtParams::default()
        },
    ))
}

/// One scrape of `url` over a throwaway connection; returns the body.
fn http_get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response framing");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    body.to_string()
}

#[test]
fn pipeline_and_server_share_one_scrapeable_registry() {
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = Telemetry::with_metrics(Arc::clone(&registry));

    // Layer 1: the staged pipeline records into the shared registry…
    let world = SynthUs::generate(&SynthConfig::tiny(7));
    let observed = PipelineEngine.run_to_dataset_with(
        &world,
        &LabelingOptions::default(),
        &FeatureConfig::default(),
        &telemetry,
    );
    // …without perturbing the run: same dataset as a silent run.
    let silent = PipelineEngine.run_to_dataset_with(
        &world,
        &LabelingOptions::default(),
        &FeatureConfig::default(),
        &Telemetry::disabled(),
    );
    assert_eq!(
        red_is_sus::core::features::dataset_fingerprint(&observed.matrix.dataset),
        red_is_sus::core::features::dataset_fingerprint(&silent.matrix.dataset),
        "telemetry must be observation-only"
    );

    // Layer 2: the scoring server adopts the same registry.
    let models = Arc::new(ModelRegistry::with_model(tiny_model()));
    let server = ScoreServer::bind("127.0.0.1:0", models, ServeConfig::default(), &telemetry)
        .expect("bind loopback");

    // Traffic, then one scrape carrying both layers' families.
    http_get(server.addr(), "/healthz");
    let scrape = http_get(server.addr(), "/metrics");
    server.shutdown();

    for series in [
        // Pipeline families (the same `stream_*` series the streaming
        // runner records)…
        "stream_stage_wall_seconds_count{stage=\"feature_engineering\"} 1",
        "stream_stage_peak_resident_entries{stage=\"label_construction\"}",
        "stream_total_wall_seconds",
        // …and server families, one exposition. The /metrics request
        // itself is counted only after its body is built, so the scrape
        // sees just the /healthz hit.
        "http_requests_total 1",
        "http_responses_total{route=\"/healthz\",status=\"200\"} 1",
        "http_request_duration_seconds_bucket{route=\"/healthz\",le=\"+Inf\"} 1",
        "model_registry_models 1",
    ] {
        assert!(
            scrape.contains(series),
            "scrape is missing {series:?}:\n{scrape}"
        );
    }
}
