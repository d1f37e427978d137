//! The observability contract of the scoring server, pinned hermetically on
//! loopback: `/metrics` serves parseable Prometheus text whose counters
//! advance across pipelined keep-alive requests and survive a hot model
//! reload; `/stats` is one strict-JSON document mirroring the same numbers;
//! and a server bound with disabled telemetry degrades to 503 without
//! touching the request path.

mod common;

use std::sync::Arc;

use common::{assert_strict_json, FramedClient};
use ml::{Dataset, GbdtModel, GbdtParams};
use obs::{MetricsRegistry, Telemetry};
use redsus_serve::{ModelRegistry, ScoreServer, ServeConfig, ServedModel};

fn model(seed: u32) -> ServedModel {
    let mut d = Dataset::new(vec!["a".into(), "b".into()]);
    for i in 0..60 {
        let x = (i as f32 + seed as f32 * 0.37) / 60.0;
        d.push_row(&[x, 1.0 - x], if x > 0.5 { 1.0 } else { 0.0 });
    }
    ServedModel::from_model(GbdtModel::fit(
        &d,
        GbdtParams {
            n_estimators: 3 + seed as usize % 3,
            max_depth: 3,
            ..GbdtParams::default()
        },
    ))
}

fn csv(salt: usize) -> String {
    let mut body = String::from("a,b\n");
    for r in 0..4 {
        let x = (salt % 7) as f32 * 0.1 + r as f32 * 0.02;
        body.push_str(&format!("{x},{}\n", 1.0 - x));
    }
    body
}

/// Pull one series' value out of a Prometheus exposition. `line_start` is
/// the full series name including any `{labels}` — matched against the
/// line prefix before the space.
fn series_value(scrape: &str, series: &str) -> Option<f64> {
    scrape.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        (name == series).then(|| value.parse().expect("series value parses"))
    })
}

/// The headline test: counters advance across pipelined keep-alive
/// requests, and the scrape itself is well-formed Prometheus text.
#[test]
fn metrics_counters_advance_across_pipelined_keepalive_requests() {
    let served = model(1);
    let server = ScoreServer::start(served, ServeConfig::default()).expect("bind loopback");
    let mut client = FramedClient::connect(server.addr());

    // A pipelined burst of 10 scores, then a scrape, all on one connection.
    for i in 0..10 {
        client.send_score("", &csv(i), false);
    }
    client.send_get("/metrics", false);
    for _ in 0..10 {
        let r = client.read_response().expect("score response");
        assert_eq!(r.status, 200);
    }
    let scrape1 = client.read_response().expect("metrics response");
    assert_eq!(scrape1.status, 200);
    assert_eq!(
        scrape1.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    // 10 scores seen; the /metrics request itself is counted only on the
    // *next* scrape (the counter increments after the body is built).
    assert_eq!(
        series_value(&scrape1.body, "http_requests_total"),
        Some(10.0)
    );
    assert_eq!(series_value(&scrape1.body, "scored_rows_total"), Some(40.0));
    assert_eq!(
        series_value(&scrape1.body, "http_connections_total"),
        Some(1.0)
    );
    assert_eq!(
        series_value(&scrape1.body, "http_connections_active"),
        Some(1.0)
    );
    assert_eq!(
        series_value(
            &scrape1.body,
            "http_responses_total{route=\"/score\",status=\"200\"}"
        ),
        Some(10.0)
    );
    // The latency histogram observed one duration per request, buckets are
    // cumulative, and +Inf equals _count.
    assert_eq!(
        series_value(
            &scrape1.body,
            "http_request_duration_seconds_count{route=\"/score\"}"
        ),
        Some(10.0)
    );
    assert_eq!(
        series_value(
            &scrape1.body,
            "http_request_duration_seconds_bucket{route=\"/score\",le=\"+Inf\"}"
        ),
        Some(10.0)
    );
    assert_eq!(
        series_value(&scrape1.body, "model_registry_models"),
        Some(1.0)
    );

    // More traffic on the same connection: everything keeps counting.
    for i in 0..5 {
        client.send_score("", &csv(i), false);
    }
    client.send_get("/metrics", true);
    for _ in 0..5 {
        assert_eq!(client.read_response().expect("score").status, 200);
    }
    let scrape2 = client.read_response().expect("second scrape");
    assert_eq!(
        series_value(&scrape2.body, "http_requests_total"),
        Some(16.0) // 10 scores + 1 scrape + 5 scores
    );
    assert_eq!(series_value(&scrape2.body, "scored_rows_total"), Some(60.0));
    assert_eq!(
        series_value(&scrape2.body, "http_connections_total"),
        Some(1.0)
    );
    client.expect_clean_close();

    // `/metrics` numbers and `ScoreServer::stats()` read the same atomics.
    let stats = server.shutdown();
    assert_eq!(stats.requests, 17);
    assert_eq!(stats.scored_rows, 60);
    assert_eq!(stats.connections, 1);
}

/// Counters survive (and registry lifecycle series record) a hot model
/// reload while the connection stays open.
#[test]
fn metrics_survive_hot_model_reload() {
    let registry = Arc::new(ModelRegistry::with_model(model(1)));
    let telemetry = Telemetry::with_metrics(Arc::new(MetricsRegistry::new()));
    let config = ServeConfig::default();
    let server = ScoreServer::bind("127.0.0.1:0", Arc::clone(&registry), config, &telemetry)
        .expect("bind loopback");
    let mut client = FramedClient::connect(server.addr());

    client.send_score("", &csv(0), false);
    assert_eq!(client.read_response().expect("score").status, 200);

    // Hot reload: publish a second version (becomes the default).
    registry.publish(model(2));

    client.send_score("", &csv(1), false);
    client.send_get("/metrics", true);
    assert_eq!(client.read_response().expect("score").status, 200);
    let scrape = client.read_response().expect("scrape");
    // The counter kept counting across the swap…
    assert_eq!(series_value(&scrape.body, "http_requests_total"), Some(2.0));
    assert_eq!(series_value(&scrape.body, "scored_rows_total"), Some(8.0));
    // …and the registry lifecycle is visible: with_model + publish = 2
    // publishes, and the publish swapped the default.
    assert_eq!(
        series_value(&scrape.body, "model_registry_publishes_total"),
        Some(2.0)
    );
    assert_eq!(
        series_value(&scrape.body, "model_registry_default_swaps_total"),
        Some(2.0)
    );
    assert_eq!(
        series_value(&scrape.body, "model_registry_models"),
        Some(2.0)
    );
    client.expect_clean_close();
    server.shutdown();
}

/// `/stats` is one strict JSON document carrying the server counters and
/// the full metrics snapshot.
#[test]
fn stats_endpoint_is_strict_json_with_server_counters() {
    let server = ScoreServer::start(model(1), ServeConfig::default()).expect("bind loopback");
    let mut client = FramedClient::connect(server.addr());

    client.send_score("", &csv(3), false);
    assert_eq!(client.read_response().expect("score").status, 200);
    client.send_get("/stats", true);
    let stats = client.read_response().expect("stats");
    assert_eq!(stats.status, 200);
    assert_eq!(stats.header("content-type"), Some("application/json"));
    assert_strict_json(&stats.body);
    assert!(stats
        .body
        .contains("\"server\":{\"models\":1,\"requests\":1,\"scored_rows\":4,"));
    // The in-flight gauge counts the /stats request being handled.
    assert!(stats.body.contains("\"requests_in_flight\":1"));
    assert!(stats.body.contains("\"connections_active\":1"));
    // The metrics snapshot rides along with the registry families in it.
    assert!(stats.body.contains("\"scored_rows_total\""));
    assert!(stats.body.contains("\"http_request_duration_seconds\""));
    client.expect_clean_close();
    server.shutdown();
}

/// Disabled telemetry degrades gracefully: scoring works, `/metrics`
/// answers 503, `/stats` carries the counters with a `null` snapshot, and
/// `ScoreServer::stats()` still counts (the `ServerStats` atomics are
/// always active).
#[test]
fn disabled_metrics_answer_503_but_stats_still_count() {
    let registry = Arc::new(ModelRegistry::with_model(model(1)));
    let config = ServeConfig::default();
    let server = ScoreServer::bind("127.0.0.1:0", registry, config, &Telemetry::disabled())
        .expect("bind loopback");
    assert!(server.metrics_registry().is_none());
    let mut client = FramedClient::connect(server.addr());

    client.send_score("", &csv(2), false);
    assert_eq!(client.read_response().expect("score").status, 200);
    client.send_get("/metrics", false);
    let denied = client.read_response().expect("metrics denial");
    assert_eq!(denied.status, 503);
    assert_strict_json(&denied.body);
    client.send_get("/stats", true);
    let stats = client.read_response().expect("stats");
    assert_eq!(stats.status, 200);
    assert_strict_json(&stats.body);
    assert!(stats.body.ends_with("\"metrics\":null}"));
    client.expect_clean_close();

    let final_stats = server.shutdown();
    assert_eq!(final_stats.requests, 3);
    assert_eq!(final_stats.scored_rows, 4);
}
