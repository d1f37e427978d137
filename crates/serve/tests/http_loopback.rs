//! Hermetic loopback tests of the HTTP scoring endpoint: every request runs
//! against 127.0.0.1 on an ephemeral port — no network access, no fixed
//! ports, clean shutdown — so the suite stays green in offline CI.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ml::{Dataset, FlatForest, GbdtModel, GbdtParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redsus_serve::{
    score_rows, ScoreKernel, ScoreMode, ScoreOutput, ScoreServer, ServeConfig, ServedModel,
};

fn trained_model() -> (GbdtModel, Dataset) {
    let mut rng = StdRng::seed_from_u64(0x5e12e);
    let mut d = Dataset::new(vec!["down".into(), "up".into(), "tests".into()]);
    for _ in 0..300 {
        let down: f32 = rng.gen_range(0.0..1000.0);
        let up: f32 = rng.gen_range(0.0..100.0);
        let tests: f32 = rng.gen_range(0.0..50.0);
        let label = if down > 400.0 && tests < 20.0 {
            1.0
        } else {
            0.0
        };
        d.push_row(&[down, up, tests], label);
    }
    let model = GbdtModel::fit(
        &d,
        GbdtParams {
            n_estimators: 12,
            max_depth: 4,
            learning_rate: 0.2,
            ..GbdtParams::default()
        },
    );
    (model, d)
}

fn start_server() -> (ScoreServer, GbdtModel, Dataset) {
    let (model, data) = trained_model();
    let served = ServedModel::from_model(model.clone());
    let server = ScoreServer::start(served, ServeConfig::default()).expect("bind loopback");
    (server, model, data)
}

/// A minimal one-shot HTTP/1.1 client: send raw bytes, read to EOF, split
/// the response into (status, body). `Connection: close` is injected into
/// the headers because reading to EOF on a keep-alive connection would
/// stall until the server's idle timeout. (The keep-alive path has its own
/// framed client in `tests/keepalive.rs`.)
fn request(server: &ScoreServer, raw: &str) -> (u16, String) {
    let raw = raw.replacen("\r\n\r\n", "\r\nConnection: close\r\n\r\n", 1);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post_score(server: &ScoreServer, query: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST /score{query} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    request(server, &raw)
}

/// Pull the `"scores":[…]` array out of a response body.
fn parse_scores(body: &str) -> Vec<f64> {
    let start = body.find("\"scores\":[").expect("scores array") + "\"scores\":[".len();
    let end = start + body[start..].find(']').expect("array end");
    let inner = &body[start..end];
    if inner.is_empty() {
        return Vec::new();
    }
    inner
        .split(',')
        .map(|s| s.parse::<f64>().expect("score is a float"))
        .collect()
}

fn csv_body(names: &[String], rows: &[&[f32]]) -> String {
    let mut body = names.join(",");
    body.push('\n');
    for row in rows {
        let cells: Vec<String> = row
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
    body
}

#[test]
fn healthz_reports_the_model() {
    let (server, model, _) = start_server();
    let (status, body) = request(&server, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(
        body.contains(&format!("\"trees\":{}", model.n_trees())),
        "{body}"
    );
    assert!(body.contains("\"fingerprint\":\"0x"), "{body}");
    server.shutdown();
}

/// A forest shaped like the paper's (60 trees, depth 5, the pipeline's
/// sampling) quantises exactly, yet it is served on the batched flat
/// kernel, which scores such forests faster; `/healthz` names that kernel
/// and `score_block` gives `score_rows`' bits.
#[test]
fn quantisable_paper_forest_is_served_on_the_batched_kernel() {
    let mut rng = StdRng::seed_from_u64(0x6a7e);
    let width = 12;
    let mut d = Dataset::new((0..width).map(|f| format!("f{f}")).collect());
    for _ in 0..1300 {
        let row: Vec<f32> = (0..width).map(|_| rng.gen_range(0.0..1.0)).collect();
        let label = if row[0] + 0.5 * row[3] > 0.8 {
            1.0
        } else {
            0.0
        };
        d.push_row(&row, label);
    }
    let model = GbdtModel::fit(
        &d,
        GbdtParams {
            n_estimators: 60,
            learning_rate: 0.15,
            max_depth: 5,
            subsample: 0.9,
            colsample_bytree: 0.8,
            seed: 1,
            ..GbdtParams::default()
        },
    );
    let served = ServedModel::from_model(model);
    assert!(served.quant_forest().is_fully_quantised());
    assert_eq!(served.kernel(), ScoreKernel::Batched);
    for output in [ScoreOutput::Probability, ScoreOutput::Margin] {
        for mode in [ScoreMode::Sequential, ScoreMode::Threads(2)] {
            let block = served.score_block(d.data(), output, mode);
            let flat = score_rows(served.forest(), d.data(), output, mode);
            assert_eq!(block.len(), d.n_rows());
            for (i, (a, b)) in block.iter().zip(&flat).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} ({output:?}, {mode:?})");
            }
        }
    }
    let server = ScoreServer::start(served, ServeConfig::default()).expect("bind loopback");
    let (status, body) = request(&server, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"kernel\":\"batched\""), "{body}");
    server.shutdown();
}

#[test]
fn model_endpoint_lists_the_schema() {
    let (server, model, _) = start_server();
    let (status, body) = request(&server, "GET /model HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    for name in model.feature_names() {
        assert!(body.contains(&format!("\"{name}\"")), "{body}");
    }
    server.shutdown();
}

/// The core contract: scores served over the wire equal in-process
/// predictions bit for bit (the response floats are shortest-round-trip
/// formatted, so parsing them back recovers the exact f64).
#[test]
fn served_scores_equal_in_process_predictions() {
    let (server, model, data) = start_server();
    let rows: Vec<&[f32]> = (0..40).map(|r| data.row(r)).collect();
    let body = csv_body(data.feature_names(), &rows);
    let (status, response) = post_score(&server, "", &body);
    assert_eq!(status, 200, "{response}");
    let scores = parse_scores(&response);
    assert_eq!(scores.len(), 40);
    let expected = model.predict_dataset(&data);
    for (i, (s, e)) in scores.iter().zip(&expected).enumerate() {
        assert_eq!(s.to_bits(), e.to_bits(), "row {i} drifted over the wire");
    }
    // Margins too.
    let (status, response) = post_score(&server, "?output=margin", &body);
    assert_eq!(status, 200);
    let margins = parse_scores(&response);
    let expected = score_rows(
        &FlatForest::from_model(&model),
        &data.data()[..40 * data.n_features()],
        ScoreOutput::Margin,
        ScoreMode::Sequential,
    );
    assert_eq!(margins.len(), 40);
    for (m, e) in margins.iter().zip(&expected) {
        assert_eq!(m.to_bits(), e.to_bits());
    }
    let stats = server.shutdown();
    assert_eq!(stats.scored_rows, 80);
    assert_eq!(stats.requests, 2);
}

/// Clients name their columns: a permuted header with an extra column still
/// scores identically, and the gaps are echoed back.
#[test]
fn columns_align_by_name() {
    let (server, model, data) = start_server();
    // Header order (tests, down) + an unknown column; "up" missing.
    let mut body = String::from("tests,extraneous,down\n");
    let mut aligned = Dataset::new(data.feature_names().to_vec());
    for r in 0..10 {
        let row = data.row(r);
        body.push_str(&format!("{},{},{}\n", row[2], 42.0, row[0]));
        aligned.push_row(&[row[0], f32::NAN, row[2]], 0.0);
    }
    let expected = model.predict_dataset(&aligned);
    let (status, response) = post_score(&server, "", &body);
    assert_eq!(status, 200, "{response}");
    let scores = parse_scores(&response);
    for (i, e) in expected.iter().enumerate() {
        assert_eq!(scores[i].to_bits(), e.to_bits(), "row {i}");
    }
    assert!(
        response.contains("\"missing_features\":[\"up\"]"),
        "{response}"
    );
    assert!(
        response.contains("\"ignored_columns\":[\"extraneous\"]"),
        "{response}"
    );
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors() {
    let (server, _, _) = start_server();
    // Unknown route.
    let (status, body) = request(&server, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\""));
    // Wrong method on /score.
    let (status, _) = request(&server, "GET /score HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 405);
    // Bad CSV cell.
    let (status, body) = post_score(&server, "", "down,up,tests\n1.0,zebra,3\n");
    assert_eq!(status, 400);
    assert!(body.contains("zebra"), "{body}");
    // Ragged row.
    let (status, _) = post_score(&server, "", "down,up,tests\n1.0,2.0\n");
    assert_eq!(status, 400);
    // Bad output selector.
    let (status, _) = post_score(&server, "?output=shap", "down,up,tests\n1,2,3\n");
    assert_eq!(status, 400);
    // Duplicate header column: rejected loudly at the parse, not silently
    // first-wins at alignment.
    let (status, body) = post_score(&server, "", "down,up,down\n1.0,2.0,3.0\n");
    assert_eq!(status, 400);
    assert!(body.contains("duplicate column"), "{body}");
    assert!(body.contains("down"), "{body}");
    // Unsupported HTTP version.
    let (status, _) = request(&server, "GET /healthz SPDY/99\r\n\r\n");
    assert_eq!(status, 505);
    // Chunked transfer encoding: honestly unimplemented, not silently
    // scored as an empty body.
    let (status, body) = request(
        &server,
        "POST /score HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    );
    assert_eq!(status, 501);
    assert!(body.contains("Content-Length"), "{body}");
    server.shutdown();
}

#[test]
fn oversized_bodies_are_refused() {
    let (model, _) = trained_model();
    let server = ScoreServer::start(
        ServedModel::from_model(model),
        ServeConfig {
            max_body_bytes: 256,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let big = "x".repeat(1024);
    let (status, _) = post_score(&server, "", &big);
    assert_eq!(status, 413);

    // A body large enough to overflow the socket buffers: the server
    // rejects from the Content-Length header alone, but must still drain
    // the bytes the client is mid-sending so the 413 arrives over a clean
    // close instead of being torn down by a reset.
    let huge = "y".repeat(512 << 10);
    let raw = format!(
        "POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{huge}",
        huge.len()
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send huge body");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read 413 despite the huge body");
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
    server.shutdown();
}

/// Requests fan across the bounded worker pool concurrently and every
/// response stays bit-exact.
#[test]
fn concurrent_clients_get_consistent_answers() {
    let (server, model, data) = start_server();
    let body = csv_body(data.feature_names(), &[data.row(0), data.row(1)]);
    let expected: Vec<u64> = model.predict_dataset(&data)[..2]
        .iter()
        .map(|p| p.to_bits())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = &body;
                let expected = &expected;
                let server = &server;
                scope.spawn(move || {
                    let (status, response) = post_score(server, "", body);
                    assert_eq!(status, 200);
                    let scores = parse_scores(&response);
                    let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                    assert_eq!(&bits, expected);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.scored_rows, 16);
}

/// Shutdown joins every thread and releases the port: subsequent connects
/// are refused instead of hanging.
#[test]
fn shutdown_is_graceful_and_releases_the_port() {
    let (server, _, data) = start_server();
    let addr = server.addr();
    // The server answers before shutdown…
    let (status, _) = request(&server, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let _ = data;
    let stats = server.shutdown();
    assert_eq!(stats.requests, 1);
    // …and is really gone after: connecting now must fail (the listener is
    // closed and the port released).
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after shutdown"
    );
}
