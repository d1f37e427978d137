//! The connection-lifecycle and hot-reload contract, pinned hermetically on
//! loopback: keep-alive reuse, pipelined framing, HTTP/1.0-vs-1.1 close
//! semantics, the per-connection request cap, idle timeout and whole-request
//! deadline, registry swaps under live traffic, and the strict-JSON
//! guarantee for non-finite scores.

mod common;

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{assert_strict_json, FramedClient};
use ml::tree::Node;
use ml::{Dataset, GbdtModel, GbdtParams, RegressionTree};
use redsus_serve::{ModelRegistry, ScoreServer, ServeConfig, ServedModel, Telemetry};

/// A small deterministic model over features `(a, b)`; different seeds give
/// different fingerprints (and different scores for the same rows).
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

/// A 4-row CSV whose value depends on `salt`, so interleaved responses can
/// be told apart.
fn csv(salt: usize) -> String {
    let mut body = String::from("a,b\n");
    for r in 0..4 {
        let x = (salt % 7) as f32 * 0.1 + r as f32 * 0.02;
        body.push_str(&format!("{x},{}\n", 1.0 - x));
    }
    body
}

fn start(config: ServeConfig) -> (ScoreServer, ServedModel) {
    let served = model(1);
    let clone = ServedModel::from_model(served.model().clone());
    let server = ScoreServer::start(served, config).expect("bind loopback");
    (server, clone)
}

/// Serve a shared model registry on an ephemeral loopback port.
fn serve(registry: &Arc<ModelRegistry>) -> ScoreServer {
    let telemetry = Telemetry::disabled();
    ScoreServer::bind(
        "127.0.0.1:0",
        Arc::clone(registry),
        ServeConfig::default(),
        &telemetry,
    )
    .expect("bind loopback")
}

/// The headline acceptance test: one connection, 100+ pipelined `/score`
/// requests, no reconnect, every response bit-exact and strictly JSON.
#[test]
fn one_connection_serves_a_hundred_pipelined_requests() {
    let (server, reference) = start(ServeConfig::default());
    let mut client = FramedClient::connect(server.addr());

    // Write the whole burst up front — the server must frame request N+1
    // out of the bytes it over-read past request N's body.
    let mut burst = String::new();
    for i in 0..100 {
        let body = csv(i);
        burst.push_str(&format!(
            "POST /score HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    client.send(&burst);

    for i in 0..100 {
        let response = client
            .read_response()
            .unwrap_or_else(|| panic!("connection closed before response {i}"));
        assert_eq!(response.status, 200, "request {i}: {}", response.body);
        assert_eq!(
            response.header("connection"),
            Some("keep-alive"),
            "request {i}"
        );
        assert_strict_json(&response.body);
        // Responses come back in request order: the scores must be the
        // in-process predictions for *this* request's rows.
        let frame = csv(i);
        let scores = response.scores();
        assert_eq!(scores.len(), 4);
        for (r, line) in frame.lines().skip(1).enumerate() {
            let (a, b) = line.split_once(',').expect("two cells");
            let row = [a.parse::<f32>().unwrap(), b.parse::<f32>().unwrap()];
            assert_eq!(
                scores[r].to_bits(),
                reference.model().predict_proba(&row).to_bits(),
                "request {i} row {r} drifted"
            );
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.connections, 1, "the burst must not reconnect");
    assert_eq!(stats.requests, 100);
    assert_eq!(stats.scored_rows, 400);
    assert_eq!(stats.peer_resets, 0);
}

/// Version and header semantics: HTTP/1.0 closes by default,
/// `Connection: keep-alive` re-opens it, and HTTP/1.1 `Connection: close`
/// closes despite the version default.
#[test]
fn connection_header_semantics() {
    let (server, _) = start(ServeConfig::default());

    // HTTP/1.0 default: close after one response.
    let mut client = FramedClient::connect(server.addr());
    client.send("GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n");
    let response = client.read_response().expect("one response");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    client.expect_clean_close();

    // HTTP/1.0 + explicit keep-alive: stays open for a second request.
    let mut client = FramedClient::connect(server.addr());
    client.send("GET /healthz HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n");
    let response = client.read_response().expect("first response");
    assert_eq!(response.header("connection"), Some("keep-alive"));
    client.send("GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n");
    assert_eq!(client.read_response().expect("second response").status, 200);
    client.expect_clean_close();

    // HTTP/1.1 + explicit close: closed despite the version default —
    // `close` also wins when both tokens appear.
    let mut client = FramedClient::connect(server.addr());
    client.send("GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, close\r\n\r\n");
    let response = client.read_response().expect("one response");
    assert_eq!(response.header("connection"), Some("close"));
    client.expect_clean_close();

    let stats = server.shutdown();
    assert_eq!(stats.connections, 3);
    assert_eq!(stats.requests, 4);
}

/// The per-connection request cap: the final allowed response advertises
/// the close and the connection then ends cleanly.
#[test]
fn request_cap_closes_the_connection() {
    let (server, _) = start(ServeConfig {
        max_requests_per_connection: 3,
        ..ServeConfig::default()
    });
    let mut client = FramedClient::connect(server.addr());
    for i in 0..3 {
        client.send_get("/healthz", false);
        let response = client.read_response().expect("response");
        assert_eq!(response.status, 200);
        let expected = if i < 2 { "keep-alive" } else { "close" };
        assert_eq!(response.header("connection"), Some(expected), "request {i}");
        if i < 2 {
            // The advertisement counts down the remaining allowance.
            let keep = response.header("keep-alive").expect("Keep-Alive header");
            assert!(keep.contains(&format!("max={}", 2 - i)), "{keep}");
        }
    }
    client.expect_clean_close();
    let stats = server.shutdown();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.requests, 3);
}

/// A pooled connection that goes quiet is closed without a response (no
/// bogus 408 written into it) and counted as an idle close.
#[test]
fn idle_keepalive_connections_close_quietly() {
    let (server, _) = start(ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut client = FramedClient::connect(server.addr());
    client.send_get("/healthz", false);
    assert_eq!(client.read_response().expect("response").status, 200);
    // Send nothing more: after idle_timeout the server must close with EOF,
    // not write a 408 (the quiet close is what read_response(None) asserts —
    // any stray bytes would trip its mid-response panic).
    client.expect_clean_close();
    let stats = server.shutdown();
    assert_eq!(stats.idle_closes, 1);
    assert_eq!(stats.requests, 1, "the idle close is not a request");
}

/// A connection that never sends a request is a client error: 408, not a
/// quiet close — the two timeouts are distinct.
#[test]
fn silent_first_request_still_gets_408() {
    let (server, _) = start(ServeConfig {
        read_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut client = FramedClient::connect(server.addr());
    let response = client.read_response().expect("a 408 response");
    assert_eq!(response.status, 408);
    client.expect_clean_close();
    let stats = server.shutdown();
    assert_eq!(stats.idle_closes, 0);
    assert_eq!(stats.requests, 1, "the 408 is a (failed) request");
}

/// Open a connection, send `head`, then trickle one more byte every 50 ms
/// for up to 2 s. Returns how long after `head` the server ended the
/// connection (a write failed), or `None` when it was still taking bytes
/// after 2 s.
fn trickle(addr: SocketAddr, head: &str) -> Option<Duration> {
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    let started = Instant::now();
    stream.write_all(head.as_bytes()).expect("send head");
    while started.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(50));
        if stream.write_all(b"a").is_err() {
            return Some(started.elapsed());
        }
    }
    None
}

/// A trickled request must end at its deadline with one 408. The client is
/// still sending, so it may see a reset instead of the 408 body: the
/// server's counters are the evidence.
fn assert_one_deadline_408(head: &str) {
    let (server, _) = start(ServeConfig {
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let metrics = Arc::clone(server.metrics_registry().expect("start attaches metrics"));
    let closed = trickle(server.addr(), head);
    let stats = server.shutdown();
    let closed = closed.expect("the server was still reading the trickle after 2 s");
    assert!(closed < Duration::from_secs(1), "closed after {closed:?}");
    assert_eq!(stats.requests, 1, "{stats:?}");
    let timeouts = metrics.counter(
        "http_responses_total",
        "",
        &[("route", "other"), ("status", "408")],
    );
    assert_eq!(timeouts.value(), 1);
}

/// A client dripping header bytes cannot hold a pool worker past
/// `read_timeout`: the deadline covers the request, not each read.
#[test]
fn trickled_headers_end_at_the_request_deadline() {
    assert_one_deadline_408("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: ");
}

/// The same deadline covers the body after complete headers.
#[test]
fn trickled_body_ends_at_the_request_deadline() {
    assert_one_deadline_408("POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\na,b\n");
}

/// Hot reload under live traffic: scores stream over one connection while
/// the registry swaps the default version. Every response is a 200, every
/// response's fingerprint matches its scores (no mixed-version response),
/// and once the publish returns, responses come from the new version. The
/// old version then drains: its memory dies with the last pinned Arc.
#[test]
fn hot_reload_swaps_mid_stream_without_mixing_versions() {
    let v1 = model(1);
    let v2 = model(2);
    let (fp1, fp2) = (v1.fingerprint_hex(), v2.fingerprint_hex());
    let fp1_raw = v1.fingerprint();
    let (ref1, ref2) = (
        ServedModel::from_model(v1.model().clone()),
        ServedModel::from_model(v2.model().clone()),
    );
    let registry = Arc::new(ModelRegistry::with_model(v1));
    let server = serve(&registry);

    let mut client = FramedClient::connect(server.addr());
    let mut saw = (0u32, 0u32);
    for i in 0..60 {
        if i == 30 {
            // The swap, mid-stream, from the serving process itself — the
            // programmatic equivalent of a --watch-dir scan picking up a
            // new artifact.
            registry.publish(ServedModel::from_model(ref2.model().clone()));
        }
        let body = csv(i);
        client.send_score("", &body, false);
        let response = client.read_response().expect("response");
        assert_eq!(response.status, 200, "request {i}: {}", response.body);
        assert_strict_json(&response.body);
        // The fingerprint each response claims must be the model whose
        // bits its scores carry — an Arc is pinned per request, so a swap
        // can never produce a v2 fingerprint over v1 scores.
        let fingerprint = response.fingerprint();
        let reference = if fingerprint == fp1 {
            saw.0 += 1;
            &ref1
        } else if fingerprint == fp2 {
            saw.1 += 1;
            &ref2
        } else {
            panic!("request {i}: unknown fingerprint {fingerprint}");
        };
        if i >= 30 {
            assert_eq!(fingerprint, fp2, "request {i} served after the publish");
        }
        let scores = response.scores();
        for (r, line) in body.lines().skip(1).enumerate() {
            let (a, b) = line.split_once(',').unwrap();
            let row = [a.parse::<f32>().unwrap(), b.parse::<f32>().unwrap()];
            assert_eq!(
                scores[r].to_bits(),
                reference.model().predict_proba(&row).to_bits(),
                "request {i} row {r}: scores do not match the claimed version"
            );
        }
    }
    assert_eq!(saw.0, 30, "v1 served exactly until the swap");
    assert_eq!(saw.1, 30, "v2 served exactly from the swap");

    // v1 is retired and drains: the Arc pinned by an "in-flight request"
    // keeps it alive, and the memory dies with that last reference.
    let in_flight = registry.get(Some(fp1_raw)).expect("v1 still addressable");
    let weak = Arc::downgrade(&in_flight);
    assert!(registry.retire(fp1_raw));
    assert!(weak.upgrade().is_some(), "pinned by the in-flight request");
    drop(in_flight);
    assert!(weak.upgrade().is_none(), "retired v1 must drain to zero");

    let stats = server.shutdown();
    assert_eq!(stats.connections, 1, "the swap must not force a reconnect");
    assert_eq!(stats.requests, 60);
}

/// The multi-model surface: `GET /models` lists every version, `?model=`
/// pins one explicitly, unknown fingerprints 404, junk selectors 400, and
/// an empty registry answers 503.
#[test]
fn models_are_listed_and_selectable_by_fingerprint() {
    let v1 = model(1);
    let v2 = model(2);
    let (fp1, fp2) = (v1.fingerprint_hex(), v2.fingerprint_hex());
    let ref1 = ServedModel::from_model(v1.model().clone());
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(v1);
    registry.publish(v2);
    let server = serve(&registry);
    let mut client = FramedClient::connect(server.addr());

    client.send_get("/models", false);
    let response = client.read_response().expect("models listing");
    assert_eq!(response.status, 200);
    assert_strict_json(&response.body);
    assert!(response.body.contains(&fp1), "{}", response.body);
    assert!(response.body.contains(&fp2), "{}", response.body);
    assert!(
        response.body.contains(&format!("\"default\":\"{fp2}\"")),
        "{}",
        response.body
    );

    // Pin the non-default version explicitly; its fingerprint and scores
    // both come from v1.
    let body = csv(0);
    client.send_score(&format!("?model={fp1}"), &body, false);
    let response = client.read_response().expect("v1 scores");
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.fingerprint(), fp1);
    let (a, b) = body.lines().nth(1).unwrap().split_once(',').unwrap();
    let row = [a.parse::<f32>().unwrap(), b.parse::<f32>().unwrap()];
    assert_eq!(
        response.scores()[0].to_bits(),
        ref1.model().predict_proba(&row).to_bits()
    );

    // The same schema endpoint takes the selector too.
    client.send_get(&format!("/model?model={fp1}"), false);
    let response = client.read_response().expect("v1 schema");
    assert_eq!(response.status, 200);
    assert!(response.body.contains(&fp1), "{}", response.body);

    // Unknown fingerprint: 404 with the fingerprint echoed.
    client.send_score("?model=0xdeadbeefdeadbeef", &body, false);
    let response = client.read_response().expect("404");
    assert_eq!(response.status, 404);
    assert!(
        response.body.contains("0xdeadbeefdeadbeef"),
        "{}",
        response.body
    );

    // Junk selector: 400. Routed errors ride the normal response path, so
    // the close here is the client's own `Connection: close`.
    client.send_score("?model=zebra", &body, true);
    let response = client.read_response().expect("400");
    assert_eq!(response.status, 400);
    client.expect_clean_close();
    server.shutdown();

    // An empty registry is alive but has nothing to score with: 503.
    let empty = serve(&Arc::new(ModelRegistry::new()));
    let mut client = FramedClient::connect(empty.addr());
    client.send_score("", &csv(0), true);
    let response = client.read_response().expect("503");
    assert_eq!(response.status, 503);
    assert_strict_json(&response.body);
    client.expect_clean_close();
    let mut client = FramedClient::connect(empty.addr());
    client.send_get("/healthz", true);
    let response = client.read_response().expect("healthz");
    assert_eq!(response.status, 200);
    assert!(
        response.body.contains("\"status\":\"no-model\""),
        "{}",
        response.body
    );
    empty.shutdown();
}

/// The strict-JSON satellite: a model whose every leaf is NaN produces a
/// response of all-`null` scores that still parses as strict JSON — bare
/// `NaN` would corrupt the whole body.
#[test]
fn non_finite_scores_serialize_as_null() {
    // NaN feature values route along default directions and produce finite
    // margins, so the only way to force a NaN score is a NaN *leaf* — build
    // the degenerate model directly.
    let tree = RegressionTree::from_nodes(vec![Node::Leaf {
        value: f64::NAN,
        cover: 1.0,
    }]);
    let nan_model = GbdtModel::from_parts(
        GbdtParams::default(),
        0.0,
        vec![tree],
        vec!["a".into(), "b".into()],
    );
    let server = ScoreServer::start(ServedModel::from_model(nan_model), ServeConfig::default())
        .expect("bind loopback");
    let mut client = FramedClient::connect(server.addr());
    for output in ["", "?output=margin"] {
        client.send_score(output, &csv(3), false);
        let response = client.read_response().expect("response");
        assert_eq!(response.status, 200, "{}", response.body);
        // The whole body must parse strictly — this is the assertion that
        // fails with `"scores":[NaN,NaN,…]` on the wire.
        assert_strict_json(&response.body);
        let scores = response.scores();
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|s| s.is_nan()), "{}", response.body);
        assert!(response.body.contains("\"scores\":[null,null,null,null]"));
    }
    server.shutdown();
}

/// A peer that vanishes mid-connection is a reset, not a request timeout:
/// counted in `peer_resets`, never answered with a 408.
#[test]
fn peer_resets_are_counted_separately_from_timeouts() {
    let (server, _) = start(ServeConfig::default());
    {
        let mut client = FramedClient::connect(server.addr());
        // A completed keep-alive exchange, then the client drops the socket
        // without ever reading: closing with the response sitting unread in
        // the receive buffer turns the close into an RST, which the
        // server's next (idle) read sees as a connection reset. The sleep
        // guarantees the response has landed client-side before the close.
        client.send_score("", &csv(0), false);
        std::thread::sleep(Duration::from_millis(300));
        // Dropped here with the response unread.
    }
    // The reset needs a moment to surface in the server's idle read.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.peer_resets >= 1 {
            assert_eq!(stats.idle_closes, 0, "a reset is not an idle close");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "peer reset never counted: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// Oversized headers are refused with a readable 431 and the connection is
/// closed — framing past an un-parsed header block cannot be trusted.
#[test]
fn oversized_headers_get_431_then_close() {
    let (server, _) = start(ServeConfig::default());
    let mut client = FramedClient::connect(server.addr());
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Padding: {}\r\n\r\n",
        "p".repeat(32 << 10)
    );
    client.send(&huge);
    client.finish_writes();
    let response = client.read_response().expect("431 response");
    assert_eq!(response.status, 431);
    assert_strict_json(&response.body);
    assert!(
        response.body.contains("headers too large"),
        "{}",
        response.body
    );
    assert_eq!(response.header("connection"), Some("close"));
    client.expect_clean_close();
    server.shutdown();
}
