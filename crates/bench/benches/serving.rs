//! Criterion benches of the serving subsystem: artifact encode/decode/load,
//! flattened vs recursive traversal, the batch scorer's worker sweep, and a
//! closed-loop HTTP load generator driving a live loopback server.
//!
//! Alongside wall-clock, the bench reports rows/sec throughput metrics for
//! the recursive and flattened paths — the number that matters for a
//! scoring service — plus the artifact's size on the wire, and end-to-end
//! p50/p99 request latency for keep-alive vs close-per-request connection
//! lifecycles under concurrent clients.
//!
//! Regenerate the committed report with (from the workspace root; the path
//! must be absolute because cargo runs the bench binary with `crates/bench`
//! as its working directory):
//!
//! ```sh
//! BENCH_JSON=$PWD/BENCH_serve.json cargo bench -p redsus_bench --bench serving
//! ```

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, report_metric, Criterion};
use ml::FlatForest;
use redsus_bench::bench_suite;
use redsus_serve::{
    decode_model, encode_model, score_dataset, ModelRegistry, ScoreMode, ScoreOutput, ScoreServer,
    ServeConfig, ServedModel, Telemetry,
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

    bench_load_generator(model.clone(), data);
}

// ---------------------------------------------------------------------------
// Closed-loop HTTP load generator

/// Clients driving the server concurrently, each issuing its next request
/// the moment the previous response lands.
const LOAD_CLIENTS: usize = 4;
/// Requests each client issues per lifecycle mode.
const LOAD_REQUESTS: usize = 150;
/// Rows per `/score` request body.
const LOAD_ROWS: usize = 64;

/// Read one `Content-Length`-framed response off a keep-alive connection,
/// returning the bytes consumed (the connection stays usable).
fn read_framed_response(stream: &mut TcpStream, buf: &mut Vec<u8>) {
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).expect("UTF-8 head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .expect("Content-Length header")
        .parse()
        .expect("numeric Content-Length");
    let total = header_end + 4 + content_length;
    while buf.len() < total {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "server closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    buf.drain(..total);
}

/// One client's closed loop: `LOAD_REQUESTS` scoring requests, reusing the
/// connection (`keep_alive`) or reconnecting per request. Returns per-request
/// latencies.
fn client_loop(addr: std::net::SocketAddr, request: &str, keep_alive: bool) -> Vec<Duration> {
    let mut latencies = Vec::with_capacity(LOAD_REQUESTS);
    let mut conn: Option<(TcpStream, Vec<u8>)> = None;
    for _ in 0..LOAD_REQUESTS {
        let start = Instant::now();
        if keep_alive {
            let (stream, buf) = conn.get_or_insert_with(|| {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                (stream, Vec::new())
            });
            stream.write_all(request.as_bytes()).expect("send request");
            read_framed_response(stream, buf);
        } else {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            stream.write_all(request.as_bytes()).expect("send request");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read response");
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        }
        latencies.push(start.elapsed());
    }
    latencies
}

/// Nearest-rank percentile in microseconds over a sorted latency set.
fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}

/// Drive a live loopback server with concurrent closed-loop clients, once
/// per connection lifecycle, and publish p50/p99 latency and end-to-end
/// throughput for each. The keep-alive vs close gap is the cost of a
/// connect + TCP slow start per request — the number this PR's connection
/// reuse buys back.
fn bench_load_generator(model: ml::GbdtModel, data: &ml::Dataset) {
    let mut body = data.feature_names().join(",");
    body.push('\n');
    for r in 0..LOAD_ROWS.min(data.n_rows()) {
        let cells: Vec<String> = data.row(r).iter().map(|v| format!("{v}")).collect();
        body.push_str(&cells.join(","));
        body.push('\n');
    }
    let n_rows = LOAD_ROWS.min(data.n_rows());

    for keep_alive in [true, false] {
        let server = ScoreServer::start(
            ServedModel::from_model(model.clone()),
            ServeConfig {
                workers: LOAD_CLIENTS,
                ..ServeConfig::default()
            },
        )
        .expect("bind loopback");
        let connection = if keep_alive {
            ""
        } else {
            "Connection: close\r\n"
        };
        let request = format!(
            "POST /score HTTP/1.1\r\nHost: localhost\r\n{connection}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );

        let started = Instant::now();
        let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..LOAD_CLIENTS)
                .map(|_| {
                    let request = &request;
                    let addr = server.addr();
                    scope.spawn(move || client_loop(addr, request, keep_alive))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        latencies.sort();

        let stats = server.shutdown();
        let total_requests = (LOAD_CLIENTS * LOAD_REQUESTS) as u64;
        assert_eq!(stats.requests, total_requests);
        assert_eq!(
            stats.connections,
            if keep_alive {
                LOAD_CLIENTS as u64
            } else {
                total_requests
            },
            "connection lifecycle did not behave as configured"
        );

        let mode = if keep_alive { "keepalive" } else { "close" };
        report_metric(
            format!("serving_load/{mode}_p50_us"),
            percentile_us(&latencies, 50.0),
            "us",
        );
        report_metric(
            format!("serving_load/{mode}_p99_us"),
            percentile_us(&latencies, 99.0),
            "us",
        );
        report_metric(
            format!("serving_load/{mode}_rows_per_sec"),
            (total_requests as f64 * n_rows as f64) / elapsed,
            "rows/s",
        );
        report_metric(
            format!("serving_load/{mode}_connections"),
            stats.connections as f64,
            "connections",
        );
    }
    report_metric("serving_load/clients", LOAD_CLIENTS as f64, "clients");
    report_metric(
        "serving_load/requests_per_client",
        LOAD_REQUESTS as f64,
        "requests",
    );
    report_metric("serving_load/rows_per_request", n_rows as f64, "rows");

    bench_instrumentation_overhead(&model, &body, n_rows);
}

/// The telemetry overhead guard: the same keep-alive closed loop with the
/// metrics registry attached (`ScoreServer::start` — every request observes
/// a latency histogram and bumps per-route series) vs noop instruments
/// (`ScoreServer::bind` with `Telemetry::disabled()`). Published, not
/// asserted: the target is <2% overhead, but a small CI container is too
/// noisy for a hard gate, so the number lands in BENCH_serve.json where
/// drift is visible in review.
fn bench_instrumentation_overhead(model: &ml::GbdtModel, body: &str, n_rows: usize) {
    let request = format!(
        "POST /score HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let total_requests = (LOAD_CLIENTS * LOAD_REQUESTS) as u64;
    let mut rows_per_sec = [0f64; 2];
    // Uninstrumented first, instrumented second — adjacent runs on a warm
    // process so the pair is as comparable as the host allows.
    for (i, metrics) in [false, true].into_iter().enumerate() {
        let served = ServedModel::from_model(model.clone());
        let config = ServeConfig {
            workers: LOAD_CLIENTS,
            ..ServeConfig::default()
        };
        let server = if metrics {
            ScoreServer::start(served, config)
        } else {
            let registry = Arc::new(ModelRegistry::with_model(served));
            ScoreServer::bind("127.0.0.1:0", registry, config, &Telemetry::disabled())
        }
        .expect("bind loopback");
        assert_eq!(server.metrics_registry().is_some(), metrics);

        let started = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..LOAD_CLIENTS)
                .map(|_| {
                    let request = &request;
                    let addr = server.addr();
                    scope.spawn(move || client_loop(addr, request, true))
                })
                .collect();
            for h in handles {
                h.join().expect("client thread");
            }
        });
        let elapsed = started.elapsed().as_secs_f64();
        let stats = server.shutdown();
        assert_eq!(stats.requests, total_requests);
        rows_per_sec[i] = (total_requests as f64 * n_rows as f64) / elapsed;
    }
    let [uninstrumented, instrumented] = rows_per_sec;
    report_metric(
        "serving_load/uninstrumented_rows_per_sec",
        uninstrumented,
        "rows/s",
    );
    report_metric(
        "serving_load/instrumented_rows_per_sec",
        instrumented,
        "rows/s",
    );
    report_metric(
        "serving_load/instrumentation_overhead_pct",
        (uninstrumented / instrumented - 1.0) * 100.0,
        "%",
    );
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
