//! `redsus-score`: the serving CLI.
//!
//! ```text
//! redsus-score inspect <model.rsm>
//! redsus-score score   <model.rsm> <features.csv> [--margin] [--workers N]
//! redsus-score serve   [<model.rsm>] [--addr HOST:PORT] [--workers N]
//!                      [--watch-dir DIR] [--poll-ms N] [--trace-out FILE]
//! ```
//!
//! `score` loads an artifact, aligns the CSV's columns onto the model schema
//! by name, shards the rows across workers (bit-identical for any worker
//! count), and prints one score per row to stdout. `serve` exposes the same
//! scorer over the keep-alive HTTP endpoint; with `--watch-dir` it polls a
//! directory of `.rsm` artifacts and hot-reloads new, changed or deleted
//! model versions into the running server without dropping in-flight
//! traffic (the newest artifact is the default version; older ones stay
//! addressable via `POST /score?model=<fingerprint>` until retired).
//! `inspect` prints the artifact's embedded schema without scoring
//! anything.
//!
//! `serve` always exposes `GET /metrics` (Prometheus text) and `GET /stats`
//! (JSON); `--trace-out FILE` additionally appends one JSONL trace event
//! per request to FILE.

use std::process::ExitCode;
use std::sync::Arc;

use redsus_serve::{
    DirWatcher, FeatureFrame, ModelRegistry, ScoreMode, ScoreOutput, ScoreServer, ServeConfig,
    ServedModel,
};

const USAGE: &str = "usage:
  redsus-score inspect <model.rsm>
  redsus-score score   <model.rsm> <features.csv> [--margin] [--workers N]
  redsus-score serve   [<model.rsm>] [--addr HOST:PORT] [--workers N] [--watch-dir DIR] [--poll-ms N] [--trace-out FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("redsus-score: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or(USAGE)?;
    match command.as_str() {
        "inspect" => inspect(args.get(1).ok_or(USAGE)?),
        "score" => score(&args[1..]),
        "serve" => serve(&args[1..]),
        _ => Err(USAGE.to_string()),
    }
}

fn load(path: &str) -> Result<ServedModel, String> {
    ServedModel::load(path).map_err(|e| format!("loading {path}: {e}"))
}

fn inspect(path: &str) -> Result<(), String> {
    let served = load(path)?;
    let forest = served.forest();
    println!("artifact     {path}");
    println!("fingerprint  {}", served.fingerprint_hex());
    println!("trees        {}", forest.n_trees());
    println!("nodes        {}", forest.n_nodes());
    println!("base margin  {}", forest.base_margin());
    println!("features     {}", forest.n_features());
    for name in forest.feature_names() {
        println!("  {name}");
    }
    Ok(())
}

/// Parse `[--flag]`-style options shared by `score` and `serve`.
struct Options {
    margin: bool,
    workers: Option<usize>,
    addr: String,
    watch_dir: Option<String>,
    poll_ms: u64,
    trace_out: Option<String>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        margin: false,
        workers: None,
        addr: "127.0.0.1:8080".to_string(),
        watch_dir: None,
        poll_ms: 2000,
        trace_out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--margin" => options.margin = true,
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                options.workers = Some(v.parse().map_err(|_| format!("bad worker count {v:?}"))?);
            }
            "--addr" => options.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--watch-dir" => {
                options.watch_dir = Some(it.next().ok_or("--watch-dir needs a value")?.clone());
            }
            "--poll-ms" => {
                let v = it.next().ok_or("--poll-ms needs a value")?;
                options.poll_ms = v
                    .parse()
                    .map_err(|_| format!("bad poll interval {v:?} (milliseconds)"))?;
            }
            "--trace-out" => {
                options.trace_out = Some(it.next().ok_or("--trace-out needs a value")?.clone());
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => options.positional.push(other.to_string()),
        }
    }
    Ok(options)
}

fn score(args: &[String]) -> Result<(), String> {
    let options = parse_options(args)?;
    let [model_path, matrix_path] = options.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let served = load(model_path)?;
    let text =
        std::fs::read_to_string(matrix_path).map_err(|e| format!("reading {matrix_path}: {e}"))?;
    let frame = FeatureFrame::parse_csv(&text).map_err(|e| format!("{matrix_path}: {e}"))?;
    let aligned = frame.align(served.forest());
    if !aligned.missing_features.is_empty() {
        eprintln!(
            "note: {} model feature(s) absent from the input (scored as missing): {}",
            aligned.missing_features.len(),
            aligned.missing_features.join(", ")
        );
    }
    if !aligned.ignored_columns.is_empty() {
        eprintln!(
            "note: ignoring {} column(s) unknown to the model: {}",
            aligned.ignored_columns.len(),
            aligned.ignored_columns.join(", ")
        );
    }
    let output = if options.margin {
        ScoreOutput::Margin
    } else {
        ScoreOutput::Probability
    };
    let mode = match options.workers {
        Some(n) => ScoreMode::Threads(n),
        None => ScoreMode::Parallel,
    };
    let scores = redsus_serve::score_rows(served.forest(), &aligned.data, output, mode);
    let mut out = String::with_capacity(scores.len() * 20);
    for s in &scores {
        use std::fmt::Write as _;
        let _ = writeln!(out, "{s}");
    }
    print!("{out}");
    eprintln!(
        "scored {} row(s) with model {}",
        scores.len(),
        served.fingerprint_hex()
    );
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let options = parse_options(args)?;
    if options.margin {
        return Err(
            "--margin is a score option; clients select it per request with POST /score?output=margin"
                .to_string(),
        );
    }
    let registry = Arc::new(ModelRegistry::new());
    match options.positional.as_slice() {
        [] if options.watch_dir.is_some() => {}
        [model_path] => {
            registry.publish(load(model_path)?);
        }
        _ => return Err(USAGE.to_string()),
    }

    // With --watch-dir, the first scan runs before the server binds so a
    // populated directory serves from request one.
    let mut watcher = options
        .watch_dir
        .as_ref()
        .map(|dir| DirWatcher::new(Arc::clone(&registry), dir.clone()));
    if let Some(watcher) = watcher.as_mut() {
        report_scan(&watcher.scan());
    }
    if registry.is_empty() {
        match &options.watch_dir {
            Some(dir) => eprintln!(
                "note: no artifact loaded yet from {dir}; /score answers 503 until one appears"
            ),
            None => return Err(USAGE.to_string()),
        }
    }

    let config = ServeConfig {
        workers: options.workers.unwrap_or(2),
        ..ServeConfig::default()
    };
    let mut telemetry = obs::Telemetry::with_metrics(Arc::new(obs::MetricsRegistry::new()));
    if let Some(path) = &options.trace_out {
        let sink = obs::TraceSink::to_path(std::path::Path::new(path))
            .map_err(|e| format!("opening trace file {path}: {e}"))?;
        telemetry = telemetry.with_trace(Arc::new(sink));
        println!("tracing requests to {path} (JSONL)");
    }
    let server = ScoreServer::bind(&options.addr, Arc::clone(&registry), config, &telemetry)
        .map_err(|e| format!("binding {}: {e}", options.addr))?;
    match registry.default_fingerprint() {
        Some(fp) => println!(
            "serving {} model version(s), default {fp:#018x}, at {} ({} workers); Ctrl-C to stop",
            registry.len(),
            server.url(),
            config.workers
        ),
        None => println!(
            "serving (no model yet) at {} ({} workers); Ctrl-C to stop",
            server.url(),
            config.workers
        ),
    }

    match watcher {
        // Hot-reload loop: poll the directory forever; publishes swap the
        // default version atomically while in-flight requests drain on the
        // version they started with.
        Some(mut watcher) => loop {
            std::thread::sleep(std::time::Duration::from_millis(options.poll_ms.max(10)));
            report_scan(&watcher.scan());
        },
        // Block forever; the process-level Ctrl-C tears the threads down.
        None => loop {
            std::thread::park();
        },
    }
}

/// Print what a watch-dir scan changed (silent when nothing did).
fn report_scan(report: &redsus_serve::ScanReport) {
    for (path, fingerprint) in &report.loaded {
        println!("loaded {fingerprint:#018x} from {}", path.display());
    }
    for fingerprint in &report.retired {
        println!("retired {fingerprint:#018x} (artifact deleted)");
    }
    for (path, error) in &report.errors {
        eprintln!("warning: {}: {error}", path.display());
    }
}
