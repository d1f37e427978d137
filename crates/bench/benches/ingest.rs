//! Criterion bench of the CSV ingest readers on a ~100×-scaled replica of
//! the committed `bdc_sample` fixture (~30k availability rows).
//!
//! The headline comparison: the scratch-buffer reader (`CsvRows`, one line
//! buffer + one bounds vector reused for every row) against the same reader
//! copying every row into a fresh `Vec<String>`. Both rows run the one
//! production splitter, so the delta is pure allocator traffic. Alongside
//! wall-clock, the bench reports rows/s for both (and for the full typed
//! availability parse on top of the scratch reader) as metrics.
//!
//! Regenerate the committed report with (from the workspace root; the path
//! must be absolute because cargo runs the bench binary with `crates/bench`
//! as its working directory):
//!
//! ```sh
//! BENCH_JSON=$PWD/BENCH_ingest.json cargo bench -p redsus_bench --bench ingest
//! ```

use criterion::{criterion_group, criterion_main, report_metric, Criterion};
use redsus_ingest::{AvailabilityReader, CsvRows};
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rows in the scaled file: the committed fixture holds ~300 availability
/// rows, so ~100× is 30k.
const ROWS: usize = 30_000;

/// Write the scaled availability file once; rows follow the exact fixture
/// schema (12 columns, valid tech codes, 16-hex-digit cell ids).
fn scaled_file() -> PathBuf {
    let path = std::env::temp_dir().join(format!("redsus_bench_ingest_{}.csv", std::process::id()));
    let file = std::fs::File::create(&path).expect("create scaled bench file");
    let mut w = std::io::BufWriter::new(file);
    writeln!(
        w,
        "frn,provider_id,brand_name,location_id,technology,\
         max_advertised_download_speed,max_advertised_upload_speed,low_latency,\
         business_residential_code,state_usps,block_geoid,h3_res8_id"
    )
    .unwrap();
    let hex =
        hexgrid::HexCell::containing(&geoprim::LatLng::new(41.25, -96.0), hexgrid::NBM_RESOLUTION);
    for i in 0..ROWS {
        let provider = 100 + (i % 3) as u32 * 100;
        let tech = if i % 2 == 0 { 50 } else { 72 };
        writeln!(
            w,
            "{},{provider},Provider {provider},{},{tech},1000.0,{}.0,1,X,NE,3105500010010{:02},{hex}",
            5_000_000 + provider as u64,
            1000 + i as u64,
            100 + i % 900,
            i % 100,
        )
        .unwrap();
    }
    w.flush().unwrap();
    path
}

/// Drain the scratch reader, touching every field.
fn drain_scratch(path: &Path) -> usize {
    let mut rows = CsvRows::open(path).expect("open");
    let mut n = 0usize;
    while let Some(fields) = rows.next_row().expect("row") {
        for i in 0..fields.len() {
            black_box(fields.get(i));
        }
        n += 1;
    }
    n
}

/// Drain the scratch reader into a fresh `Vec<String>` per row, touching
/// every field: the per-row-allocating baseline.
fn drain_alloc(path: &Path) -> usize {
    let mut rows = CsvRows::open(path).expect("open");
    let mut n = 0usize;
    while let Some(fields) = rows.next_row().expect("row") {
        let owned: Vec<String> = (0..fields.len())
            .map(|i| fields.get(i).to_string())
            .collect();
        for field in &owned {
            black_box(field.as_str());
        }
        n += 1;
    }
    n
}

/// Drain the full typed availability parse (header validation + per-field
/// parsing + claim-record construction) over the scratch reader.
fn drain_parsed(path: &Path) -> usize {
    let mut reader = AvailabilityReader::open(path).expect("open");
    let mut n = 0usize;
    while let Some(row) = reader.next_record().expect("row") {
        black_box(&row.record);
        n += 1;
    }
    n
}

/// Median-of-5 rows/s for one drain function.
fn rows_per_s(f: impl Fn() -> usize) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let n = f();
            n as f64 / started.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

fn bench_readers(c: &mut Criterion) {
    let path = scaled_file();

    let mut group = c.benchmark_group("ingest_csv_30k_rows");
    group.sample_size(10);
    group.bench_function("scratch_reader", |b| {
        b.iter(|| black_box(drain_scratch(&path)))
    });
    group.bench_function("alloc_reader", |b| b.iter(|| black_box(drain_alloc(&path))));
    group.bench_function("typed_availability_parse", |b| {
        b.iter(|| black_box(drain_parsed(&path)))
    });
    group.finish();

    // Headline metrics: rows/s with and without the scratch buffers.
    assert_eq!(drain_scratch(&path), ROWS + 1); // header counts as a row here
    let scratch = rows_per_s(|| drain_scratch(&path));
    let alloc = rows_per_s(|| drain_alloc(&path));
    let parsed = rows_per_s(|| drain_parsed(&path));
    report_metric("ingest/rows", ROWS as f64, "rows");
    report_metric("ingest/scratch_rows_per_s", scratch, "rows/s");
    report_metric("ingest/alloc_rows_per_s", alloc, "rows/s");
    report_metric("ingest/scratch_over_alloc", scratch / alloc, "x");
    report_metric("ingest/typed_parse_rows_per_s", parsed, "rows/s");

    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_readers);
criterion_main!(benches);
