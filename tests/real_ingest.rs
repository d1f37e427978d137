//! Fixture-backed ingest end to end: the committed `bdc_sample` directory
//! must drive the *generic* streaming runner to a pinned golden dataset
//! fingerprint under every worker schedule, and every malformed input must
//! surface as its typed error.

use std::path::PathBuf;

use red_is_sus::bdc::DiffMode;
use red_is_sus::core::features::{dataset_fingerprint, FeatureConfig};
use red_is_sus::core::labels::{observations_fingerprint, LabelingOptions};
use red_is_sus::core::streaming::run_streaming_to_dataset_with;
use red_is_sus::ingest::{AvailabilityReader, FileWorld, IngestError, IngestOptions, OoklaReader};
use red_is_sus::obs::Telemetry;

/// Golden fingerprints of the fixture dataset. Regenerating the fixture
/// (`cargo run --example gen_bdc_fixture`) must reproduce these; any change
/// to the readers, the diff engine, the labeling or the feature pipeline
/// that moves them is a behavioural change and must be deliberate.
const GOLDEN_OBSERVATIONS: u64 = 10629759234477136134;
const GOLDEN_DATASET: u64 = 8071669609367832769;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bdc_sample")
}

fn load(options: &IngestOptions, mode: DiffMode) -> FileWorld {
    FileWorld::load(&fixture_dir(), options, mode)
        .unwrap_or_else(|e| panic!("fixture must load: {e}"))
}

#[test]
fn fixture_dataset_fingerprint_is_pinned_on_every_schedule() {
    for mode in [
        DiffMode::Sequential,
        DiffMode::Parallel,
        DiffMode::Threads(3),
    ] {
        let world = load(&IngestOptions::default(), mode);
        let run = run_streaming_to_dataset_with(
            world,
            &LabelingOptions::default(),
            &FeatureConfig::default(),
            mode,
            &Telemetry::disabled(),
        )
        .unwrap_or_else(|e| panic!("fixture run under {mode:?}: {e}"));
        assert_eq!(
            observations_fingerprint(&run.matrix.observations),
            GOLDEN_OBSERVATIONS,
            "observations fingerprint drifted under {mode:?}"
        );
        assert_eq!(
            dataset_fingerprint(&run.matrix.dataset),
            GOLDEN_DATASET,
            "dataset fingerprint drifted under {mode:?}"
        );
        // The report stitches the ingest half in front of the runner half.
        assert!(run.report.stage("availability_ingest").is_some());
        assert!(run.report.stage("feature_engineering").is_some());
        assert!(run.matrix.dataset.n_rows() > 0);
    }
}

/// Drain one negative availability fixture to its typed error.
fn availability_err(name: &str) -> IngestError {
    let path = fixture_dir().join("negative").join(name);
    let mut reader = match AvailabilityReader::open(&path) {
        Err(e) => return e,
        Ok(r) => r,
    };
    loop {
        match reader.next_record() {
            Err(e) => return e,
            Ok(Some(_)) => {}
            Ok(None) => panic!("{name} parsed cleanly but must fail"),
        }
    }
}

fn ookla_err(name: &str) -> IngestError {
    let path = fixture_dir().join("negative").join(name);
    let mut reader = match OoklaReader::open(&path) {
        Err(e) => return e,
        Ok(r) => r,
    };
    loop {
        match reader.next_record() {
            Err(e) => return e,
            Ok(Some(_)) => {}
            Ok(None) => panic!("{name} parsed cleanly but must fail"),
        }
    }
}

#[test]
fn every_negative_fixture_hits_its_typed_error() {
    assert!(matches!(
        availability_err("availability_truncated_row.csv"),
        IngestError::TruncatedRow {
            expected: 12,
            found: 11,
            ..
        }
    ));
    assert!(matches!(
        availability_err("availability_shuffled_header.csv"),
        IngestError::ReorderedColumns { .. }
    ));
    assert!(matches!(
        availability_err("availability_nan_speed.csv"),
        IngestError::NonFiniteSpeed { column, .. }
            if column == "max_advertised_download_speed"
    ));
    assert!(matches!(
        availability_err("availability_bad_tech.csv"),
        IngestError::BadTechCode { code, .. } if code == "99"
    ));
    assert!(matches!(
        availability_err("availability_duplicate_column.csv"),
        IngestError::DuplicateColumn { column, .. } if column == "frn"
    ));
    assert!(matches!(
        availability_err("availability_missing_column.csv"),
        IngestError::MissingColumn { column, .. } if column == "h3_res8_id"
    ));
    assert!(matches!(
        availability_err("availability_unknown_column.csv"),
        IngestError::UnknownColumn { column, .. } if column == "notes"
    ));
    assert!(matches!(
        availability_err("availability_bad_hex.csv"),
        IngestError::BadField { column, .. } if column == "h3_res8_id"
    ));
    assert!(matches!(
        ookla_err("ookla_bad_quadkey.csv"),
        IngestError::BadField { column, .. } if column == "quadkey"
    ));
    assert!(matches!(
        ookla_err("ookla_inf_speed.csv"),
        IngestError::NonFiniteSpeed { column, .. } if column == "avg_d_kbps"
    ));
}

#[test]
fn io_missing_data_and_budget_errors_are_typed() {
    // Io: the directory does not exist at all.
    let missing = fixture_dir().join("does_not_exist");
    let Err(err) = FileWorld::load(&missing, &IngestOptions::default(), DiffMode::Sequential)
    else {
        panic!("a nonexistent directory must fail to load");
    };
    assert!(matches!(err, IngestError::Io { .. }), "{err}");

    // MissingData: a bdc directory with no release subdirectories.
    let empty = std::env::temp_dir().join(format!("redsus_empty_bdc_{}", std::process::id()));
    std::fs::create_dir_all(empty.join("bdc")).expect("create temp bdc dir");
    let Err(err) = FileWorld::load(&empty, &IngestOptions::default(), DiffMode::Sequential) else {
        panic!("an empty bdc directory must fail discovery");
    };
    let _ = std::fs::remove_dir_all(&empty);
    assert!(matches!(err, IngestError::MissingData { .. }), "{err}");

    // BudgetExceeded: the fixture's ~300 rows cannot fit 10 resident entries.
    let options = IngestOptions {
        max_resident_entries: Some(10),
        ..IngestOptions::default()
    };
    let Err(err) = FileWorld::load(&fixture_dir(), &options, DiffMode::Sequential) else {
        panic!("a 10-entry budget must breach");
    };
    assert!(matches!(err, IngestError::BudgetExceeded { .. }), "{err}");
    assert!(err
        .to_string()
        .contains("exceeded the resident-entry budget"));
}
