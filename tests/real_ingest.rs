//! Fixture-backed ingest end to end: the committed `bdc_sample` directory
//! must drive the *generic* streaming runner to a pinned golden dataset
//! fingerprint under every worker schedule, and every malformed input must
//! surface as its typed error.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use red_is_sus::bdc::{ClaimKey, DiffMode, WorldSource};
use red_is_sus::core::features::{dataset_fingerprint, FeatureConfig};
use red_is_sus::core::labels::{observations_fingerprint, LabelingOptions};
use red_is_sus::core::streaming::run_streaming_to_dataset_with;
use red_is_sus::ingest::{AvailabilityReader, FileWorld, IngestError, IngestOptions, OoklaReader};
use red_is_sus::obs::Telemetry;

/// Golden fingerprints of the fixture dataset. Regenerating the fixture
/// (`cargo run --example gen_bdc_fixture`) must reproduce these; any change
/// to the readers, the release diff, the labeling or the feature pipeline
/// that moves them is a behavioural change and must be deliberate.
const GOLDEN_OBSERVATIONS: u64 = 10629759234477136134;
const GOLDEN_DATASET: u64 = 8071669609367832769;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bdc_sample")
}

fn load(options: &IngestOptions) -> FileWorld {
    FileWorld::load(&fixture_dir(), options).unwrap_or_else(|e| panic!("fixture must load: {e}"))
}

#[test]
fn fixture_dataset_fingerprint_is_pinned_on_every_schedule() {
    for mode in [
        DiffMode::Sequential,
        DiffMode::Parallel,
        DiffMode::Threads(3),
    ] {
        let world = load(&IngestOptions::default());
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
    let Err(err) = FileWorld::load(&missing, &IngestOptions::default()) else {
        panic!("a nonexistent directory must fail to load");
    };
    assert!(matches!(err, IngestError::Io { .. }), "{err}");

    // MissingData: a bdc directory with no release subdirectories.
    let empty = std::env::temp_dir().join(format!("redsus_empty_bdc_{}", std::process::id()));
    std::fs::create_dir_all(empty.join("bdc")).expect("create temp bdc dir");
    let Err(err) = FileWorld::load(&empty, &IngestOptions::default()) else {
        panic!("an empty bdc directory must fail discovery");
    };
    let _ = std::fs::remove_dir_all(&empty);
    assert!(matches!(err, IngestError::MissingData { .. }), "{err}");

    // BudgetExceeded: the fixture's ~300 rows cannot fit 10 resident entries.
    let options = IngestOptions {
        max_resident_entries: Some(10),
    };
    let Err(err) = FileWorld::load(&fixture_dir(), &options) else {
        panic!("a 10-entry budget must breach");
    };
    assert!(matches!(err, IngestError::BudgetExceeded { .. }), "{err}");
    assert!(err
        .to_string()
        .contains("exceeded the resident-entry budget"));
}

/// Every claim key in a release directory's availability files.
fn release_keys(dir: &Path) -> BTreeSet<ClaimKey> {
    let mut keys = BTreeSet::new();
    for entry in fs::read_dir(dir).expect("release directory") {
        let mut reader = AvailabilityReader::open(&entry.expect("dir entry").path())
            .unwrap_or_else(|e| panic!("fixture file: {e}"));
        while let Some(row) = reader.next_record().expect("fixture row") {
            keys.insert(row.record.claim_key());
        }
    }
    keys
}

/// Removes a temporary data directory when the test ends, pass or fail.
struct TempData(PathBuf);

impl Drop for TempData {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn file_evidence_is_initial_minus_latest_across_three_releases() {
    // Release 1 is the fixture's first release. Release 2 drops its claims A
    // and B and adds a claim D; release 3 restores A, keeps B dropped, drops
    // D again and adds a claim C. Restored, transient and new claims are not
    // evidence: only B, what release 1 has and release 3 lacks.
    let tmp = TempData(std::env::temp_dir().join(format!("redsus_three_{}", std::process::id())));
    let _ = fs::remove_dir_all(&tmp.0);
    let first = fixture_dir().join("bdc/2023-06-30");
    let edited = "bdc_NE_50_fixed_broadband.csv";
    let text = fs::read_to_string(first.join(edited)).expect("fixture file");
    let rows: Vec<&str> = text.lines().collect();
    let (header, a, b) = (rows[0], rows[1], rows[2]);
    // A copy of claim A's row at a location no fixture release claims.
    let relocated = |location: &str| {
        let mut fields: Vec<&str> = a.split(',').collect();
        fields[3] = location;
        fields.join(",")
    };
    let (c, d) = (relocated("900001"), relocated("900002"));
    let keep = |dropped: &[&str], added: String| {
        let kept = rows[1..].iter().filter(|r| !dropped.contains(r));
        kept.map(|r| r.to_string())
            .chain([added])
            .collect::<Vec<_>>()
    };
    let (release_2, release_3) = (keep(&[a, b], d), keep(&[b], c));
    for (date, edit) in [
        ("2023-06-30", None),
        ("2023-12-31", Some(release_2)),
        ("2024-06-30", Some(release_3)),
    ] {
        let dir = tmp.0.join("bdc").join(date);
        fs::create_dir_all(&dir).expect("release directory");
        for entry in fs::read_dir(&first).expect("fixture release") {
            let path = entry.expect("dir entry").path();
            fs::copy(&path, dir.join(path.file_name().unwrap())).expect("copy fixture file");
        }
        if let Some(rows) = edit {
            fs::write(dir.join(edited), format!("{header}\n{}\n", rows.join("\n")))
                .expect("write edited release");
        }
    }
    let ookla = tmp.0.join("ookla");
    fs::create_dir_all(&ookla).expect("ookla directory");
    let tiles = "tiles_2023q3.csv";
    fs::copy(fixture_dir().join("ookla").join(tiles), ookla.join(tiles)).expect("copy tiles");

    let world = FileWorld::load(&tmp.0, &IngestOptions::default())
        .unwrap_or_else(|e| panic!("three-release directory must load: {e}"));
    let bdc = tmp.0.join("bdc");
    let initial_minus_latest: Vec<ClaimKey> = release_keys(&bdc.join("2023-06-30"))
        .difference(&release_keys(&bdc.join("2024-06-30")))
        .copied()
        .collect();
    let evidence: Vec<ClaimKey> = world
        .removal_evidence()
        .iter()
        .map(|c| c.claim_key())
        .collect();
    assert_eq!(evidence, initial_minus_latest);
    let mut reader = AvailabilityReader::open(&first.join(edited)).expect("fixture file");
    reader.next_record().expect("claim A");
    let claim_b = reader.next_record().expect("claim B").expect("claim B");
    assert_eq!(evidence, [claim_b.record.claim_key()]);
}
