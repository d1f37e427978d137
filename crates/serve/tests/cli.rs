//! End-to-end tests of the `redsus-score` binary itself: train → write an
//! artifact → drive the CLI with `std::process::Command` (cargo builds the
//! bin and exposes its path via `CARGO_BIN_EXE_*`). Everything runs against
//! temp files; nothing touches the network.

use std::process::Command;

use ml::{Dataset, FlatForest, GbdtModel, GbdtParams};
use redsus_serve::{score_rows, write_artifact, ScoreMode, ScoreOutput};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_redsus-score")
}

fn trained_model() -> (GbdtModel, Dataset) {
    let mut d = Dataset::new(vec!["down".into(), "up".into()]);
    for i in 0..80 {
        let x = i as f32 / 80.0;
        d.push_row(&[x * 900.0, x * 40.0], if x > 0.5 { 1.0 } else { 0.0 });
    }
    let model = GbdtModel::fit(
        &d,
        GbdtParams {
            n_estimators: 5,
            max_depth: 3,
            ..GbdtParams::default()
        },
    );
    (model, d)
}

struct TempFiles {
    dir: std::path::PathBuf,
}

impl TempFiles {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("redsus_cli_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        Self { dir }
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn inspect_prints_the_schema_and_fingerprint() {
    let tmp = TempFiles::new("inspect");
    let (model, _) = trained_model();
    let artifact = tmp.dir.join("model.rsm");
    let fp = write_artifact(&artifact, &model).expect("write artifact");

    let output = Command::new(exe())
        .args(["inspect", artifact.to_str().unwrap()])
        .output()
        .expect("run redsus-score");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains(&format!("{fp:#018x}")), "{stdout}");
    assert!(stdout.contains("down"), "{stdout}");
    assert!(stdout.contains("up"), "{stdout}");
}

#[test]
fn score_writes_one_score_per_row_bit_identically() {
    let tmp = TempFiles::new("score");
    let (model, data) = trained_model();
    let artifact = tmp.dir.join("model.rsm");
    write_artifact(&artifact, &model).expect("write artifact");
    // Columns deliberately permuted: the CLI must align by name.
    let matrix = tmp.dir.join("rows.csv");
    let mut csv = String::from("up,down\n");
    for r in 0..10 {
        let row = data.row(r);
        csv.push_str(&format!("{},{}\n", row[1], row[0]));
    }
    std::fs::write(&matrix, csv).expect("write csv");

    let rows = &data.data()[..10 * data.n_features()];
    let forest = FlatForest::from_model(&model);
    for (flags, kind) in [
        (vec![], ScoreOutput::Probability),
        (vec!["--margin", "--workers", "3"], ScoreOutput::Margin),
    ] {
        let output = Command::new(exe())
            .arg("score")
            .arg(&artifact)
            .arg(&matrix)
            .args(&flags)
            .output()
            .expect("run redsus-score");
        assert!(output.status.success(), "{output:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let scores: Vec<f64> = stdout
            .lines()
            .map(|l| l.parse().expect("score line"))
            .collect();
        assert_eq!(scores.len(), 10);
        let expected = score_rows(&forest, rows, kind, ScoreMode::Sequential);
        for (r, (score, expected)) in scores.iter().zip(&expected).enumerate() {
            assert_eq!(
                score.to_bits(),
                expected.to_bits(),
                "row {r} drifted through the CLI ({kind:?})"
            );
        }
    }
}

#[test]
fn bad_invocations_fail_with_a_message_not_a_panic() {
    let tmp = TempFiles::new("errors");
    // No arguments: usage on stderr, non-zero exit.
    let output = Command::new(exe()).output().expect("run");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));

    // A file that is not an artifact: the typed decode error surfaces.
    let bogus = tmp.dir.join("bogus.rsm");
    std::fs::write(&bogus, b"definitely not a model").unwrap();
    let output = Command::new(exe())
        .args(["inspect", bogus.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("bad magic") || stderr.contains("truncated"),
        "{stderr}"
    );
}
