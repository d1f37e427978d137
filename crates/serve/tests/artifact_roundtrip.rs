//! Seeded-loop property tests of the artifact format: random models survive
//! serialize → deserialize with bit-identical predictions, and malformed
//! bytes come back as typed errors — never panics.

use ml::{Dataset, FlatForest, GbdtModel, GbdtParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redsus_serve::{
    decode_model, encode_model, model_fingerprint, score_rows, ArtifactError, ScoreMode,
    ScoreOutput, ServedModel, ARTIFACT_MAGIC,
};

fn random_model(seed: u64) -> (GbdtModel, Dataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_features = rng.gen_range(1..8usize);
    let names: Vec<String> = (0..n_features).map(|f| format!("feat_{f}")).collect();
    let mut d = Dataset::new(names);
    let n_rows = rng.gen_range(40..250usize);
    for _ in 0..n_rows {
        let row: Vec<f32> = (0..n_features)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.08 {
                    f32::NAN
                } else {
                    rng.gen_range(-3.0..3.0)
                }
            })
            .collect();
        let signal = row.iter().find(|v| !v.is_nan()).copied().unwrap_or(0.0);
        d.push_row(&row, if signal > 0.0 { 1.0 } else { 0.0 });
    }
    let params = GbdtParams {
        n_estimators: rng.gen_range(1..20usize),
        max_depth: rng.gen_range(0..5usize),
        learning_rate: rng.gen_range(0.05..0.5),
        subsample: rng.gen_range(0.5..1.0),
        colsample_bytree: rng.gen_range(0.5..1.0),
        max_bins: rng.gen_range(4..64usize),
        seed,
        early_stopping_rounds: if rng.gen_range(0.0..1.0) < 0.3 {
            Some(rng.gen_range(1..10usize))
        } else {
            None
        },
        ..GbdtParams::default()
    };
    (GbdtModel::fit(&d, params), d)
}

/// Round trip is lossless: decoded models score bit-identical margins on
/// every training row and on all-missing rows, and the artifact
/// fingerprint is stable.
#[test]
fn random_models_round_trip_bit_identically() {
    for seed in 0..10u64 {
        let (model, data) = random_model(0xa57e_fac7 + seed);
        let bytes = encode_model(&model);
        let decoded =
            decode_model(&bytes).unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e}"));
        assert_eq!(decoded.fingerprint, model_fingerprint(&model));
        assert_eq!(decoded.model.params().seed, model.params().seed);
        assert_eq!(
            decoded.model.params().early_stopping_rounds,
            model.params().early_stopping_rounds
        );
        assert_eq!(decoded.model.feature_names(), model.feature_names());

        let margins = |model: &GbdtModel, rows: &[f32]| -> Vec<u64> {
            let forest = FlatForest::from_model(model);
            score_rows(&forest, rows, ScoreOutput::Margin, ScoreMode::Sequential)
                .iter()
                .map(|m| m.to_bits())
                .collect()
        };
        let missing = vec![f32::NAN; data.n_features()];
        for rows in [data.data(), &missing] {
            assert_eq!(
                margins(&decoded.model, rows),
                margins(&model, rows),
                "seed {seed}: margin drift after round trip"
            );
        }

        // Canonical: encoding is a pure function of the model, so encode ∘
        // decode ∘ encode is the identity on bytes.
        assert_eq!(encode_model(&decoded.model), bytes);
    }
}

/// Truncating an artifact anywhere must yield a typed error, never a panic
/// and never a silently usable model.
#[test]
fn truncated_bytes_are_rejected_at_every_length() {
    let (model, _) = random_model(99);
    let bytes = encode_model(&model);
    // Every prefix strictly shorter than the artifact (sampled densely at
    // the envelope, sparsely through the payload to keep the loop fast).
    let mut lengths: Vec<usize> = (0..32.min(bytes.len())).collect();
    lengths.extend((32..bytes.len()).step_by(7));
    for len in lengths {
        match decode_model(&bytes[..len]) {
            Err(
                ArtifactError::Truncated { .. }
                | ArtifactError::FingerprintMismatch { .. }
                | ArtifactError::Corrupt(_),
            ) => {}
            Err(other) => panic!("prefix of {len}: unexpected error class {other}"),
            Ok(_) => panic!("prefix of {len} bytes decoded successfully"),
        }
    }
}

/// Flipping any single byte must be caught by the content fingerprint (or,
/// for the magic/trailer bytes themselves, by their own checks).
#[test]
fn corrupted_bytes_are_rejected_at_every_position() {
    let (model, _) = random_model(7);
    let bytes = encode_model(&model);
    for pos in (0..bytes.len()).step_by(11).chain([bytes.len() - 1]) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x40;
        match decode_model(&corrupted) {
            Err(_) => {}
            Ok(_) => panic!("flip at byte {pos} went undetected"),
        }
    }
}

#[test]
fn wrong_magic_and_wrong_version_are_distinct_errors() {
    let (model, _) = random_model(3);
    let bytes = encode_model(&model);

    let mut wrong_magic = bytes.clone();
    wrong_magic[..8].copy_from_slice(b"NOTSUSSY");
    assert!(matches!(
        decode_model(&wrong_magic),
        Err(ArtifactError::BadMagic)
    ));
    assert_eq!(&bytes[..8], &ARTIFACT_MAGIC);

    // A future version, re-sealed with a valid fingerprint so the version
    // check is what rejects it.
    let mut future = bytes.clone();
    future[8..10].copy_from_slice(&999u16.to_le_bytes());
    let fp = redsus_serve::artifact::fnv1a(&future[..future.len() - 8]);
    let n = future.len();
    future[n - 8..].copy_from_slice(&fp.to_le_bytes());
    assert!(matches!(
        decode_model(&future),
        Err(ArtifactError::UnsupportedVersion { found: 999 })
    ));
}

#[test]
fn served_model_load_round_trip() {
    let (model, data) = random_model(21);
    let path = std::env::temp_dir().join(format!(
        "redsus_roundtrip_{}_{}.rsm",
        std::process::id(),
        21
    ));
    let fp = redsus_serve::write_artifact(&path, &model).expect("write");
    let served = ServedModel::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(served.fingerprint(), fp);
    assert_eq!(served.fingerprint_hex(), format!("{fp:#018x}"));
    let scores = served.score_block(data.data(), ScoreOutput::Probability, ScoreMode::Sequential);
    let expected = model.predict_dataset(&data);
    assert_eq!(scores.len(), expected.len());
    for (s, e) in scores.iter().zip(&expected) {
        assert_eq!(s.to_bits(), e.to_bits());
    }
}
