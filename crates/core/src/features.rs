//! Feature engineering (§5.1, Table 4).
//!
//! Each observation `(provider, hex, technology)` is vectorised into:
//! maximum advertised download/upload speed, a low-latency flag, a one-hot
//! state encoding, the hex centroid, the percentage of the hex's BSLs the
//! provider claims, an embedding of the provider's filing methodology, the
//! Ookla unique-device-per-location ratio and the MLab test count attributed
//! to the provider in the hex. Speed-test *results* are deliberately excluded
//! — only their presence is used.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use bdc::stream::map_shards;
use bdc::{FabricView, NbmRelease, ProviderId};
use embed::TextEmbedder;
use hexgrid::HexCell;
use ml::Dataset;
use serde::{Deserialize, Serialize};
use speedtest::{CoverageScore, OoklaHexAggregate, ProviderHexTests};
use synth::{SynthUs, STATES};

use crate::labels::Observation;
use crate::pipeline::AnalysisContext;

/// How feature engineering schedules its shard fan-out — the workspace's one
/// scheduling enum (`GenMode`/`DiffMode`/`ScoreMode`/`LabelMode`), under the
/// same contract: the worker count never changes the produced matrix by a
/// single bit.
pub use bdc::stream::DiffMode as FeatureMode;

/// Fixed number of observations per feature-row shard. A function of the
/// input alone (never of the worker count), so every schedule cuts the same
/// chunks and reassembling them in chunk order reproduces the sequential
/// row order exactly.
pub(crate) const OBSERVATION_CHUNK: usize = 1024;

/// Which feature groups to include and how large the methodology embedding is
/// — the axes of the feature ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Dimensionality of the methodology embedding (the paper uses 384-d
    /// S-BERT vectors; 32 keeps the default experiments fast with the same
    /// qualitative behaviour).
    pub embedding_dim: usize,
    /// Include the methodology embedding at all.
    pub include_methodology: bool,
    /// Include Ookla device density and MLab test counts.
    pub include_speedtest: bool,
    /// Include the hex centroid coordinates.
    pub include_location: bool,
    /// Include the one-hot state encoding.
    pub include_state: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 32,
            include_methodology: true,
            include_speedtest: true,
            include_location: true,
            include_state: true,
        }
    }
}

impl FeatureConfig {
    /// The paper's full-width configuration with 384-dimensional embeddings.
    pub fn paper_width() -> Self {
        Self {
            embedding_dim: embed::SBERT_DIM,
            ..Self::default()
        }
    }

    /// Whether methodology embedding columns are actually emitted.
    ///
    /// A zero-dimensional embedding registers no columns, so
    /// `include_methodology` with `embedding_dim: 0` behaves exactly like
    /// methodology disabled. (It used to register zero columns but still
    /// extend every row with one embedder output, tripping the dataset's
    /// row-width assert.)
    pub fn methodology_enabled(&self) -> bool {
        self.include_methodology && self.embedding_dim > 0
    }
}

/// A vectorised dataset together with the observations each row came from.
#[derive(Debug)]
pub struct FeatureMatrix {
    /// The dense feature matrix and labels.
    pub dataset: Dataset,
    /// Row-aligned observation metadata (provider, state, technology, source).
    pub observations: Vec<Observation>,
}

impl FeatureMatrix {
    /// The state of each row, for group holdouts.
    pub fn states(&self) -> Vec<String> {
        self.observations.iter().map(|o| o.state.clone()).collect()
    }

    /// Row indices whose observation satisfies a predicate.
    pub fn rows_where<F: Fn(&Observation) -> bool>(&self, predicate: F) -> Vec<usize> {
        self.observations
            .iter()
            .enumerate()
            .filter(|(_, o)| predicate(o))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The feature names a configuration emits, in their fixed column order.
pub fn feature_names(config: &FeatureConfig) -> Vec<String> {
    let mut names: Vec<String> = vec![
        "max_adv_download_mbps".into(),
        "max_adv_upload_mbps".into(),
        "low_latency".into(),
        "location_claim_pct".into(),
    ];
    if config.include_location {
        names.push("hex_centroid_lat".into());
        names.push("hex_centroid_lng".into());
    }
    if config.include_state {
        for s in STATES {
            names.push(format!("state_{}", s.code));
        }
    }
    if config.include_speedtest {
        names.push("ookla_devices_per_location".into());
        names.push("mlab_test_count".into());
    }
    if config.methodology_enabled() {
        for i in 0..config.embedding_dim {
            names.push(format!("methodology_emb_{i}"));
        }
    }
    names
}

/// Everything feature engineering needs to see — the counterpart of
/// `LabelInputs`. The fabric enters as a [`FabricView`] and the release, the
/// speed-test aggregates and the methodologies enter by reference, so both
/// the materialised `SynthUs` + `AnalysisContext` pair and the national-scale
/// streaming world vectorise bit-identically through the same code.
pub struct FeatureInputs<'a> {
    pub fabric: &'a dyn FabricView,
    /// The initial NBM release whose per-hex claims feed the claim columns.
    pub release: &'a NbmRelease,
    /// Per-hex Ookla aggregates (device density column).
    pub ookla_by_hex: &'a HashMap<HexCell, OoklaHexAggregate>,
    /// MLab tests attributed and localised per provider/hex.
    pub mlab_evidence: &'a ProviderHexTests,
    /// Per-provider filing methodology free text (embedding columns).
    pub methodologies: &'a BTreeMap<ProviderId, String>,
}

/// Vectorise one shard of observations into a dataset shard.
fn feature_shard(
    inputs: &FeatureInputs<'_>,
    observations: &[Observation],
    config: &FeatureConfig,
    names: &[String],
    embeddings: &BTreeMap<ProviderId, Vec<f32>>,
) -> Dataset {
    let release = inputs.release;
    let mut dataset = Dataset::new(names.to_vec());
    for obs in observations {
        let claim = release.claim_for(obs.provider, obs.hex, obs.technology);
        let mut row: Vec<f32> = Vec::with_capacity(dataset.n_features());
        match claim {
            Some(c) => {
                row.push(c.max_down_mbps as f32);
                row.push(c.max_up_mbps as f32);
                row.push(if c.low_latency { 1.0 } else { 0.0 });
                row.push(c.location_claim_pct() as f32);
            }
            None => {
                row.extend_from_slice(&[f32::NAN, f32::NAN, f32::NAN, f32::NAN]);
            }
        }
        if config.include_location {
            let center = obs.hex.center();
            row.push(center.lat as f32);
            row.push(center.lng as f32);
        }
        if config.include_state {
            for s in STATES {
                row.push(if obs.state == s.code { 1.0 } else { 0.0 });
            }
        }
        if config.include_speedtest {
            // The same devices-per-BSL definition the coverage scores (and
            // therefore the likely-served labelling threshold) use — see
            // `CoverageScore::density`.
            let devices_per_loc = inputs.ookla_by_hex.get(&obs.hex).map(|agg| {
                CoverageScore::density(agg.devices, inputs.fabric.bsl_count_in_hex(&obs.hex)) as f32
            });
            row.push(devices_per_loc.unwrap_or(f32::NAN));
            row.push(inputs.mlab_evidence.count(obs.provider, obs.hex) as f32);
        }
        if config.methodology_enabled() {
            match embeddings.get(&obs.provider) {
                Some(e) => row.extend(e.iter().copied()),
                None => row.extend(std::iter::repeat_n(f32::NAN, config.embedding_dim)),
            }
        }
        dataset.push_row(&row, obs.label.as_target());
    }
    dataset
}

/// Build the feature matrix for a set of labelled observations with the
/// default (parallel) schedule.
pub fn build_features(
    world: &SynthUs,
    ctx: &AnalysisContext,
    observations: &[Observation],
    config: &FeatureConfig,
) -> FeatureMatrix {
    build_features_with(world, ctx, observations, config, FeatureMode::Parallel)
}

/// Build the feature matrix under an explicit schedule.
///
/// Per-provider methodology embeddings are precomputed in parallel, then the
/// observations are cut into fixed `OBSERVATION_CHUNK`-sized shards, each
/// vectorised into a dataset shard on a scoped worker, and reassembled in
/// chunk order via [`Dataset::from_shards`] — bit-identical to a sequential
/// row loop for every [`FeatureMode`].
pub fn build_features_with(
    world: &SynthUs,
    ctx: &AnalysisContext,
    observations: &[Observation],
    config: &FeatureConfig,
    mode: FeatureMode,
) -> FeatureMatrix {
    let inputs = FeatureInputs {
        fabric: &world.fabric,
        release: world.initial_release(),
        ookla_by_hex: &ctx.ookla_by_hex,
        mlab_evidence: &ctx.mlab_evidence,
        methodologies: &ctx.methodologies,
    };
    build_features_from_inputs(&inputs, observations, config, mode)
}

/// Build the feature matrix from explicit [`FeatureInputs`] — the engine the
/// materialised wrapper above and the streaming national-scale path both
/// route through, so the two can never vectorise differently.
pub fn build_features_from_inputs(
    inputs: &FeatureInputs<'_>,
    observations: &[Observation],
    config: &FeatureConfig,
    mode: FeatureMode,
) -> FeatureMatrix {
    let workers = mode.worker_count();
    let names = feature_names(config);

    // Pre-compute methodology embeddings per provider, fanned across the
    // same workers (embedding is a pure function of the text).
    let embeddings: BTreeMap<ProviderId, Vec<f32>> = if config.methodology_enabled() {
        let embedder = TextEmbedder::new(config.embedding_dim, 0x5EED_5BEE);
        let entries: Vec<(&ProviderId, &String)> = inputs.methodologies.iter().collect();
        map_shards(workers, &entries, |_, (provider, text)| {
            (**provider, embedder.embed(text))
        })
        .into_iter()
        .collect()
    } else {
        BTreeMap::new()
    };

    let chunks: Vec<&[Observation]> = observations.chunks(OBSERVATION_CHUNK).collect();
    let shards = map_shards(workers, &chunks, |_, chunk| {
        feature_shard(inputs, chunk, config, &names, &embeddings)
    });
    FeatureMatrix {
        dataset: Dataset::from_shards(names, shards),
        observations: observations.to_vec(),
    }
}

/// An order-sensitive stable digest of a dataset: feature names, every cell's
/// bit pattern and every label fold through `synth::shard::StableHasher`.
/// Pins the worker-invariance contract of [`build_features_with`] and the
/// golden dataset fingerprint in `tests/end_to_end.rs`.
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    let mut h = synth::shard::StableHasher::new();
    dataset.feature_names().hash(&mut h);
    dataset.n_rows().hash(&mut h);
    for r in 0..dataset.n_rows() {
        for v in dataset.row(r) {
            v.to_bits().hash(&mut h);
        }
        dataset.label(r).to_bits().hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelingOptions;
    use synth::SynthConfig;

    fn matrix() -> FeatureMatrix {
        let world = SynthUs::generate(&SynthConfig::tiny(5));
        let ctx = AnalysisContext::prepare(&world);
        let labels = ctx.build_labels(&world, &LabelingOptions::default());
        build_features(&world, &ctx, &labels, &FeatureConfig::default())
    }

    #[test]
    fn matrix_shape_matches_observations() {
        let m = matrix();
        assert_eq!(m.dataset.n_rows(), m.observations.len());
        assert!(m.dataset.n_rows() > 100);
        // 4 claim features + 2 location + 55 states + 2 speedtest + 32 embedding.
        let expected = 4 + 2 + STATES.len() + 2 + 32;
        assert_eq!(m.dataset.n_features(), expected);
    }

    #[test]
    fn feature_names_include_paper_features() {
        let m = matrix();
        for name in [
            "max_adv_download_mbps",
            "ookla_devices_per_location",
            "mlab_test_count",
            "location_claim_pct",
            "state_NE",
            "methodology_emb_0",
        ] {
            assert!(
                m.dataset.feature_index(name).is_some(),
                "missing feature {name}"
            );
        }
    }

    #[test]
    fn state_onehot_is_exclusive() {
        let m = matrix();
        let state_cols: Vec<usize> = (0..m.dataset.n_features())
            .filter(|&i| m.dataset.feature_names()[i].starts_with("state_"))
            .collect();
        for r in (0..m.dataset.n_rows()).step_by(37) {
            let ones: f32 = state_cols.iter().map(|&c| m.dataset.get(r, c)).sum();
            assert_eq!(ones, 1.0, "row {r} has {ones} state bits set");
        }
    }

    #[test]
    fn config_flags_shrink_the_matrix() {
        let world = SynthUs::generate(&SynthConfig::tiny(5));
        let ctx = AnalysisContext::prepare(&world);
        let labels = ctx.build_labels(&world, &LabelingOptions::default());
        let slim = build_features(
            &world,
            &ctx,
            &labels,
            &FeatureConfig {
                include_methodology: false,
                include_state: false,
                ..FeatureConfig::default()
            },
        );
        assert_eq!(slim.dataset.n_features(), 4 + 2 + 2);
    }

    #[test]
    fn zero_embedding_dim_behaves_as_methodology_disabled() {
        // Regression: `include_methodology: true` with `embedding_dim: 0`
        // used to register zero embedding columns but still extend every row
        // with an `embedding_dim.max(1)`-wide embedder output, tripping
        // `Dataset::push_row`'s row-width assert. Dim 0 now means "no
        // methodology features", across every ablation corner.
        let world = SynthUs::generate(&SynthConfig::tiny(5));
        let ctx = AnalysisContext::prepare(&world);
        let labels = ctx.build_labels(&world, &LabelingOptions::default());
        for include_speedtest in [false, true] {
            for include_location in [false, true] {
                for include_state in [false, true] {
                    for include_methodology in [false, true] {
                        for embedding_dim in [0usize, 1, 32] {
                            let config = FeatureConfig {
                                embedding_dim,
                                include_methodology,
                                include_speedtest,
                                include_location,
                                include_state,
                            };
                            let m = build_features(&world, &ctx, &labels, &config);
                            let expected = 4
                                + if include_location { 2 } else { 0 }
                                + if include_state { STATES.len() } else { 0 }
                                + if include_speedtest { 2 } else { 0 }
                                + if config.methodology_enabled() {
                                    embedding_dim
                                } else {
                                    0
                                };
                            assert_eq!(
                                m.dataset.n_features(),
                                expected,
                                "width mismatch for {config:?}"
                            );
                            assert_eq!(m.dataset.n_rows(), labels.len());
                        }
                    }
                }
            }
        }
        // The degenerate corner matches disabled methodology bit for bit.
        let dim0 = build_features(
            &world,
            &ctx,
            &labels,
            &FeatureConfig {
                embedding_dim: 0,
                ..FeatureConfig::default()
            },
        );
        let disabled = build_features(
            &world,
            &ctx,
            &labels,
            &FeatureConfig {
                include_methodology: false,
                ..FeatureConfig::default()
            },
        );
        assert_eq!(
            dataset_fingerprint(&dim0.dataset),
            dataset_fingerprint(&disabled.dataset)
        );
    }

    #[test]
    fn worker_count_never_changes_the_matrix() {
        let world = SynthUs::generate(&SynthConfig::tiny(5));
        let ctx = AnalysisContext::prepare(&world);
        let labels = ctx.build_labels(&world, &LabelingOptions::default());
        for config in [
            FeatureConfig::default(),
            FeatureConfig {
                include_methodology: false,
                include_state: false,
                ..FeatureConfig::default()
            },
        ] {
            let base = build_features_with(&world, &ctx, &labels, &config, FeatureMode::Sequential);
            for mode in [
                FeatureMode::Parallel,
                FeatureMode::Threads(3),
                FeatureMode::Threads(16),
            ] {
                let other = build_features_with(&world, &ctx, &labels, &config, mode);
                assert_eq!(
                    dataset_fingerprint(&other.dataset),
                    dataset_fingerprint(&base.dataset),
                    "feature engineering differs under {mode:?}"
                );
                assert_eq!(other.observations, base.observations);
            }
        }
    }

    #[test]
    fn ookla_density_feature_agrees_with_coverage_scores() {
        // The model feature and the likely-served labelling threshold must
        // see the same ratio on the same hex, bit for bit.
        let world = SynthUs::generate(&SynthConfig::tiny(5));
        let ctx = AnalysisContext::prepare(&world);
        let labels = ctx.build_labels(&world, &LabelingOptions::default());
        let m = build_features(&world, &ctx, &labels, &FeatureConfig::default());
        let col = m
            .dataset
            .feature_index("ookla_devices_per_location")
            .unwrap();
        let score_of_hex: std::collections::HashMap<_, f64> =
            ctx.coverage.iter().map(|s| (s.hex, s.score)).collect();
        let mut checked = 0usize;
        for (r, obs) in m.observations.iter().enumerate() {
            let feature = m.dataset.get(r, col);
            if let Some(score) = score_of_hex.get(&obs.hex) {
                assert_eq!(
                    feature.to_bits(),
                    (*score as f32).to_bits(),
                    "row {r} feature diverges from the coverage score"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no observation had a coverage-scored hex");
    }

    #[test]
    fn rows_where_filters_by_metadata() {
        let m = matrix();
        let unserved = m.rows_where(|o| o.label == crate::labels::Label::Unserved);
        let served = m.rows_where(|o| o.label == crate::labels::Label::Served);
        assert_eq!(unserved.len() + served.len(), m.dataset.n_rows());
        assert!(!unserved.is_empty() && !served.is_empty());
    }
}
