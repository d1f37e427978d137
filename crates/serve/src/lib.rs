//! `redsus_serve`: the model-serving subsystem — from a trained
//! [`GbdtModel`] to query time without a retrain.
//!
//! The paper's end product is a per-(provider, hex, technology) claim-quality
//! score, but the training pipeline only holds scores inside a live
//! `AnalysisContext`. This crate closes the loop train → serialize → load →
//! serve:
//!
//! * [`artifact`] — a versioned, self-describing canonical binary format for
//!   trained models (hand-rolled writer/reader, embedded feature-name
//!   schema, FNV-1a content fingerprint; malformed inputs rejected with
//!   typed errors, never panics),
//! * [`batch`] — the flattened batch scorer: fixed-size row shards fanned
//!   across `std::thread::scope` workers under [`ScoreMode`], the
//!   workspace's bit-identical-parallelism contract,
//! * [`frame`] — the CSV feature-matrix exchange format, aligned onto the
//!   model schema by feature name,
//! * [`http`] — a hermetic HTTP/1.1 scoring endpoint over
//!   `std::net::TcpListener` (hand-rolled request parser with keep-alive
//!   and pipelined framing, JSON response writer, bounded worker pool,
//!   graceful shutdown),
//! * [`registry`] — the versioned multi-model map keyed by artifact
//!   fingerprint, with atomic snapshot swaps for hot reload under live
//!   traffic and a directory watcher feeding it from disk,
//! * the `redsus-score` binary — `score` a feature-matrix file, `serve` an
//!   artifact (or a hot-reloaded `--watch-dir` of artifacts) over HTTP, or
//!   `inspect` an artifact's schema.
//!
//! Inference runs on [`ml::FlatForest`], the recursive trees lowered into
//! breadth-first contiguous node arrays and traversed by a block-batched
//! kernel — the same kernel [`GbdtModel::predict_dataset`] runs, so a score
//! served over the wire equals the score the experiments computed
//! in-process, to the last bit.

pub mod artifact;
pub mod batch;
pub mod frame;
pub mod http;
pub mod registry;

pub use artifact::{
    decode_model, encode_model, model_fingerprint, read_artifact, write_artifact, ArtifactError,
    DecodedArtifact, ARTIFACT_MAGIC, ARTIFACT_VERSION,
};
pub use batch::{
    score_rows, score_rows_quantised, ScoreKernel, ScoreMode, ScoreOutput, SCORE_SHARD_ROWS,
};
pub use frame::{AlignedBlock, FeatureFrame, FrameError};
pub use http::{ScoreServer, ServeConfig, ServerStats};
/// The telemetry handle [`ScoreServer::bind`] records into.
pub use obs::Telemetry;
pub use registry::{DirWatcher, ModelInfo, ModelRegistry, ScanReport};

use std::path::Path;
use std::sync::OnceLock;

use ml::{FlatForest, GbdtModel, QuantForest};

/// A model prepared for serving: the source model, its flattened inference
/// engine, and the artifact content fingerprint that identifies it. The
/// quantised engine is built only on the first [`ServedModel::quant_forest`]
/// call; loading and scoring never build it.
#[derive(Debug, Clone)]
pub struct ServedModel {
    model: GbdtModel,
    forest: FlatForest,
    quant: OnceLock<QuantForest>,
    fingerprint: u64,
}

impl ServedModel {
    /// Prepare a freshly trained model for serving (fingerprint computed by
    /// encoding it through the artifact format).
    pub fn from_model(model: GbdtModel) -> Self {
        let fingerprint = model_fingerprint(&model);
        Self::prepared(model, fingerprint)
    }

    /// Decode artifact bytes and prepare the model for serving.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let decoded = decode_model(bytes)?;
        Ok(Self::prepared(decoded.model, decoded.fingerprint))
    }

    fn prepared(model: GbdtModel, fingerprint: u64) -> Self {
        Self {
            forest: FlatForest::from_model(&model),
            model,
            quant: OnceLock::new(),
            fingerprint,
        }
    }

    /// Load an artifact file and prepare the model for serving.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::from_bytes(&std::fs::read(path).map_err(ArtifactError::Io)?)
    }

    /// The source model.
    pub fn model(&self) -> &GbdtModel {
        &self.model
    }

    /// The flattened inference engine [`ServedModel::score_block`] runs on.
    pub fn forest(&self) -> &FlatForest {
        &self.forest
    }

    /// The quantised inference engine, for [`score_rows_quantised`], built
    /// on the first call; [`ServedModel::score_block`] does not use it.
    pub fn quant_forest(&self) -> &QuantForest {
        self.quant
            .get_or_init(|| QuantForest::from_forest(self.forest.clone()))
    }

    /// The kernel [`ServedModel::score_block`] runs on: always the batched
    /// flat walk. The quantised kernel gives the same bits but is slower on
    /// the pipeline's 60-tree depth-5 forests; it only pulls ahead on
    /// forests far larger than any workload serves (`BENCH_infer.json`).
    pub fn kernel(&self) -> ScoreKernel {
        ScoreKernel::Batched
    }

    /// Score a row-major block with [`score_rows`]; its probabilities are
    /// the bits [`GbdtModel::predict_dataset`] gives for those rows.
    pub fn score_block(&self, data: &[f32], output: ScoreOutput, mode: ScoreMode) -> Vec<f64> {
        score_rows(self.forest(), data, output, mode)
    }

    /// The artifact content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint as the `0x…` string the endpoint and CLI report.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:#018x}", self.fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::{Dataset, GbdtParams};

    /// Loading builds the flat engine only: the quantised one waits for the
    /// first `quant_forest()` call, and `score_block` never builds it.
    #[test]
    fn quantised_engine_is_built_only_on_demand() {
        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..300 {
            let a = if i % 23 == 0 {
                f32::NAN
            } else {
                (i % 17) as f32 / 17.0
            };
            let b = (i % 5) as f32;
            data.push_row(&[a, b], if a > 0.5 || b > 3.0 { 1.0 } else { 0.0 });
        }
        let params = GbdtParams {
            n_estimators: 10,
            max_depth: 3,
            ..GbdtParams::default()
        };
        let model = GbdtModel::fit(&data, params);
        let bytes = encode_model(&model);
        let loaded = ServedModel::from_bytes(&bytes).expect("decode");
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let mode = ScoreMode::Sequential;
        for served in [ServedModel::from_model(model), loaded] {
            assert!(served.quant.get().is_none(), "loading built a QuantForest");
            let outputs = [ScoreOutput::Probability, ScoreOutput::Margin];
            let scored: Vec<Vec<f64>> = outputs
                .iter()
                .map(|&output| served.score_block(data.data(), output, mode))
                .collect();
            assert!(served.quant.get().is_none(), "scoring built a QuantForest");
            for (&output, scored) in outputs.iter().zip(&scored) {
                let flat = score_rows(served.forest(), data.data(), output, mode);
                let quant = score_rows_quantised(served.quant_forest(), data.data(), output, mode);
                assert_eq!(bits(scored), bits(&flat));
                assert_eq!(bits(scored), bits(&quant));
            }
            assert!(served.quant.get().is_some());
        }
    }
}
