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
//! kernel, proven bit-identical to [`GbdtModel::predict_margin`] — so a
//! score served over the wire equals the score the experiments computed
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
    score_dataset, score_rows, score_rows_quantised, ScoreKernel, ScoreMode, ScoreOutput,
    SCORE_SHARD_ROWS,
};
pub use frame::{AlignedBlock, FeatureFrame, FrameError};
pub use http::{ScoreServer, ServeConfig, ServerStats};
/// The telemetry handle [`ScoreServer::bind`] records into.
pub use obs::Telemetry;
pub use registry::{DirWatcher, ModelInfo, ModelRegistry, ScanReport};

use std::path::Path;

use ml::{FlatForest, GbdtModel, QuantForest};

/// A model prepared for serving: the source model, its quantised inference
/// engine (which owns the flattened forest), and the artifact content
/// fingerprint that identifies it.
#[derive(Debug, Clone)]
pub struct ServedModel {
    model: GbdtModel,
    quant: QuantForest,
    fingerprint: u64,
}

impl ServedModel {
    /// Prepare a freshly trained model for serving (fingerprint computed by
    /// encoding it through the artifact format).
    pub fn from_model(model: GbdtModel) -> Self {
        let fingerprint = model_fingerprint(&model);
        let quant = QuantForest::from_model(&model);
        Self {
            model,
            quant,
            fingerprint,
        }
    }

    /// Decode artifact bytes and prepare the model for serving.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let decoded = decode_model(bytes)?;
        let quant = QuantForest::from_model(&decoded.model);
        Ok(Self {
            model: decoded.model,
            quant,
            fingerprint: decoded.fingerprint,
        })
    }

    /// Load an artifact file and prepare the model for serving.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::from_bytes(&std::fs::read(path).map_err(ArtifactError::Io)?)
    }

    /// The source model.
    pub fn model(&self) -> &GbdtModel {
        &self.model
    }

    /// The flattened inference engine (owned by the quantised one).
    pub fn forest(&self) -> &FlatForest {
        self.quant.flat()
    }

    /// The quantised inference engine, for [`score_rows_quantised`];
    /// [`ServedModel::score_block`] does not use it.
    pub fn quant_forest(&self) -> &QuantForest {
        &self.quant
    }

    /// The kernel [`ServedModel::score_block`] runs on: always the batched
    /// flat walk. The quantised kernel gives the same bits but is slower on
    /// the pipeline's 60-tree depth-5 forests; it only pulls ahead on
    /// forests far larger than any workload serves (`BENCH_infer.json`).
    pub fn kernel(&self) -> ScoreKernel {
        ScoreKernel::Batched
    }

    /// Score a row-major block with [`score_rows`]. Bit-identical to
    /// [`GbdtModel::predict_margin`] / `predict_proba` per row.
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
