//! The `red_is_sus` pipeline: labelled-dataset construction, feature
//! engineering, model training and the paper's evaluation scenarios.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! 1. **Provider→ASN mapping** — `asnmap` joins FRN registrations against
//!    WHOIS data (§4.2.2, §6.1).
//! 2. **Label construction** ([`labels`]) — challenge outcomes, non-archived
//!    map changes and crowdsourced-speed-test-derived "likely served"
//!    locations become labelled `(provider, hex, technology)` observations,
//!    balanced per provider and state (§4.3).
//! 3. **Feature engineering** ([`features`]) — Table 4's vectorisation:
//!    advertised speeds, low latency, state one-hot, hex centroid, location
//!    claim percentage, methodology embedding, Ookla device density and MLab
//!    test counts.
//! 4. **Modelling** ([`model`]) — the gradient-boosted classifier, the random
//!    baseline, and the three hold-out strategies of §6.2.
//! 5. **Experiments** ([`experiments`]) — one function per table and figure of
//!    the paper, each returning a printable result structure.

pub mod experiments;
pub mod features;
pub mod labels;
pub mod model;
pub mod pipeline;
pub mod streaming;

pub use features::{FeatureConfig, FeatureMatrix, FeatureMode};
pub use labels::{Label, LabelMode, LabelSource, LabelingOptions, Observation};
pub use model::{EvaluationResult, HoldoutStrategy};
/// The telemetry handle every run entry point records into.
pub use obs::Telemetry;
pub use pipeline::{AnalysisContext, DatasetRun, PipelineEngine, PipelineRun};
pub use streaming::{run_streaming_to_dataset_with, StreamableSource, StreamingDatasetRun};
