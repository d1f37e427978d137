//! Real-data ingestion: file-backed implementations of the `WorldSource`
//! abstraction the streaming pipeline runs over.
//!
//! The synth crate fabricates a world; this crate reads one from disk — FCC
//! BDC bulk availability exports (per-state, per-technology CSV files under
//! per-release directories) and Ookla open-data tile exports — and presents
//! it through exactly the same trait surface, so
//! `core::streaming::run_streaming_to_dataset_with` and everything downstream
//! (budget enforcement, labels, features, scoring) apply unchanged.
//!
//! Design rules:
//!
//! * **Strict schemas.** Every malformed input is a typed [`IngestError`]
//!   naming file, line and column. No silently skipped rows.
//! * **One release diff.** Each ingested release is an `NbmRelease`; the
//!   removal evidence is one `MapDiff` of the initial and latest releases
//!   (`DiffChain::between`), in ascending claim-key order.
//! * **Honest residency.** Everything ingested is accounted on one
//!   `ResidencyMeter` with per-stage budget enforcement, same as synth
//!   generation.
//! * **Scratch-buffer parsing.** The CSV layer reuses one line buffer and
//!   one bounds vector per file ([`CsvRows`]); the allocating baseline
//!   ([`AllocCsvRows`]) exists only for the bench comparison.

pub mod availability;
pub mod csv;
pub mod error;
pub mod ookla;
pub mod source;

pub use availability::{
    parse_availability_filename, AvailabilityReader, AvailabilityRow, AVAILABILITY_COLUMNS,
};
pub use csv::{validate_header, AllocCsvRows, CsvRows, Fields};
pub use error::IngestError;
pub use ookla::{OoklaReader, OOKLA_COLUMNS};
pub use source::{FileWorld, IngestOptions};
