//! Synthetic United States broadband ecosystem generator.
//!
//! The paper's datasets — the CostQuest Fabric, BDC filings, challenge
//! outcomes, bi-weekly NBM releases, Ookla open data, MLab NDT7 tests, FCC
//! registration data and ARIN WHOIS — are proprietary, enormous, or both.
//! This crate generates a *synthetic but structurally faithful* United States
//! so the full pipeline can run end-to-end on a laptop:
//!
//! * a population-weighted **fabric** of Broadband Serviceable Locations
//!   clustered into towns ([`fabric_gen`]), tuned to the paper's median of
//!   ~4 BSLs per resolution-8 hex,
//! * **providers** with technology-specific footprints, free-text filing
//!   methodologies and strategic over-claiming behaviour, including a
//!   Jefferson-County-Cable-style intentional over-claimer ([`providers_gen`]),
//! * ground truth, **filings** and the initial NBM release, with the
//!   bi-weekly correction releases read off the removal schedule, which is
//!   also the timeline's map-change evidence ([`activity_gen`],
//!   [`release_stream`]),
//! * state-biased **challenges** whose outcome mix matches Table 2/3
//!   ([`activity_gen`]),
//! * **speed tests**: Ookla quadkey aggregates and per-test MLab records
//!   derived from the ground-truth coverage ([`speedtest_gen`]),
//! * FRN **registration** data and an ARIN-style WHOIS database with realistic
//!   mess (matching and non-matching fields, shared ASNs, unmatched small
//!   providers) ([`registration_gen`]).
//!
//! Everything is derived deterministically from a single seed in
//! [`SynthConfig`]; [`SynthUs::generate`] returns the full world, and
//! [`SynthUs::generate_with`] additionally selects the execution schedule
//! ([`GenMode`]) and returns a [`StreamReport`] of per-stage timings.
//!
//! Generation is *sharded*: every random quantity is drawn from an
//! independent stream keyed by `(seed, stage, shard)` ([`shard`]), so shards
//! can be fanned across threads in any order and the world stays
//! bit-identical for any worker count — a contract made testable by
//! [`SynthUs::canonical_fingerprint`].

pub mod activity_gen;
pub mod config;
pub mod fabric_gen;
pub mod providers_gen;
pub mod registration_gen;
pub mod release_stream;
pub mod shard;
pub mod speedtest_gen;
pub mod states;
pub mod stream_world;
pub mod text;
pub mod world;

pub use config::SynthConfig;
pub use providers_gen::{ProviderProfile, ReportingStyle};
pub use release_stream::{EmittedRelease, ReleaseEmitter, RemovalSchedule};
pub use shard::{GenMode, SynthStage};
pub use speedtest_gen::{MlabEmitter, OoklaEmitter};
pub use states::{StateInfo, STATES};
pub use stream_world::{HexTable, StreamReport, StreamStage, StreamWorld};
pub use world::{JccScenario, SynthUs};
