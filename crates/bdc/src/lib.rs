//! Domain model for the FCC's Broadband Data Collection (BDC) and the
//! National Broadband Map (NBM).
//!
//! This crate encodes, as plain data types, everything the paper's pipeline
//! reads out of the regulatory process:
//!
//! * the **Broadband Serviceable Location Fabric** ([`fabric`]) — the set of
//!   structures providers may claim service at,
//! * per-location **availability filings** ([`filing`], Table 1 of the paper),
//! * **providers** and their free-text filing methodologies ([`provider`]),
//! * aggregated **NBM releases** and the public per-hex view ([`nbm`]),
//! * the **release diff** that recovers non-archived changes between a
//!   timeline's initial and latest releases ([`diff`], §4.1.3),
//! * the **challenge process** with its outcomes and reasons ([`challenge`],
//!   Tables 2 and 3),
//! * the [`WorldSource`] seam the streaming runner consumes ([`source`]), with
//!   the shard streams, residency meter and worker schedule it is built on
//!   ([`stream`]).
//!
//! The crate is purely a data model: generation of synthetic instances lives
//! in the `synth` crate and label construction lives in `redsus-core`.

pub mod challenge;
pub mod diff;
pub mod fabric;
pub mod filing;
pub mod ids;
pub mod nbm;
pub mod provider;
pub mod source;
pub mod stream;
pub mod tech;
pub mod time;

pub use challenge::{Challenge, ChallengeOutcome, ChallengeReason};
pub use diff::{ClaimChange, ClaimChangeKind, DiffChain, MapDiff};
pub use fabric::{Bsl, Fabric, FabricView};
pub use filing::{AvailabilityRecord, Filing, ServiceType};
pub use ids::{Asn, Frn, LocationId, ProviderId};
pub use nbm::{ClaimKey, HexClaim, NbmRelease, ReleaseVersion};
pub use provider::{Provider, ProviderRegistry};
pub use source::{EmptyStream, SourceMeta, StreamReport, StreamStage, WorldSource};
pub use stream::{
    collect_shards, drain_shards, map_shards, ClaimEntry, DiffMode, MeterInstruments,
    ResidencyMeter, ShardStream, SliceShards,
};
pub use tech::Technology;
pub use time::DayStamp;
