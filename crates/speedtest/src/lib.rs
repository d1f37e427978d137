//! Crowdsourced speed-test substrate: Ookla open-data tiles, MLab NDT7 tests,
//! provider attribution and per-hex aggregation (§4.2 of the paper).
//!
//! The pipeline never uses measured throughput to judge a provider's claim —
//! speed tests only serve as *presence* evidence. Two datasets are modelled:
//!
//! * **Ookla Open Data** ([`ookla`]) — quarterly aggregates keyed by ~500 m
//!   Web-Mercator quadkey tiles: test count, unique device count and average
//!   throughput/latency, with no provider attribution. Re-projected onto the
//!   hex grid (Appendix D) these drive the per-hex *service coverage score*
//!   (unique devices per BSL).
//! * **MLab NDT7** ([`mlab`]) — individual tests carrying the client ASN and
//!   an IP-geolocation centre + accuracy radius. Combined with the
//!   provider→ASN mapping and the provider's claimed footprint, each test is
//!   localised to the hexes it could have been run from ([`attribution`]).

pub mod attribution;
pub mod coverage;
pub mod mlab;
pub mod ookla;

pub use attribution::{MlabAttributor, ProviderHexTests};
pub use coverage::{coverage_scores, CoverageScore};
pub use mlab::{MlabDataset, MlabTest, MAX_ACCURACY_RADIUS_KM};
pub use ookla::{aggregate_records_into, OoklaDataset, OoklaHexAggregate, OoklaTileRecord};
