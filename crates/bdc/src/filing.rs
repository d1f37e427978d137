//! Provider availability filings (Table 1 of the paper).
//!
//! Every six months each ISP submits, for every BSL it serves or could serve
//! within ten business days, the maximum advertised download/upload speed, a
//! low-latency boolean, the access technology and the service type. Providers
//! also submit a free-text description of the methodology used to decide which
//! locations are served.

use serde::{Deserialize, Serialize};

use crate::ids::{LocationId, ProviderId};
use crate::tech::Technology;
use crate::time::DayStamp;

/// Whether a service offering targets residential users, business users or
/// both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServiceType {
    Residential,
    Business,
    Both,
}

/// One row of a BDC availability filing: a claim that `provider` can serve
/// `location` with `technology` at the stated speeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityRecord {
    pub provider: ProviderId,
    pub location: LocationId,
    pub technology: Technology,
    /// Maximum advertised download speed in Mbps as submitted by the ISP.
    pub max_down_mbps: f64,
    /// Maximum advertised upload speed in Mbps as submitted by the ISP.
    pub max_up_mbps: f64,
    /// Whether the provider claims round-trip latency of 100 ms or less.
    pub low_latency: bool,
    /// Residential/business service designation.
    pub service_type: ServiceType,
}

impl AvailabilityRecord {
    /// Construct a record, rejecting non-finite speeds.
    ///
    /// A NaN or infinite speed is never a legitimate filing value, and NaN in
    /// particular poisons downstream comparisons (a claim whose speed is NaN
    /// would historically diff as `Modified` against itself forever). All
    /// record producers should funnel through here; the public fields remain
    /// for pattern matching and for test fixtures that exercise the
    /// degenerate values deliberately.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        provider: ProviderId,
        location: LocationId,
        technology: Technology,
        max_down_mbps: f64,
        max_up_mbps: f64,
        low_latency: bool,
        service_type: ServiceType,
    ) -> Result<Self, String> {
        let record = Self {
            provider,
            location,
            technology,
            max_down_mbps,
            max_up_mbps,
            low_latency,
            service_type,
        };
        record.validate()?;
        Ok(record)
    }

    /// Check the record's speeds are finite (see [`AvailabilityRecord::new`]).
    pub fn validate(&self) -> Result<(), String> {
        if !self.max_down_mbps.is_finite() {
            return Err(format!(
                "max_down_mbps must be finite, got {}",
                self.max_down_mbps
            ));
        }
        if !self.max_up_mbps.is_finite() {
            return Err(format!(
                "max_up_mbps must be finite, got {}",
                self.max_up_mbps
            ));
        }
        Ok(())
    }

    /// The key identifying which claim this record is about; a provider files
    /// (at most) one record per location per technology.
    pub fn claim_key(&self) -> (ProviderId, LocationId, Technology) {
        (self.provider, self.location, self.technology)
    }
}

/// A provider's complete filing for one reporting period.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Filing {
    pub provider: ProviderId,
    /// The "as of" date for the deployment data (e.g. 2022-06-30 for the
    /// initial BDC filing the paper studies).
    pub as_of: DayStamp,
    /// Free-text methodology statement describing how the provider decided
    /// which locations are served; embedded as a model feature in §5.1.
    pub methodology: String,
    /// Per-location availability records.
    pub records: Vec<AvailabilityRecord>,
}

impl Filing {
    /// Create an empty filing.
    pub fn new(provider: ProviderId, as_of: DayStamp, methodology: impl Into<String>) -> Self {
        Self {
            provider,
            as_of,
            methodology: methodology.into(),
            records: Vec::new(),
        }
    }

    /// Number of distinct locations claimed (across all technologies).
    pub fn claimed_location_count(&self) -> usize {
        let mut ids: Vec<LocationId> = self.records.iter().map(|r| r.location).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(down: f64, up: f64) -> AvailabilityRecord {
        AvailabilityRecord {
            provider: ProviderId(1),
            location: LocationId(10),
            technology: Technology::Cable,
            max_down_mbps: down,
            max_up_mbps: up,
            low_latency: true,
            service_type: ServiceType::Both,
        }
    }

    #[test]
    fn filing_counts_distinct_locations() {
        let mut f = Filing::new(ProviderId(1), DayStamp::initial_filing_deadline(), "m");
        f.records.push(rec(100.0, 10.0));
        let mut fiber = rec(1000.0, 1000.0);
        fiber.technology = Technology::Fiber;
        f.records.push(fiber);
        let mut other = rec(50.0, 5.0);
        other.location = LocationId(11);
        f.records.push(other);
        assert_eq!(f.claimed_location_count(), 2);
    }

    #[test]
    fn construction_rejects_non_finite_speeds() {
        let build = |down: f64, up: f64| {
            AvailabilityRecord::new(
                ProviderId(1),
                LocationId(10),
                Technology::Cable,
                down,
                up,
                true,
                ServiceType::Both,
            )
        };
        assert!(build(100.0, 10.0).is_ok());
        assert!(build(0.0, 0.0).is_ok());
        assert!(build(f64::NAN, 10.0).is_err());
        assert!(build(100.0, f64::NAN).is_err());
        assert!(build(f64::INFINITY, 10.0).is_err());
        assert!(build(100.0, f64::NEG_INFINITY).is_err());
        // The literal escape hatch still exists for tests, but validate()
        // names the offending field.
        let err = rec(f64::NAN, 1.0).validate().unwrap_err();
        assert!(err.contains("max_down_mbps"), "{err}");
    }

    #[test]
    fn claim_key_identifies_record() {
        let r = rec(100.0, 10.0);
        assert_eq!(
            r.claim_key(),
            (ProviderId(1), LocationId(10), Technology::Cable)
        );
    }
}
