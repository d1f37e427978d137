//! National Broadband Map releases.
//!
//! The FCC aggregates provider filings into the public NBM: for every claimed
//! BSL it publishes the provider's speed/technology claim together with the H3
//! resolution-8 cell the BSL falls in. Major releases follow each filing
//! deadline; minor releases every two weeks fold in challenge results and
//! provider corrections.
//!
//! An [`NbmRelease`] is that public per-hex view and nothing more. The
//! location-level records it is aggregated from stay with their owner (a
//! world's filings, an ingest buffer), and the release diff compares those
//! record sets directly (see [`crate::diff`]).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hexgrid::HexCell;
use serde::{Deserialize, Serialize};

use crate::fabric::Fabric;
use crate::filing::AvailabilityRecord;
use crate::ids::{LocationId, ProviderId};
use crate::tech::Technology;
use crate::time::DayStamp;

/// Identifies a release of the NBM: `major` increments with each filing
/// period, `minor` with each bi-weekly update to that period's map.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ReleaseVersion {
    pub major: u32,
    pub minor: u32,
}

impl ReleaseVersion {
    /// The initial public NBM release (November 2022) the paper focuses on.
    pub fn initial() -> Self {
        ReleaseVersion { major: 1, minor: 0 }
    }

    /// The next minor release of the same major version.
    pub fn next_minor(&self) -> Self {
        ReleaseVersion {
            major: self.major,
            minor: self.minor + 1,
        }
    }

    /// The next major release (new filing period).
    pub fn next_major(&self) -> Self {
        ReleaseVersion {
            major: self.major + 1,
            minor: 0,
        }
    }
}

impl std::fmt::Display for ReleaseVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}.{}", self.major, self.minor)
    }
}

/// A provider's aggregated claim in one hex cell for one technology — the
/// public, per-hex view of the NBM that the paper's observations are built on
/// (Appendix D: max of the BSL-level speeds, any-BSL low latency).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HexClaim {
    pub provider: ProviderId,
    pub hex: HexCell,
    pub technology: Technology,
    /// Maximum advertised download speed over the claimed BSLs in the hex.
    pub max_down_mbps: f64,
    /// Upload speed corresponding to the maximum download record.
    pub max_up_mbps: f64,
    /// True when any claimed BSL in the hex is reported low-latency.
    pub low_latency: bool,
    /// Number of BSLs in the hex the provider claims with this technology.
    pub locations_claimed: usize,
    /// Total number of BSLs present in the hex (from the fabric).
    pub total_bsls_in_hex: usize,
}

impl HexClaim {
    /// Fraction of the hex's BSLs the provider claims (the "Location Claims"
    /// feature of Table 4). Clamped to `[0, 1]`.
    pub fn location_claim_pct(&self) -> f64 {
        if self.total_bsls_in_hex == 0 {
            0.0
        } else {
            (self.locations_claimed as f64 / self.total_bsls_in_hex as f64).min(1.0)
        }
    }

    /// The observation key `(provider, hex, technology)` used throughout the
    /// pipeline (§4.3).
    pub fn observation_key(&self) -> (ProviderId, HexCell, Technology) {
        (self.provider, self.hex, self.technology)
    }
}

/// The key of a location-level claim, used by the release diff.
pub type ClaimKey = (ProviderId, LocationId, Technology);

/// One release of the National Broadband Map: its public per-hex claims.
#[derive(Debug, Clone)]
pub struct NbmRelease {
    pub version: ReleaseVersion,
    pub published: DayStamp,
    /// Aggregated per-hex claims (the public view).
    hex_claims: Vec<HexClaim>,
    /// Position of each claim by observation key, derived from `hex_claims`.
    claim_index: HashMap<(ProviderId, HexCell, Technology), usize>,
}

impl NbmRelease {
    /// Aggregate location-level records into a release, resolving each
    /// location to its hex through the fabric. The records are only read:
    /// a world passes its filings' records, an ingest run its buffer.
    pub fn from_records<'a>(
        version: ReleaseVersion,
        published: DayStamp,
        records: impl IntoIterator<Item = &'a AvailabilityRecord>,
        fabric: &Fabric,
    ) -> Self {
        // Group records by (provider, hex, technology) keeping the best-speed
        // record and counting distinct locations. "Best" compares the
        // (down, up) pair lexicographically under `f64::total_cmp`, seeded
        // from the first record of the group: a record tying on download but
        // advertising faster upload wins, and a legitimate 0.0-down record
        // still establishes the group's speeds (a `0.0` default would
        // silently swallow both).
        struct Agg {
            best: Option<(f64, f64)>,
            low_latency: bool,
            locations: BTreeSet<LocationId>,
        }
        let mut groups: BTreeMap<(ProviderId, HexCell, Technology), Agg> = BTreeMap::new();
        for rec in records {
            let Some(bsl) = fabric.get(rec.location) else {
                // Claims for locations absent from the fabric are dropped by
                // the FCC; mirror that behaviour.
                continue;
            };
            let agg = groups
                .entry((rec.provider, bsl.hex, rec.technology))
                .or_insert(Agg {
                    best: None,
                    low_latency: false,
                    locations: BTreeSet::new(),
                });
            let candidate = (rec.max_down_mbps, rec.max_up_mbps);
            let wins = match agg.best {
                None => true,
                Some(best) => crate::stream::speed_pair_wins(candidate, best),
            };
            if wins {
                agg.best = Some(candidate);
            }
            agg.low_latency |= rec.low_latency;
            agg.locations.insert(rec.location);
        }
        let hex_claims: Vec<HexClaim> = groups
            .into_iter()
            .map(|((provider, hex, technology), agg)| {
                let (max_down_mbps, max_up_mbps) = agg.best.unwrap_or((0.0, 0.0));
                HexClaim {
                    provider,
                    hex,
                    technology,
                    max_down_mbps,
                    max_up_mbps,
                    low_latency: agg.low_latency,
                    locations_claimed: agg.locations.len(),
                    total_bsls_in_hex: fabric.bsl_count_in_hex(&hex),
                }
            })
            .collect();
        Self::from_parts(version, published, hex_claims)
    }

    /// Assemble a release from already-aggregated per-hex claims, building
    /// the claim index — the single constructor every path funnels through,
    /// so a release can never exist with a stale or empty index.
    pub fn from_parts(
        version: ReleaseVersion,
        published: DayStamp,
        hex_claims: Vec<HexClaim>,
    ) -> Self {
        let claim_index = hex_claims
            .iter()
            .enumerate()
            .map(|(i, c)| (c.observation_key(), i))
            .collect();
        Self {
            version,
            published,
            hex_claims,
            claim_index,
        }
    }

    /// The public per-hex claims.
    pub fn hex_claims(&self) -> &[HexClaim] {
        &self.hex_claims
    }

    /// Number of per-hex claims.
    pub fn claim_count(&self) -> usize {
        self.hex_claims.len()
    }

    /// Look up a provider's claim in a hex for a technology.
    pub fn claim_for(
        &self,
        provider: ProviderId,
        hex: HexCell,
        tech: Technology,
    ) -> Option<&HexClaim> {
        self.claim_index
            .get(&(provider, hex, tech))
            .map(|&i| &self.hex_claims[i])
    }

    /// The hexes each of `providers` claims with any technology, grouped in
    /// one pass over the hex claims: one strictly ascending list per
    /// provider, each hex once however many technologies claim it. A
    /// provider with no claims maps to an empty list; claims of providers
    /// not asked for are skipped.
    pub fn claimed_hexes_by_provider(
        &self,
        providers: impl IntoIterator<Item = ProviderId>,
    ) -> BTreeMap<ProviderId, Vec<HexCell>> {
        let mut out: BTreeMap<ProviderId, Vec<HexCell>> =
            providers.into_iter().map(|p| (p, Vec::new())).collect();
        for c in &self.hex_claims {
            if let Some(hexes) = out.get_mut(&c.provider) {
                hexes.push(c.hex);
            }
        }
        for hexes in out.values_mut() {
            hexes.sort_unstable();
            hexes.dedup();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Bsl;
    use crate::filing::ServiceType;
    use geoprim::LatLng;

    fn fabric() -> Fabric {
        let base = LatLng::new(37.0, -80.0);
        let bsls = (0..10u64)
            .map(|i| {
                Bsl::new(
                    LocationId(i),
                    LatLng::new(base.lat + i as f64 * 0.0004, base.lng),
                    1,
                    false,
                    "VA",
                )
            })
            .collect();
        Fabric::new(bsls)
    }

    fn record(loc: u64, down: f64, up: f64) -> AvailabilityRecord {
        AvailabilityRecord {
            provider: ProviderId(1),
            location: LocationId(loc),
            technology: Technology::Fiber,
            max_down_mbps: down,
            max_up_mbps: up,
            low_latency: true,
            service_type: ServiceType::Both,
        }
    }

    #[test]
    fn aggregation_takes_max_download_and_its_upload() {
        let f = fabric();
        let recs = vec![record(0, 100.0, 100.0), record(1, 940.0, 35.0)];
        let rel = NbmRelease::from_records(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            &recs,
            &f,
        );
        // Both locations share a hex at this spacing, or occupy at most two.
        let total_locs: usize = rel.hex_claims().iter().map(|c| c.locations_claimed).sum();
        assert_eq!(total_locs, 2);
        let max_claim = rel
            .hex_claims()
            .iter()
            .max_by(|a, b| a.max_down_mbps.partial_cmp(&b.max_down_mbps).unwrap())
            .unwrap();
        assert_eq!(max_claim.max_down_mbps, 940.0);
        assert_eq!(max_claim.max_up_mbps, 35.0);
    }

    #[test]
    fn claims_for_unknown_locations_are_dropped() {
        let f = fabric();
        let recs = vec![record(999, 100.0, 10.0)];
        let rel = NbmRelease::from_records(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            &recs,
            &f,
        );
        assert_eq!(rel.claim_count(), 0);
    }

    #[test]
    fn location_claim_pct_bounded() {
        let f = fabric();
        let recs: Vec<_> = (0..10).map(|i| record(i, 100.0, 10.0)).collect();
        let rel = NbmRelease::from_records(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            &recs,
            &f,
        );
        for c in rel.hex_claims() {
            let pct = c.location_claim_pct();
            assert!((0.0..=1.0).contains(&pct));
            assert!(pct > 0.0);
        }
    }

    #[test]
    fn claim_lookup_by_key() {
        let f = fabric();
        let recs = vec![record(0, 100.0, 10.0)];
        let rel = NbmRelease::from_records(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            &recs,
            &f,
        );
        let claim = &rel.hex_claims()[0];
        assert!(rel
            .claim_for(claim.provider, claim.hex, claim.technology)
            .is_some());
        assert!(rel
            .claim_for(ProviderId(99), claim.hex, claim.technology)
            .is_none());
    }

    #[test]
    fn version_navigation() {
        let v = ReleaseVersion::initial();
        assert_eq!(v.next_minor(), ReleaseVersion { major: 1, minor: 1 });
        assert_eq!(v.next_major(), ReleaseVersion { major: 2, minor: 0 });
        assert_eq!(format!("{v}"), "v1.0");
    }

    #[test]
    fn aggregation_breaks_download_ties_by_upload() {
        // Regression: a record with equal max_down but higher max_up used to
        // be ignored (`>` comparison on download alone).
        let f = fabric();
        let recs = vec![record(0, 940.0, 35.0), record(1, 940.0, 880.0)];
        let rel = NbmRelease::from_records(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            &recs,
            &f,
        );
        let max_claim = rel
            .hex_claims()
            .iter()
            .max_by(|a, b| a.max_up_mbps.total_cmp(&b.max_up_mbps))
            .unwrap();
        assert_eq!(max_claim.max_down_mbps, 940.0);
        assert_eq!(max_claim.max_up_mbps, 880.0);
    }

    #[test]
    fn aggregation_admits_zero_download_records() {
        // Regression: a lone 0.0-down record never initialised the
        // aggregation state (`Agg::default` started at 0.0, and `0.0 > 0.0`
        // is false), so its upload was silently reported as 0.0.
        let f = fabric();
        let recs = vec![record(0, 0.0, 7.5)];
        let rel = NbmRelease::from_records(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            &recs,
            &f,
        );
        assert_eq!(rel.claim_count(), 1);
        let claim = &rel.hex_claims()[0];
        assert_eq!(claim.max_down_mbps, 0.0);
        assert_eq!(claim.max_up_mbps, 7.5);
    }

    #[test]
    fn from_parts_rebuilds_claim_index() {
        // The per-hex claims are the whole of a release (`claim_index` is
        // derived state), so reassembling them answers every lookup the
        // aggregated release answers.
        let f = fabric();
        let recs = vec![record(0, 100.0, 10.0), record(5, 250.0, 25.0)];
        let rel = NbmRelease::from_records(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            &recs,
            &f,
        );
        let keys: Vec<_> = rel
            .hex_claims()
            .iter()
            .map(|c| c.observation_key())
            .collect();
        assert!(!keys.is_empty());
        let rebuilt = NbmRelease::from_parts(rel.version, rel.published, rel.hex_claims().to_vec());
        assert_eq!(rebuilt.hex_claims(), rel.hex_claims());
        for (provider, hex, tech) in keys {
            assert_eq!(
                rebuilt.claim_for(provider, hex, tech),
                rel.claim_for(provider, hex, tech),
                "claim index not rebuilt for {provider:?}/{tech:?}"
            );
        }
    }

    #[test]
    fn claimed_hexes_group_like_a_per_provider_filter() {
        // Two providers over four hexes, one of provider 1's hexes claimed
        // under two technologies, a third provider asked for with no claims,
        // and a claimant nobody asks for.
        let bsls = (0..12u64)
            .map(|i| {
                let lat = 37.0 + (i % 4) as f64 * 0.05;
                Bsl::new(LocationId(i), LatLng::new(lat, -80.0), 1, false, "VA")
            })
            .collect();
        let f = Fabric::new(bsls);
        let mut recs = Vec::new();
        for i in 0..12u64 {
            let mut r = record(i, 100.0, 10.0);
            r.provider = ProviderId([1, 2, 9][(i % 3) as usize]);
            if i % 4 == 0 {
                r.technology = Technology::Copper;
            }
            recs.push(r);
        }
        // Location 3 is provider 1's fiber claim.
        let mut copper = record(3, 20.0, 2.0);
        copper.technology = Technology::Copper;
        recs.push(copper);
        let rel = NbmRelease::from_records(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            &recs,
            &f,
        );
        let asked = [ProviderId(1), ProviderId(2), ProviderId(5)];
        let grouped = rel.claimed_hexes_by_provider(asked);
        let filtered: BTreeMap<ProviderId, Vec<HexCell>> = asked
            .iter()
            .map(|&p| {
                let hexes = rel.hex_claims().iter().filter(|c| c.provider == p);
                let set: BTreeSet<HexCell> = hexes.map(|c| c.hex).collect();
                (p, set.into_iter().collect())
            })
            .collect();
        assert_eq!(grouped, filtered);
        for hexes in grouped.values() {
            assert!(hexes.windows(2).all(|w| w[0] < w[1]), "{hexes:?}");
        }
        assert!(grouped[&ProviderId(5)].is_empty());
        assert!(grouped[&ProviderId(1)].len() > 1);
        let provider_1_claims = rel
            .hex_claims()
            .iter()
            .filter(|c| c.provider == ProviderId(1));
        assert!(
            provider_1_claims.count() > grouped[&ProviderId(1)].len(),
            "no hex of provider 1 is claimed under two technologies"
        );
        assert!(!grouped.contains_key(&ProviderId(9)));
    }
}
