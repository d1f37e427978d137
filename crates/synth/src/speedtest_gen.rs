//! Generating crowdsourced speed tests from the ground-truth coverage.
//!
//! Ookla device density tracks *actual* service availability: hexes genuinely
//! served by some provider see roughly `ookla_devices_per_served_bsl` unique
//! devices per BSL, unserved hexes see an order of magnitude fewer. MLab tests
//! are generated per provider (through that provider's ASNs) only in hexes the
//! provider genuinely serves — which is exactly the association the paper's
//! likely-served synthesis relies on.

use std::collections::{BTreeMap, BTreeSet};

use bdc::{Asn, DayStamp, Fabric, ProviderId, ShardStream};
use geoprim::LatLng;
use hexgrid::{HexCell, QuadTile, OOKLA_ZOOM};
use rand::Rng;
use speedtest::{MlabDataset, MlabTest, OoklaDataset, OoklaTileRecord};

use crate::config::SynthConfig;
use crate::shard::{shard_rng, SynthStage};

/// Generate the Ookla tile for one occupied hex — shard `hex_index` of the
/// sorted occupied-hex order, drawing only from that hex's RNG stream. The
/// single generation kernel behind both [`generate_ookla`] and the streaming
/// [`OoklaEmitter`].
pub fn ookla_hex_record(
    config: &SynthConfig,
    hex_index: usize,
    hex: &HexCell,
    bsls: usize,
    served: bool,
) -> Option<OoklaTileRecord> {
    let bsls = bsls as f64;
    if bsls == 0.0 {
        return None;
    }
    let mut rng = shard_rng(config.seed, SynthStage::Ookla, hex_index as u64);
    let devices = if served {
        bsls * config.ookla_devices_per_served_bsl * rng.gen_range(0.8..1.5)
    } else {
        bsls * rng.gen_range(0.02..0.45)
    };
    let devices = devices.round().max(if served { 1.0 } else { 0.0 });
    if devices == 0.0 {
        return None;
    }
    let tests = (devices * rng.gen_range(2.0..4.0)).round();
    let (down_kbps, up_kbps, latency) = if served {
        (
            rng.gen_range(80_000.0..900_000.0),
            rng.gen_range(10_000.0..500_000.0),
            rng.gen_range(8.0..40.0),
        )
    } else {
        (
            rng.gen_range(2_000.0..30_000.0),
            rng.gen_range(500.0..5_000.0),
            rng.gen_range(30.0..120.0),
        )
    };
    Some(OoklaTileRecord {
        tile: QuadTile::containing(&hex.center(), OOKLA_ZOOM),
        tests: tests as u32,
        devices: devices as u32,
        avg_download_kbps: down_kbps,
        avg_upload_kbps: up_kbps,
        avg_latency_ms: latency,
    })
}

/// A [`ShardStream`] of Ookla tiles over a sorted occupied-hex table
/// (`(hex, bsl count, truly served)` per entry): shard `i` regenerates hex
/// `i`'s tile on demand. Only the hex table stays resident — which the
/// streaming path already holds for label construction, so the Ookla stage
/// adds no fabric-sized state.
pub struct OoklaEmitter<'a> {
    config: &'a SynthConfig,
    hexes: &'a [(HexCell, u32, bool)],
}

impl<'a> OoklaEmitter<'a> {
    /// `hexes` must be the occupied hexes in ascending hex order — the shard
    /// order `generate_ookla` has always used.
    pub fn new(config: &'a SynthConfig, hexes: &'a [(HexCell, u32, bool)]) -> Self {
        Self { config, hexes }
    }
}

impl ShardStream for OoklaEmitter<'_> {
    type Item = OoklaTileRecord;

    fn shard_count(&self) -> usize {
        self.hexes.len()
    }

    fn shard(&self, index: usize) -> Vec<OoklaTileRecord> {
        let (hex, bsls, served) = self.hexes[index];
        ookla_hex_record(self.config, index, &hex, bsls as usize, served)
            .into_iter()
            .collect()
    }

    fn resident_entries(&self) -> usize {
        self.hexes.len()
    }
}

/// Generate the Ookla open-data tiles. Each occupied hex contributes one tile
/// centred on the hex; the tile's device count reflects whether the hex is
/// genuinely served by any provider. One shard (and one RNG stream) per
/// occupied hex, in sorted hex order. Thin adapter over [`OoklaEmitter`].
pub fn generate_ookla(
    config: &SynthConfig,
    fabric: &Fabric,
    truly_served_hexes: &BTreeSet<HexCell>,
    workers: usize,
) -> OoklaDataset {
    // Sort the occupied hexes so shard indices (and therefore the streams and
    // the whole generated world) are independent of hash-map iteration order.
    let mut hexes: Vec<&HexCell> = fabric.hexes().collect();
    hexes.sort();
    let table: Vec<(HexCell, u32, bool)> = hexes
        .into_iter()
        .map(|h| {
            (
                *h,
                fabric.bsl_count_in_hex(h) as u32,
                truly_served_hexes.contains(h),
            )
        })
        .collect();
    let emitter = OoklaEmitter::new(config, &table);
    OoklaDataset::new(bdc::collect_shards(&emitter, workers))
}

/// Generate one provider's MLab tests (shard keyed by provider id), drawing
/// only from that provider's RNG stream. The single generation kernel behind
/// both [`generate_mlab`] and the streaming [`MlabEmitter`].
pub fn mlab_provider_tests(
    config: &SynthConfig,
    provider: ProviderId,
    asns: &BTreeSet<Asn>,
    served_hexes: Option<&BTreeSet<HexCell>>,
) -> Vec<MlabTest> {
    let window_start = DayStamp::from_ymd(2021, 10, 1);
    let window_days = 365u32;
    let mut out = Vec::new();
    if asns.is_empty() {
        return out;
    }
    let asns: Vec<Asn> = asns.iter().copied().collect();
    let Some(hexes) = served_hexes else {
        return out;
    };
    let mut rng = shard_rng(config.seed, SynthStage::Mlab, u64::from(provider.value()));
    for hex in hexes {
        let expected = config.mlab_tests_per_served_hex * rng.gen_range(0.3..1.8);
        let n = expected.round() as usize;
        for _ in 0..n {
            let center: LatLng = hex.center();
            let jitter_km = rng.gen_range(0.0..3.0);
            let bearing = rng.gen_range(0.0..360.0);
            let geo_center = center.destination(bearing, jitter_km * 1000.0);
            // Mostly precise geolocations with a small unusable tail above
            // the paper's 20 km filter.
            let accuracy_radius_km = if rng.gen_bool(0.93) {
                rng.gen_range(0.5..12.0)
            } else {
                rng.gen_range(20.5..80.0)
            };
            out.push(MlabTest {
                asn: asns[rng.gen_range(0..asns.len())],
                download_mbps: rng.gen_range(5.0..800.0),
                upload_mbps: rng.gen_range(1.0..300.0),
                latency_ms: rng.gen_range(5.0..90.0),
                geo_center,
                accuracy_radius_km,
                day: window_start.plus_days(rng.gen_range(0..window_days)),
            });
        }
    }
    out
}

/// A [`ShardStream`] of MLab tests, one shard per ASN-matched provider
/// (in provider-id order, as [`generate_mlab`] has always sharded). Resident
/// state is the provider → ASN and provider → served-hex maps the caller
/// already holds; each shard's tests are regenerated on demand.
pub struct MlabEmitter<'a> {
    config: &'a SynthConfig,
    shards: Vec<(ProviderId, &'a BTreeSet<Asn>)>,
    served_hexes_by_provider: &'a BTreeMap<ProviderId, BTreeSet<HexCell>>,
}

impl<'a> MlabEmitter<'a> {
    pub fn new(
        config: &'a SynthConfig,
        provider_asns: &'a BTreeMap<ProviderId, BTreeSet<Asn>>,
        served_hexes_by_provider: &'a BTreeMap<ProviderId, BTreeSet<HexCell>>,
    ) -> Self {
        Self {
            config,
            shards: provider_asns.iter().map(|(p, a)| (*p, a)).collect(),
            served_hexes_by_provider,
        }
    }
}

impl ShardStream for MlabEmitter<'_> {
    type Item = MlabTest;

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, index: usize) -> Vec<MlabTest> {
        let (provider, asns) = self.shards[index];
        mlab_provider_tests(
            self.config,
            provider,
            asns,
            self.served_hexes_by_provider.get(&provider),
        )
    }

    fn resident_entries(&self) -> usize {
        self.shards.len()
            + self
                .served_hexes_by_provider
                .values()
                .map(BTreeSet::len)
                .sum::<usize>()
    }
}

/// Generate MLab NDT7 tests for every provider that has at least one ASN, in
/// the hexes that provider genuinely serves. One shard (and one RNG stream)
/// per provider, keyed by provider id. Thin adapter over [`MlabEmitter`].
pub fn generate_mlab(
    config: &SynthConfig,
    provider_asns: &BTreeMap<ProviderId, BTreeSet<Asn>>,
    served_hexes_by_provider: &BTreeMap<ProviderId, BTreeSet<HexCell>>,
    workers: usize,
) -> MlabDataset {
    let emitter = MlabEmitter::new(config, provider_asns, served_hexes_by_provider);
    MlabDataset::new(bdc::collect_shards(&emitter, workers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthUs;

    /// A generated world with the truly served hexes, overall and per
    /// provider, read off its hex-level ground truth.
    fn world() -> (
        SynthUs,
        BTreeSet<HexCell>,
        BTreeMap<ProviderId, BTreeSet<HexCell>>,
    ) {
        let world = SynthUs::generate(&SynthConfig::tiny(31));
        let mut per_provider: BTreeMap<ProviderId, BTreeSet<HexCell>> = BTreeMap::new();
        for (&(provider, hex, _), _) in world.ground_truth.iter().filter(|(_, &truly)| truly) {
            per_provider.entry(provider).or_default().insert(hex);
        }
        let served = per_provider.values().flatten().copied().collect();
        (world, served, per_provider)
    }

    #[test]
    fn ookla_density_tracks_ground_truth() {
        let (world, served, _) = world();
        assert!(!world.ookla.is_empty());
        // Average devices per BSL should be clearly higher in served hexes.
        let agg = world.ookla.aggregate_to_hexes(hexgrid::NBM_RESOLUTION);
        let mut served_ratio = Vec::new();
        let mut unserved_ratio = Vec::new();
        for (hex, a) in &agg {
            let bsls = world.fabric.bsl_count_in_hex(hex);
            if bsls == 0 {
                continue;
            }
            let ratio = a.devices / bsls as f64;
            if served.contains(hex) {
                served_ratio.push(ratio);
            } else {
                unserved_ratio.push(ratio);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&served_ratio) > 2.0 * mean(&unserved_ratio),
            "served {} vs unserved {}",
            mean(&served_ratio),
            mean(&unserved_ratio)
        );
        assert!(mean(&served_ratio) > 1.0);
    }

    #[test]
    fn mlab_tests_only_in_provider_served_hexes() {
        let (world, _, per_provider) = world();
        // Give the first two providers an ASN each.
        let mut provider_asns: BTreeMap<ProviderId, BTreeSet<Asn>> = BTreeMap::new();
        for (i, p) in per_provider.keys().take(2).enumerate() {
            provider_asns.insert(*p, BTreeSet::from([Asn(64500 + i as u32)]));
        }
        let mlab = generate_mlab(&world.config, &provider_asns, &per_provider, 1);
        assert!(!mlab.is_empty());
        // Every test's ASN belongs to one of the two providers, and its
        // geolocation lies within the 3 km jitter of one of that provider's
        // served hexes.
        for t in mlab.tests() {
            assert!(t.asn.value() == 64500 || t.asn.value() == 64501);
            let provider = per_provider.keys().nth((t.asn.value() - 64500) as usize);
            let hexes = &per_provider[provider.unwrap()];
            assert!(hexes
                .iter()
                .any(|h| h.center().haversine_km(&t.geo_center) <= 3.0 + 1e-6));
        }
        // A small fraction of tests is deliberately unusable (radius > 20 km).
        let unusable = mlab.tests().iter().filter(|t| !t.usable()).count();
        assert!(unusable > 0);
        assert!((unusable as f64) < 0.2 * mlab.len() as f64);
    }

    #[test]
    fn providers_without_asns_generate_no_tests() {
        let (world, _, per_provider) = world();
        let provider_asns: BTreeMap<ProviderId, BTreeSet<Asn>> = BTreeMap::new();
        let mlab = generate_mlab(&world.config, &provider_asns, &per_provider, 1);
        assert!(mlab.is_empty());
    }

    #[test]
    fn speed_tests_are_worker_count_invariant() {
        let (world, served, per_provider) = world();
        let config = world.config;
        let mut provider_asns: BTreeMap<ProviderId, BTreeSet<Asn>> = BTreeMap::new();
        for (i, p) in per_provider.keys().take(4).enumerate() {
            provider_asns.insert(*p, BTreeSet::from([Asn(64500 + i as u32)]));
        }
        let ookla_base = generate_ookla(&config, &world.fabric, &served, 1);
        let mlab_base = generate_mlab(&config, &provider_asns, &per_provider, 1);
        for workers in [2, 5] {
            let ookla = generate_ookla(&config, &world.fabric, &served, workers);
            assert_eq!(
                ookla.records(),
                ookla_base.records(),
                "ookla differs at {workers} workers"
            );
            let mlab = generate_mlab(&config, &provider_asns, &per_provider, workers);
            assert_eq!(mlab.len(), mlab_base.len());
            for (a, b) in mlab.tests().iter().zip(mlab_base.tests()) {
                assert_eq!(a.asn, b.asn);
                assert_eq!(a.download_mbps.to_bits(), b.download_mbps.to_bits());
                assert_eq!(a.geo_center.lat.to_bits(), b.geo_center.lat.to_bits());
            }
        }
    }
}
