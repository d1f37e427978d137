//! Attributing and localising MLab tests to providers (§4.2.2).
//!
//! Each usable MLab test carries an ASN and an IP-geolocation disc. Given the
//! provider→ASN mapping produced by the `asnmap` matcher and each provider's
//! claimed footprint in the NBM, a test contributes evidence to every hex that
//! is (a) within the geolocation disc and (b) claimed by the provider the
//! test's ASN belongs to.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use bdc::{map_shards, Asn, DiffMode, ProviderId};
use hexgrid::{HexCell, Resolution};
use serde::{Deserialize, Serialize};

use crate::mlab::MlabTest;

/// Per-provider, per-hex MLab evidence: how many usable tests could have been
/// run from each hex of the provider's claimed footprint.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProviderHexTests {
    counts: HashMap<(ProviderId, HexCell), f64>,
}

impl ProviderHexTests {
    /// Test count attributed to a provider in a hex (0 when none).
    pub fn count(&self, provider: ProviderId, hex: HexCell) -> f64 {
        *self.counts.get(&(provider, hex)).unwrap_or(&0.0)
    }

    /// All hexes with attributed tests for a provider.
    pub fn hexes_for(&self, provider: ProviderId) -> BTreeSet<HexCell> {
        self.counts
            .keys()
            .filter(|(p, _)| *p == provider)
            .map(|(_, h)| *h)
            .collect()
    }

    /// Total number of (provider, hex) pairs with evidence.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no tests were attributed.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total attributed test mass for a provider.
    pub fn total_for(&self, provider: ProviderId) -> f64 {
        self.counts
            .iter()
            .filter(|((p, _), _)| *p == provider)
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterate over all `(provider, hex, count)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (ProviderId, HexCell, f64)> + '_ {
        self.counts.iter().map(|((p, h), c)| (*p, *h, *c))
    }
}

/// The hexes a test could have been run from: every cell whose centroid lies
/// within the geolocation accuracy radius of the test's centre (plus the
/// centre cell itself).
pub fn candidate_hexes(
    center: &geoprim::LatLng,
    accuracy_radius_km: f64,
    res: Resolution,
) -> Vec<HexCell> {
    let center_cell = HexCell::containing(center, res);
    // One grid step moves roughly sqrt(3) * circumradius between centroids.
    let step_km = res.hex_size_km() * 3.0_f64.sqrt();
    let k = (accuracy_radius_km / step_km).ceil().max(0.0) as usize;
    center_cell
        .grid_disk(k)
        .into_iter()
        .filter(|cell| {
            cell == &center_cell || cell.center().haversine_km(center) <= accuracy_radius_km
        })
        .collect()
}

/// Usable, mapped tests per block below which fanning the block's geometry
/// across workers is not worth the thread-spawn overhead. Both paths fold
/// identically (see module tests).
const PARALLEL_MIN_TESTS: usize = 512;

/// Tests per block: candidate-hex vectors are only ever materialised for one
/// block at a time, bounding peak memory at `O(TEST_BLOCK × hexes-per-radius)`
/// regardless of dataset size.
const TEST_BLOCK: usize = 4096;

/// Fold one test's surviving candidate hexes into a provider's counts: the
/// single accumulation step every count goes through.
fn accumulate_test(
    provider: ProviderId,
    footprint: &BTreeSet<HexCell>,
    candidates: &[HexCell],
    counts: &mut HashMap<(ProviderId, HexCell), f64>,
) {
    let localized: Vec<&HexCell> = candidates
        .iter()
        .filter(|h| footprint.contains(h))
        .collect();
    if localized.is_empty() {
        return;
    }
    let share = 1.0 / localized.len() as f64;
    for hex in localized {
        *counts.entry((provider, *hex)).or_insert(0.0) += share;
    }
}

/// Attribute MLab tests to providers and localise them to hexes (§4.2.2).
///
/// * `provider_asns` — the provider→ASN mapping from the `asnmap` matcher.
/// * `claimed_hexes` — each provider's claimed footprint in the NBM.
///
/// A test whose ASN maps to several providers contributes to each of them (the
/// paper notes shared ASNs are usually corporate siblings or wholesale
/// transit). Tests are split evenly across the candidate hexes that survive
/// the footprint intersection so that each test contributes one unit of mass.
///
/// Tests are fed in dataset order, batch by batch: the materialised pipeline
/// feeds the whole dataset at once, the streaming runner one shard at a time.
/// Within a batch, each block of `TEST_BLOCK` tests computes its candidate
/// hexes (pure geometry) across scoped workers when it holds enough usable
/// mapped tests, then folds them serially in test order. Every count
/// therefore accumulates in ascending test order, so any batch split and any
/// worker count is bit-identical.
pub struct MlabAttributor<'a> {
    asn_to_providers: BTreeMap<Asn, Vec<ProviderId>>,
    claimed_hexes: &'a BTreeMap<ProviderId, BTreeSet<HexCell>>,
    res: Resolution,
    workers: usize,
    counts: HashMap<(ProviderId, HexCell), f64>,
}

impl<'a> MlabAttributor<'a> {
    /// Set up an attributor over a provider→ASN mapping and per-provider
    /// claimed footprints.
    pub fn new(
        provider_asns: &BTreeMap<ProviderId, BTreeSet<Asn>>,
        claimed_hexes: &'a BTreeMap<ProviderId, BTreeSet<HexCell>>,
        res: Resolution,
    ) -> Self {
        let mut asn_to_providers: BTreeMap<Asn, Vec<ProviderId>> = BTreeMap::new();
        for (provider, asns) in provider_asns {
            for asn in asns {
                asn_to_providers.entry(*asn).or_default().push(*provider);
            }
        }
        Self {
            asn_to_providers,
            claimed_hexes,
            res,
            workers: DiffMode::Parallel.worker_count(),
            counts: HashMap::new(),
        }
    }

    /// Force the geometry worker count, so tests exercise every schedule on
    /// any host.
    #[cfg(test)]
    fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Fold a batch of tests in, in order. Unusable tests and tests whose
    /// ASN maps to no provider are skipped.
    pub fn add_tests(&mut self, tests: &[MlabTest]) {
        for block in tests.chunks(TEST_BLOCK) {
            let mapped: Vec<(&MlabTest, &[ProviderId])> = block
                .iter()
                .filter(|t| t.usable())
                .filter_map(|t| Some((t, self.asn_to_providers.get(&t.asn)?.as_slice())))
                .collect();
            let workers = if mapped.len() >= PARALLEL_MIN_TESTS {
                self.workers
            } else {
                1
            };
            let candidates = map_shards(workers, &mapped, |_, (t, _)| {
                candidate_hexes(&t.geo_center, t.accuracy_radius_km, self.res)
            });
            for ((_, providers), candidates) in mapped.iter().zip(&candidates) {
                for provider in *providers {
                    if let Some(footprint) = self.claimed_hexes.get(provider) {
                        accumulate_test(*provider, footprint, candidates, &mut self.counts);
                    }
                }
            }
        }
    }

    /// The accumulated evidence.
    pub fn finish(self) -> ProviderHexTests {
        ProviderHexTests {
            counts: self.counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlab::MlabDataset;
    use bdc::DayStamp;
    use geoprim::LatLng;
    use hexgrid::NBM_RESOLUTION;

    fn center() -> LatLng {
        LatLng::new(37.2296, -80.4139)
    }

    fn test_at(asn: u32, center: LatLng, radius: f64) -> MlabTest {
        MlabTest {
            asn: Asn(asn),
            download_mbps: 100.0,
            upload_mbps: 10.0,
            latency_ms: 20.0,
            geo_center: center,
            accuracy_radius_km: radius,
            day: DayStamp::from_ymd(2022, 3, 1),
        }
    }

    #[test]
    fn candidate_hexes_grow_with_radius() {
        let small = candidate_hexes(&center(), 1.0, NBM_RESOLUTION);
        let large = candidate_hexes(&center(), 10.0, NBM_RESOLUTION);
        assert!(!small.is_empty());
        assert!(large.len() > small.len());
        let center_cell = HexCell::containing(&center(), NBM_RESOLUTION);
        assert!(small.contains(&center_cell));
        assert!(large.contains(&center_cell));
    }

    #[test]
    fn zero_radius_still_returns_center_cell() {
        let cells = candidate_hexes(&center(), 0.0, NBM_RESOLUTION);
        assert_eq!(cells, vec![HexCell::containing(&center(), NBM_RESOLUTION)]);
    }

    fn attribute(
        mlab: &MlabDataset,
        provider_asns: &BTreeMap<ProviderId, BTreeSet<Asn>>,
        claimed_hexes: &BTreeMap<ProviderId, BTreeSet<HexCell>>,
    ) -> ProviderHexTests {
        let mut attributor = MlabAttributor::new(provider_asns, claimed_hexes, NBM_RESOLUTION);
        attributor.add_tests(mlab.tests());
        attributor.finish()
    }

    fn maps(
        provider: u32,
        asn: u32,
        footprint: BTreeSet<HexCell>,
    ) -> (
        BTreeMap<ProviderId, BTreeSet<Asn>>,
        BTreeMap<ProviderId, BTreeSet<HexCell>>,
    ) {
        let mut pa = BTreeMap::new();
        pa.insert(ProviderId(provider), BTreeSet::from([Asn(asn)]));
        let mut ch = BTreeMap::new();
        ch.insert(ProviderId(provider), footprint);
        (pa, ch)
    }

    #[test]
    fn test_attributed_to_claimed_footprint_only() {
        let footprint: BTreeSet<HexCell> = candidate_hexes(&center(), 2.0, NBM_RESOLUTION)
            .into_iter()
            .collect();
        let (pa, ch) = maps(1, 64500, footprint.clone());
        let mlab = MlabDataset::new(vec![test_at(64500, center(), 5.0)]);
        let attributed = attribute(&mlab, &pa, &ch);
        assert!(!attributed.is_empty());
        // Every attributed hex is inside the claimed footprint.
        for hex in attributed.hexes_for(ProviderId(1)) {
            assert!(footprint.contains(&hex));
        }
        // The test contributes exactly one unit of mass in total.
        assert!((attributed.total_for(ProviderId(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unusable_or_unmapped_tests_are_ignored() {
        let footprint: BTreeSet<HexCell> = candidate_hexes(&center(), 2.0, NBM_RESOLUTION)
            .into_iter()
            .collect();
        let (pa, ch) = maps(1, 64500, footprint);
        let mlab = MlabDataset::new(vec![
            test_at(64500, center(), 50.0), // radius too large
            test_at(99999, center(), 5.0),  // unmapped ASN
        ]);
        let attributed = attribute(&mlab, &pa, &ch);
        assert!(attributed.is_empty());
        assert_eq!(
            attributed.count(
                ProviderId(1),
                HexCell::containing(&center(), NBM_RESOLUTION)
            ),
            0.0
        );
    }

    #[test]
    fn test_outside_footprint_contributes_nothing() {
        // Footprint far away from the test's geolocation disc.
        let far = LatLng::new(45.0, -93.0);
        let footprint: BTreeSet<HexCell> = candidate_hexes(&far, 2.0, NBM_RESOLUTION)
            .into_iter()
            .collect();
        let (pa, ch) = maps(1, 64500, footprint);
        let mlab = MlabDataset::new(vec![test_at(64500, center(), 5.0)]);
        let attributed = attribute(&mlab, &pa, &ch);
        assert!(attributed.is_empty());
    }

    /// The pre-parallelism algorithm, kept verbatim as the reference:
    /// iterate tests outermost, providers innermost.
    fn attribute_reference(
        mlab: &MlabDataset,
        provider_asns: &BTreeMap<ProviderId, BTreeSet<Asn>>,
        claimed_hexes: &BTreeMap<ProviderId, BTreeSet<HexCell>>,
        res: Resolution,
    ) -> ProviderHexTests {
        let mut asn_to_providers: BTreeMap<Asn, Vec<ProviderId>> = BTreeMap::new();
        for (provider, asns) in provider_asns {
            for asn in asns {
                asn_to_providers.entry(*asn).or_default().push(*provider);
            }
        }
        let mut out = ProviderHexTests::default();
        for test in mlab.usable_tests() {
            let Some(providers) = asn_to_providers.get(&test.asn) else {
                continue;
            };
            let candidates = candidate_hexes(&test.geo_center, test.accuracy_radius_km, res);
            for provider in providers {
                let Some(footprint) = claimed_hexes.get(provider) else {
                    continue;
                };
                let localized: Vec<&HexCell> = candidates
                    .iter()
                    .filter(|h| footprint.contains(h))
                    .collect();
                if localized.is_empty() {
                    continue;
                }
                let share = 1.0 / localized.len() as f64;
                for hex in localized {
                    *out.counts.entry((*provider, *hex)).or_insert(0.0) += share;
                }
            }
        }
        out
    }

    /// Every batch split and every forced worker count — across the
    /// parallel-block threshold and the block size — reproduces the
    /// reference bit for bit, with unusable and unmapped tests in the mix.
    #[test]
    fn attributor_matches_reference_under_every_split_and_worker_count() {
        // A seeded SplitMix64 stream of uniforms in [0, 1).
        let mut state = 0x4D1ABu64;
        let mut uniform = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        };
        let mut pa: BTreeMap<ProviderId, BTreeSet<Asn>> = BTreeMap::new();
        let mut ch: BTreeMap<ProviderId, BTreeSet<HexCell>> = BTreeMap::new();
        // Six providers on three shared ASNs, footprints at staggered offsets;
        // provider 5 has an ASN but no claimed footprint.
        for p in 0..6u32 {
            pa.insert(ProviderId(p), BTreeSet::from([Asn(64500 + p % 3)]));
            if p < 5 {
                let c = LatLng::new(37.0 + p as f64 * 0.05, -80.4 - p as f64 * 0.03);
                ch.insert(
                    ProviderId(p),
                    candidate_hexes(&c, 4.0, NBM_RESOLUTION)
                        .into_iter()
                        .collect(),
                );
            }
        }
        let n = 2 * TEST_BLOCK + 1000;
        let tests: Vec<MlabTest> = (0..n)
            .map(|_| {
                // ASN 64503 maps to no provider.
                let asn = 64500 + (uniform() * 4.0) as u32;
                let c = LatLng::new(37.0 + uniform() * 0.25, -80.55 + uniform() * 0.2);
                // A tail above the 20 km usability filter.
                let radius = if uniform() < 0.95 {
                    0.3 + uniform() * 2.7
                } else {
                    25.0 + uniform() * 15.0
                };
                test_at(asn, c, radius)
            })
            .collect();
        let mlab = MlabDataset::new(tests.clone());
        let reference = attribute_reference(&mlab, &pa, &ch, NBM_RESOLUTION);
        assert!(!reference.is_empty());
        assert!(mlab.usable_tests().count() < n, "no unusable tests drawn");

        for split in [1, 7, 511, 512, TEST_BLOCK, 2 * TEST_BLOCK + 123, n] {
            for workers in [1, 2, 3] {
                let mut attributor =
                    MlabAttributor::new(&pa, &ch, NBM_RESOLUTION).with_workers(workers);
                for batch in tests.chunks(split) {
                    attributor.add_tests(batch);
                }
                let got = attributor.finish();
                assert_eq!(
                    got.len(),
                    reference.len(),
                    "split {split}, {workers} workers"
                );
                for (p, hex, count) in reference.iter() {
                    assert_eq!(
                        got.count(p, hex).to_bits(),
                        count.to_bits(),
                        "split {split}, {workers} workers: provider {p:?} hex {hex:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_asn_contributes_to_both_providers() {
        let footprint: BTreeSet<HexCell> = candidate_hexes(&center(), 2.0, NBM_RESOLUTION)
            .into_iter()
            .collect();
        let mut pa: BTreeMap<ProviderId, BTreeSet<Asn>> = BTreeMap::new();
        pa.insert(ProviderId(1), BTreeSet::from([Asn(64500)]));
        pa.insert(ProviderId(2), BTreeSet::from([Asn(64500)]));
        let mut ch: BTreeMap<ProviderId, BTreeSet<HexCell>> = BTreeMap::new();
        ch.insert(ProviderId(1), footprint.clone());
        ch.insert(ProviderId(2), footprint);
        let mlab = MlabDataset::new(vec![test_at(64500, center(), 5.0)]);
        let attributed = attribute(&mlab, &pa, &ch);
        assert!(attributed.total_for(ProviderId(1)) > 0.0);
        assert!(attributed.total_for(ProviderId(2)) > 0.0);
    }
}
