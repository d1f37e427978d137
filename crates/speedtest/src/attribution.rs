//! Attributing and localising MLab tests to providers (§4.2.2).
//!
//! Each usable MLab test carries an ASN and an IP-geolocation disc. Given the
//! provider→ASN mapping produced by the `asnmap` matcher and each provider's
//! claimed footprint in the NBM, a test contributes evidence to every hex that
//! is (a) within the geolocation disc, bounded as described below, and (b)
//! claimed by the provider the test's ASN belongs to.
//!
//! Localisation starts from the footprint. Each matched provider's claimed
//! cells are laid out once, in ascending order, as consecutive slots of one
//! count array, each cell beside its prepared centroid
//! ([`PreparedLatLng`]). The disc is `grid_disk(k)` around the centre's
//! cell, with `k = ceil(r / (√3·size))`: one grid step moves √3·size between
//! neighbouring centroids. Each axial column of that disk is one pair of
//! binary searches on the provider's sorted cells, and only the claimed cells
//! it returns are tested: a cell survives when it is the centre cell or its
//! centroid lies within the radius of the test's centre, which is prepared
//! once per test. A test's shares are then added to its cells' slots.
//!
//! The disc is therefore *not* every cell within the radius. Ring `k + 1`
//! comes as close as `1.5·(k + 1)·size` to the centre cell (the middle of a
//! ring's edge), and the equal-area plane stretches east–west distances by
//! `1/cos(lat)`, so in-radius cells beyond grid distance `k` fall outside
//! the disk's corners and are never localised. The golden fingerprints pin
//! this bound.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use bdc::{map_shards, Asn, DiffMode, ProviderId};
use geoprim::{LatLng, PreparedLatLng};
use hexgrid::{HexCell, Resolution};
use serde::{Deserialize, Serialize};

use crate::mlab::MlabTest;

/// Per-provider, per-hex MLab evidence: how many usable tests could have been
/// run from each hex of the provider's claimed footprint. One entry per
/// `(provider, hex)` some test reached, sorted by `(provider, hex)` and
/// looked up by binary search.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProviderHexTests {
    counts: Vec<(ProviderId, HexCell, f64)>,
}

impl ProviderHexTests {
    /// Test count attributed to a provider in a hex (0 when none).
    pub fn count(&self, provider: ProviderId, hex: HexCell) -> f64 {
        self.counts
            .binary_search_by(|(p, h, _)| (*p, *h).cmp(&(provider, hex)))
            .map_or(0.0, |i| self.counts[i].2)
    }

    /// All hexes with attributed tests for a provider.
    #[cfg(test)]
    fn hexes_for(&self, provider: ProviderId) -> BTreeSet<HexCell> {
        self.iter()
            .filter(|(p, _, _)| *p == provider)
            .map(|(_, h, _)| h)
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
    #[cfg(test)]
    fn total_for(&self, provider: ProviderId) -> f64 {
        self.iter()
            .filter(|(p, _, _)| *p == provider)
            .map(|(_, _, v)| v)
            .sum()
    }

    /// Iterate over all `(provider, hex, count)` entries, in `(provider,
    /// hex)` order.
    pub fn iter(&self) -> impl Iterator<Item = (ProviderId, HexCell, f64)> + '_ {
        self.counts.iter().copied()
    }
}

/// One matched provider's claimed footprint, laid out for localisation: its
/// claimed cells, strictly ascending, each beside its prepared centroid.
/// Cell `i` is slot `base + i` of the attributor's counts.
struct Footprint {
    provider: ProviderId,
    cells: Vec<HexCell>,
    centroids: Vec<PreparedLatLng>,
    base: usize,
}

impl Footprint {
    fn new(provider: ProviderId, cells: Vec<HexCell>, base: usize) -> Self {
        assert!(
            u32::try_from(cells.len()).is_ok(),
            "a footprint's slot positions must fit u32"
        );
        assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "a footprint's cells must be strictly ascending"
        );
        let centroids = cells.iter().map(|c| c.center().prepare()).collect();
        Self {
            provider,
            cells,
            centroids,
            base,
        }
    }
}

/// A test's geolocation disc, prepared once per test: its centre cell, the
/// bound `k = ceil(r / (√3·size))` and its prepared centre.
struct Disc {
    center: PreparedLatLng,
    center_cell: HexCell,
    radius_km: f64,
    k: usize,
}

impl Disc {
    fn new(center: &LatLng, accuracy_radius_km: f64, res: Resolution) -> Self {
        let step_km = res.hex_size_km() * 3.0_f64.sqrt();
        Self {
            center: center.prepare(),
            center_cell: HexCell::containing(center, res),
            radius_km: accuracy_radius_km,
            k: (accuracy_radius_km / step_km).ceil().max(0.0) as usize,
        }
    }
}

/// Localise a test to one provider's footprint: append to `positions`, in
/// ascending cell order, the positions of the claimed cells of `grid_disk(k)`
/// around the disc's centre cell that are the centre cell or whose prepared
/// centroid lies within the radius of the disc's centre. Each disk column is
/// found with a pair of binary searches on the footprint's sorted cells, so
/// only claimed cells are visited. The bound is the disk, not the radius:
/// in-radius cells beyond grid distance `k` are never returned (see the
/// module docs).
fn localise(disc: &Disc, footprint: &Footprint, positions: &mut Vec<u32>) {
    let cells = footprint.cells.as_slice();
    for (first, last) in disc.center_cell.grid_disk_columns(disc.k) {
        let lo = cells.partition_point(|c| *c < first);
        let hi = cells.partition_point(|c| *c <= last);
        positions.extend((lo..hi).filter_map(|i| {
            let kept = cells[i] == disc.center_cell
                || footprint.centroids[i].haversine_km(&disc.center) <= disc.radius_km;
            kept.then_some(i as u32)
        }));
    }
}

/// One worker's localised share of a block, in (test, provider) order. Each
/// pair that reached a claimed cell is one `(base, len)` segment: the next
/// `len` entries of `positions`, positions in the footprint whose first slot
/// is `base`.
#[derive(Default)]
struct Localised {
    positions: Vec<u32>,
    segments: Vec<(usize, usize)>,
}

/// Usable, mapped tests per block below which fanning the block's
/// localisation across workers is not worth the thread-spawn overhead. Both
/// paths fold identically (see module tests).
const PARALLEL_MIN_TESTS: usize = 512;

/// Tests per block: one block's localised slot positions (per test and
/// provider, only the claimed cells of each disc) are all that is ever
/// materialised, bounding peak memory at `O(TEST_BLOCK × providers per test ×
/// claimed hexes per disc)` regardless of dataset size.
const TEST_BLOCK: usize = 4096;

/// Attribute MLab tests to providers and localise them to hexes (§4.2.2).
///
/// * `provider_asns` — the provider→ASN mapping from the `asnmap` matcher.
/// * `claimed_hexes` — each provider's claimed cells, strictly ascending, as
///   [`NbmRelease::claimed_hexes_by_provider`](bdc::NbmRelease::claimed_hexes_by_provider)
///   returns them.
///
/// A test whose ASN maps to several providers contributes to each of them (the
/// paper notes shared ASNs are usually corporate siblings or wholesale
/// transit). Tests are split evenly across the hexes they localise to in the
/// provider's footprint, so that each test contributes one unit of mass.
///
/// The attributor owns the footprints: each matched provider's cells and
/// their prepared centroids, laid out once as consecutive slots of one dense
/// count array. Tests are fed in dataset order, batch by batch: the
/// materialised pipeline feeds the whole dataset at once, the streaming
/// runner one shard at a time. Within a batch, each block of `TEST_BLOCK`
/// tests localises every mapped test to each of its providers' footprints
/// (read-only, shared by the workers) across scoped workers when it holds
/// enough usable mapped tests. The serial fold then adds the `1/len` shares
/// to the slots in (test, provider, ascending hex) order. Every count
/// therefore accumulates in ascending test order, so any batch split and any
/// worker count is bit-identical.
pub struct MlabAttributor {
    /// Each mapped ASN's footprints, by index, in provider order.
    asn_to_footprints: BTreeMap<Asn, Vec<usize>>,
    footprints: Vec<Footprint>,
    res: Resolution,
    workers: usize,
    /// One test count per footprint slot.
    counts: Vec<f64>,
    localise_wall: Duration,
    fold_wall: Duration,
}

impl MlabAttributor {
    /// Set up an attributor over a provider→ASN mapping and per-provider
    /// claimed cells. Only providers with both an ASN and an entry in
    /// `claimed_hexes` can be reached; their footprints are laid out here.
    pub fn new(
        provider_asns: &BTreeMap<ProviderId, BTreeSet<Asn>>,
        mut claimed_hexes: BTreeMap<ProviderId, Vec<HexCell>>,
        res: Resolution,
    ) -> Self {
        let mut asn_to_footprints: BTreeMap<Asn, Vec<usize>> = BTreeMap::new();
        let mut footprints: Vec<Footprint> = Vec::new();
        let mut slots = 0;
        for (provider, asns) in provider_asns {
            let Some(cells) = claimed_hexes.remove(provider) else {
                continue;
            };
            for asn in asns {
                asn_to_footprints
                    .entry(*asn)
                    .or_default()
                    .push(footprints.len());
            }
            let footprint = Footprint::new(*provider, cells, slots);
            slots += footprint.cells.len();
            footprints.push(footprint);
        }
        Self {
            asn_to_footprints,
            footprints,
            res,
            workers: DiffMode::Parallel.worker_count(),
            counts: vec![0.0; slots],
            localise_wall: Duration::ZERO,
            fold_wall: Duration::ZERO,
        }
    }

    /// Force the localisation worker count, so tests exercise every schedule
    /// on any host.
    #[cfg(test)]
    fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Fold a batch of tests in, in order. Unusable tests and tests whose
    /// ASN maps to no footprint are skipped.
    pub fn add_tests(&mut self, tests: &[MlabTest]) {
        let (footprints, res) = (&self.footprints, self.res);
        for block in tests.chunks(TEST_BLOCK) {
            let started = Instant::now();
            let mapped: Vec<(&MlabTest, &[usize])> = block
                .iter()
                .filter(|t| t.usable())
                .filter_map(|t| Some((t, self.asn_to_footprints.get(&t.asn)?.as_slice())))
                .collect();
            let workers = if mapped.len() >= PARALLEL_MIN_TESTS {
                self.workers
            } else {
                1
            };
            // One contiguous run of tests per worker, each localised into
            // one flat buffer.
            let runs: Vec<_> = mapped
                .chunks(mapped.len().div_ceil(workers).max(1))
                .collect();
            let localised = map_shards(workers, &runs, |_, run| {
                let mut out = Localised::default();
                for (t, reached) in *run {
                    let disc = Disc::new(&t.geo_center, t.accuracy_radius_km, res);
                    for footprint in reached.iter().map(|&f| &footprints[f]) {
                        let start = out.positions.len();
                        localise(&disc, footprint, &mut out.positions);
                        let len = out.positions.len() - start;
                        if len > 0 {
                            out.segments.push((footprint.base, len));
                        }
                    }
                }
                out
            });
            let localised_at = Instant::now();
            self.localise_wall += localised_at - started;
            for run in &localised {
                let mut positions = run.positions.as_slice();
                for &(base, len) in &run.segments {
                    let (segment, rest) = positions.split_at(len);
                    let share = 1.0 / len as f64;
                    let slots = &mut self.counts[base..];
                    for &i in segment {
                        slots[i as usize] += share;
                    }
                    positions = rest;
                }
            }
            self.fold_wall += localised_at.elapsed();
        }
    }

    /// The wall-clock spent so far localising and folding, each summed block
    /// by block: `(localise, fold)`.
    pub fn walls(&self) -> (Duration, Duration) {
        (self.localise_wall, self.fold_wall)
    }

    /// The accumulated evidence: one entry per slot some test reached, at
    /// exact capacity. Shares are positive, so those are exactly the non-zero
    /// slots, and the footprints' provider order and ascending cells give
    /// the evidence its `(provider, hex)` order.
    pub fn finish(mut self) -> ProviderHexTests {
        // The centroids go before the evidence is built.
        for footprint in &mut self.footprints {
            footprint.centroids = Vec::new();
        }
        let reached = self.counts.iter().filter(|&&c| c != 0.0).count();
        let mut counts = Vec::with_capacity(reached);
        for footprint in &self.footprints {
            let slots = &self.counts[footprint.base..][..footprint.cells.len()];
            for (cell, &count) in footprint.cells.iter().zip(slots) {
                if count != 0.0 {
                    counts.push((footprint.provider, *cell, count));
                }
            }
        }
        ProviderHexTests { counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlab::{MlabDataset, MAX_ACCURACY_RADIUS_KM};
    use bdc::DayStamp;
    use hexgrid::NBM_RESOLUTION;
    use std::collections::HashMap;

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

    /// The oracle disc, enumerated cell by cell: every cell of `grid_disk(k)`
    /// around the centre's cell, `k = ceil(r / (√3·size))`, that is the
    /// centre cell or whose centroid lies within the radius, in `grid_disk`
    /// order.
    fn candidate_hexes(center: &LatLng, accuracy_radius_km: f64, res: Resolution) -> Vec<HexCell> {
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

    /// `cells` as `NbmRelease::claimed_hexes_by_provider` returns a
    /// provider's claims: sorted and deduplicated.
    fn claimed(cells: impl IntoIterator<Item = HexCell>) -> Vec<HexCell> {
        let mut cells: Vec<HexCell> = cells.into_iter().collect();
        cells.sort_unstable();
        cells.dedup();
        cells
    }

    /// A footprint over `cells`, laid out as `MlabAttributor::new` lays
    /// one out.
    fn footprint(cells: impl IntoIterator<Item = HexCell>) -> Footprint {
        Footprint::new(ProviderId(0), claimed(cells), 0)
    }

    /// The cells `localise` keeps for a test's disc, in its order.
    fn localised(center: &LatLng, radius: f64, footprint: &Footprint) -> Vec<HexCell> {
        let disc = Disc::new(center, radius, NBM_RESOLUTION);
        let mut positions = Vec::new();
        localise(&disc, footprint, &mut positions);
        positions
            .into_iter()
            .map(|i| footprint.cells[i as usize])
            .collect()
    }

    /// Over a footprint that covers the whole disk, localisation is the
    /// oracle's disc, which grows with the radius and keeps the centre cell.
    #[test]
    fn localise_over_a_covering_footprint_is_the_candidate_disc() {
        let center_cell = HexCell::containing(&center(), NBM_RESOLUTION);
        let everything = footprint(center_cell.grid_disk(30));
        let mut sizes = Vec::new();
        for radius in [0.0, 0.2, 1.0, 3.0, 5.0, 10.0, MAX_ACCURACY_RADIUS_KM] {
            let got = localised(&center(), radius, &everything);
            assert_eq!(
                got,
                candidate_hexes(&center(), radius, NBM_RESOLUTION),
                "radius {radius}"
            );
            assert!(got.contains(&center_cell), "radius {radius}");
            sizes.push(got.len());
        }
        assert_eq!(sizes[0], 1);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
        assert!(sizes[sizes.len() - 1] > sizes[2], "{sizes:?}");
    }

    /// The centre cell is kept even when its centroid lies outside the
    /// radius, but only when the footprint claims it.
    #[test]
    fn center_cell_is_kept_inside_the_footprint_only() {
        let center_cell = HexCell::containing(&center(), NBM_RESOLUTION);
        // 300 m east of the centroid: still inside the cell, and farther from
        // the centroid than the radius.
        let off = center_cell.center().destination(90.0, 300.0);
        assert_eq!(HexCell::containing(&off, NBM_RESOLUTION), center_cell);
        let disk = center_cell.grid_disk(2);
        let with_center = footprint(disk.iter().copied());
        for radius in [0.0, 0.1] {
            assert_eq!(
                localised(&off, radius, &with_center),
                vec![center_cell],
                "radius {radius}"
            );
        }
        let without_center = footprint(disk.into_iter().filter(|c| *c != center_cell));
        assert!(localised(&off, 0.1, &without_center).is_empty());
    }

    /// The bound the goldens pin: cells within the radius but beyond grid
    /// distance `k` are never localised, even when the footprint claims them.
    #[test]
    fn localisation_keeps_the_grid_disk_bound() {
        let radius = 10.0;
        let center_cell = HexCell::containing(&center(), NBM_RESOLUTION);
        let k = (radius / (NBM_RESOLUTION.hex_size_km() * 3.0_f64.sqrt())).ceil() as usize;
        let disk: BTreeSet<HexCell> = center_cell.grid_disk(k).into_iter().collect();
        let wider: BTreeSet<HexCell> = center_cell.grid_disk(k + 5).into_iter().collect();
        let dropped: Vec<&HexCell> = wider
            .iter()
            .filter(|c| !disk.contains(c) && c.center().haversine_km(&center()) <= radius)
            .collect();
        assert!(
            !dropped.is_empty(),
            "no in-radius cell beyond grid distance {k}"
        );
        let got = localised(&center(), radius, &footprint(wider.iter().copied()));
        assert!(!got.is_empty());
        assert!(got.iter().all(|c| disk.contains(c)));
    }

    fn attribute(
        mlab: &MlabDataset,
        provider_asns: &BTreeMap<ProviderId, BTreeSet<Asn>>,
        claimed_hexes: &BTreeMap<ProviderId, Vec<HexCell>>,
    ) -> ProviderHexTests {
        let mut attributor =
            MlabAttributor::new(provider_asns, claimed_hexes.clone(), NBM_RESOLUTION);
        attributor.add_tests(mlab.tests());
        attributor.finish()
    }

    fn maps(
        provider: u32,
        asn: u32,
        footprint: Vec<HexCell>,
    ) -> (
        BTreeMap<ProviderId, BTreeSet<Asn>>,
        BTreeMap<ProviderId, Vec<HexCell>>,
    ) {
        let mut pa = BTreeMap::new();
        pa.insert(ProviderId(provider), BTreeSet::from([Asn(asn)]));
        let mut ch = BTreeMap::new();
        ch.insert(ProviderId(provider), footprint);
        (pa, ch)
    }

    #[test]
    fn test_attributed_to_claimed_footprint_only() {
        let footprint = claimed(candidate_hexes(&center(), 2.0, NBM_RESOLUTION));
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
        let footprint = claimed(candidate_hexes(&center(), 2.0, NBM_RESOLUTION));
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
        let footprint = claimed(candidate_hexes(&far, 2.0, NBM_RESOLUTION));
        let (pa, ch) = maps(1, 64500, footprint);
        let mlab = MlabDataset::new(vec![test_at(64500, center(), 5.0)]);
        let attributed = attribute(&mlab, &pa, &ch);
        assert!(attributed.is_empty());
    }

    /// The pre-parallelism, disc-first algorithm, kept verbatim as the
    /// reference: enumerate each test's candidate disc, then probe each
    /// provider's footprint; tests outermost, providers innermost.
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
        let mut out: HashMap<(ProviderId, HexCell), f64> = HashMap::new();
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
                    *out.entry((*provider, *hex)).or_insert(0.0) += share;
                }
            }
        }
        // Evidence is sorted by `(provider, hex)` for its binary-search lookups.
        let mut counts: Vec<_> = out.into_iter().map(|((p, h), c)| (p, h, c)).collect();
        counts.sort_by_key(|&(p, h, _)| (p, h));
        ProviderHexTests { counts }
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
        let mut ch: BTreeMap<ProviderId, Vec<HexCell>> = BTreeMap::new();
        // Seven providers on three shared ASNs, footprints at staggered
        // offsets, 8-20 km in radius and missing about three cells in four, so
        // that disc columns end both on and off a claimed cell; provider 5 has
        // an ASN but no entry, and provider 6 an ASN and an empty cell list,
        // as the runner passes every matched provider without claims.
        for p in 0..7u32 {
            pa.insert(ProviderId(p), BTreeSet::from([Asn(64500 + p % 3)]));
            if p < 5 {
                let c = LatLng::new(37.0 + p as f64 * 0.05, -80.4 - p as f64 * 0.03);
                let cells = candidate_hexes(&c, 8.0 + p as f64 * 3.0, NBM_RESOLUTION);
                let kept = cells.into_iter().filter(|_| uniform() < 0.25);
                ch.insert(ProviderId(p), claimed(kept));
            } else if p == 6 {
                ch.insert(ProviderId(p), Vec::new());
            }
        }
        let footprint_sets: BTreeMap<ProviderId, BTreeSet<HexCell>> = ch
            .iter()
            .map(|(p, cells)| (*p, cells.iter().copied().collect()))
            .collect();
        let n = 2 * TEST_BLOCK + 1000;
        let tests: Vec<MlabTest> = (0..n)
            .map(|_| {
                // ASN 64503 maps to no provider.
                let asn = 64500 + (uniform() * 4.0) as u32;
                let c = LatLng::new(37.0 + uniform() * 0.25, -80.55 + uniform() * 0.2);
                // Usable radii reach k = 22 grid steps, where the disk's
                // truncated corners lie, plus a tail above the 20 km
                // usability filter.
                let radius = if uniform() < 0.95 {
                    uniform() * MAX_ACCURACY_RADIUS_KM
                } else {
                    25.0 + uniform() * 15.0
                };
                test_at(asn, c, radius)
            })
            .collect();
        let mlab = MlabDataset::new(tests.clone());
        let reference = attribute_reference(&mlab, &pa, &footprint_sets, NBM_RESOLUTION);
        assert!(!reference.is_empty());
        assert!(mlab.usable_tests().count() < n, "no unusable tests drawn");
        assert!(
            mlab.usable_tests().any(|t| t.accuracy_radius_km > 19.0),
            "no usable disc near the 20 km limit"
        );

        for split in [1, 7, 511, 512, TEST_BLOCK, 2 * TEST_BLOCK + 123, n] {
            for workers in [1, 2, 3] {
                let mut attributor =
                    MlabAttributor::new(&pa, ch.clone(), NBM_RESOLUTION).with_workers(workers);
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
        let footprint = claimed(candidate_hexes(&center(), 2.0, NBM_RESOLUTION));
        let mut pa: BTreeMap<ProviderId, BTreeSet<Asn>> = BTreeMap::new();
        pa.insert(ProviderId(1), BTreeSet::from([Asn(64500)]));
        pa.insert(ProviderId(2), BTreeSet::from([Asn(64500)]));
        let mut ch: BTreeMap<ProviderId, Vec<HexCell>> = BTreeMap::new();
        ch.insert(ProviderId(1), footprint.clone());
        ch.insert(ProviderId(2), footprint);
        let mlab = MlabDataset::new(vec![test_at(64500, center(), 5.0)]);
        let attributed = attribute(&mlab, &pa, &ch);
        assert!(attributed.total_for(ProviderId(1)) > 0.0);
        assert!(attributed.total_for(ProviderId(2)) > 0.0);
    }
}
