//! National-scale streaming synthesis: the world's regulatory record —
//! per-hex NBM claims, challenge waves, corrections, the release-removal
//! schedule, registrations — produced **without ever materialising the
//! fabric**.
//!
//! [`SynthUs::generate`](crate::SynthUs) holds every BSL resident: ~115M
//! locations at the national scale, far past any sensible budget. This module
//! runs the same generators shard-by-shard instead:
//!
//! * The fabric is regenerated once, town by town, into a [`HexTable`] —
//!   per-hex BSL counts and state tallies, the only fabric facts any
//!   downstream stage consults (it implements [`bdc::FabricView`], so label
//!   and feature construction run unchanged). Individual BSLs can still be
//!   resolved on demand by regenerating their town's shard from its
//!   `(seed, stage, shard)` RNG stream.
//! * Providers are processed one at a time in provider-id order — the order
//!   the materialised world assembles its providers' records in — and each
//!   provider's claims live only for the duration of its own pass. Each scan
//!   is folded by the same function the materialised world calls (see
//!   [`crate::activity_gen`]) into the provider's per-hex claims, served
//!   hexes, challenges, corrections and distinct-location count; this world
//!   adds only the [`RemovalSchedule`] and the location→hex side map it
//!   builds from the challenges and corrections.
//! * Both stages that regenerate town blocks — the hex-table build and the
//!   claim scans — take them in fixed windows of `TOWN_WINDOW` towns, and
//!   hold only the current window: worker threads regenerate and
//!   distance-test a window's blocks, and the calling thread folds the
//!   results in the sequential order. A claim scan is town-major, so each
//!   candidate town's block is regenerated once per provider, however many
//!   of the provider's footprint towns and deployments reach it.
//! * Every collection the orchestrator holds is accounted against a shared
//!   [`ResidencyMeter`]; each stage's peak is checked against
//!   [`SynthConfig::max_resident_entries`] and the run fails loudly on the
//!   first stage that exceeds the budget. Only the calling thread meters, so
//!   every stage's peak and shard count are the same on every schedule.
//!
//! Determinism contract: every artefact this module produces is bit-identical
//! to the corresponding artefact of the materialised world — same RNG streams
//! per `(seed, stage, shard)`, same claim scan and fold, same iteration
//! orders. `tests/streaming_world.rs` pins the equivalence on small worlds.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Instant;

use asnmap::{FrnRegistration, RegistrationSource, WhoisDb};
use bdc::source::{end_stage, SourceMeta, WorldSource};
use bdc::stream::{map_shards, ResidencyMeter};
use bdc::{
    Bsl, Challenge, ClaimChange, DayStamp, FabricView, HexClaim, LocationId, NbmRelease,
    ProviderId, ReleaseVersion,
};
use hexgrid::HexCell;
use speedtest::{MlabTest, OoklaTileRecord};

use crate::activity_gen::{generate_later_challenges, later_wave_shard_count, regulatory_record};
use crate::config::SynthConfig;
use crate::fabric_gen::{generate_towns, town_bsls, town_offsets, Town};
use crate::providers_gen::{
    generate_providers, scan_claims, ClaimScanner, ProviderProfile, TownBsls, TOWN_WINDOW,
};
use crate::registration_gen::{generate_registrations, RegistrationData};
use crate::release_stream::RemovalSchedule;
use crate::shard::GenMode;

// The stage/report rows and the budget-enforcing `end_stage` now live in
// `bdc::source` (they are shared by every `WorldSource`); re-exported here so
// `synth::{StreamStage, StreamReport}` keeps working.
pub use bdc::source::{StreamReport, StreamStage};

/// The bounded-memory stand-in for a materialised [`bdc::Fabric`]: per-hex
/// BSL counts and state tallies over the *occupied* hexes (ascending hex
/// order), plus enough structure to resolve any individual `LocationId` back
/// to its hex by regenerating the owning town's shard.
///
/// Size: two entries per occupied hex (count + state tally) instead of one
/// entry per BSL — roughly `n_bsls / bsls_per_hex` versus `n_bsls`.
pub struct HexTable {
    config: SynthConfig,
    towns: Vec<Town>,
    offsets: Vec<u64>,
    total_locations: u64,
    /// `(hex, bsl_count, truly_served_by_any_provider)`, ascending by hex —
    /// exactly the shard table [`crate::speedtest_gen::OoklaEmitter`] expects.
    hexes: Vec<(HexCell, u32, bool)>,
    /// Interned state codes; indices are stable for the table's lifetime.
    state_names: Vec<String>,
    /// CSR offsets into `state_items`, one extra entry at the end.
    state_offsets: Vec<u32>,
    /// `(state_index, bsl_count)` runs per hex.
    state_items: Vec<(u16, u32)>,
    /// Location→hex resolutions captured during the regulatory pass (every
    /// challenged and scheduled-removal location), so labelling never has to
    /// regenerate a town. Unknown locations fall back to regeneration.
    loc_hex: HashMap<LocationId, HexCell>,
}

impl HexTable {
    /// Regenerate the fabric once, town by town, and fold it into the table.
    /// `towns` must be the town list the fabric is generated from. Towns are
    /// taken `window` at a time: `workers` threads regenerate them and reduce
    /// each to per-hex counts, and the calling thread merges them in town
    /// order and does all the metering.
    fn build(
        config: &SynthConfig,
        towns: Vec<Town>,
        workers: usize,
        window: usize,
        meter: &ResidencyMeter,
    ) -> Self {
        let offsets = town_offsets(&towns);
        let mut accum: HashMap<HexCell, (u32, Vec<(u16, u32)>)> = HashMap::new();
        let mut state_names: Vec<String> = Vec::new();
        let mut metered = 0usize;
        for (w, batch) in towns.chunks(window).enumerate() {
            // Charge every block of the window up front: however the workers
            // are scheduled, they never hold more at once.
            let blocks: usize = batch.iter().map(|t| t.n_bsls).sum();
            meter.acquire(blocks);
            let counts = map_shards(workers, batch, |i, town| {
                let t = w * window + i;
                let mut hexes: Vec<HexCell> = town_bsls(config, t, town, offsets[t] + 1)
                    .iter()
                    .map(|b| b.hex)
                    .collect();
                hexes.sort_unstable();
                let mut counts: Vec<(HexCell, u32)> = Vec::new();
                for hex in hexes {
                    match counts.last_mut() {
                        Some((last, n)) if *last == hex => *n += 1,
                        _ => counts.push((hex, 1)),
                    }
                }
                counts
            });
            for (town, counts) in batch.iter().zip(counts) {
                // Every BSL carries its town's state.
                let si = match state_names.iter().position(|s| *s == town.state) {
                    Some(i) => i as u16,
                    None => {
                        state_names.push(town.state.clone());
                        (state_names.len() - 1) as u16
                    }
                };
                for (hex, n) in counts {
                    let slot = accum.entry(hex).or_insert_with(|| (0, Vec::new()));
                    slot.0 += n;
                    match slot.1.iter_mut().find(|(s, _)| *s == si) {
                        Some((_, c)) => *c += n,
                        None => slot.1.push((si, n)),
                    }
                }
            }
            // Two entries per occupied hex: the count row and (almost
            // always exactly) one state run.
            let now = 2 * accum.len();
            meter.acquire(now - metered);
            metered = now;
            meter.release(blocks);
        }
        let total_locations = offsets
            .last()
            .map(|&o| o + towns.last().map(|t| t.n_bsls as u64).unwrap_or(0))
            .unwrap_or(0);

        let mut keys: Vec<HexCell> = accum.keys().copied().collect();
        keys.sort_unstable();
        let mut hexes = Vec::with_capacity(keys.len());
        let mut state_offsets = Vec::with_capacity(keys.len() + 1);
        let mut state_items = Vec::new();
        for hex in keys {
            let (count, mut states) = accum.remove(&hex).expect("key came from the map");
            states.sort_unstable();
            state_offsets.push(state_items.len() as u32);
            state_items.extend(states);
            hexes.push((hex, count, false));
        }
        state_offsets.push(state_items.len() as u32);
        // Swap the accumulator's metering for the final arrays' (towns and
        // offsets are pinned by the caller when the town stage runs).
        meter.release(metered);
        meter.pin(hexes.len() + state_items.len());

        Self {
            config: *config,
            towns,
            offsets,
            total_locations,
            hexes,
            state_names,
            state_offsets,
            state_items,
            loc_hex: HashMap::new(),
        }
    }

    /// The towns backing the fabric stream.
    pub fn towns(&self) -> &[Town] {
        &self.towns
    }

    /// Per-town location-id prefix sums (town `i`'s first id is
    /// `offsets[i] + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Total BSLs in the (never-materialised) fabric.
    pub fn total_locations(&self) -> u64 {
        self.total_locations
    }

    /// Occupied hexes with BSL counts and served flags, ascending by hex —
    /// the Ookla emitter's shard table.
    pub fn entries(&self) -> &[(HexCell, u32, bool)] {
        &self.hexes
    }

    /// Number of occupied hexes.
    pub fn occupied_hexes(&self) -> usize {
        self.hexes.len()
    }

    fn hex_index(&self, hex: &HexCell) -> Option<usize> {
        self.hexes.binary_search_by(|e| e.0.cmp(hex)).ok()
    }

    /// Mark every hex in `served` as genuinely served by some provider.
    fn set_served(&mut self, served: &HashSet<HexCell>) {
        for hex in served {
            if let Ok(i) = self.hexes.binary_search_by(|e| e.0.cmp(hex)) {
                self.hexes[i].2 = true;
            }
        }
    }

    /// Record known location→hex resolutions (metered by the caller).
    fn extend_loc_hex(&mut self, resolved: HashMap<LocationId, HexCell>) {
        if self.loc_hex.is_empty() {
            self.loc_hex = resolved;
        } else {
            self.loc_hex.extend(resolved);
        }
    }
}

impl FabricView for HexTable {
    fn hex_of(&self, id: LocationId) -> Option<HexCell> {
        if let Some(hex) = self.loc_hex.get(&id) {
            return Some(*hex);
        }
        if id.0 == 0 || id.0 > self.total_locations {
            return None;
        }
        // Fallback: regenerate the owning town's shard. Rare — the regulatory
        // pass pre-resolves every location labelling will ask about.
        let town_index = self.offsets.partition_point(|&o| o < id.0) - 1;
        let town = &self.towns[town_index];
        let block = town_bsls(&self.config, town_index, town, self.offsets[town_index] + 1);
        block
            .get((id.0 - self.offsets[town_index] - 1) as usize)
            .map(|b| b.hex)
    }

    fn bsl_count_in_hex(&self, hex: &HexCell) -> usize {
        self.hex_index(hex)
            .map(|i| self.hexes[i].1 as usize)
            .unwrap_or(0)
    }

    fn hex_state_counts(&self, hex: &HexCell) -> BTreeMap<String, usize> {
        let Some(i) = self.hex_index(hex) else {
            return BTreeMap::new();
        };
        let lo = self.state_offsets[i] as usize;
        let hi = self.state_offsets[i + 1] as usize;
        self.state_items[lo..hi]
            .iter()
            .map(|&(s, c)| (self.state_names[s as usize].clone(), c as usize))
            .collect()
    }
}

/// [`TownBsls`] that regenerates each window of town blocks from the per-town
/// RNG streams and lets the previous window go. Regeneration fans across
/// `workers`; the window is metered on the calling thread, so residency and
/// the regeneration count are the same on every schedule.
struct RegeneratedTownBsls<'a> {
    config: &'a SynthConfig,
    towns: &'a [Town],
    offsets: &'a [u64],
    meter: &'a ResidencyMeter,
    workers: usize,
    window: Vec<Vec<Bsl>>,
    /// Blocks regenerated so far (the regulatory pass's shard count).
    regenerated: usize,
}

impl TownBsls for RegeneratedTownBsls<'_> {
    fn blocks(&mut self, towns: &[usize]) -> Vec<&[Bsl]> {
        let held: usize = self.window.iter().map(Vec::len).sum();
        self.window = Vec::new();
        self.meter.release(held);
        let (config, all, offsets) = (self.config, self.towns, self.offsets);
        self.meter
            .acquire(towns.iter().map(|&t| all[t].n_bsls).sum());
        self.window = map_shards(self.workers, towns, |_, &t| {
            town_bsls(config, t, &all[t], offsets[t] + 1)
        });
        self.regenerated += towns.len();
        self.window.iter().map(Vec::as_slice).collect()
    }
}

/// The streaming counterpart of [`crate::SynthUs`]: everything the analysis
/// pipeline consumes, none of the per-BSL bulk. Produced by
/// [`StreamWorld::generate`] under a fixed residency budget.
pub struct StreamWorld {
    pub config: SynthConfig,
    pub profiles: Vec<ProviderProfile>,
    /// The bounded fabric view (also the Ookla emitter's shard table).
    pub hex_table: HexTable,
    /// Filing methodology text per provider (what `stage_methodology_collection`
    /// reads off filings in the materialised path).
    pub methodologies: BTreeMap<ProviderId, String>,
    /// First-wave challenges, provider order (claim order within a provider).
    pub challenges: Vec<Challenge>,
    /// The later challenge wave, chunked exactly like the materialised path.
    pub later_challenges: Vec<Challenge>,
    /// Non-archived removals, the initial claims gone from the latest
    /// release, in ascending claim-key order: the removal schedule's
    /// [`RemovalSchedule::diff_chain`], exactly as the materialised world's
    /// `release_diff` stage reads it.
    pub removal_evidence: Vec<ClaimChange>,
    /// The initial NBM release: per-hex claims aggregated provider-by-provider
    /// during the regulatory pass, with no location-level records resident.
    pub initial_release: NbmRelease,
    /// Hexes each provider genuinely serves (MLab emitter input).
    pub served_hexes_by_provider: BTreeMap<ProviderId, BTreeSet<HexCell>>,
    /// FRN registrations, WHOIS side and ground-truth provider→ASN mapping.
    pub registration: RegistrationData,
    pub report: StreamReport,
    meter: ResidencyMeter,
}

impl StreamWorld {
    /// Run streaming synthesis under `mode`'s worker budget. Fails if the
    /// config is invalid or any stage's peak residency exceeds
    /// [`SynthConfig::max_resident_entries`].
    pub fn generate(config: &SynthConfig, mode: GenMode) -> Result<Self, String> {
        Self::generate_in_windows(config, mode.worker_count(), TOWN_WINDOW)
    }

    /// [`StreamWorld::generate`] on `workers` threads with town blocks
    /// regenerated `window` at a time; tests vary the window to pin that
    /// neither it nor the worker count changes any output.
    fn generate_in_windows(
        config: &SynthConfig,
        workers: usize,
        window: usize,
    ) -> Result<Self, String> {
        config.validate()?;
        let budget = config.max_resident_entries;
        let meter = ResidencyMeter::new();
        let mut stages: Vec<StreamStage> = Vec::new();
        let t0 = Instant::now();

        // Towns: the only per-location-free global the generators need.
        let s = Instant::now();
        let towns = generate_towns(config, workers);
        meter.pin(towns.len() * 2); // town list + id prefix sums
        let n_towns = towns.len();
        end_stage(&mut stages, &meter, budget, "towns", s, n_towns)?;

        // One full regeneration of the fabric into the hex table.
        let s = Instant::now();
        let mut hex_table = HexTable::build(config, towns, workers, window, &meter);
        end_stage(&mut stages, &meter, budget, "fabric_hex_table", s, n_towns)?;

        // Provider profiles (footprints, styles, methodologies).
        let s = Instant::now();
        let profiles = generate_providers(config, hex_table.towns(), workers);
        meter.pin(profiles.len());
        end_stage(&mut stages, &meter, budget, "providers", s, profiles.len())?;

        // The regulatory pass: one provider at a time, in provider-id order
        // (the BTreeMap order every materialised stage iterates). Claims and
        // their geometry exist only within a provider's own iteration.
        let s = Instant::now();
        let mut schedule = RemovalSchedule::new(config.n_minor_releases);
        let mut challenges: Vec<Challenge> = Vec::new();
        let mut hex_claims: Vec<HexClaim> = Vec::new();
        let mut served_all: HashSet<HexCell> = HashSet::new();
        let mut served_hexes_by_provider: BTreeMap<ProviderId, BTreeSet<HexCell>> = BTreeMap::new();
        let mut claims_count: BTreeMap<ProviderId, usize> = BTreeMap::new();
        let mut methodologies: BTreeMap<ProviderId, String> = BTreeMap::new();
        let mut pending_loc_hex: HashMap<LocationId, HexCell> = HashMap::new();
        let mut loc_hex_metered = 0usize;
        let mut sched_metered = 0usize;

        let mut order: Vec<usize> = (0..profiles.len()).collect();
        order.sort_by_key(|&i| profiles[i].provider.id);
        // Providers stay sequential: scanning two at once would hold both
        // transient claim sets, and the two majors' sets set the run's peak.
        let regenerated = {
            let scanner = ClaimScanner::new(hex_table.towns(), hex_table.offsets());
            let mut town_blocks = RegeneratedTownBsls {
                config,
                towns: hex_table.towns(),
                offsets: hex_table.offsets(),
                meter: &meter,
                workers,
                window: Vec::new(),
                regenerated: 0,
            };
            for &pi in &order {
                let profile = &profiles[pi];
                let pid = profile.provider.id;
                methodologies.insert(pid, profile.methodology.text(&profile.provider.brand));
                meter.pin(2); // methodology + claims-count rows

                // Scan the provider's claims and their geometry (both charged
                // to the meter) and fold them into its regulatory record.
                let (claims, geo) = scan_claims(
                    profile,
                    &scanner,
                    &mut town_blocks,
                    config,
                    workers,
                    window,
                    &meter,
                );
                let record =
                    regulatory_record(config, pid, &claims, &geo, hex_table.towns(), &hex_table);
                // The fold's high-water mark, charged while the scan is still
                // held: its per-hex table (two entries a group), the served
                // hexes, the challenges with their key set, and the
                // corrections. Hexes new to the world's served set are pinned.
                let folding = 2 * record.hex_claims.len()
                    + record.served.len()
                    + 2 * record.challenges.len()
                    + record.corrections.len();
                meter.acquire(folding);
                for &hex in &record.served {
                    if served_all.insert(hex) {
                        meter.pin(1);
                    }
                }
                meter.release(folding + geo.entries() + claims.len());
                drop((claims, geo));

                // Keep the per-hex claims, the served hexes and the
                // challenges; the corrections only feed the removal schedule
                // and the location→hex side map.
                meter.pin(record.hex_claims.len() + record.served.len() + record.challenges.len());
                for c in &record.challenges {
                    schedule.note_challenge(c);
                    pending_loc_hex.insert(c.location, c.hex);
                }
                for (p, l, t, k, hex) in record.corrections {
                    schedule.note_correction(p, l, t, k);
                    pending_loc_hex.insert(l, hex);
                }
                challenges.extend(record.challenges);
                // `(provider, hex, tech)` keys order by provider first, so
                // appending each provider's `(hex, tech)`-ordered claims in
                // provider order gives the release's global order.
                hex_claims.extend(record.hex_claims.into_iter().map(|(claim, _)| claim));
                if !record.served.is_empty() {
                    served_hexes_by_provider.insert(pid, record.served);
                }
                claims_count.insert(pid, record.locations);

                // Meter the slow-growing global side tables.
                meter.pin(pending_loc_hex.len() - loc_hex_metered);
                loc_hex_metered = pending_loc_hex.len();
                meter.pin(schedule.len() - sched_metered);
                sched_metered = schedule.len();
            }
            town_blocks.regenerated
        };
        end_stage(
            &mut stages,
            &meter,
            budget,
            "regulatory_pass",
            s,
            regenerated,
        )?;

        // The later challenge wave over the concatenated first wave.
        let s = Instant::now();
        let later_challenges = generate_later_challenges(config, &challenges, workers);
        meter.pin(later_challenges.len());
        end_stage(
            &mut stages,
            &meter,
            budget,
            "later_challenges",
            s,
            later_wave_shard_count(challenges.len()),
        )?;

        // Release assembly: the removal schedule *is* the timeline's
        // initial-vs-latest diff (claims are only ever removed), and the
        // streamed per-hex aggregates *are* the initial release's public view.
        let s = Instant::now();
        let removal_evidence = schedule.diff_chain().removal_evidence();
        meter.pin(removal_evidence.len());
        meter.release(sched_metered);
        drop(schedule);
        let n_hex_claims = hex_claims.len();
        let initial_release = NbmRelease::from_parts(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            hex_claims,
        );
        meter.pin(n_hex_claims); // the claim index from_parts rebuilds
        end_stage(
            &mut stages,
            &meter,
            budget,
            "release_assembly",
            s,
            config.n_minor_releases + 1,
        )?;

        // Registrations, WHOIS and the ground-truth ASN mapping.
        let s = Instant::now();
        let registration = generate_registrations(config, &profiles, &claims_count, workers);
        meter.pin(registration.registrations.len());
        end_stage(
            &mut stages,
            &meter,
            budget,
            "registrations",
            s,
            profiles.len(),
        )?;

        hex_table.set_served(&served_all);
        meter.release(served_all.len());
        drop(served_all);
        hex_table.extend_loc_hex(pending_loc_hex);

        let report = StreamReport {
            stages,
            total_wall: t0.elapsed(),
            peak_resident_entries: meter.peak(),
            budget,
        };
        Ok(Self {
            config: *config,
            profiles,
            hex_table,
            methodologies,
            challenges,
            later_challenges,
            removal_evidence,
            initial_release,
            served_hexes_by_provider,
            registration,
            report,
            meter,
        })
    }

    /// The shared residency meter, so downstream streaming stages keep
    /// accounting against the same budget.
    pub fn meter(&self) -> &ResidencyMeter {
        &self.meter
    }

    /// The configured residency budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.config.max_resident_entries
    }
}

/// The synthetic world is one [`WorldSource`] among others: the generic
/// pipeline runner in `redsus_core::streaming` consumes it purely through
/// this trait, and pure regeneration stays this type's private strategy.
impl WorldSource for StreamWorld {
    type OoklaItem = OoklaTileRecord;
    type MlabItem = MlabTest;
    type OoklaStream<'a> = crate::speedtest_gen::OoklaEmitter<'a>;
    type MlabStream<'a> = crate::speedtest_gen::MlabEmitter<'a>;

    fn meta(&self) -> SourceMeta {
        SourceMeta {
            name: "synth-stream",
            detail: format!(
                "seed {} · {} bsls · {} providers",
                self.config.seed, self.config.n_bsls, self.config.n_providers
            ),
            provider_count: self.profiles.len(),
            release_count: self.config.n_minor_releases + 1,
        }
    }

    fn meter(&self) -> &ResidencyMeter {
        StreamWorld::meter(self)
    }

    fn budget(&self) -> Option<usize> {
        StreamWorld::budget(self)
    }

    fn source_report(&self) -> &StreamReport {
        &self.report
    }

    fn fabric(&self) -> &dyn FabricView {
        &self.hex_table
    }

    fn initial_release(&self) -> &NbmRelease {
        &self.initial_release
    }

    fn removal_evidence(&self) -> &[ClaimChange] {
        &self.removal_evidence
    }

    fn challenges(&self) -> &[Challenge] {
        &self.challenges
    }

    fn methodologies(&self) -> &BTreeMap<ProviderId, String> {
        &self.methodologies
    }

    fn ookla_stream(&self) -> Self::OoklaStream<'_> {
        crate::speedtest_gen::OoklaEmitter::new(&self.config, self.hex_table.entries())
    }

    fn mlab_stream(&self) -> Self::MlabStream<'_> {
        // Ground-truth ASNs drive the *emitter* (the tests that exist in the
        // world); the runner's attribution stage independently uses whatever
        // the matcher recovered — exactly the materialised path's split.
        crate::speedtest_gen::MlabEmitter::new(
            &self.config,
            &self.registration.true_provider_asns,
            &self.served_hexes_by_provider,
        )
    }
}

impl RegistrationSource for StreamWorld {
    fn registrations(&self) -> &[FrnRegistration] {
        &self.registration.registrations
    }

    fn whois(&self) -> &WhoisDb {
        &self.registration.whois
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric_gen::generate_fabric;
    use crate::providers_gen::visit_major_claims;
    use crate::world::SynthUs;

    fn stream_and_world(config: &SynthConfig) -> (StreamWorld, SynthUs) {
        let stream = StreamWorld::generate(config, GenMode::Sequential).expect("streamed synth");
        let world = SynthUs::generate(config);
        (stream, world)
    }

    #[test]
    fn hex_claims_match_materialised_release() {
        let config = SynthConfig::tiny(77);
        let (stream, world) = stream_and_world(&config);
        assert_eq!(
            stream.initial_release.hex_claims(),
            world.initial_release().hex_claims(),
            "streamed per-hex claims must be bit-identical to the materialised release"
        );
        assert_eq!(
            stream.initial_release.version,
            world.initial_release().version
        );
        assert_eq!(
            stream.initial_release.published,
            world.initial_release().published
        );
    }

    #[test]
    fn challenge_waves_match_materialised_world() {
        let config = SynthConfig::tiny(78);
        let (stream, world) = stream_and_world(&config);
        assert_eq!(stream.challenges, world.challenges);
        assert_eq!(stream.later_challenges, world.later_challenges);
    }

    #[test]
    fn removal_evidence_matches_the_diff_of_initial_and_latest() {
        let config = SynthConfig::tiny(79);
        let (stream, world) = stream_and_world(&config);
        let emitter = world.release_emitter();
        let last = emitter.release(emitter.n_releases() - 1);
        let filed = || world.filings.iter().flat_map(|f| &f.records);
        let kept = filed().filter(|r| last.is_live(&r.claim_key()));
        let batch = bdc::MapDiff::between(
            (world.initial_release().version, filed()),
            (last.version(), kept),
        );
        let removals: Vec<ClaimChange> = batch.removed().copied().collect();
        assert!(!removals.is_empty());
        assert_eq!(stream.removal_evidence, removals);
    }

    #[test]
    fn registrations_and_methodologies_match() {
        let config = SynthConfig::tiny(80);
        let (stream, world) = stream_and_world(&config);
        assert_eq!(stream.registration.registrations, world.registrations);
        assert_eq!(
            stream.registration.true_provider_asns,
            world.true_provider_asns
        );
        let world_methods: BTreeMap<ProviderId, String> = world
            .filings
            .iter()
            .map(|f| (f.provider, f.methodology.clone()))
            .collect();
        assert_eq!(stream.methodologies, world_methods);
    }

    #[test]
    fn hex_table_agrees_with_fabric() {
        let config = SynthConfig::tiny(81);
        let (stream, world) = stream_and_world(&config);
        for (hex, count, _) in stream.hex_table.entries().iter() {
            assert_eq!(world.fabric.bsl_count_in_hex(hex), *count as usize);
            assert_eq!(
                stream.hex_table.hex_state_counts(hex),
                world.fabric.hex_state_counts(hex)
            );
        }
        assert_eq!(
            stream.hex_table.total_locations(),
            world.fabric.len() as u64
        );
        // Location→hex resolution, through both the side map and the
        // regeneration fallback.
        for change in &stream.removal_evidence {
            assert_eq!(
                stream.hex_table.hex_of(change.location),
                world.fabric.hex_of(change.location)
            );
        }
        for id in [1u64, 17, stream.hex_table.total_locations()] {
            assert_eq!(
                stream.hex_table.hex_of(LocationId(id)),
                world.fabric.hex_of(LocationId(id)),
                "regenerated lookup for location {id}"
            );
        }
        assert_eq!(stream.hex_table.hex_of(LocationId(0)), None);
    }

    #[test]
    fn served_hexes_match_and_residency_is_reported() {
        let config = SynthConfig::tiny(82);
        let (stream, world) = stream_and_world(&config);
        // The Ookla emitter over the hex table must see the same shard table
        // the materialised generator builds from the fabric.
        let occupied: Vec<HexCell> = stream.hex_table.entries().iter().map(|e| e.0).collect();
        let mut from_fabric: Vec<HexCell> = world.fabric.hexes().copied().collect();
        from_fabric.sort_unstable();
        assert_eq!(occupied, from_fabric);
        assert!(stream.report.peak_resident_entries > 0);
        assert_eq!(
            stream.report.stages.len(),
            7,
            "every streaming stage reports"
        );
        assert!(stream
            .report
            .stages
            .iter()
            .all(|s| s.peak_resident_entries > 0));
    }

    /// The 50-BSL-town world: 400 towns, so the majors' claim scans span
    /// many windows of candidate towns.
    fn many_towns(seed: u64) -> SynthConfig {
        SynthConfig {
            n_bsls: 20_000,
            bsls_per_town: 50,
            ..SynthConfig::tiny(seed)
        }
    }

    #[test]
    fn windows_and_workers_change_no_output_and_no_accounting() {
        // The plain tiny world has only 55 towns, so one window holds a large
        // share of its BSLs and the hex-table peak shows whether the window
        // was charged.
        let rows = |w: &StreamWorld| -> Vec<(&'static str, usize, usize)> {
            w.report
                .stages
                .iter()
                .map(|s| (s.name, s.shards, s.peak_resident_entries))
                .collect()
        };
        for config in [SynthConfig::tiny(84), many_towns(84)] {
            let reference =
                StreamWorld::generate(&config, GenMode::Sequential).expect("streamed synth");
            // The regulatory pass regenerates each candidate town's block
            // once per provider: the visit-major reference's distinct
            // `(provider, candidate town)` pairs, fewer than its visits.
            let towns = reference.hex_table.towns();
            let fabric = generate_fabric(&config, towns, 1);
            let scanner = ClaimScanner::new(towns, reference.hex_table.offsets());
            let (mut pairs, mut visits) = (0, 0);
            for profile in &reference.profiles {
                let (_, _, mut visited) =
                    visit_major_claims(profile, &scanner, &fabric, &config, 1, TOWN_WINDOW);
                visits += visited.len();
                visited.sort_unstable();
                visited.dedup();
                pairs += visited.len();
            }
            let regenerated = reference.report.stage("regulatory_pass").unwrap().shards;
            assert_eq!(regenerated, pairs);
            assert!(
                regenerated < visits,
                "{regenerated} blocks for {visits} visits"
            );
            for window in [1, 7, TOWN_WINDOW] {
                let mut accounting = None;
                for workers in [1, 2, 3] {
                    let got = StreamWorld::generate_in_windows(&config, workers, window)
                        .expect("streamed synth");
                    let at = format!(
                        "{} BSLs a town, window {window}, {workers} workers",
                        config.bsls_per_town
                    );
                    assert_eq!(
                        got.initial_release.hex_claims(),
                        reference.initial_release.hex_claims(),
                        "{at}"
                    );
                    assert_eq!(
                        got.hex_table.entries(),
                        reference.hex_table.entries(),
                        "{at}"
                    );
                    assert_eq!(got.challenges, reference.challenges, "{at}");
                    assert_eq!(got.later_challenges, reference.later_challenges, "{at}");
                    assert_eq!(got.removal_evidence, reference.removal_evidence, "{at}");
                    assert_eq!(
                        got.served_hexes_by_provider, reference.served_hexes_by_provider,
                        "{at}"
                    );
                    // A window's blocks stay charged until its counts are
                    // merged into the accumulator (two entries per occupied
                    // hex), so the hex-table peak covers the full table plus
                    // the last window's blocks, however the workers ran.
                    let peak = |stage| got.report.stage(stage).unwrap().peak_resident_entries;
                    let towns = got.hex_table.towns();
                    let last_window: usize = towns[(towns.len() - 1) / window * window..]
                        .iter()
                        .map(|t| t.n_bsls)
                        .sum();
                    assert!(
                        peak("fabric_hex_table")
                            >= peak("towns") + 2 * got.hex_table.occupied_hexes() + last_window,
                        "{at}"
                    );
                    // The window decides the accounting; the worker count never.
                    let got_rows = rows(&got);
                    let want = accounting.get_or_insert_with(|| got_rows.clone());
                    assert_eq!(&got_rows, want, "{at}");
                }
                if window == TOWN_WINDOW {
                    assert_eq!(accounting, Some(rows(&reference)));
                }
            }
        }
    }

    #[test]
    fn buffered_claims_are_charged_while_their_window_is_resident() {
        // While it fetches and folds windows, a scan charges two entries per
        // visit, its resident window's blocks and one entry per claim
        // buffered so far, each window's claims before the window is let go.
        // It ends holding one entry per visit and two per claim (the hit
        // buffer as geometry, and the claim list).
        let config = many_towns(86);
        let towns = generate_towns(&config, 1);
        let offsets = town_offsets(&towns);
        let fabric = generate_fabric(&config, &towns, 1);
        let scanner = ClaimScanner::new(&towns, &offsets);
        for profile in generate_providers(&config, &towns, 1) {
            let (claims, geo, visited) =
                visit_major_claims(&profile, &scanner, &fabric, &config, 1, TOWN_WINDOW);
            // Every candidate town in town order, with its claim count.
            let mut per_town: BTreeMap<usize, usize> = visited.iter().map(|&t| (t, 0)).collect();
            for &(_, t) in &geo {
                *per_town.get_mut(&t).unwrap() += 1;
            }
            let cands: Vec<(usize, usize)> = per_town.into_iter().collect();
            for window in [1, 7, TOWN_WINDOW, usize::MAX] {
                let meter = ResidencyMeter::new();
                let mut blocks = RegeneratedTownBsls {
                    config: &config,
                    towns: &towns,
                    offsets: &offsets,
                    meter: &meter,
                    workers: 2,
                    window: Vec::new(),
                    regenerated: 0,
                };
                let (got, geo) =
                    scan_claims(&profile, &scanner, &mut blocks, &config, 2, window, &meter);
                let at = format!("provider {}, window {window}", profile.provider.id.value());
                assert_eq!(got.len(), claims.len(), "{at}");
                assert_eq!(blocks.regenerated, cands.len(), "{at}");
                let (mut buffered, mut folding) = (0, 0);
                for w in cands.chunks(window) {
                    buffered += w.iter().map(|&(_, n)| n).sum::<usize>();
                    let held: usize = w.iter().map(|&(t, _)| towns[t].n_bsls).sum();
                    folding = folding.max(held + buffered);
                }
                let (visits, held) = (visited.len(), visited.len() + 2 * claims.len());
                assert_eq!(meter.peak(), (2 * visits + folding).max(held), "{at}");
                assert_eq!(meter.current(), held, "{at}");
                assert_eq!(geo.entries(), visits + claims.len(), "{at}");
            }
        }
    }

    #[test]
    fn over_budget_config_fails_loudly() {
        let mut config = SynthConfig::tiny(83);
        // A budget the fabric drain cannot possibly respect, but above the
        // validation floor so generation actually starts.
        config.max_resident_entries = Some(config.streaming_residency_floor());
        let err = StreamWorld::generate(&config, GenMode::Sequential);
        assert!(
            err.is_err(),
            "an impossible budget must fail, not silently succeed"
        );
        let msg = err.err().unwrap();
        assert!(
            msg.contains("exceeded the resident-entry budget"),
            "unexpected error: {msg}"
        );
    }
}
