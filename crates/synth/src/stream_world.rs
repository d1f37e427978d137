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
//! * Providers are processed one at a time in provider-id order — exactly the
//!   `BTreeMap` order the materialised path iterates — and each provider's
//!   claims live only for the duration of its own pass. The pass derives
//!   everything the pipeline needs downstream: challenge waves, corrections,
//!   the [`RemovalSchedule`], per-hex claim aggregates, served-hex sets and
//!   distinct-location counts.
//! * Both stages that regenerate town blocks — the hex-table build and the
//!   claim scans — take them in fixed windows: worker threads regenerate and
//!   distance-test a window's blocks, and the calling thread folds the
//!   results in the sequential order.
//! * Every collection the orchestrator holds is accounted against a shared
//!   [`ResidencyMeter`]; each stage's peak is checked against
//!   [`SynthConfig::max_resident_entries`] and the run fails loudly on the
//!   first stage that exceeds the budget. Only the calling thread meters, so
//!   every stage's peak and shard count are the same on every schedule.
//!
//! Determinism contract: every artefact this module produces is bit-identical
//! to the corresponding artefact of the materialised world — same RNG streams
//! per `(seed, stage, shard)`, same iteration orders, same float accumulation
//! orders. `tests/streaming_world.rs` pins the equivalence on small worlds.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Instant;

use asnmap::{FrnRegistration, RegistrationSource, WhoisDb};
use bdc::source::{end_stage, SourceMeta, WorldSource};
use bdc::stream::{map_shards, speed_pair_wins, ResidencyMeter};
use bdc::{
    Bsl, Challenge, ClaimChange, DayStamp, FabricView, HexClaim, LocationId, NbmRelease,
    ProviderId, ReleaseVersion, Technology,
};
use hexgrid::HexCell;
use speedtest::{MlabTest, OoklaTileRecord};

use crate::activity_gen::{
    later_challenge_chunk, later_wave_shard_count, provider_challenges, provider_corrections,
    LATER_WAVE_CHUNK,
};
use crate::config::SynthConfig;
use crate::fabric_gen::{generate_towns, town_bsls, town_offsets, Town};
use crate::providers_gen::{
    compute_claims_observed, generate_providers, ClaimScanner, ProviderProfile, TownBsls,
    TOWN_WINDOW,
};
use crate::registration_gen::{generate_registrations, RegistrationData};
use crate::release_stream::RemovalSchedule;
use crate::shard::GenMode;

/// Per-`(hex, technology)` release-aggregate accumulator for one provider:
/// best `(down, up)` speed pair, low-latency flag, distinct-location count —
/// the same fold `NbmRelease::from_records` runs, kept per provider so
/// location-level claims never outlive the provider's scan. Drained in sorted
/// key order.
type HexTechAgg = HashMap<(HexCell, Technology), (Option<(f64, f64)>, bool, u32)>;

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
    /// Interned state of each town (every BSL carries its town's state).
    town_states: Vec<u16>,
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
        let mut town_states: Vec<u16> = Vec::with_capacity(towns.len());
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
                let si = match state_names.iter().position(|s| *s == town.state) {
                    Some(i) => i as u16,
                    None => {
                        state_names.push(town.state.clone());
                        (state_names.len() - 1) as u16
                    }
                };
                town_states.push(si);
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
        meter.pin(hexes.len() + state_items.len() + town_states.len());

        Self {
            config: *config,
            towns,
            offsets,
            total_locations,
            hexes,
            state_names,
            town_states,
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

    /// Interned index of the state of town `town_index`'s BSLs.
    fn town_state(&self, town_index: usize) -> u16 {
        self.town_states[town_index]
    }

    /// The state code behind an interned index.
    pub fn state_name(&self, index: u16) -> &str {
        &self.state_names[index as usize]
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

/// [`TownBsls`] that regenerates town blocks on demand, with a small LRU
/// cache: claim scans revisit the same neighbour towns across deployments and
/// consecutive footprint towns, so resident blocks absorb some repeat visits.
/// Cached entries are metered; the cache is capped in entries. A window's
/// missing blocks are regenerated across `workers` threads, but every cache
/// decision and meter call happens on the calling thread, so residency and
/// the regeneration count are the same on every schedule.
struct CachedTownBsls<'a> {
    config: &'a SynthConfig,
    towns: &'a [Town],
    offsets: &'a [u64],
    meter: &'a ResidencyMeter,
    workers: usize,
    cap: usize,
    tick: u64,
    resident: usize,
    /// Blocks regenerated so far (the regulatory pass's shard count).
    regenerated: usize,
    /// Resident blocks by town index, with their last-use tick.
    blocks: HashMap<usize, (u64, Vec<Bsl>)>,
}

impl<'a> CachedTownBsls<'a> {
    fn new(
        config: &'a SynthConfig,
        towns: &'a [Town],
        offsets: &'a [u64],
        meter: &'a ResidencyMeter,
        workers: usize,
    ) -> Self {
        // Up to 64 resident town blocks (at least one): enough to cover a
        // footprint town plus every neighbour within claim reach many times
        // over, and a rounding error against any realistic budget.
        let cap = config.bsls_per_town.max(1) * 64;
        Self {
            config,
            towns,
            offsets,
            meter,
            workers,
            cap,
            tick: 0,
            resident: 0,
            regenerated: 0,
            blocks: HashMap::new(),
        }
    }
}

impl TownBsls for CachedTownBsls<'_> {
    fn blocks(&mut self, towns: &[usize]) -> Vec<&[Bsl]> {
        let mut missing: Vec<usize> = Vec::new();
        for &t in towns {
            if !self.blocks.contains_key(&t) && !missing.contains(&t) {
                missing.push(t);
            }
        }
        // Make room first, evicting least recently used blocks outside this
        // window, so the cache holds no more than its cap (or one window).
        let need: usize = missing.iter().map(|&t| self.towns[t].n_bsls).sum();
        while self.resident + need > self.cap {
            let Some(oldest) = self
                .blocks
                .iter()
                .filter(|(t, _)| !towns.contains(t))
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(&t, _)| t)
            else {
                break;
            };
            let (_, evicted) = self.blocks.remove(&oldest).expect("key just found");
            self.resident -= evicted.len();
            self.meter.release(evicted.len());
        }
        let (config, all_towns, offsets) = (self.config, self.towns, self.offsets);
        let fresh = map_shards(self.workers, &missing, |_, &t| {
            town_bsls(config, t, &all_towns[t], offsets[t] + 1)
        });
        self.meter.acquire(need);
        self.resident += need;
        self.regenerated += missing.len();
        for (t, block) in missing.into_iter().zip(fresh) {
            self.blocks.insert(t, (0, block));
        }
        for &t in towns {
            self.tick += 1;
            self.blocks.get_mut(&t).expect("window block is resident").0 = self.tick;
        }
        towns.iter().map(|t| self.blocks[t].1.as_slice()).collect()
    }
}

impl Drop for CachedTownBsls<'_> {
    fn drop(&mut self) {
        self.meter.release(self.resident);
        self.resident = 0;
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
            let scanner = ClaimScanner::new(hex_table.towns());
            let mut town_blocks = CachedTownBsls::new(
                config,
                hex_table.towns(),
                hex_table.offsets(),
                &meter,
                workers,
            );
            for &pi in &order {
                let profile = &profiles[pi];
                let pid = profile.provider.id;
                methodologies.insert(pid, profile.methodology.text(&profile.provider.brand));
                meter.pin(2); // methodology + claims-count rows

                // Scan the provider's claims, folding geometry, per-hex claim
                // aggregates and served-hex sets in the observer so no second
                // pass over the claims is ever needed.
                let mut geo: Vec<(HexCell, u16)> = Vec::new();
                let mut agg: HexTechAgg = HashMap::new();
                let mut served_p: HashSet<HexCell> = HashSet::new();
                let claims = compute_claims_observed(
                    profile,
                    &scanner,
                    &mut town_blocks,
                    config,
                    workers,
                    window,
                    &mut |claim, bsl, town| {
                        meter.acquire(2); // the claim row + its geometry row
                        geo.push((bsl.hex, hex_table.town_state(town)));
                        let before = agg.len();
                        {
                            let slot = agg
                                .entry((bsl.hex, claim.technology))
                                .or_insert((None, false, 0));
                            let candidate = (claim.max_down_mbps, claim.max_up_mbps);
                            let wins = match slot.0 {
                                None => true,
                                Some(best) => speed_pair_wins(candidate, best),
                            };
                            if wins {
                                slot.0 = Some(candidate);
                            }
                            slot.1 |= claim.low_latency;
                            slot.2 += 1;
                        }
                        if agg.len() > before {
                            meter.acquire(2);
                        }
                        if claim.truly_served {
                            if served_all.insert(bsl.hex) {
                                meter.pin(1);
                            }
                            if served_p.insert(bsl.hex) {
                                meter.pin(1);
                            }
                        }
                    },
                );
                let n_claims = claims.len();

                // Challenges against this provider's claims, then corrections
                // for what survived unchallenged — both keyed by provider id,
                // so per-provider generation is the materialised generation.
                let provider_challs = provider_challenges(
                    config,
                    pid,
                    claims
                        .iter()
                        .zip(geo.iter())
                        .map(|(c, &(hex, state))| (c, hex, hex_table.state_name(state))),
                );
                meter.acquire(provider_challs.len() * 2); // kept below + key set
                let mut challenged: BTreeSet<(ProviderId, LocationId, Technology)> =
                    BTreeSet::new();
                for c in &provider_challs {
                    challenged.insert((c.provider, c.location, c.technology));
                    schedule.note_challenge(c);
                    pending_loc_hex.insert(c.location, c.hex);
                }
                let corrections = provider_corrections(config, pid, &claims, &challenged);
                meter.acquire(corrections.len());
                meter.release(provider_challs.len()); // challenged set dropped
                drop(challenged);
                // Corrections are an in-order subsequence of the claims, so a
                // two-pointer walk recovers each corrected location's hex.
                let mut ci = 0usize;
                for (p, l, t, k) in &corrections {
                    schedule.note_correction(*p, *l, *t, *k);
                    while ci < n_claims
                        && (claims[ci].location != *l || claims[ci].technology != *t)
                    {
                        ci += 1;
                    }
                    assert!(ci < n_claims, "correction does not map back to a claim");
                    pending_loc_hex.insert(*l, geo[ci].0);
                }
                meter.release(corrections.len());
                drop(corrections);
                challenges.extend(provider_challs);

                // Distinct claimed locations (what the provider's filing would
                // report): reuse the claims' storage, then let it all go.
                drop(geo);
                meter.release(n_claims);
                let mut locs: Vec<LocationId> = claims.into_iter().map(|c| c.location).collect();
                locs.sort_unstable();
                locs.dedup();
                claims_count.insert(pid, locs.len());
                drop(locs);
                meter.release(n_claims);

                // Fold the provider's per-hex aggregates into the global claim
                // table. `(provider, hex, tech)` keys order by provider first,
                // so appending per-provider sorted drains in provider order
                // reproduces the materialised release's global group order.
                let agg_len = agg.len();
                let mut rows: Vec<_> = agg.into_iter().collect();
                rows.sort_unstable_by_key(|&(key, _)| key);
                for ((hex, technology), (best, low_latency, locations)) in rows {
                    let (max_down_mbps, max_up_mbps) = best.unwrap_or((0.0, 0.0));
                    hex_claims.push(HexClaim {
                        provider: pid,
                        hex,
                        technology,
                        max_down_mbps,
                        max_up_mbps,
                        low_latency,
                        locations_claimed: locations as usize,
                        total_bsls_in_hex: hex_table.bsl_count_in_hex(&hex),
                    });
                    meter.pin(1);
                }
                meter.release(agg_len * 2);

                if !served_p.is_empty() {
                    served_hexes_by_provider.insert(pid, served_p.into_iter().collect());
                }

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

        // The later challenge wave: fixed global chunks over the concatenated
        // first wave, one RNG stream per chunk — the materialised fan-out.
        let s = Instant::now();
        let chunks: Vec<&[Challenge]> = challenges.chunks(LATER_WAVE_CHUNK).collect();
        let later_challenges: Vec<Challenge> = map_shards(workers, &chunks, |i, chunk| {
            later_challenge_chunk(config, i, chunk)
        })
        .into_iter()
        .flatten()
        .collect();
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
            Vec::new(),
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
        let initial = world.initial_release();
        let kept = initial
            .records()
            .iter()
            .filter(|r| last.is_live(&r.claim_key()));
        let (version, published) = (last.version(), last.published());
        let latest =
            NbmRelease::from_records(version, published, kept.cloned().collect(), &world.fabric);
        let batch = bdc::MapDiff::between(initial, &latest);
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

    #[test]
    fn windows_and_workers_change_no_output_and_no_accounting() {
        // The plain tiny world has only 55 towns, so one window holds a large
        // share of its BSLs and the hex-table peak shows whether the window
        // was charged. With 50-BSL towns the majors' footprints visit far
        // more than the cache's 64 blocks, so eviction runs inside the
        // windows too.
        let evicting = SynthConfig {
            n_bsls: 20_000,
            bsls_per_town: 50,
            ..SynthConfig::tiny(84)
        };
        let rows = |w: &StreamWorld| -> Vec<(&'static str, usize, usize)> {
            w.report
                .stages
                .iter()
                .map(|s| (s.name, s.shards, s.peak_resident_entries))
                .collect()
        };
        for (config, evicts) in [(SynthConfig::tiny(84), false), (evicting, true)] {
            let reference =
                StreamWorld::generate(&config, GenMode::Sequential).expect("streamed synth");
            let regenerated = reference.report.stage("regulatory_pass").unwrap().shards;
            assert_eq!(
                regenerated > reference.hex_table.towns().len(),
                evicts,
                "{regenerated} blocks regenerated"
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
