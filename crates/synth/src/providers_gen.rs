//! Generating providers, their footprints, reporting behaviour and the
//! ground-truth / claimed service sets.
//!
//! Provider generation is sharded per provider: provider `i` draws only from
//! the `(seed, Providers, i)` stream, so the population is bit-identical for
//! any worker count. Claim computation consumes no randomness at all and is
//! likewise fanned per provider.

use std::collections::{BTreeMap, HashMap};

use bdc::{Frn, LocationId, Provider, ProviderId, Technology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::SynthConfig;
use crate::fabric_gen::Town;
use crate::shard::{map_shards, shard_rng, SynthStage};
use crate::text::{provider_name, MethodologyKind, MAJOR_PROVIDER_NAMES};

/// How faithfully a provider's filing reflects its real network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportingStyle {
    /// Claims only what it truly serves.
    Accurate,
    /// Modest edge over-claiming (optimistic buffers).
    Typical,
    /// Substantial over-claiming (e.g. whole-census-block reporting).
    Aggressive,
    /// Deliberate misrepresentation of a large unserved area — the Jefferson
    /// County Cable pattern (§6.3).
    IntentionalOverclaim,
}

impl ReportingStyle {
    /// Radius multiplier applied to the true service radius when filing.
    pub fn overclaim_multiplier(&self) -> f64 {
        match self {
            ReportingStyle::Accurate => 1.0,
            ReportingStyle::Typical => 1.18,
            ReportingStyle::Aggressive => 1.55,
            ReportingStyle::IntentionalOverclaim => 1.25,
        }
    }
}

/// One technology a provider deploys, with its true service radius around
/// each footprint town and the advertised speeds.
#[derive(Debug, Clone)]
pub struct TechDeployment {
    pub technology: Technology,
    /// Radius (km) around each footprint town that is genuinely serviceable.
    pub true_radius_km: f64,
    pub max_down_mbps: f64,
    pub max_up_mbps: f64,
    pub low_latency: bool,
}

/// A provider plus everything the generator knows about it.
#[derive(Debug, Clone)]
pub struct ProviderProfile {
    pub provider: Provider,
    /// Indices into the town list forming the provider's footprint.
    pub towns: Vec<usize>,
    pub deployments: Vec<TechDeployment>,
    pub style: ReportingStyle,
    pub methodology: MethodologyKind,
    /// True for the Jefferson-County-Cable-style scenario provider.
    pub jcc_like: bool,
}

/// A location-level claim with its ground truth.
#[derive(Debug, Clone)]
pub struct ClaimTruth {
    pub location: LocationId,
    pub technology: Technology,
    pub truly_served: bool,
    pub max_down_mbps: f64,
    pub max_up_mbps: f64,
    pub low_latency: bool,
}

fn speeds_for(rng: &mut StdRng, tech: Technology) -> (f64, f64, bool) {
    let max = tech.typical_max_down_mbps();
    let tier = [0.1, 0.25, 0.5, 1.0][rng.gen_range(0..4)];
    let down = (max * tier).max(10.0);
    let up = match tech {
        Technology::Fiber => down,
        Technology::Cable => (down / 20.0).max(5.0),
        Technology::Copper => (down / 10.0).max(1.0),
        _ => (down / 8.0).max(3.0),
    };
    let low_latency = !matches!(tech, Technology::GsoSatellite);
    (down, up, low_latency)
}

fn radius_for(rng: &mut StdRng, tech: Technology) -> f64 {
    match tech {
        Technology::Fiber => rng.gen_range(1.5..4.0),
        Technology::Cable => rng.gen_range(2.0..5.0),
        Technology::Copper => rng.gen_range(2.5..6.0),
        Technology::UnlicensedFixedWireless => rng.gen_range(4.0..10.0),
        Technology::LicensedFixedWireless => rng.gen_range(5.0..12.0),
        // Not drawn by the generator (only real ingest maps these codes);
        // present so the match stays exhaustive over the full BDC code table.
        Technology::LicensedByRuleFixedWireless => rng.gen_range(4.0..10.0),
        Technology::Other => rng.gen_range(2.0..6.0),
        Technology::GsoSatellite | Technology::NgsoSatellite => 1.0e6,
    }
}

/// Generate the provider population: `n_major_providers` national ISPs and a
/// long tail of regional and local providers, one shard per provider.
pub fn generate_providers(
    config: &SynthConfig,
    towns: &[Town],
    workers: usize,
) -> Vec<ProviderProfile> {
    let seqs: Vec<usize> = (0..config.n_providers).collect();
    map_shards(workers, &seqs, |_, &seq| {
        let mut rng = shard_rng(config.seed, SynthStage::Providers, seq as u64);
        if seq < config.n_major_providers {
            generate_major(config, towns, seq, &mut rng)
        } else {
            generate_regional(config, towns, seq, &mut rng)
        }
    })
}

/// One major national ISP: a large multi-state footprint, cable and/or fiber.
fn generate_major(
    _config: &SynthConfig,
    towns: &[Town],
    seq: usize,
    rng: &mut StdRng,
) -> ProviderProfile {
    let next_id = seq as u32 + 1;
    let name = MAJOR_PROVIDER_NAMES[seq % MAJOR_PROVIDER_NAMES.len()].to_string();
    let share = rng.gen_range(0.25..0.45);
    let mut footprint: Vec<usize> = (0..towns.len()).filter(|_| rng.gen_bool(share)).collect();
    if footprint.is_empty() {
        footprint.push(rng.gen_range(0..towns.len()));
    }
    let mut deployments = vec![];
    for tech in [Technology::Cable, Technology::Fiber] {
        if rng.gen_bool(0.8) {
            let (down, up, low_latency) = speeds_for(rng, tech);
            deployments.push(TechDeployment {
                technology: tech,
                true_radius_km: radius_for(rng, tech),
                max_down_mbps: down,
                max_up_mbps: up,
                low_latency,
            });
        }
    }
    if deployments.is_empty() {
        let (down, up, low_latency) = speeds_for(rng, Technology::Cable);
        deployments.push(TechDeployment {
            technology: Technology::Cable,
            true_radius_km: radius_for(rng, Technology::Cable),
            max_down_mbps: down,
            max_up_mbps: up,
            low_latency,
        });
    }
    let style = if rng.gen_bool(0.6) {
        ReportingStyle::Typical
    } else {
        ReportingStyle::Accurate
    };
    let home_state = towns[footprint[0]].state.clone();
    ProviderProfile {
        provider: Provider {
            id: ProviderId(next_id),
            name: name.clone(),
            brand: name.split(' ').next().unwrap_or(&name).to_string(),
            frns: vec![Frn(1_000_000 + next_id as u64)],
            technologies: deployments.iter().map(|d| d.technology).collect(),
            major: true,
            home_state,
        },
        towns: footprint,
        deployments,
        style,
        methodology: MethodologyKind::FiberEngineering,
        jcc_like: false,
    }
}

/// One regional/local provider with a handful of towns, preferentially in
/// one state.
fn generate_regional(
    config: &SynthConfig,
    towns: &[Town],
    seq: usize,
    rng: &mut StdRng,
) -> ProviderProfile {
    let next_id = seq as u32 + 1;
    let name = provider_name(rng);
    // Footprint: a handful of towns, preferentially in one state.
    let anchor = rng.gen_range(0..towns.len());
    let anchor_state = towns[anchor].state.clone();
    let n_towns = 1 + rng.gen_range(0..4usize);
    let mut footprint = vec![anchor];
    let same_state: Vec<usize> = (0..towns.len())
        .filter(|&t| towns[t].state == anchor_state && t != anchor)
        .collect();
    for _ in 1..n_towns {
        if !same_state.is_empty() && rng.gen_bool(0.8) {
            footprint.push(same_state[rng.gen_range(0..same_state.len())]);
        } else {
            footprint.push(rng.gen_range(0..towns.len()));
        }
    }
    footprint.sort_unstable();
    footprint.dedup();

    let tech = match rng.gen_range(0..10) {
        0..=2 => Technology::Fiber,
        3..=4 => Technology::Cable,
        5..=6 => Technology::Copper,
        7..=8 => Technology::UnlicensedFixedWireless,
        _ => Technology::LicensedFixedWireless,
    };
    let (down, up, low_latency) = speeds_for(rng, tech);
    let mut deployments = vec![TechDeployment {
        technology: tech,
        true_radius_km: radius_for(rng, tech),
        max_down_mbps: down,
        max_up_mbps: up,
        low_latency,
    }];
    // Some providers file a legacy copper offering alongside.
    if tech == Technology::Fiber && rng.gen_bool(0.3) {
        let (d2, u2, _) = speeds_for(rng, Technology::Copper);
        deployments.push(TechDeployment {
            technology: Technology::Copper,
            true_radius_km: radius_for(rng, Technology::Copper),
            max_down_mbps: d2,
            max_up_mbps: u2,
            low_latency: true,
        });
    }

    // Reporting style and stated methodology are only loosely correlated:
    // aggressive filers are more likely to describe census-block
    // reporting, but plenty of careful filers use the same consultant
    // boilerplate, so the methodology text alone cannot identify the
    // over-claimers (mirroring reality — the paper finds the embedding is
    // a secondary signal, not a provider fingerprint).
    let style = match rng.gen_range(0..10) {
        0..=3 => ReportingStyle::Accurate,
        4..=7 => ReportingStyle::Typical,
        _ => ReportingStyle::Aggressive,
    };
    let census_block_prob = if style == ReportingStyle::Aggressive {
        0.3
    } else {
        0.1
    };
    let methodology = if rng.gen_bool(census_block_prob) {
        MethodologyKind::CensusBlocks
    } else if matches!(
        tech,
        Technology::UnlicensedFixedWireless | Technology::LicensedFixedWireless
    ) {
        MethodologyKind::PropagationModel
    } else {
        match rng.gen_range(0..10) {
            0..=3 => MethodologyKind::SubscriberAddresses,
            4..=7 => MethodologyKind::ConsultantTemplate,
            _ => MethodologyKind::FiberEngineering,
        }
    };

    // The very last regional provider becomes the JCC-style intentional
    // over-claimer when the scenario is enabled.
    let jcc_like = config.include_jcc && seq == config.n_providers - 1;
    let style = if jcc_like {
        ReportingStyle::IntentionalOverclaim
    } else {
        style
    };

    ProviderProfile {
        provider: Provider {
            id: ProviderId(next_id),
            name: name.clone(),
            brand: name.split(',').next().unwrap_or(&name).trim().to_string(),
            frns: vec![Frn(1_000_000 + next_id as u64)],
            technologies: deployments.iter().map(|d| d.technology).collect(),
            major: false,
            home_state: anchor_state,
        },
        towns: footprint,
        deployments,
        style,
        methodology: if jcc_like {
            MethodologyKind::CensusBlocks
        } else {
            methodology
        },
        jcc_like,
    }
}

/// Maximum distance a generated BSL can scatter from its own town centre
/// (see `fabric_gen::town_bsls`: 92% inside a 3.8 km disc, rural tail
/// strictly below 10 km). A hair of slack absorbs `destination`/`haversine`
/// round-trip error; the only cost of slack is scanning a few extra towns.
const MAX_BSL_SCATTER_KM: f64 = 10.01;

/// Town blocks fetched, regenerated or distance-tested at once: one window of
/// a claim scan's candidate visits, or of the fabric drain's towns. Every
/// block of a window is resident together, so this stays at half the
/// streaming cache's 64-block cap; a constant, so residency and regeneration
/// counts never depend on the worker count.
pub(crate) const TOWN_WINDOW: usize = 32;

/// Per-town access to the fabric's contiguous BSL blocks — the only fabric
/// access pruned claim scanning needs. The materialised path slices a
/// resident [`bdc::Fabric`] ([`FabricTownBsls`]); the streaming path
/// regenerates blocks on demand from the per-town RNG streams.
pub(crate) trait TownBsls {
    /// The blocks of one window of visits: entry `i` holds town `towns[i]`'s
    /// BSLs in location-id order (a town may appear more than once).
    fn blocks(&mut self, towns: &[usize]) -> Vec<&[bdc::Bsl]>;
}

/// [`TownBsls`] over a resident fabric: town `i`'s block is the slice at its
/// prefix-sum offset (the fabric stores BSLs in generation order).
struct FabricTownBsls<'a> {
    fabric: &'a bdc::Fabric,
    towns: &'a [Town],
    offsets: Vec<u64>,
}

impl<'a> FabricTownBsls<'a> {
    fn new(fabric: &'a bdc::Fabric, towns: &'a [Town]) -> Self {
        let offsets = crate::fabric_gen::town_offsets(towns);
        let total: u64 = offsets
            .last()
            .map(|&o| o + towns.last().map(|t| t.n_bsls as u64).unwrap_or(0))
            .unwrap_or(0);
        assert_eq!(
            total,
            fabric.len() as u64,
            "FabricTownBsls requires the fabric generated from this town list"
        );
        Self {
            fabric,
            towns,
            offsets,
        }
    }
}

impl TownBsls for FabricTownBsls<'_> {
    fn blocks(&mut self, towns: &[usize]) -> Vec<&[bdc::Bsl]> {
        towns
            .iter()
            .map(|&t| {
                let start = self.offsets[t] as usize;
                &self.fabric.bsls()[start..start + self.towns[t].n_bsls]
            })
            .collect()
    }
}

/// Precomputed town geometry for pruned claim scanning: per-state town index
/// lists in town-index order, which is exactly the fabric's within-state
/// block order — so a pruned scan visits the same BSLs in the same order as
/// the old full-state scan, minus towns provably out of claiming range.
pub struct ClaimScanner<'a> {
    towns: &'a [Town],
    state_towns: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> ClaimScanner<'a> {
    pub fn new(towns: &'a [Town]) -> Self {
        let mut state_towns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, t) in towns.iter().enumerate() {
            state_towns.entry(t.state.as_str()).or_default().push(i);
        }
        Self { towns, state_towns }
    }

    pub fn towns(&self) -> &'a [Town] {
        self.towns
    }
}

/// Compute every provider's claims concurrently (claim computation draws no
/// randomness, so this is a pure fan-out over providers).
pub fn compute_all_claims(
    profiles: &[ProviderProfile],
    towns: &[Town],
    fabric: &bdc::Fabric,
    config: &SynthConfig,
    workers: usize,
) -> BTreeMap<ProviderId, Vec<ClaimTruth>> {
    let scanner = ClaimScanner::new(towns);
    map_shards(workers, profiles, |_, p| {
        (p.provider.id, scan_fabric(p, &scanner, fabric, config))
    })
    .into_iter()
    .collect()
}

/// Compute the provider's location-level claims together with their ground
/// truth, reading the fabric through a resident [`bdc::Fabric`].
pub fn compute_claims(
    profile: &ProviderProfile,
    towns: &[Town],
    fabric: &bdc::Fabric,
    config: &SynthConfig,
) -> Vec<ClaimTruth> {
    scan_fabric(profile, &ClaimScanner::new(towns), fabric, config)
}

/// One provider's claims over a resident fabric, on the calling thread: the
/// materialised path already fans out across providers.
fn scan_fabric(
    profile: &ProviderProfile,
    scanner: &ClaimScanner,
    fabric: &bdc::Fabric,
    config: &SynthConfig,
) -> Vec<ClaimTruth> {
    let mut access = FabricTownBsls::new(fabric, scanner.towns);
    compute_claims_observed(
        profile,
        scanner,
        &mut access,
        config,
        1,
        TOWN_WINDOW,
        &mut |_, _, _| {},
    )
}

/// Compute the provider's location-level claims together with their ground
/// truth. A location is *truly served* when it lies within the technology's
/// true radius of one of the provider's footprint towns; it is *claimed* when
/// it lies within the (style-inflated) filing radius. The JCC-style provider
/// additionally claims a broad western sector it does not serve at all.
///
/// The scan is spatially pruned: for each footprint town only same-state
/// towns whose centre lies within claiming reach (claim radius plus the
/// maximum BSL scatter) can contain a claimable BSL, so only their blocks
/// are visited — in town-index order, which keeps the claim list bit-identical
/// to a full state scan while touching a tiny fraction of a national fabric.
///
/// Visits are taken `window` at a time: `bsls` supplies the window's blocks,
/// the in-radius tests fan across `workers`, and the `seen` dedup, the claim
/// push and `observe` run on the calling thread in visit order — so the claim
/// list is the same for every `workers` and `window`. `observe` sees every
/// claim the instant it is produced, together with its BSL and the index of
/// the town block holding it: the hook the streaming world uses to capture
/// each claim's hex and state during the scan.
pub(crate) fn compute_claims_observed(
    profile: &ProviderProfile,
    scanner: &ClaimScanner,
    bsls: &mut impl TownBsls,
    config: &SynthConfig,
    workers: usize,
    window: usize,
    observe: &mut dyn FnMut(&ClaimTruth, &bdc::Bsl, usize),
) -> Vec<ClaimTruth> {
    let towns = scanner.towns;
    let mut claims = Vec::new();
    let multiplier = profile.style.overclaim_multiplier() * (1.0 + config.overclaim_fraction / 4.0);
    // The JCC scenario: the provider also claims an entire neighbouring market
    // it does not serve at all — modelled as the nearest town (preferably in
    // the same state) that is *not* part of its real footprint.
    let phantom_town = if profile.jcc_like {
        phantom_market(profile, towns)
    } else {
        None
    };
    // Real footprint towns are scanned first so genuine service takes
    // precedence; the phantom market (if any) is scanned last and everything
    // claimed from it is unserved — the misrepresented region of Figure 8.
    let mut scan_towns: Vec<(usize, bool)> = profile.towns.iter().map(|&t| (t, false)).collect();
    if let Some(p) = phantom_town {
        scan_towns.push((p, true));
    }
    for deployment in &profile.deployments {
        let claim_radius = deployment.true_radius_km * multiplier;
        let phantom_radius = deployment.true_radius_km.max(4.0);
        // `(scan town, candidate town, is_phantom)` in scan order, produced
        // lazily one window at a time.
        let mut visits = scan_towns.iter().flat_map(|&(town_idx, is_phantom)| {
            let center = towns[town_idx].center;
            // Widest radius at which this scan can claim a BSL; anything in a
            // town whose centre is further than reach can never be claimed
            // (triangle inequality on the great-circle metric).
            let claim_reach = if is_phantom {
                phantom_radius
            } else {
                claim_radius
            };
            let reach = claim_reach + MAX_BSL_SCATTER_KM;
            scanner.state_towns[towns[town_idx].state.as_str()]
                .iter()
                .filter(move |&&cand| towns[cand].center.haversine_km(&center) <= reach)
                .map(move |&cand| (town_idx, cand, is_phantom))
        });
        // Locations claimed so far: one bit per BSL of each visited block.
        let mut seen: HashMap<usize, Vec<u64>> = HashMap::new();
        loop {
            let batch: Vec<(usize, usize, bool)> = visits.by_ref().take(window).collect();
            if batch.is_empty() {
                break;
            }
            let candidates: Vec<usize> = batch.iter().map(|&(_, cand, _)| cand).collect();
            let blocks = bsls.blocks(&candidates);
            // Per visit, the in-radius BSLs as (index in block, truly served).
            let hits = map_shards(workers, &batch, |i, &(town_idx, _, is_phantom)| {
                let center = towns[town_idx].center;
                let mut hits: Vec<(usize, bool)> = Vec::new();
                for (j, bsl) in blocks[i].iter().enumerate() {
                    let dist = center.haversine_km(&bsl.position);
                    let (truly_served, claimed) = if is_phantom {
                        (false, dist <= phantom_radius)
                    } else {
                        (dist <= deployment.true_radius_km, dist <= claim_radius)
                    };
                    if claimed {
                        hits.push((j, truly_served));
                    }
                }
                hits
            });
            for ((block, &cand), hits) in blocks.iter().zip(&candidates).zip(hits) {
                let seen = seen
                    .entry(cand)
                    .or_insert_with(|| vec![0; block.len().div_ceil(64)]);
                for (j, truly_served) in hits {
                    let bit = 1u64 << (j % 64);
                    if seen[j / 64] & bit != 0 {
                        continue;
                    }
                    seen[j / 64] |= bit;
                    let bsl = &block[j];
                    let claim = ClaimTruth {
                        location: bsl.id,
                        technology: deployment.technology,
                        truly_served,
                        max_down_mbps: deployment.max_down_mbps,
                        max_up_mbps: deployment.max_up_mbps,
                        low_latency: deployment.low_latency,
                    };
                    observe(&claim, bsl, cand);
                    claims.push(claim);
                }
            }
        }
    }
    claims
}

/// The nearest town outside the provider's footprint (preferring the same
/// state as its anchor town) — the "market next door" a JCC-style provider
/// falsely claims.
fn phantom_market(profile: &ProviderProfile, towns: &[Town]) -> Option<usize> {
    let anchor = &towns[*profile.towns.first()?];
    let candidates: Vec<usize> = (0..towns.len())
        .filter(|t| !profile.towns.contains(t))
        .collect();
    let same_state: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&t| towns[t].state == anchor.state)
        .collect();
    let pool = if same_state.is_empty() {
        candidates
    } else {
        same_state
    };
    pool.into_iter().min_by(|&a, &b| {
        anchor
            .center
            .haversine_km(&towns[a].center)
            .partial_cmp(&anchor.center.haversine_km(&towns[b].center))
            .unwrap()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric_gen::{generate_fabric, generate_towns};

    fn world() -> (SynthConfig, Vec<Town>, bdc::Fabric, Vec<ProviderProfile>) {
        let config = SynthConfig::tiny(13);
        let towns = generate_towns(&config, 1);
        let fabric = generate_fabric(&config, &towns, 1);
        let providers = generate_providers(&config, &towns, 1);
        (config, towns, fabric, providers)
    }

    #[test]
    fn provider_counts_match_config() {
        let (config, _, _, providers) = world();
        assert_eq!(providers.len(), config.n_providers);
        let majors = providers.iter().filter(|p| p.provider.major).count();
        assert_eq!(majors, config.n_major_providers);
    }

    #[test]
    fn exactly_one_jcc_provider_when_enabled() {
        let (_, _, _, providers) = world();
        let jcc: Vec<_> = providers.iter().filter(|p| p.jcc_like).collect();
        assert_eq!(jcc.len(), 1);
        assert_eq!(jcc[0].style, ReportingStyle::IntentionalOverclaim);
        assert!(!jcc[0].provider.major);
    }

    #[test]
    fn no_jcc_provider_when_disabled() {
        let mut config = SynthConfig::tiny(13);
        config.include_jcc = false;
        let towns = generate_towns(&config, 1);
        let providers = generate_providers(&config, &towns, 1);
        assert!(providers.iter().all(|p| !p.jcc_like));
    }

    #[test]
    fn provider_population_is_worker_count_invariant() {
        let (config, towns, _, base) = world();
        for workers in [2, 5] {
            let got = generate_providers(&config, &towns, workers);
            assert_eq!(got.len(), base.len());
            for (a, b) in base.iter().zip(&got) {
                assert_eq!(a.provider.id, b.provider.id);
                assert_eq!(a.provider.name, b.provider.name);
                assert_eq!(a.towns, b.towns);
                assert_eq!(a.style, b.style);
            }
        }
    }

    #[test]
    fn parallel_claims_match_per_provider_claims() {
        let (config, towns, fabric, providers) = world();
        let all = compute_all_claims(&providers, &towns, &fabric, &config, 3);
        assert_eq!(all.len(), providers.len());
        let sample = &providers[providers.len() / 2];
        let direct = compute_claims(sample, &towns, &fabric, &config);
        let fanned = &all[&sample.provider.id];
        assert_eq!(direct.len(), fanned.len());
        for (a, b) in direct.iter().zip(fanned) {
            assert_eq!((a.location, a.technology), (b.location, b.technology));
            assert_eq!(a.truly_served, b.truly_served);
        }
    }

    #[test]
    fn provider_ids_unique() {
        let (_, _, _, providers) = world();
        let mut ids: Vec<u32> = providers.iter().map(|p| p.provider.id.value()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(before, ids.len());
    }

    #[test]
    fn claims_include_overclaims_for_aggressive_styles() {
        let (config, towns, fabric, providers) = world();
        // Find a provider with a non-accurate style and some claims.
        let mut saw_false_claim = false;
        let mut saw_true_claim = false;
        for profile in &providers {
            let claims = compute_claims(profile, &towns, &fabric, &config);
            for c in &claims {
                if c.truly_served {
                    saw_true_claim = true;
                } else {
                    saw_false_claim = true;
                }
            }
        }
        assert!(saw_true_claim, "no truthful claims generated");
        assert!(saw_false_claim, "no over-claims generated");
    }

    #[test]
    fn accurate_providers_never_overclaim_much() {
        let (config, towns, fabric, providers) = world();
        for profile in providers
            .iter()
            .filter(|p| p.style == ReportingStyle::Accurate)
        {
            let claims = compute_claims(profile, &towns, &fabric, &config);
            if claims.is_empty() {
                continue;
            }
            let false_rate =
                claims.iter().filter(|c| !c.truly_served).count() as f64 / claims.len() as f64;
            assert!(
                false_rate < 0.35,
                "accurate provider false rate {false_rate}"
            );
        }
    }

    #[test]
    fn jcc_provider_has_substantial_false_claims() {
        let (config, towns, fabric, providers) = world();
        let jcc = providers.iter().find(|p| p.jcc_like).unwrap();
        let claims = compute_claims(jcc, &towns, &fabric, &config);
        assert!(!claims.is_empty());
        let false_count = claims.iter().filter(|c| !c.truly_served).count();
        assert!(
            false_count >= 20,
            "JCC provider generated too few false claims ({false_count} of {})",
            claims.len()
        );
    }

    #[test]
    fn majors_span_multiple_states() {
        let (_, towns, _, providers) = world();
        for p in providers.iter().filter(|p| p.provider.major) {
            let states: std::collections::HashSet<&str> =
                p.towns.iter().map(|&t| towns[t].state.as_str()).collect();
            assert!(
                states.len() >= 3,
                "major {} spans {} states",
                p.provider.name,
                states.len()
            );
        }
    }
}
