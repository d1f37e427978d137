//! Generating providers, their footprints, reporting behaviour and the
//! ground-truth / claimed service sets.
//!
//! Provider generation is sharded per provider: provider `i` draws only from
//! the `(seed, Providers, i)` stream, so the population is bit-identical for
//! any worker count. Claim computation consumes no randomness at all and is
//! likewise fanned per provider.

use std::collections::BTreeMap;
use std::ops::Range;

use bdc::stream::ResidencyMeter;
use bdc::{Frn, LocationId, Provider, ProviderId, Technology};
use hexgrid::HexCell;
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
/// a claim scan's candidate towns, or of the fabric drain's towns. Every block
/// of a window is resident together; a constant, so residency and
/// regeneration counts never depend on the worker count.
pub(crate) const TOWN_WINDOW: usize = 32;

/// Per-town access to the fabric's contiguous BSL blocks — the only fabric
/// access pruned claim scanning needs. The materialised path slices a
/// resident [`bdc::Fabric`] ([`FabricTownBsls`]); the streaming path
/// regenerates each window from the per-town RNG streams.
pub(crate) trait TownBsls {
    /// The blocks of one window of towns, replacing the previous window:
    /// entry `i` holds town `towns[i]`'s BSLs in location-id order. An empty
    /// window only lets the previous one go.
    fn blocks(&mut self, towns: &[usize]) -> Vec<&[bdc::Bsl]>;
}

/// [`TownBsls`] over a resident fabric: town `i`'s block is the slice at its
/// prefix-sum offset (the fabric stores BSLs in generation order).
pub(crate) struct FabricTownBsls<'a> {
    pub(crate) fabric: &'a bdc::Fabric,
    pub(crate) scanner: &'a ClaimScanner<'a>,
}

impl TownBsls for FabricTownBsls<'_> {
    fn blocks(&mut self, towns: &[usize]) -> Vec<&[bdc::Bsl]> {
        towns
            .iter()
            .map(|&t| {
                let start = self.scanner.offsets[t] as usize;
                &self.fabric.bsls()[start..start + self.scanner.towns[t].n_bsls]
            })
            .collect()
    }
}

/// Precomputed town geometry for pruned claim scanning: the towns, their
/// location-id offsets (town `t`'s BSL `j` is location `offsets[t] + 1 + j`)
/// and per-state town index lists in town-index order, which is exactly the
/// fabric's within-state block order — so a pruned scan visits the same BSLs
/// in the same order as a full-state scan, minus towns provably out of
/// claiming range.
pub(crate) struct ClaimScanner<'a> {
    towns: &'a [Town],
    offsets: &'a [u64],
    state_towns: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> ClaimScanner<'a> {
    pub(crate) fn new(towns: &'a [Town], offsets: &'a [u64]) -> Self {
        let mut state_towns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, t) in towns.iter().enumerate() {
            state_towns.entry(t.state.as_str()).or_default().push(i);
        }
        Self {
            towns,
            offsets,
            state_towns,
        }
    }
}

/// One `(deployment, scan town, candidate town)` step of a claim scan, and the
/// run of the hit buffer holding the BSLs it claims first.
struct Visit {
    deployment: usize,
    scan: usize,
    cand: usize,
    phantom: bool,
    hits: Range<usize>,
}

/// A BSL claimed by a visit before any other visit of its deployment: the
/// BSL's index in its town block, whether the visit truly serves it, and its
/// hex.
#[derive(Clone, Copy)]
struct Hit {
    hex: HexCell,
    index: u32,
    truly_served: bool,
}

/// Where each of a provider's claims lies, in claim order: its BSL's hex and
/// town, read off a claim scan's hit buffer visit by visit rather than copied
/// out per claim.
pub(crate) struct ClaimGeometry {
    visits: Vec<Visit>,
    hits: Vec<Hit>,
    /// BSLs claimed by any deployment: the provider's distinct locations.
    locations: usize,
}

impl ClaimGeometry {
    /// `(hex, town)` of every claim, in claim order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (HexCell, usize)> + '_ {
        self.visits.iter().flat_map(|visit| {
            self.hits[visit.hits.clone()]
                .iter()
                .map(|hit| (hit.hex, visit.cand))
        })
    }

    /// Metered entries it holds: one per hit and one per visit.
    pub(crate) fn entries(&self) -> usize {
        self.hits.len() + self.visits.len()
    }

    /// Distinct locations claimed, counted while the scan tested each BSL
    /// (a location claimed under two technologies counts once).
    pub(crate) fn locations(&self) -> usize {
        self.locations
    }
}

/// Compute the provider's location-level claims together with their ground
/// truth. A location is *truly served* when it lies within the technology's
/// true radius of one of the provider's footprint towns; it is *claimed* when
/// it lies within the (style-inflated) filing radius. The JCC-style provider
/// additionally claims a phantom market it does not serve at all
/// ([`scan_towns`]).
///
/// The scan is spatially pruned: for each footprint town only same-state
/// towns whose centre lies within claiming reach (claim radius plus the
/// maximum BSL scatter) can contain a claimable BSL. Each such
/// `(deployment, scan town, candidate town)` triple is a *visit*; visits are
/// ordered by deployment, then scan town, then candidate town index, and a
/// BSL claimed by several visits of one deployment belongs to the first,
/// which also decides `truly_served`.
///
/// The scan is town-major: the visits are grouped by candidate town, and each
/// candidate's block is fetched once, `window` towns at a time, from `bsls`.
/// The in-radius tests fan across `workers`, one candidate town each, and test
/// every BSL against the town's visits in visit order. The calling thread
/// appends each visit's first claims to a compact hit buffer, charging each
/// hit to `meter` while its window is still resident. Once every window is
/// folded the claims are emitted in visit order, then block order, into an
/// exactly sized list, and the hit buffer becomes their [`ClaimGeometry`],
/// which also counts the BSLs any visit claimed — the same claims and
/// geometry for every `workers` and `window`. The caller
/// owns the charge of both: one entry per claim and
/// [`ClaimGeometry::entries`].
pub(crate) fn scan_claims(
    profile: &ProviderProfile,
    scanner: &ClaimScanner,
    bsls: &mut impl TownBsls,
    config: &SynthConfig,
    workers: usize,
    window: usize,
    meter: &ResidencyMeter,
) -> (Vec<ClaimTruth>, ClaimGeometry) {
    let towns = scanner.towns;
    let multiplier = profile.style.overclaim_multiplier() * (1.0 + config.overclaim_fraction / 4.0);
    // `(true, claim, phantom)` radius per deployment.
    let radii: Vec<(f64, f64, f64)> = profile
        .deployments
        .iter()
        .map(|d| {
            let r = d.true_radius_km;
            (r, r * multiplier, r.max(4.0))
        })
        .collect();
    let scan_towns = scan_towns(profile, towns);
    let mut visits: Vec<Visit> = Vec::new();
    for (deployment, &(_, claim_radius, phantom_radius)) in radii.iter().enumerate() {
        for &(scan, phantom) in &scan_towns {
            let center = towns[scan].center;
            // Widest radius at which this scan can claim a BSL; anything in a
            // town whose centre is further than reach can never be claimed
            // (triangle inequality on the great-circle metric).
            let claim_reach = if phantom {
                phantom_radius
            } else {
                claim_radius
            };
            let reach = claim_reach + MAX_BSL_SCATTER_KM;
            for &cand in &scanner.state_towns[towns[scan].state.as_str()] {
                if towns[cand].center.haversine_km(&center) <= reach {
                    visits.push(Visit {
                        deployment,
                        scan,
                        cand,
                        phantom,
                        hits: 0..0,
                    });
                }
            }
        }
    }
    // The visits reaching each candidate town, in visit order (a stable sort).
    let mut by_town: Vec<usize> = (0..visits.len()).collect();
    by_town.sort_by_key(|&v| visits[v].cand);
    meter.acquire(2 * visits.len()); // the visits and their town-major order
    let groups: Vec<&[usize]> = by_town
        .chunk_by(|&a, &b| visits[a].cand == visits[b].cand)
        .collect();

    let mut hits: Vec<Hit> = Vec::new();
    let mut locations = 0;
    for window_groups in groups.chunks(window) {
        let cands: Vec<usize> = window_groups.iter().map(|g| visits[g[0]].cand).collect();
        let blocks = bsls.blocks(&cands);
        // Per candidate town, each of its visits' first claims and how many
        // of its BSLs any visit claims.
        let found = map_shards(workers, window_groups, |k, group| {
            let mut runs: Vec<Vec<Hit>> = vec![Vec::new(); group.len()];
            let mut claimed = 0;
            for (j, bsl) in blocks[k].iter().enumerate() {
                // The deployment that claimed this BSL last: its later
                // visits skip it.
                let mut taken = usize::MAX;
                for (run, &v) in runs.iter_mut().zip(group.iter()) {
                    let visit = &visits[v];
                    if visit.deployment == taken {
                        continue;
                    }
                    let (true_radius, claim_radius, phantom_radius) = radii[visit.deployment];
                    let dist = towns[visit.scan].center.haversine_km(&bsl.position);
                    let (truly_served, claimed) = if visit.phantom {
                        (false, dist <= phantom_radius)
                    } else {
                        (dist <= true_radius, dist <= claim_radius)
                    };
                    if claimed {
                        taken = visit.deployment;
                        run.push(Hit {
                            hex: bsl.hex,
                            index: u32::try_from(j).expect("a town block holds under 2^32 BSLs"),
                            truly_served,
                        });
                    }
                }
                claimed += usize::from(taken != usize::MAX);
            }
            (runs, claimed)
        });
        let before = hits.len();
        for (group, (runs, claimed)) in window_groups.iter().zip(found) {
            locations += claimed;
            for (&v, run) in group.iter().zip(runs) {
                let start = hits.len();
                hits.extend(run);
                visits[v].hits = start..hits.len();
            }
        }
        meter.acquire(hits.len() - before);
    }
    bsls.blocks(&[]);
    drop(groups);
    drop(by_town);
    meter.release(visits.len()); // the town-major order

    meter.acquire(hits.len()); // the claim list
    let mut claims = Vec::with_capacity(hits.len());
    for visit in &visits {
        let deployment = &profile.deployments[visit.deployment];
        let first = scanner.offsets[visit.cand] + 1;
        claims.extend(hits[visit.hits.clone()].iter().map(|hit| ClaimTruth {
            location: LocationId(first + u64::from(hit.index)),
            technology: deployment.technology,
            truly_served: hit.truly_served,
            max_down_mbps: deployment.max_down_mbps,
            max_up_mbps: deployment.max_up_mbps,
            low_latency: deployment.low_latency,
        }));
    }
    let geometry = ClaimGeometry {
        visits,
        hits,
        locations,
    };
    (claims, geometry)
}

/// The towns a provider's claim scan starts from, with whether each is the
/// phantom market. Real footprint towns come first so genuine service takes
/// precedence; the JCC scenario's phantom market — the nearest town
/// (preferably in the same state) that is *not* part of the real footprint,
/// an entire neighbouring market the provider does not serve at all — comes
/// last, and everything claimed from it is unserved: the misrepresented
/// region of Figure 8.
fn scan_towns(profile: &ProviderProfile, towns: &[Town]) -> Vec<(usize, bool)> {
    let mut scan: Vec<(usize, bool)> = profile.towns.iter().map(|&t| (t, false)).collect();
    if profile.jcc_like {
        scan.extend(phantom_market(profile, towns).map(|p| (p, true)));
    }
    scan
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

/// The visit-major scan [`scan_claims`] replaced, kept as its reference: each
/// deployment's visits taken `window` at a time in visit order, one block
/// fetched per visit, and a `seen` bitset per deployment and visited town
/// letting the first claiming visit take a BSL. Returns the claims, each
/// claim's hex and town, and the candidate town of every visit in visit
/// order.
#[cfg(test)]
pub(crate) fn visit_major_claims(
    profile: &ProviderProfile,
    scanner: &ClaimScanner,
    fabric: &bdc::Fabric,
    config: &SynthConfig,
    workers: usize,
    window: usize,
) -> (Vec<ClaimTruth>, Vec<(HexCell, usize)>, Vec<usize>) {
    use std::collections::HashMap;
    let towns = scanner.towns;
    let mut bsls = FabricTownBsls { fabric, scanner };
    let (mut claims, mut geo, mut visited) = (Vec::new(), Vec::new(), Vec::new());
    let multiplier = profile.style.overclaim_multiplier() * (1.0 + config.overclaim_fraction / 4.0);
    let scan_towns = scan_towns(profile, towns);
    for deployment in &profile.deployments {
        let claim_radius = deployment.true_radius_km * multiplier;
        let phantom_radius = deployment.true_radius_km.max(4.0);
        let mut visits = scan_towns.iter().flat_map(|&(town_idx, is_phantom)| {
            let center = towns[town_idx].center;
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
        let mut seen: HashMap<usize, Vec<u64>> = HashMap::new();
        loop {
            let batch: Vec<(usize, usize, bool)> = visits.by_ref().take(window).collect();
            if batch.is_empty() {
                break;
            }
            let candidates: Vec<usize> = batch.iter().map(|&(_, cand, _)| cand).collect();
            visited.extend(&candidates);
            let blocks = bsls.blocks(&candidates);
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
                    claims.push(ClaimTruth {
                        location: block[j].id,
                        technology: deployment.technology,
                        truly_served,
                        max_down_mbps: deployment.max_down_mbps,
                        max_up_mbps: deployment.max_up_mbps,
                        low_latency: deployment.low_latency,
                    });
                    geo.push((block[j].hex, cand));
                }
            }
        }
    }
    (claims, geo, visited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric_gen::{generate_fabric, generate_towns, town_offsets};
    use crate::states::STATES;
    use geoprim::LatLng;

    fn world() -> (SynthConfig, Vec<Town>, bdc::Fabric, Vec<ProviderProfile>) {
        world_of(SynthConfig::tiny(13))
    }

    fn world_of(
        config: SynthConfig,
    ) -> (SynthConfig, Vec<Town>, bdc::Fabric, Vec<ProviderProfile>) {
        let towns = generate_towns(&config, 1);
        let fabric = generate_fabric(&config, &towns, 1);
        let providers = generate_providers(&config, &towns, 1);
        (config, towns, fabric, providers)
    }

    /// Six towns of one state and one of another, with three providers built
    /// for the scan's corner cases.
    fn hand_built() -> (SynthConfig, Vec<Town>, bdc::Fabric, Vec<ProviderProfile>) {
        let config = SynthConfig::tiny(91);
        let origin = LatLng::new(39.0, -105.0);
        let town = |code: &str, km_east: f64| Town {
            state_index: STATES.iter().position(|s| s.code == code).unwrap(),
            state: code.to_string(),
            center: origin.destination(90.0, km_east * 1000.0),
            n_bsls: 60,
        };
        let towns = vec![
            town("CO", 0.0),
            town("CO", 5.0),
            town("CO", 10.0),
            town("CO", 15.0),
            town("CO", 300.0),
            town("KS", 7.0),
        ];
        let fabric = generate_fabric(&config, &towns, 1);
        let profile = |id: u32,
                       footprint: Vec<usize>,
                       deployments: &[(Technology, f64)],
                       style: ReportingStyle| ProviderProfile {
            provider: Provider {
                id: ProviderId(id),
                name: format!("Hand Built {id}"),
                brand: format!("Hand{id}"),
                frns: vec![Frn(2_000_000 + u64::from(id))],
                technologies: deployments.iter().map(|d| d.0).collect(),
                major: false,
                home_state: "CO".to_string(),
            },
            towns: footprint,
            deployments: deployments
                .iter()
                .map(|&(technology, true_radius_km)| TechDeployment {
                    technology,
                    true_radius_km,
                    max_down_mbps: 100.0 * true_radius_km,
                    max_up_mbps: 10.0 * true_radius_km,
                    low_latency: technology != Technology::Copper,
                })
                .collect(),
            style,
            methodology: MethodologyKind::ConsultantTemplate,
            jcc_like: style == ReportingStyle::IntentionalOverclaim,
        };
        let profiles = vec![
            // Town 1 is reached from towns 0, 1 and 2 by both deployments.
            profile(
                1,
                vec![0, 1, 2],
                &[(Technology::Cable, 2.5), (Technology::Fiber, 6.0)],
                ReportingStyle::Aggressive,
            ),
            // 5 km apart with a 3 km true radius: town 1's western BSLs lie
            // inside town 0's claim radius but only town 1's true radius.
            profile(
                2,
                vec![0, 1],
                &[(Technology::Copper, 3.0)],
                ReportingStyle::Aggressive,
            ),
            // The JCC scenario: town 1 is the phantom market.
            profile(
                3,
                vec![0],
                &[(Technology::Cable, 3.0)],
                ReportingStyle::IntentionalOverclaim,
            ),
        ];
        (config, towns, fabric, profiles)
    }

    /// Every provider's claims, in profile order, from the visit-major
    /// reference scan.
    fn reference_claims(
        config: &SynthConfig,
        towns: &[Town],
        fabric: &bdc::Fabric,
        providers: &[ProviderProfile],
    ) -> Vec<Vec<ClaimTruth>> {
        let offsets = town_offsets(towns);
        let scanner = ClaimScanner::new(towns, &offsets);
        providers
            .iter()
            .map(|p| visit_major_claims(p, &scanner, fabric, config, 1, TOWN_WINDOW).0)
            .collect()
    }

    /// Every claim's location, technology, ground truth, speed bits and
    /// latency flag.
    fn claim_bits(claims: &[ClaimTruth]) -> Vec<(LocationId, Technology, bool, u64, u64, bool)> {
        claims
            .iter()
            .map(|c| {
                (
                    c.location,
                    c.technology,
                    c.truly_served,
                    c.max_down_mbps.to_bits(),
                    c.max_up_mbps.to_bits(),
                    c.low_latency,
                )
            })
            .collect()
    }

    /// The town-major scan against the visit-major reference, for every
    /// profile, window and worker count.
    fn assert_scans_agree(
        config: &SynthConfig,
        towns: &[Town],
        fabric: &bdc::Fabric,
        profiles: &[ProviderProfile],
    ) {
        let offsets = town_offsets(towns);
        let scanner = ClaimScanner::new(towns, &offsets);
        for profile in profiles {
            let (want, want_geo, _) =
                visit_major_claims(profile, &scanner, fabric, config, 1, TOWN_WINDOW);
            for window in [1, 7, TOWN_WINDOW] {
                for workers in [1, 2, 3] {
                    let meter = ResidencyMeter::new();
                    let mut blocks = FabricTownBsls {
                        fabric,
                        scanner: &scanner,
                    };
                    let (got, geo) = scan_claims(
                        profile,
                        &scanner,
                        &mut blocks,
                        config,
                        workers,
                        window,
                        &meter,
                    );
                    let at = format!(
                        "provider {}, window {window}, {workers} workers",
                        profile.provider.id.value()
                    );
                    assert_eq!(claim_bits(&got), claim_bits(&want), "{at}");
                    assert_eq!(geo.iter().collect::<Vec<_>>(), want_geo, "{at}");
                    let mut locations: Vec<LocationId> = want.iter().map(|c| c.location).collect();
                    locations.sort_unstable();
                    locations.dedup();
                    assert_eq!(geo.locations(), locations.len(), "{at}");
                    // The caller is handed the claims' and the geometry's charge.
                    assert_eq!(meter.current(), got.len() + geo.entries(), "{at}");
                }
            }
        }
    }

    #[test]
    fn town_major_scan_matches_the_visit_major_reference() {
        let (config, towns, fabric, providers) = world();
        assert_scans_agree(&config, &towns, &fabric, &providers);
        let (config, towns, fabric, providers) = world_of(SynthConfig {
            n_bsls: 20_000,
            bsls_per_town: 50,
            ..SynthConfig::tiny(84)
        });
        assert_scans_agree(&config, &towns, &fabric, &providers);

        let (config, towns, fabric, profiles) = hand_built();
        assert_scans_agree(&config, &towns, &fabric, &profiles);
        // The corner cases the hand-built profiles exist for.
        let offsets = town_offsets(&towns);
        let scanner = ClaimScanner::new(&towns, &offsets);
        let reference =
            |p: &ProviderProfile| visit_major_claims(p, &scanner, &fabric, &config, 1, TOWN_WINDOW);
        let (_, _, visited) = reference(&profiles[0]);
        assert_eq!(visited.iter().filter(|&&t| t == 1).count(), 6);
        let (claims, _, _) = reference(&profiles[1]);
        let km = |c: &ClaimTruth, t: usize| {
            let bsl = fabric.get(c.location).unwrap();
            towns[t].center.haversine_km(&bsl.position)
        };
        let radius = profiles[1].deployments[0].true_radius_km;
        assert!(claims
            .iter()
            .any(|c| !c.truly_served && km(c, 0) > radius && km(c, 1) <= radius));
        // Out of town 0's claim reach, so only the phantom market claims it.
        let (claims, _, _) = reference(&profiles[2]);
        assert!(claims.iter().any(|c| km(c, 0) > 6.0 && !c.truly_served));
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
        for claims in reference_claims(&config, &towns, &fabric, &providers) {
            for c in claims {
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
        let all = reference_claims(&config, &towns, &fabric, &providers);
        for (profile, claims) in providers.iter().zip(&all) {
            if profile.style != ReportingStyle::Accurate || claims.is_empty() {
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
        let all = reference_claims(&config, &towns, &fabric, &providers);
        let jcc = providers.iter().position(|p| p.jcc_like).unwrap();
        let claims = &all[jcc];
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
