//! Each provider's regulatory record: its filing, its per-hex claims in the
//! initial NBM release, its challenges and its silent corrections.
//!
//! One crate-private fold, `regulatory_record`, turns a provider's claim scan
//! into the record, and both worlds call it after the scan: the materialised
//! [`crate::SynthUs`] keeps every part of it plus the provider's filing, and
//! the streaming [`crate::StreamWorld`] keeps the per-hex view, the served
//! hexes and the challenges, and turns the corrections into its removal
//! schedule. No claim is looked up in a fabric: the scan already resolved each
//! claim's hex and town. Challenges follow the paper's Table 2/3 mix and
//! Figure 2's state skew. Successful challenges and corrections remove claims
//! from the bi-weekly-style minor releases, which
//! [`crate::release_stream::ReleaseEmitter`] streams from this record.
//!
//! Sharding: challenges and corrections draw from one stream per *provider*
//! (keyed by provider id) and the later wave from one stream per fixed-size
//! chunk of the first wave — so every output is bit-identical for any worker
//! count.

use std::collections::{BTreeSet, HashMap};

use bdc::stream::speed_pair_wins;
use bdc::{
    AvailabilityRecord, Challenge, ChallengeOutcome, ChallengeReason, DayStamp, FabricView, Filing,
    HexClaim, LocationId, ProviderId, ServiceType, Technology,
};
use hexgrid::HexCell;
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::SynthConfig;
use crate::fabric_gen::Town;
use crate::providers_gen::{ClaimGeometry, ClaimTruth, ProviderProfile};
use crate::shard::{map_shards, shard_rng, SynthStage};
use crate::states::STATES;

/// Fixed chunk size of the later-challenge shards. Part of the deterministic
/// contract: changing it changes which stream each challenge draws from (and
/// therefore the generated world), so it must stay constant.
const LATER_WAVE_CHUNK: usize = 4096;

/// How many shards [`generate_later_challenges`] fans out for a first wave of
/// `first_wave_len` challenges (used by the generation report).
pub fn later_wave_shard_count(first_wave_len: usize) -> usize {
    first_wave_len.div_ceil(LATER_WAVE_CHUNK).max(1)
}

/// One provider's regulatory record, folded from its claim scan.
pub(crate) struct ProviderRecord {
    /// Per-hex claims in `(hex, technology)` order, each with whether any
    /// claimed BSL in it is truly served (the hex-level ground truth).
    pub(crate) hex_claims: Vec<(HexClaim, bool)>,
    /// The hexes the provider truly serves.
    pub(crate) served: BTreeSet<HexCell>,
    /// Challenges against its claims, in claim order.
    pub(crate) challenges: Vec<Challenge>,
    /// Silent corrections in claim order: the removed claim, the index of
    /// the minor release it disappears in, and the claim's hex.
    pub(crate) corrections: Vec<(ProviderId, LocationId, Technology, usize, HexCell)>,
    /// Distinct locations claimed (what the provider's filing reports).
    pub(crate) locations: usize,
}

/// One `(hex, technology)` group of a provider's claims.
struct HexGroup {
    /// The best `(down, up)` pair, seeded from the group's first claim.
    speeds: (f64, f64),
    low_latency: bool,
    /// Claims in the group: distinct locations, since a provider claims a
    /// location at most once per technology.
    claims: usize,
    truly_served: bool,
}

/// Fold one provider's claims and their [`ClaimGeometry`] (each claim's hex
/// and town, in claim order) into its [`ProviderRecord`]. The per-hex claims
/// are the aggregation `NbmRelease::from_records` runs, over the hexes the
/// scan already resolved, with each hex's BSL count read from `fabric`; a
/// claim's state is its town's. Nothing here depends on which world calls it.
pub(crate) fn regulatory_record(
    config: &SynthConfig,
    provider: ProviderId,
    claims: &[ClaimTruth],
    geo: &ClaimGeometry,
    towns: &[Town],
    fabric: &dyn FabricView,
) -> ProviderRecord {
    let placed = || claims.iter().zip(geo.iter());
    let mut groups: HashMap<(HexCell, Technology), HexGroup> = HashMap::new();
    for (c, (hex, _)) in placed() {
        let speeds = (c.max_down_mbps, c.max_up_mbps);
        let group = groups.entry((hex, c.technology)).or_insert(HexGroup {
            speeds,
            low_latency: false,
            claims: 0,
            truly_served: false,
        });
        if speed_pair_wins(speeds, group.speeds) {
            group.speeds = speeds;
        }
        group.low_latency |= c.low_latency;
        group.claims += 1;
        group.truly_served |= c.truly_served;
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_unstable_by_key(|&(key, _)| key);
    let hex_claims: Vec<(HexClaim, bool)> = groups
        .into_iter()
        .map(|((hex, technology), g)| {
            let claim = HexClaim {
                provider,
                hex,
                technology,
                max_down_mbps: g.speeds.0,
                max_up_mbps: g.speeds.1,
                low_latency: g.low_latency,
                locations_claimed: g.claims,
                total_bsls_in_hex: fabric.bsl_count_in_hex(&hex),
            };
            (claim, g.truly_served)
        })
        .collect();
    let served = hex_claims
        .iter()
        .filter(|(_, truly)| *truly)
        .map(|(c, _)| c.hex)
        .collect();
    let challenges = provider_challenges(
        config,
        provider,
        placed().map(|(c, (hex, town))| (c, hex, &towns[town])),
    );
    let corrections = provider_corrections(
        config,
        provider,
        placed().map(|(c, (hex, _))| (c, hex)),
        &challenges,
    );
    ProviderRecord {
        hex_claims,
        served,
        challenges,
        corrections,
        locations: geo.locations(),
    }
}

/// The provider's filing: one record per claim, in claim order.
pub(crate) fn provider_filing(profile: &ProviderProfile, claims: Vec<ClaimTruth>) -> Filing {
    let provider = profile.provider.id;
    let mut filing = Filing::new(
        provider,
        DayStamp::initial_filing_deadline(),
        profile.methodology.text(&profile.provider.brand),
    );
    filing.records = claims
        .into_iter()
        .map(|c| {
            AvailabilityRecord::new(
                provider,
                c.location,
                c.technology,
                c.max_down_mbps,
                c.max_up_mbps,
                c.low_latency,
                ServiceType::Both,
            )
            .expect("generated claims always have finite speeds")
        })
        .collect();
    filing
}

/// Sample a challenge reason with Table 3's distribution.
fn sample_reason(rng: &mut StdRng) -> ChallengeReason {
    let r: f64 = rng.gen();
    if r < 0.55 {
        ChallengeReason::TechnologyUnavailable
    } else if r < 0.98 {
        ChallengeReason::SpeedsUnavailable
    } else if r < 0.99 {
        ChallengeReason::ServiceRequestDenied
    } else if r < 0.997 {
        ChallengeReason::NoSignal
    } else if r < 0.998 {
        ChallengeReason::HigherConnectionFee
    } else if r < 0.999 {
        ChallengeReason::FailedWithinTenDays
    } else if r < 0.9995 {
        ChallengeReason::ProviderNotReady
    } else {
        ChallengeReason::FailedInstallTimeline
    }
}

/// Sample a challenge outcome conditioned on whether the claim was actually
/// false (the provider does not serve the location). The unconditional mix
/// reproduces Table 2's ~69% success rate.
fn sample_outcome(rng: &mut StdRng, claim_is_false: bool) -> ChallengeOutcome {
    if claim_is_false {
        if rng.gen_bool(0.93) {
            let r: f64 = rng.gen();
            if r < 0.56 {
                ChallengeOutcome::ProviderConceded
            } else if r < 0.88 {
                ChallengeOutcome::ServiceChanged
            } else {
                ChallengeOutcome::FccUpheld
            }
        } else if rng.gen_bool(0.7) {
            ChallengeOutcome::ChallengeWithdrawn
        } else {
            ChallengeOutcome::FccOverturned
        }
    } else if rng.gen_bool(0.08) {
        // Occasionally a provider concedes a claim it could have defended.
        if rng.gen_bool(0.7) {
            ChallengeOutcome::ProviderConceded
        } else {
            ChallengeOutcome::FccUpheld
        }
    } else if rng.gen_bool(0.48) {
        ChallengeOutcome::ChallengeWithdrawn
    } else {
        ChallengeOutcome::FccOverturned
    }
}

/// One provider's challenge wave against the initial release, from its claims
/// with each claim's hex and town. Challenge volume per state follows the
/// `challenge_activity` skew, and challengers preferentially target claims
/// that are actually false. The provider's RNG stream is the only randomness
/// consumed.
fn provider_challenges<'a>(
    config: &SynthConfig,
    provider: ProviderId,
    claims: impl Iterator<Item = (&'a ClaimTruth, HexCell, &'a Town)>,
) -> Vec<Challenge> {
    let max_activity = STATES
        .iter()
        .map(|s| s.challenge_activity)
        .fold(0.0, f64::max);
    let window_start = DayStamp::from_ymd(2023, 2, 1);
    let mut rng = shard_rng(
        config.seed,
        SynthStage::Challenges,
        u64::from(provider.value()),
    );
    let mut out = Vec::new();
    for (c, hex, town) in claims {
        let activity = STATES[town.state_index].challenge_activity / max_activity;
        let base_rate = if c.truly_served {
            config.challenge_rate_true
        } else {
            config.challenge_rate_false
        };
        if !rng.gen_bool((activity * base_rate).clamp(0.0, 1.0)) {
            continue;
        }
        let filed = window_start.plus_days(rng.gen_range(0..240));
        let resolved = filed.plus_days(rng.gen_range(14..180));
        out.push(Challenge {
            provider,
            location: c.location,
            hex,
            technology: c.technology,
            state: town.state.clone(),
            reason: sample_reason(&mut rng),
            outcome: sample_outcome(&mut rng, !c.truly_served),
            filed,
            resolved,
        });
    }
    out
}

/// Generate the much smaller challenge wave against the *next* major release
/// (Figure 1 shows roughly two orders of magnitude fewer challenges): each
/// 4096-challenge chunk of the first wave re-files a small fraction of its
/// challenges from its own RNG stream. Chunk boundaries are global over the
/// first wave, so they span providers.
pub fn generate_later_challenges(
    config: &SynthConfig,
    first_wave: &[Challenge],
    workers: usize,
) -> Vec<Challenge> {
    let window_start = DayStamp::from_ymd(2023, 12, 1);
    let chunks: Vec<&[Challenge]> = first_wave.chunks(LATER_WAVE_CHUNK).collect();
    map_shards(workers, &chunks, |chunk_index, chunk| {
        let mut rng = shard_rng(config.seed, SynthStage::LaterChallenges, chunk_index as u64);
        let mut out = Vec::new();
        for c in chunk.iter() {
            if !rng.gen_bool(0.012) {
                continue;
            }
            let filed = window_start.plus_days(rng.gen_range(0..80));
            out.push(Challenge {
                filed,
                resolved: filed.plus_days(rng.gen_range(14..120)),
                ..c.clone()
            });
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Claims silently removed by the provider without a public challenge (FCC
/// data quality checks or methodology corrections, §4.1.3): unchallenged
/// false claims, each with the index of the minor release it disappears in
/// and the claim's hex. The provider's RNG stream is the only randomness
/// consumed.
fn provider_corrections<'a>(
    config: &SynthConfig,
    provider: ProviderId,
    claims: impl Iterator<Item = (&'a ClaimTruth, HexCell)>,
    challenges: &[Challenge],
) -> Vec<(ProviderId, LocationId, Technology, usize, HexCell)> {
    let challenged: BTreeSet<(LocationId, Technology)> = challenges
        .iter()
        .map(|c| (c.location, c.technology))
        .collect();
    let mut rng = shard_rng(
        config.seed,
        SynthStage::Corrections,
        u64::from(provider.value()),
    );
    let mut out = Vec::new();
    for (c, hex) in claims {
        if c.truly_served || challenged.contains(&(c.location, c.technology)) {
            continue;
        }
        if rng.gen_bool(config.correction_rate) {
            let release_idx = rng.gen_range(1..=config.n_minor_releases.max(1));
            out.push((provider, c.location, c.technology, release_idx, hex));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric_gen::town_offsets;
    use crate::providers_gen::{visit_major_claims, ClaimScanner, TOWN_WINDOW};
    use crate::SynthUs;
    use bdc::challenge::{state_distribution, success_rate};
    use std::collections::BTreeMap;

    fn world() -> SynthUs {
        SynthUs::generate(&SynthConfig::tiny(21))
    }

    #[test]
    fn filings_cover_every_provider_with_claims() {
        let w = world();
        assert_eq!(w.filings.len(), w.profiles.len());
        let total_records: usize = w.filings.iter().map(|f| f.records.len()).sum();
        // Every claim lands in exactly one per-hex claim of the initial release.
        let hex_claimed: usize = w
            .initial_release()
            .hex_claims()
            .iter()
            .map(|c| c.locations_claimed)
            .sum();
        assert_eq!(total_records, hex_claimed);
        assert!(
            total_records > 1000,
            "too few claims generated: {total_records}"
        );
    }

    #[test]
    fn challenge_success_rate_near_paper_value() {
        let w = world();
        // The exact count depends on the RNG stream; the invariant is "a
        // healthy sample", the success *rate* below is the calibrated
        // quantity.
        assert!(
            w.challenges.len() > 50,
            "only {} challenges",
            w.challenges.len()
        );
        let rate = success_rate(&w.challenges);
        assert!((0.55..0.85).contains(&rate), "success rate {rate}");
    }

    #[test]
    fn challenges_concentrate_in_active_states() {
        let w = world();
        let by_state = state_distribution(&w.challenges);
        let total: usize = by_state.values().sum();
        let mut counts: Vec<usize> = by_state.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(10).sum();
        assert!(
            top10 as f64 / total as f64 > 0.7,
            "top-10 share {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn later_wave_is_tiny() {
        let w = world();
        assert!(w.later_challenges.len() < w.challenges.len() / 20);
        for c in &w.later_challenges {
            assert!(c.filed >= DayStamp::from_ymd(2023, 12, 1));
        }
    }

    #[test]
    fn corrections_only_remove_unchallenged_false_claims() {
        let w = world();
        assert!(!w.corrections.is_empty());
        let challenged: BTreeSet<_> = w
            .challenges
            .iter()
            .map(|c| (c.provider, c.location, c.technology))
            .collect();
        // Location-level truth from the reference scan of the world's fabric.
        let offsets = town_offsets(&w.towns);
        let scanner = ClaimScanner::new(&w.towns, &offsets);
        let mut truth: BTreeMap<(ProviderId, LocationId, Technology), bool> = BTreeMap::new();
        for p in &w.profiles {
            let (claims, _, _) =
                visit_major_claims(p, &scanner, &w.fabric, &w.config, 1, TOWN_WINDOW);
            for c in claims {
                truth.insert((p.provider.id, c.location, c.technology), c.truly_served);
            }
        }
        for (p, l, t, idx) in &w.corrections {
            assert!(!challenged.contains(&(*p, *l, *t)));
            assert!(!truth[&(*p, *l, *t)], "correction removed a truthful claim");
            assert!(*idx >= 1 && *idx <= w.config.n_minor_releases);
        }
    }
}
