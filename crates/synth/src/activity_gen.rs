//! Filings, NBM releases, challenges and silent corrections.
//!
//! This module turns the providers' claimed/true service sets into the
//! regulatory record the pipeline consumes: the initial BDC filings, the
//! challenge outcomes with the paper's Table 2/3 mix and Figure 2's state
//! skew, and the silent corrections. Successful challenges and corrections
//! remove claims from the bi-weekly-style minor releases, which
//! [`crate::release_stream::ReleaseEmitter`] streams from this record.
//!
//! Sharding: challenges and corrections draw from one stream per *provider*
//! (keyed by provider id) and the later wave from one stream per fixed-size
//! chunk of the first wave — so every output is bit-identical for any worker
//! count.

use std::collections::{BTreeMap, BTreeSet};

use bdc::{
    AvailabilityRecord, Challenge, ChallengeOutcome, ChallengeReason, DayStamp, Fabric, Filing,
    LocationId, ProviderId, ServiceType, Technology,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::SynthConfig;
use crate::providers_gen::{ClaimTruth, ProviderProfile};
use crate::shard::{map_shards, shard_rng, SynthStage};
use crate::states::{state_by_code, STATES};

/// Fixed chunk size of the later-challenge shards. Part of the deterministic
/// contract: changing it changes which stream each challenge draws from (and
/// therefore the generated world), so it must stay constant.
pub const LATER_WAVE_CHUNK: usize = 4096;

/// How many shards [`generate_later_challenges`] fans out for a first wave of
/// `first_wave_len` challenges (used by the generation report).
pub fn later_wave_shard_count(first_wave_len: usize) -> usize {
    first_wave_len.div_ceil(LATER_WAVE_CHUNK).max(1)
}

/// The maximum `challenge_activity` weight over all states, used to normalise
/// per-state challenge probabilities.
fn max_activity() -> f64 {
    STATES
        .iter()
        .map(|s| s.challenge_activity)
        .fold(0.0, f64::max)
}

/// Build one filing per provider from its claims.
pub fn build_filings(
    profiles: &[ProviderProfile],
    claims: &BTreeMap<ProviderId, Vec<ClaimTruth>>,
) -> Vec<Filing> {
    profiles
        .iter()
        .map(|profile| {
            let mut filing = Filing::new(
                profile.provider.id,
                DayStamp::initial_filing_deadline(),
                profile.methodology.text(&profile.provider.brand),
            );
            if let Some(provider_claims) = claims.get(&profile.provider.id) {
                for c in provider_claims {
                    let record = AvailabilityRecord::new(
                        profile.provider.id,
                        c.location,
                        c.technology,
                        c.max_down_mbps,
                        c.max_up_mbps,
                        c.low_latency,
                        ServiceType::Both,
                    )
                    .expect("generated claims always have finite speeds");
                    filing.records.push(record);
                }
            }
            filing
        })
        .collect()
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

/// Generate one provider's challenge shard from its claims plus each claim's
/// hex and state (shard keyed by provider id; the provider's RNG stream is
/// the only randomness consumed). The single kernel behind
/// [`generate_challenges`] and the streaming world, which supplies the geo
/// columns without a resident [`Fabric`].
pub fn provider_challenges<'a, I>(
    config: &SynthConfig,
    provider: ProviderId,
    claims_with_geo: I,
) -> Vec<Challenge>
where
    I: IntoIterator<Item = (&'a ClaimTruth, hexgrid::HexCell, &'a str)>,
{
    let max_act = max_activity();
    let window_start = DayStamp::from_ymd(2023, 2, 1);
    let mut rng = shard_rng(
        config.seed,
        SynthStage::Challenges,
        u64::from(provider.value()),
    );
    let mut out = Vec::new();
    for (c, hex, state) in claims_with_geo {
        let activity = state_by_code(state)
            .map(|s| s.challenge_activity / max_act)
            .unwrap_or(0.01);
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
            state: state.to_string(),
            reason: sample_reason(&mut rng),
            outcome: sample_outcome(&mut rng, !c.truly_served),
            filed,
            resolved,
        });
    }
    out
}

/// Generate the challenge wave against the initial NBM release. Challenge
/// volume per state follows the `challenge_activity` skew, and challengers
/// preferentially target claims that are actually false. One shard (and one
/// RNG stream) per provider, assembled in provider-id order.
pub fn generate_challenges(
    config: &SynthConfig,
    fabric: &Fabric,
    claims: &BTreeMap<ProviderId, Vec<ClaimTruth>>,
    workers: usize,
) -> Vec<Challenge> {
    let shards: Vec<(&ProviderId, &Vec<ClaimTruth>)> = claims.iter().collect();
    map_shards(workers, &shards, |_, &(provider, provider_claims)| {
        provider_challenges(
            config,
            *provider,
            provider_claims.iter().filter_map(|c| {
                fabric
                    .get(c.location)
                    .map(|bsl| (c, bsl.hex, bsl.state.as_str()))
            }),
        )
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Generate the much smaller challenge wave against the *next* major release
/// (Figure 1 shows roughly two orders of magnitude fewer challenges). One
/// stream per [`LATER_WAVE_CHUNK`]-sized chunk of the first wave.
pub fn generate_later_challenges(
    config: &SynthConfig,
    first_wave: &[Challenge],
    workers: usize,
) -> Vec<Challenge> {
    let chunks: Vec<&[Challenge]> = first_wave.chunks(LATER_WAVE_CHUNK).collect();
    map_shards(workers, &chunks, |chunk_index, chunk| {
        later_challenge_chunk(config, chunk_index, chunk)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One later-wave shard: re-files a small fraction of one
/// [`LATER_WAVE_CHUNK`]-sized chunk of the first wave against the next major
/// release. Chunk boundaries are global over the first wave (they span
/// providers), so callers must chunk the *concatenated* wave exactly as
/// [`generate_later_challenges`] does.
pub fn later_challenge_chunk(
    config: &SynthConfig,
    chunk_index: usize,
    chunk: &[Challenge],
) -> Vec<Challenge> {
    let window_start = DayStamp::from_ymd(2023, 12, 1);
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
}

/// Claims silently removed by providers without a public challenge (FCC data
/// quality checks or methodology corrections, §4.1.3). Returns the removed
/// claim keys together with the index of the minor release they disappear in.
/// One shard (and one RNG stream) per provider.
pub fn generate_corrections(
    config: &SynthConfig,
    claims: &BTreeMap<ProviderId, Vec<ClaimTruth>>,
    challenged: &BTreeSet<(ProviderId, LocationId, Technology)>,
    workers: usize,
) -> Vec<(ProviderId, LocationId, Technology, usize)> {
    let shards: Vec<(&ProviderId, &Vec<ClaimTruth>)> = claims.iter().collect();
    map_shards(workers, &shards, |_, &(provider, provider_claims)| {
        provider_corrections(config, *provider, provider_claims, challenged)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One provider's correction shard (keyed by provider id). `challenged` may
/// be the global challenged-key set or just this provider's slice of it —
/// only keys of this provider are ever looked up, so both give identical
/// output; the streaming world passes the per-provider set it holds.
pub fn provider_corrections(
    config: &SynthConfig,
    provider: ProviderId,
    provider_claims: &[ClaimTruth],
    challenged: &BTreeSet<(ProviderId, LocationId, Technology)>,
) -> Vec<(ProviderId, LocationId, Technology, usize)> {
    let mut rng = shard_rng(
        config.seed,
        SynthStage::Corrections,
        u64::from(provider.value()),
    );
    let mut out = Vec::new();
    for c in provider_claims {
        if c.truly_served {
            continue;
        }
        let key = (provider, c.location, c.technology);
        if challenged.contains(&key) {
            continue;
        }
        if rng.gen_bool(config.correction_rate) {
            let release_idx = rng.gen_range(1..=config.n_minor_releases.max(1));
            out.push((provider, c.location, c.technology, release_idx));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric_gen::{generate_fabric, generate_towns};
    use crate::providers_gen::{compute_all_claims, generate_providers};
    use bdc::challenge::{state_distribution, success_rate};

    struct World {
        config: SynthConfig,
        fabric: Fabric,
        profiles: Vec<ProviderProfile>,
        claims: BTreeMap<ProviderId, Vec<ClaimTruth>>,
    }

    fn world() -> World {
        let config = SynthConfig::tiny(21);
        let towns = generate_towns(&config, 1);
        let fabric = generate_fabric(&config, &towns, 1);
        let profiles = generate_providers(&config, &towns, 1);
        let claims = compute_all_claims(&profiles, &towns, &fabric, &config, 1);
        World {
            config,
            fabric,
            profiles,
            claims,
        }
    }

    #[test]
    fn filings_cover_every_provider_with_claims() {
        let w = world();
        let filings = build_filings(&w.profiles, &w.claims);
        assert_eq!(filings.len(), w.profiles.len());
        let total_records: usize = filings.iter().map(|f| f.records.len()).sum();
        let total_claims: usize = w.claims.values().map(Vec::len).sum();
        assert_eq!(total_records, total_claims);
        assert!(
            total_records > 1000,
            "too few claims generated: {total_records}"
        );
    }

    #[test]
    fn challenge_success_rate_near_paper_value() {
        let w = world();
        let challenges = generate_challenges(&w.config, &w.fabric, &w.claims, 1);
        // The exact count depends on the RNG stream (85 with the vendored
        // xoshiro StdRng at this seed); the invariant is "a healthy sample",
        // the success *rate* below is the calibrated quantity.
        assert!(
            challenges.len() > 50,
            "only {} challenges",
            challenges.len()
        );
        let rate = success_rate(&challenges);
        assert!((0.55..0.85).contains(&rate), "success rate {rate}");
    }

    #[test]
    fn challenges_concentrate_in_active_states() {
        let w = world();
        let challenges = generate_challenges(&w.config, &w.fabric, &w.claims, 1);
        let by_state = state_distribution(&challenges);
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
        let wave1 = generate_challenges(&w.config, &w.fabric, &w.claims, 1);
        let wave2 = generate_later_challenges(&w.config, &wave1, 1);
        assert!(wave2.len() < wave1.len() / 20);
        for c in &wave2 {
            assert!(c.filed >= DayStamp::from_ymd(2023, 12, 1));
        }
    }

    #[test]
    fn corrections_only_remove_unchallenged_false_claims() {
        let w = world();
        let challenges = generate_challenges(&w.config, &w.fabric, &w.claims, 1);
        let challenged: BTreeSet<_> = challenges
            .iter()
            .map(|c| (c.provider, c.location, c.technology))
            .collect();
        let corrections = generate_corrections(&w.config, &w.claims, &challenged, 1);
        assert!(!corrections.is_empty());
        let truth: BTreeMap<(ProviderId, LocationId, Technology), bool> = w
            .claims
            .iter()
            .flat_map(|(p, cs)| {
                cs.iter()
                    .map(|c| ((*p, c.location, c.technology), c.truly_served))
            })
            .collect();
        for (p, l, t, idx) in &corrections {
            assert!(!challenged.contains(&(*p, *l, *t)));
            assert!(!truth[&(*p, *l, *t)], "correction removed a truthful claim");
            assert!(*idx >= 1 && *idx <= w.config.n_minor_releases);
        }
    }

    #[test]
    fn challenge_wave_is_worker_count_invariant() {
        let w = world();
        let base = generate_challenges(&w.config, &w.fabric, &w.claims, 1);
        let later_base = generate_later_challenges(&w.config, &base, 1);
        let corrections_base = {
            let challenged: BTreeSet<_> = base
                .iter()
                .map(|c| (c.provider, c.location, c.technology))
                .collect();
            generate_corrections(&w.config, &w.claims, &challenged, 1)
        };
        for workers in [2, 4] {
            let got = generate_challenges(&w.config, &w.fabric, &w.claims, workers);
            assert_eq!(got, base, "challenges differ at {workers} workers");
            let later = generate_later_challenges(&w.config, &base, workers);
            assert_eq!(later, later_base, "later wave differs at {workers} workers");
            let challenged: BTreeSet<_> = base
                .iter()
                .map(|c| (c.provider, c.location, c.technology))
                .collect();
            let corrections = generate_corrections(&w.config, &w.claims, &challenged, workers);
            assert_eq!(
                corrections, corrections_base,
                "corrections differ at {workers} workers"
            );
        }
    }
}
