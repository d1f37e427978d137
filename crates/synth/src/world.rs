//! The assembled synthetic world and its sharded generation engine.
//!
//! [`SynthUs::generate_with`] runs the generation stages in canonical order,
//! fanning each stage's shards (states, towns, providers, hexes) across
//! scoped worker threads according to a [`GenMode`]. Every random
//! quantity is drawn from a per-`(seed, stage, shard)` stream, so the world
//! is a pure function of the [`SynthConfig`] alone: sequential, parallel and
//! forced-thread-count schedules produce bit-identical worlds, a contract
//! made testable by [`SynthUs::canonical_fingerprint`].

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use asnmap::{FrnRegistration, SiblingGroups, WhoisDb};
use bdc::{
    Asn, Challenge, DayStamp, Fabric, Filing, LocationId, NbmRelease, Provider, ProviderId,
    ProviderRegistry, ReleaseVersion, StreamReport, StreamStage, Technology,
};
use hexgrid::HexCell;
use speedtest::{MlabDataset, OoklaDataset};

use crate::activity_gen::{
    build_filings, generate_challenges, generate_corrections, generate_later_challenges,
    later_wave_shard_count,
};
use crate::config::SynthConfig;
use crate::fabric_gen::{generate_fabric, generate_towns, Town};
use crate::providers_gen::{compute_all_claims, generate_providers, ClaimTruth, ProviderProfile};
use crate::registration_gen::generate_registrations;
use crate::release_stream::{ReleaseEmitter, RemovalSchedule};
use crate::shard::{GenMode, SynthStage};
use crate::speedtest_gen::{generate_mlab, generate_ookla, hex_observation_truth, served_hex_sets};
use crate::states::{state_by_code, STATES};

/// The Jefferson-County-Cable-style ground-truth scenario (§6.3): which
/// provider deliberately over-claimed, where, and which states border its
/// service area (these are held out of training for the case study).
#[derive(Debug, Clone)]
pub struct JccScenario {
    pub provider: ProviderId,
    pub home_state: String,
    /// The home state plus every state whose bounding box touches it; the
    /// case-study training excludes all of them.
    pub excluded_states: Vec<String>,
    /// Hexes the provider claimed but does not serve (the misrepresented
    /// western region of Figure 8).
    pub overclaimed_hexes: BTreeSet<HexCell>,
    /// Hexes the provider claims and genuinely serves.
    pub served_hexes: BTreeSet<HexCell>,
}

/// The complete synthetic United States: every dataset the paper's pipeline
/// ingests, plus the ground truth the paper does not have.
#[derive(Debug, Clone)]
pub struct SynthUs {
    pub config: SynthConfig,
    pub towns: Vec<Town>,
    pub fabric: Fabric,
    pub providers: ProviderRegistry,
    pub profiles: Vec<ProviderProfile>,
    pub filings: Vec<Filing>,
    /// The initial NBM release. The minor releases after it are streamed by
    /// [`SynthUs::release_emitter`], never materialised.
    initial_release: NbmRelease,
    /// Challenges against the initial release (the paper's analysis window).
    pub challenges: Vec<Challenge>,
    /// The much smaller challenge wave against the subsequent release
    /// (Figure 1's comparison point).
    pub later_challenges: Vec<Challenge>,
    /// Claims silently removed without a public challenge, with the index of
    /// the minor release they disappear in — with the challenges, the
    /// removal schedule [`SynthUs::release_emitter`] streams the minor
    /// releases from.
    pub corrections: Vec<(ProviderId, LocationId, Technology, usize)>,
    pub ookla: OoklaDataset,
    pub mlab: MlabDataset,
    pub registrations: Vec<FrnRegistration>,
    pub whois: WhoisDb,
    /// Ground-truth provider→ASN assignment (what a perfect matcher recovers).
    pub true_provider_asns: BTreeMap<ProviderId, BTreeSet<Asn>>,
    /// as2org-style reference sibling groups.
    pub reference_groups: SiblingGroups,
    /// Hex-level ground truth for every claimed observation.
    pub ground_truth: BTreeMap<(ProviderId, HexCell, Technology), bool>,
    pub jcc: Option<JccScenario>,
}

/// Time one generation stage's body into `stages` as a report row with its
/// shard count. Generation is not metered, so the row reports 0 entries.
fn timed<T>(
    stages: &mut Vec<StreamStage>,
    stage: SynthStage,
    shards: usize,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    stages.push(StreamStage {
        name: stage.name(),
        wall: start.elapsed(),
        shards: shards.max(1),
        peak_resident_entries: 0,
    });
    out
}

impl SynthUs {
    /// Generate the full world from a configuration with the default
    /// (parallel) schedule, discarding the execution report.
    ///
    /// # Panics
    /// Panics when the configuration fails validation; the panic payload is
    /// `"invalid SynthConfig: "` followed by the exact message
    /// [`SynthConfig::validate`] returned (e.g. `"invalid SynthConfig:
    /// n_bsls must be positive"`). Use [`SynthUs::generate_with`] for a
    /// non-panicking `Result`.
    pub fn generate(config: &SynthConfig) -> Self {
        match Self::generate_with(config, GenMode::default()) {
            Ok((world, _)) => world,
            Err(msg) => panic!("invalid SynthConfig: {msg}"),
        }
    }

    /// Generate the full world under an explicit schedule, returning the
    /// world together with its [`StreamReport`]: one row per [`SynthStage`]
    /// with wall-clock and shard count (generation is not metered, so every
    /// row reports 0 entries). Returns `Err` with the validation message when
    /// the configuration is invalid.
    ///
    /// The generated world depends only on `config`: every [`GenMode`]
    /// produces a bit-identical world (see
    /// [`SynthUs::canonical_fingerprint`]); the mode decides only how many
    /// worker threads the shards are fanned across.
    pub fn generate_with(
        config: &SynthConfig,
        mode: GenMode,
    ) -> Result<(Self, StreamReport), String> {
        config.validate()?;
        let start = Instant::now();
        let workers = mode.worker_count();
        let mut stages: Vec<StreamStage> = Vec::with_capacity(SynthStage::ALL.len());

        let towns = timed(&mut stages, SynthStage::Towns, STATES.len(), || {
            generate_towns(config, workers)
        });
        let fabric = timed(&mut stages, SynthStage::Fabric, towns.len(), || {
            generate_fabric(config, &towns, workers)
        });
        let profiles = timed(
            &mut stages,
            SynthStage::Providers,
            config.n_providers,
            || generate_providers(config, &towns, workers),
        );
        let claims: BTreeMap<ProviderId, Vec<ClaimTruth>> =
            timed(&mut stages, SynthStage::Claims, profiles.len(), || {
                compute_all_claims(&profiles, &towns, &fabric, config, workers)
            });
        let filings = timed(&mut stages, SynthStage::Filings, 1, || {
            build_filings(&profiles, &claims)
        });
        let challenges = timed(&mut stages, SynthStage::Challenges, claims.len(), || {
            generate_challenges(config, &fabric, &claims, workers)
        });
        let later_challenges = timed(
            &mut stages,
            SynthStage::LaterChallenges,
            later_wave_shard_count(challenges.len()),
            || generate_later_challenges(config, &challenges, workers),
        );

        let challenged_keys: BTreeSet<_> = challenges
            .iter()
            .map(|c| (c.provider, c.location, c.technology))
            .collect();
        let corrections = timed(&mut stages, SynthStage::Corrections, claims.len(), || {
            generate_corrections(config, &claims, &challenged_keys, workers)
        });
        let initial_release = timed(&mut stages, SynthStage::Releases, 1, || {
            NbmRelease::from_records(
                ReleaseVersion::initial(),
                DayStamp::initial_nbm_release(),
                filings.iter().flat_map(|f| &f.records),
                &fabric,
            )
        });

        let claims_count: BTreeMap<ProviderId, usize> = filings
            .iter()
            .map(|f| (f.provider, f.claimed_location_count()))
            .collect();
        let registration_data = timed(
            &mut stages,
            SynthStage::Registrations,
            profiles.len(),
            || generate_registrations(config, &profiles, &claims_count, workers),
        );

        let (served_hexes, served_by_provider) = served_hex_sets(&fabric, &claims);
        let occupied_hexes = fabric.hexes().count();
        let ookla = timed(&mut stages, SynthStage::Ookla, occupied_hexes, || {
            generate_ookla(config, &fabric, &served_hexes, workers)
        });
        let mlab = timed(
            &mut stages,
            SynthStage::Mlab,
            registration_data.true_provider_asns.len(),
            || {
                generate_mlab(
                    config,
                    &registration_data.true_provider_asns,
                    &served_by_provider,
                    workers,
                )
            },
        );

        let world = timed(&mut stages, SynthStage::GroundTruth, 1, || {
            let ground_truth = hex_observation_truth(&fabric, &claims);
            let jcc = profiles.iter().find(|p| p.jcc_like).map(|p| {
                let provider = p.provider.id;
                let mut overclaimed = BTreeSet::new();
                let mut served = BTreeSet::new();
                for ((pid, hex, _tech), truly) in &ground_truth {
                    if *pid == provider {
                        if *truly {
                            served.insert(*hex);
                        } else {
                            overclaimed.insert(*hex);
                        }
                    }
                }
                let home_state = p.provider.home_state.clone();
                JccScenario {
                    provider,
                    excluded_states: neighboring_states(&home_state),
                    home_state,
                    overclaimed_hexes: overclaimed,
                    served_hexes: served,
                }
            });

            let providers = ProviderRegistry::new(
                profiles
                    .iter()
                    .map(|p| p.provider.clone())
                    .collect::<Vec<Provider>>(),
            );

            Self {
                config: *config,
                towns,
                fabric,
                providers,
                profiles,
                filings,
                initial_release,
                challenges,
                later_challenges,
                corrections,
                ookla,
                mlab,
                registrations: registration_data.registrations,
                whois: registration_data.whois,
                true_provider_asns: registration_data.true_provider_asns,
                reference_groups: registration_data.reference_groups,
                ground_truth,
                jcc,
            }
        });
        let report = StreamReport {
            stages,
            total_wall: start.elapsed(),
            peak_resident_entries: 0,
            budget: None,
        };
        Ok((world, report))
    }

    /// The initial NBM release the paper studies.
    pub fn initial_release(&self) -> &NbmRelease {
        &self.initial_release
    }

    /// The release timeline: the initial claim keys plus the removal
    /// schedule, answering for any release without materialising it (see
    /// [`crate::release_stream`]).
    pub fn release_emitter(&self) -> ReleaseEmitter {
        ReleaseEmitter::new(
            self.config.n_minor_releases,
            &self.filings,
            &self.challenges,
            &self.corrections,
        )
    }

    /// Which claim leaves the timeline in which minor release, from the
    /// challenge outcomes and the silent corrections. Its
    /// [`RemovalSchedule::diff_chain`] is the timeline's map-change evidence.
    pub fn removal_schedule(&self) -> RemovalSchedule {
        RemovalSchedule::build(
            self.config.n_minor_releases,
            &self.challenges,
            &self.corrections,
        )
    }

    /// Ground truth for an observation, if the provider claimed it at all.
    pub fn is_truly_served(
        &self,
        provider: ProviderId,
        hex: HexCell,
        tech: Technology,
    ) -> Option<bool> {
        self.ground_truth.get(&(provider, hex, tech)).copied()
    }

    /// An order-independent digest of every generated field, for asserting
    /// that two worlds are identical (e.g. sharded-parallel vs sequential vs
    /// forced-thread-count generation).
    ///
    /// Same discipline as `AnalysisContext::canonical_fingerprint` in
    /// `redsus_core`: collections are folded in their deterministic order and
    /// floats are hashed by their exact bit patterns, so two worlds
    /// fingerprint equal iff every value in every field is bit-identical.
    /// The fold runs through [`crate::shard::StableHasher`] (not `std`'s
    /// release-unstable `DefaultHasher`), so fingerprints can be pinned as
    /// golden constants across toolchains.
    pub fn canonical_fingerprint(&self) -> u64 {
        let mut h = crate::shard::StableHasher::new();
        let f = |v: f64, h: &mut crate::shard::StableHasher| v.to_bits().hash(h);

        // Config: the world must be a pure function of it.
        self.config.seed.hash(&mut h);
        (self.config.n_bsls, self.config.n_providers).hash(&mut h);

        // Towns and fabric.
        self.towns.len().hash(&mut h);
        for t in &self.towns {
            (t.state_index, t.state.as_str(), t.n_bsls).hash(&mut h);
            f(t.center.lat, &mut h);
            f(t.center.lng, &mut h);
        }
        self.fabric.len().hash(&mut h);
        for b in self.fabric.bsls() {
            (
                b.id,
                b.unit_count,
                b.community_anchor,
                b.state.as_str(),
                b.hex,
            )
                .hash(&mut h);
            f(b.position.lat, &mut h);
            f(b.position.lng, &mut h);
        }

        // Providers and their deployments.
        self.profiles.len().hash(&mut h);
        for p in &self.profiles {
            let pr = &p.provider;
            (pr.id, pr.name.as_str(), pr.brand.as_str(), &pr.frns).hash(&mut h);
            (&pr.technologies, pr.major, pr.home_state.as_str()).hash(&mut h);
            (&p.towns, p.style, p.methodology, p.jcc_like).hash(&mut h);
            for d in &p.deployments {
                (d.technology, d.low_latency).hash(&mut h);
                f(d.true_radius_km, &mut h);
                f(d.max_down_mbps, &mut h);
                f(d.max_up_mbps, &mut h);
            }
        }

        // Filings and releases.
        self.filings.len().hash(&mut h);
        for filing in &self.filings {
            (filing.provider, filing.as_of, filing.methodology.as_str()).hash(&mut h);
            filing.records.len().hash(&mut h);
            for r in &filing.records {
                (
                    r.provider,
                    r.location,
                    r.technology,
                    r.low_latency,
                    r.service_type,
                )
                    .hash(&mut h);
                f(r.max_down_mbps, &mut h);
                f(r.max_up_mbps, &mut h);
            }
        }
        // Each release folds as its materialised form would: the filed
        // records it keeps, in filing order, then its per-hex claim count.
        let emitter = self.release_emitter();
        emitter.n_releases().hash(&mut h);
        for k in 0..emitter.n_releases() {
            let rel = emitter.release(k);
            (rel.version(), rel.published(), rel.live_claims()).hash(&mut h);
            let mut hex_claims = BTreeSet::new();
            let records = self.filings.iter().flat_map(|f| &f.records);
            for r in records.filter(|r| rel.is_live(&r.claim_key())) {
                (r.provider, r.location, r.technology).hash(&mut h);
                let hex = self.fabric.get(r.location).map(|bsl| bsl.hex);
                hex_claims.extend(hex.map(|hex| (r.provider, hex, r.technology)));
            }
            hex_claims.len().hash(&mut h);
        }

        // Challenge waves.
        for wave in [&self.challenges, &self.later_challenges] {
            wave.len().hash(&mut h);
            for c in wave.iter() {
                (
                    c.provider,
                    c.location,
                    c.hex,
                    c.technology,
                    c.state.as_str(),
                )
                    .hash(&mut h);
                (c.reason, c.outcome, c.filed, c.resolved).hash(&mut h);
            }
        }

        // The silent-correction schedule behind the minor releases.
        self.corrections.hash(&mut h);

        // Speed tests.
        self.ookla.len().hash(&mut h);
        for r in self.ookla.records() {
            (r.tile, r.tests, r.devices).hash(&mut h);
            f(r.avg_download_kbps, &mut h);
            f(r.avg_upload_kbps, &mut h);
            f(r.avg_latency_ms, &mut h);
        }
        self.mlab.len().hash(&mut h);
        for t in self.mlab.tests() {
            (t.asn, t.day).hash(&mut h);
            f(t.download_mbps, &mut h);
            f(t.upload_mbps, &mut h);
            f(t.latency_ms, &mut h);
            f(t.geo_center.lat, &mut h);
            f(t.geo_center.lng, &mut h);
            f(t.accuracy_radius_km, &mut h);
        }

        // Registrations, WHOIS and the ASN ground truth.
        self.registrations.len().hash(&mut h);
        for r in &self.registrations {
            (r.frn, r.provider_id, r.contact_email.as_str()).hash(&mut h);
            (r.company_name.as_str(), r.physical_address.as_str()).hash(&mut h);
        }
        self.whois.asns.len().hash(&mut h);
        for a in &self.whois.asns {
            (a.asn, a.org_id, &a.poc_ids).hash(&mut h);
        }
        self.whois.orgs.len().hash(&mut h);
        for o in &self.whois.orgs {
            (o.id, o.name.as_str(), &o.poc_ids).hash(&mut h);
        }
        self.whois.nets.len().hash(&mut h);
        for n in &self.whois.nets {
            (n.id, n.org_id, &n.poc_ids).hash(&mut h);
        }
        self.whois.pocs.len().hash(&mut h);
        for p in &self.whois.pocs {
            (
                p.id,
                p.email.as_str(),
                p.company_name.as_str(),
                p.address.as_str(),
            )
                .hash(&mut h);
        }
        self.true_provider_asns.hash(&mut h);
        for (name, asns) in self.reference_groups.groups() {
            (name.as_str(), asns).hash(&mut h);
        }

        // Observation-level ground truth and the JCC scenario.
        self.ground_truth.hash(&mut h);
        match &self.jcc {
            None => 0u8.hash(&mut h),
            Some(jcc) => {
                1u8.hash(&mut h);
                (jcc.provider, jcc.home_state.as_str(), &jcc.excluded_states).hash(&mut h);
                (&jcc.overclaimed_hexes, &jcc.served_hexes).hash(&mut h);
            }
        }

        h.finish()
    }
}

/// The home state plus every state/territory whose bounding box intersects an
/// expanded version of it — a stand-in for "all states bordering the provider's
/// service area" used by the JCC case study.
pub fn neighboring_states(home: &str) -> Vec<String> {
    let Some(home_info) = state_by_code(home) else {
        return vec![home.to_string()];
    };
    let expanded = home_info.bounding_box().expanded(0.8);
    let mut out: Vec<String> = STATES
        .iter()
        .filter(|s| expanded.intersects(&s.bounding_box()))
        .map(|s| s.code.to_string())
        .collect();
    if !out.contains(&home.to_string()) {
        out.push(home.to_string());
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdc::challenge::success_rate;
    use bdc::{ClaimChange, MapDiff};

    // Seed re-pinned when generation moved to sharded per-stage RNG streams
    // (the world is different, byte for byte, from the single-stream era).
    fn tiny_world() -> SynthUs {
        SynthUs::generate(&SynthConfig::tiny(21))
    }

    #[test]
    fn world_has_all_components() {
        let w = tiny_world();
        assert!(!w.fabric.is_empty());
        assert_eq!(w.providers.len(), w.config.n_providers);
        assert_eq!(w.filings.len(), w.config.n_providers);
        assert_eq!(
            w.release_emitter().n_releases(),
            w.config.n_minor_releases + 1
        );
        assert!(!w.challenges.is_empty());
        assert!(!w.ookla.is_empty());
        assert!(!w.mlab.is_empty());
        assert!(!w.registrations.is_empty());
        assert!(!w.ground_truth.is_empty());
        assert!(w.jcc.is_some());
    }

    #[test]
    fn schedule_chain_equals_the_diff_of_initial_and_latest() {
        let w = tiny_world();
        let emitter = w.release_emitter();
        let last = emitter.release(emitter.n_releases() - 1);
        let filed = || w.filings.iter().flat_map(|f| &f.records);
        let kept = filed().filter(|r| last.is_live(&r.claim_key()));
        let diff = MapDiff::between(
            (w.initial_release().version, filed()),
            (last.version(), kept),
        );
        let (added, removed, _) = diff.counts();
        assert!(removed > 0, "expected removals in the diff");
        assert_eq!(added, 0, "the synthetic timeline never adds claims");
        let removals: Vec<ClaimChange> = diff.removed().copied().collect();
        assert_eq!(
            w.removal_schedule().diff_chain().removal_evidence(),
            removals
        );
    }

    #[test]
    fn challenge_mix_matches_paper_shape() {
        let w = tiny_world();
        let rate = success_rate(&w.challenges);
        assert!((0.55..0.85).contains(&rate), "success rate {rate}");
        assert!(w.later_challenges.len() < w.challenges.len() / 10);
    }

    #[test]
    fn ground_truth_covers_all_initial_claims() {
        let w = tiny_world();
        for claim in w.initial_release().hex_claims().iter().step_by(53) {
            assert!(
                w.is_truly_served(claim.provider, claim.hex, claim.technology)
                    .is_some(),
                "missing ground truth for a claimed observation"
            );
        }
    }

    #[test]
    fn jcc_scenario_is_consistent() {
        let w = tiny_world();
        let jcc = w.jcc.as_ref().unwrap();
        assert!(
            !jcc.overclaimed_hexes.is_empty(),
            "JCC has no over-claimed hexes"
        );
        assert!(!jcc.served_hexes.is_empty(), "JCC has no served hexes");
        assert!(jcc.excluded_states.contains(&jcc.home_state));
        // The provider exists and is not a major.
        let provider = w.providers.get(jcc.provider).unwrap();
        assert!(!provider.major);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SynthUs::generate(&SynthConfig::tiny(77));
        let b = SynthUs::generate(&SynthConfig::tiny(77));
        assert_eq!(a.fabric.len(), b.fabric.len());
        assert_eq!(a.challenges.len(), b.challenges.len());
        assert_eq!(a.mlab.len(), b.mlab.len());
        assert_eq!(
            a.initial_release().claim_count(),
            b.initial_release().claim_count()
        );
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
    }

    #[test]
    fn invalid_config_panics_with_verbatim_validation_message() {
        let mut config = SynthConfig::tiny(1);
        config.n_bsls = 0;
        let expected = config.validate().unwrap_err();
        let payload = std::panic::catch_unwind(|| SynthUs::generate(&config))
            .expect_err("generate must panic on an invalid config");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert_eq!(msg, format!("invalid SynthConfig: {expected}"));
    }

    #[test]
    fn generate_with_reports_every_stage() {
        let (w, report) =
            SynthUs::generate_with(&SynthConfig::tiny(55), GenMode::Sequential).unwrap();
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        let expected: Vec<&str> = SynthStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, expected, "stages not in canonical order");
        for stage in &report.stages {
            assert!(stage.shards >= 1);
            assert_eq!(stage.peak_resident_entries, 0, "generation is not metered");
        }
        assert_eq!(
            report.stage("providers").map(|s| s.shards),
            Some(w.config.n_providers)
        );
        assert_eq!(report.stage("releases").map(|s| s.shards), Some(1));
        assert!(report.stage_sum() <= report.total_wall);
    }

    #[test]
    fn forced_thread_counts_match_sequential() {
        let (seq, _) = SynthUs::generate_with(&SynthConfig::tiny(55), GenMode::Sequential).unwrap();
        let (forced, _) =
            SynthUs::generate_with(&SynthConfig::tiny(55), GenMode::Threads(3)).unwrap();
        assert_eq!(
            seq.canonical_fingerprint(),
            forced.canonical_fingerprint(),
            "forced-thread generation must be bit-identical to sequential"
        );
    }

    #[test]
    fn fingerprints_differ_across_seeds() {
        let a = SynthUs::generate(&SynthConfig::tiny(77));
        let b = SynthUs::generate(&SynthConfig::tiny(78));
        assert_ne!(a.canonical_fingerprint(), b.canonical_fingerprint());
    }

    #[test]
    fn neighboring_states_include_home_and_touching_states() {
        let n = neighboring_states("OH");
        assert!(n.contains(&"OH".to_string()));
        assert!(n.contains(&"MI".to_string()) || n.contains(&"IN".to_string()));
        assert!(n.len() < 20);
        assert_eq!(neighboring_states("ZZ"), vec!["ZZ".to_string()]);
    }

    #[test]
    fn satellite_free_world() {
        // The generator only creates terrestrial deployments; the paper
        // excludes satellite providers from the model anyway.
        let w = tiny_world();
        for p in w.providers.providers() {
            assert!(p.technologies.iter().all(|t| t.is_terrestrial()));
        }
    }
}
