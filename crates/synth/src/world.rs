//! The assembled synthetic world and its sharded generation engine.
//!
//! [`SynthUs::generate_with`] runs the generation stages in canonical order
//! (towns, fabric, providers, the regulatory pass, the later challenge wave,
//! registrations, Ookla, MLab), fanning each stage's shards (states, towns,
//! providers, hexes) across scoped worker threads according to a
//! [`GenMode`]. The regulatory pass scans each provider's claims over the
//! resident fabric and folds them into the provider's record with the fold
//! the streaming world runs too (see [`crate::activity_gen`]), so the
//! filings, challenges, corrections, initial release, served hexes and
//! ground truth come from one per-provider derivation. Every random quantity
//! is drawn from a per-`(seed, stage, shard)` stream, so the world is a pure
//! function of the [`SynthConfig`] alone: sequential, parallel and
//! forced-thread-count schedules produce bit-identical worlds, a contract
//! made testable by [`SynthUs::canonical_fingerprint`].

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use asnmap::{FrnRegistration, SiblingGroups, WhoisDb};
use bdc::stream::ResidencyMeter;
use bdc::{
    Asn, Challenge, DayStamp, Fabric, Filing, LocationId, NbmRelease, Provider, ProviderId,
    ProviderRegistry, ReleaseVersion, StreamReport, StreamStage, Technology,
};
use hexgrid::HexCell;
use speedtest::{MlabDataset, OoklaDataset};

use crate::activity_gen::{
    generate_later_challenges, later_wave_shard_count, provider_filing, regulatory_record,
    ProviderRecord,
};
use crate::config::SynthConfig;
use crate::fabric_gen::{generate_fabric, generate_towns, town_offsets, Town};
use crate::providers_gen::{
    generate_providers, scan_claims, ClaimScanner, FabricTownBsls, ProviderProfile, TOWN_WINDOW,
};
use crate::registration_gen::generate_registrations;
use crate::release_stream::{ReleaseEmitter, RemovalSchedule};
use crate::shard::{map_shards, GenMode};
use crate::speedtest_gen::{generate_mlab, generate_ookla};
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
    name: &'static str,
    shards: usize,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    stages.push(StreamStage {
        name,
        wall: start.elapsed(),
        shards: shards.max(1),
        peak_resident_entries: 0,
    });
    out
}

/// The world's regulatory record, assembled from its providers' records.
struct RegulatoryPass {
    filings: Vec<Filing>,
    challenges: Vec<Challenge>,
    corrections: Vec<(ProviderId, LocationId, Technology, usize)>,
    initial_release: NbmRelease,
    /// Hexes some provider truly serves, and each provider's.
    served: BTreeSet<HexCell>,
    served_by_provider: BTreeMap<ProviderId, BTreeSet<HexCell>>,
    ground_truth: BTreeMap<(ProviderId, HexCell, Technology), bool>,
    /// Distinct locations each provider claims.
    locations: BTreeMap<ProviderId, usize>,
    jcc: Option<JccScenario>,
}

/// Scan every provider's claims over the resident fabric and fold each into
/// its record and its filing, one provider per shard, in profile order (which
/// is provider-id order); then assemble the world's record from the
/// providers' records alone, so no claim is looked up in the fabric.
fn regulatory_pass(
    config: &SynthConfig,
    towns: &[Town],
    fabric: &Fabric,
    profiles: &[ProviderProfile],
    workers: usize,
) -> RegulatoryPass {
    let offsets = town_offsets(towns);
    let scanner = ClaimScanner::new(towns, &offsets);
    // The materialised world keeps no residency budget.
    let unmetered = ResidencyMeter::new();
    let (filings, records): (Vec<Filing>, Vec<ProviderRecord>) =
        map_shards(workers, profiles, |_, profile| {
            let mut blocks = FabricTownBsls {
                fabric,
                scanner: &scanner,
            };
            let (claims, geo) = scan_claims(
                profile,
                &scanner,
                &mut blocks,
                config,
                1,
                TOWN_WINDOW,
                &unmetered,
            );
            let record =
                regulatory_record(config, profile.provider.id, &claims, &geo, towns, fabric);
            (provider_filing(profile, claims), record)
        })
        .into_iter()
        .unzip();

    let (mut challenges, mut corrections, mut hex_claims) = (Vec::new(), Vec::new(), Vec::new());
    let (mut served, mut served_by_provider) = (BTreeSet::new(), BTreeMap::new());
    let (mut ground_truth, mut locations, mut jcc) = (BTreeMap::new(), BTreeMap::new(), None);
    for (profile, record) in profiles.iter().zip(records) {
        let provider = profile.provider.id;
        if profile.jcc_like {
            let home_state = profile.provider.home_state.clone();
            jcc = Some(JccScenario {
                provider,
                excluded_states: neighboring_states(&home_state),
                home_state,
                overclaimed_hexes: record
                    .hex_claims
                    .iter()
                    .filter(|(_, truly)| !truly)
                    .map(|(c, _)| c.hex)
                    .collect(),
                served_hexes: record.served.clone(),
            });
        }
        for (claim, truly) in record.hex_claims {
            ground_truth.insert(claim.observation_key(), truly);
            hex_claims.push(claim);
        }
        challenges.extend(record.challenges);
        corrections.extend(
            record
                .corrections
                .into_iter()
                .map(|(p, l, t, k, _)| (p, l, t, k)),
        );
        served.extend(&record.served);
        if !record.served.is_empty() {
            served_by_provider.insert(provider, record.served);
        }
        locations.insert(provider, record.locations);
    }
    RegulatoryPass {
        filings,
        challenges,
        corrections,
        initial_release: NbmRelease::from_parts(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            hex_claims,
        ),
        served,
        served_by_provider,
        ground_truth,
        locations,
        jcc,
    }
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
    /// world together with its [`StreamReport`]: one row per generation
    /// stage (`towns`, `fabric`, `providers`, `regulatory_pass`,
    /// `later_challenges`, `registrations`, `ookla`, `mlab`) with wall-clock
    /// and shard count (generation is not metered, so every row reports 0
    /// entries). Returns `Err` with the validation message when the
    /// configuration is invalid.
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
        let mut stages: Vec<StreamStage> = Vec::new();

        let towns = timed(&mut stages, "towns", STATES.len(), || {
            generate_towns(config, workers)
        });
        let fabric = timed(&mut stages, "fabric", towns.len(), || {
            generate_fabric(config, &towns, workers)
        });
        let profiles = timed(&mut stages, "providers", config.n_providers, || {
            generate_providers(config, &towns, workers)
        });
        let pass = timed(&mut stages, "regulatory_pass", profiles.len(), || {
            regulatory_pass(config, &towns, &fabric, &profiles, workers)
        });
        let later_challenges = timed(
            &mut stages,
            "later_challenges",
            later_wave_shard_count(pass.challenges.len()),
            || generate_later_challenges(config, &pass.challenges, workers),
        );
        let registration_data = timed(&mut stages, "registrations", profiles.len(), || {
            generate_registrations(config, &profiles, &pass.locations, workers)
        });
        let ookla = timed(&mut stages, "ookla", fabric.hexes().count(), || {
            generate_ookla(config, &fabric, &pass.served, workers)
        });
        let mlab = timed(
            &mut stages,
            "mlab",
            registration_data.true_provider_asns.len(),
            || {
                generate_mlab(
                    config,
                    &registration_data.true_provider_asns,
                    &pass.served_by_provider,
                    workers,
                )
            },
        );

        let providers = ProviderRegistry::new(
            profiles
                .iter()
                .map(|p| p.provider.clone())
                .collect::<Vec<Provider>>(),
        );
        let world = Self {
            config: *config,
            towns,
            fabric,
            providers,
            profiles,
            filings: pass.filings,
            initial_release: pass.initial_release,
            challenges: pass.challenges,
            later_challenges,
            corrections: pass.corrections,
            ookla,
            mlab,
            registrations: registration_data.registrations,
            whois: registration_data.whois,
            true_provider_asns: registration_data.true_provider_asns,
            reference_groups: registration_data.reference_groups,
            ground_truth: pass.ground_truth,
            jcc: pass.jcc,
        };
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
    use crate::providers_gen::{visit_major_claims, ClaimTruth};
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

    /// Every provider's claims, in profile order, from the visit-major
    /// reference scan of the world's fabric.
    fn reference_claims(w: &SynthUs) -> Vec<Vec<ClaimTruth>> {
        let offsets = town_offsets(&w.towns);
        let scanner = ClaimScanner::new(&w.towns, &offsets);
        w.profiles
            .iter()
            .map(|p| visit_major_claims(p, &scanner, &w.fabric, &w.config, 1, TOWN_WINDOW).0)
            .collect()
    }

    #[test]
    fn filings_match_the_visit_major_scan() {
        // The pass fans providers across three workers; each filing holds its
        // provider's claims in claim order.
        let (w, _) = SynthUs::generate_with(&SynthConfig::tiny(21), GenMode::Threads(3)).unwrap();
        for ((profile, filing), claims) in
            w.profiles.iter().zip(&w.filings).zip(reference_claims(&w))
        {
            assert_eq!(filing.provider, profile.provider.id);
            let filed: Vec<_> = filing
                .records
                .iter()
                .map(|r| {
                    (
                        r.location,
                        r.technology,
                        r.max_down_mbps.to_bits(),
                        r.max_up_mbps.to_bits(),
                        r.low_latency,
                    )
                })
                .collect();
            let scanned: Vec<_> = claims
                .iter()
                .map(|c| {
                    (
                        c.location,
                        c.technology,
                        c.max_down_mbps.to_bits(),
                        c.max_up_mbps.to_bits(),
                        c.low_latency,
                    )
                })
                .collect();
            assert_eq!(filed, scanned, "provider {}", profile.provider.id.value());
        }
    }

    #[test]
    fn initial_release_is_the_aggregation_of_the_filings() {
        // The fold's per-hex claims against `from_records`, which resolves
        // every filed record's hex through the fabric.
        for config in [SynthConfig::tiny(21), SynthConfig::tiny(77)] {
            let w = SynthUs::generate(&config);
            let oracle = NbmRelease::from_records(
                ReleaseVersion::initial(),
                DayStamp::initial_nbm_release(),
                w.filings.iter().flat_map(|f| &f.records),
                &w.fabric,
            );
            assert_eq!(w.initial_release().hex_claims(), oracle.hex_claims());
            assert_eq!(w.initial_release().version, oracle.version);
            assert_eq!(w.initial_release().published, oracle.published);
        }
    }

    #[test]
    fn hex_truth_is_or_over_locations() {
        // A `(provider, hex, technology)` observation is truly served when any
        // claimed BSL in the hex is; the JCC scenario splits its provider's
        // hexes the same way.
        let w = tiny_world();
        let mut truth: BTreeMap<(ProviderId, HexCell, Technology), bool> = BTreeMap::new();
        for (profile, claims) in w.profiles.iter().zip(reference_claims(&w)) {
            for c in claims {
                let hex = w.fabric.get(c.location).unwrap().hex;
                *truth
                    .entry((profile.provider.id, hex, c.technology))
                    .or_insert(false) |= c.truly_served;
            }
        }
        assert_eq!(w.ground_truth, truth);
        let served = truth.values().filter(|&&v| v).count();
        assert!(served > 0 && served < truth.len());
        let jcc = w.jcc.as_ref().unwrap();
        let hexes = |truly: bool| -> BTreeSet<HexCell> {
            truth
                .iter()
                .filter(|(&(p, _, _), &t)| p == jcc.provider && t == truly)
                .map(|(&(_, hex, _), _)| hex)
                .collect()
        };
        assert_eq!(jcc.served_hexes, hexes(true));
        assert_eq!(jcc.overclaimed_hexes, hexes(false));
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
        let expected = [
            "towns",
            "fabric",
            "providers",
            "regulatory_pass",
            "later_challenges",
            "registrations",
            "ookla",
            "mlab",
        ];
        assert_eq!(names, expected, "stages not in canonical order");
        for stage in &report.stages {
            assert!(stage.shards >= 1);
            assert_eq!(stage.peak_resident_entries, 0, "generation is not metered");
        }
        let shards = |name| report.stage(name).map(|s| s.shards);
        assert_eq!(shards("providers"), Some(w.config.n_providers));
        // One shard per provider scanned and folded.
        assert_eq!(shards("regulatory_pass"), Some(w.config.n_providers));
        assert_eq!(
            shards("later_challenges"),
            Some(later_wave_shard_count(w.challenges.len()))
        );
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
