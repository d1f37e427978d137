//! Building the labelled dataset of broadband availability (§4.3).
//!
//! An observation is a `(provider, H3 resolution-8 hex, technology)` triple
//! with a binary label: *unserved* (the claim would fail a challenge) or
//! *served* (the claim holds). Labels come from three sources, applied in
//! order:
//!
//! 1. **Challenges** — successful challenges label the observation unserved,
//!    failed challenges label it served.
//! 2. **Non-archived changes** — locations silently removed from a provider's
//!    claims between the initial and the latest minor release label the
//!    observation unserved.
//! 3. **Likely served locations** — hexes with an Ookla service-coverage score
//!    above 1 that also carry MLab tests attributed to the provider, and that
//!    the provider claims in the NBM, label the observation served. These are
//!    consumed in descending coverage-score order to balance the dataset per
//!    provider and per state.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use bdc::stream::map_shards;
use bdc::{Challenge, ClaimChange, FabricView, NbmRelease, ProviderId, Technology};
use hexgrid::HexCell;
use serde::{Deserialize, Serialize};
use speedtest::{CoverageScore, ProviderHexTests};

/// How label construction schedules its shard fan-out — the workspace's one
/// scheduling enum (`GenMode`/`DiffMode`/`ScoreMode`), under the same
/// contract: the worker count is a scheduling decision and never changes the
/// produced observations by a single bit.
pub use bdc::stream::DiffMode as LabelMode;

/// Fixed number of coverage scores per likely-served candidate shard. The
/// chunking is a function of the input alone (never of the worker count), so
/// every schedule shards identically and concatenating shard outputs in
/// chunk order reproduces the sequential scan exactly.
pub(crate) const COVERAGE_CHUNK: usize = 2048;

/// Binary availability label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Label {
    /// The provider's claim is (likely) incorrect — it would fail a challenge.
    Unserved,
    /// The provider's claim holds.
    Served,
}

impl Label {
    /// The positive class of the classifier is "unserved / suspicious".
    pub fn as_target(&self) -> f32 {
        match self {
            Label::Unserved => 1.0,
            Label::Served => 0.0,
        }
    }
}

/// Where an observation's label came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LabelSource {
    /// A resolved public challenge; `adjudicated` is true when the FCC itself
    /// decided it.
    Challenge { adjudicated: bool },
    /// A non-archived removal discovered by diffing NBM releases.
    MapChange,
    /// A synthetic likely-served location derived from crowdsourced speed
    /// tests.
    LikelyServed,
}

/// One labelled observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    pub provider: ProviderId,
    pub hex: HexCell,
    pub technology: Technology,
    pub state: String,
    pub label: Label,
    pub source: LabelSource,
}

/// Which label sources to use and whether to balance — the axes of the
/// paper's Figure 7 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelingOptions {
    /// Include labels from non-archived map changes.
    pub include_changes: bool,
    /// Include synthetic likely-served labels.
    pub include_likely_served: bool,
    /// Balance served/unserved per provider (falling back to per state).
    pub balance: bool,
}

impl Default for LabelingOptions {
    fn default() -> Self {
        Self {
            include_changes: true,
            include_likely_served: true,
            balance: true,
        }
    }
}

impl LabelingOptions {
    /// Only public challenges (the first bar of Figure 7).
    pub fn challenges_only() -> Self {
        Self {
            include_changes: false,
            include_likely_served: false,
            balance: false,
        }
    }

    /// Challenges plus non-archived changes.
    pub fn challenges_and_changes() -> Self {
        Self {
            include_changes: true,
            include_likely_served: false,
            balance: false,
        }
    }

    /// Challenges plus likely-served locations (no changes).
    pub fn challenges_and_likely_served() -> Self {
        Self {
            include_changes: false,
            include_likely_served: true,
            balance: true,
        }
    }
}

/// Everything label construction needs to see. The fabric enters as a
/// [`FabricView`] so a fully materialised `Fabric` and the national-scale
/// streaming hex table label bit-identically through the same code.
pub struct LabelInputs<'a> {
    pub fabric: &'a dyn FabricView,
    pub initial_release: &'a NbmRelease,
    /// Non-archived removals: the initial release's claims absent from the
    /// latest release, as a `bdc::DiffChain` yields them (claim-key order;
    /// every change's kind is `Removed`). Produced by the pipeline's
    /// `release_diff` stage or the source — label construction never diffs
    /// releases itself.
    pub removal_evidence: &'a [ClaimChange],
    pub challenges: &'a [Challenge],
    /// Per-hex Ookla service-coverage scores, sorted descending.
    pub coverage: &'a [CoverageScore],
    /// MLab tests attributed and localised per provider/hex.
    pub mlab_evidence: &'a ProviderHexTests,
}

/// Deterministic hex→state resolution, shared by every label source.
///
/// A resolution-8 hex can straddle a state border, and the label sources used
/// to disagree on which state such a hex belongs to: challenges carried the
/// state of the individual challenged location while likely-served candidates
/// took whatever BSL happened to be listed first in the hex — so one hex
/// could appear under two states, splitting its one-hot encoding and leaking
/// rows across state holdouts. This resolver gives every path the same
/// answer: the state holding the most BSLs in the hex, ties broken by the
/// lexicographically smallest code. Returns `None` when the fabric knows no
/// BSL in the hex.
pub fn resolve_hex_state(fabric: &dyn FabricView, hex: &HexCell) -> Option<String> {
    fabric
        .hex_state_counts(hex)
        .into_iter()
        // `max_by` keeps the last maximal element of the ascending iteration;
        // reversing the state comparison on count ties therefore prefers the
        // lexicographically smallest code.
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(state, _)| state)
}

/// The dedup key of an observation.
type ObservationKey = (ProviderId, HexCell, Technology);

/// Each distinct hex's resolved state, precomputed once per labelling run.
///
/// [`resolve_hex_state`] walks every BSL in the hex, and the same hex recurs
/// across providers, technologies and label sources — so the resolution is
/// done once per hex (itself fanned across the shard workers) and shared
/// read-only by every shard instead of being recomputed per observation.
type HexStates = HashMap<HexCell, Option<String>>;

/// Resolve every distinct hex the label sources will touch, fanned across
/// `workers` (resolution is a pure function of the fabric).
fn resolve_label_hexes(
    inputs: &LabelInputs<'_>,
    options: &LabelingOptions,
    workers: usize,
) -> HexStates {
    let mut hexes: BTreeSet<HexCell> = BTreeSet::new();
    for challenge in inputs.challenges {
        hexes.insert(challenge.hex);
    }
    if options.include_changes {
        for change in inputs.removal_evidence {
            if let Some(hex) = inputs.fabric.hex_of(change.location) {
                hexes.insert(hex);
            }
        }
    }
    if options.include_likely_served {
        for score in inputs.coverage.iter().filter(|s| s.is_likely_served()) {
            hexes.insert(score.hex);
        }
    }
    let hexes: Vec<HexCell> = hexes.into_iter().collect();
    let mut resolved: HexStates = map_shards(workers, &hexes, |_, hex| {
        (*hex, resolve_hex_state(inputs.fabric, hex))
    })
    .into_iter()
    .collect();
    // Hexes the fabric cannot resolve (no BSLs — possible once real-data
    // challenge records stop aligning with the fabric snapshot) still get
    // exactly one state: the lexicographically smallest state among the
    // hex's challenges. Without this, two challenges for the same
    // fabric-less hex carrying different states would re-open the
    // one-hex-two-states bug through the per-challenge fallback.
    let mut fallback: BTreeMap<HexCell, &str> = BTreeMap::new();
    for challenge in inputs.challenges {
        if matches!(resolved.get(&challenge.hex), Some(None)) {
            let entry = fallback
                .entry(challenge.hex)
                .or_insert(challenge.state.as_str());
            if challenge.state.as_str() < *entry {
                *entry = challenge.state.as_str();
            }
        }
    }
    for (hex, state) in fallback {
        resolved.insert(hex, Some(state.to_string()));
    }
    resolved
}

/// One provider's share of the challenge/map-change labelling, produced on a
/// shard worker.
struct ProviderLabelShard {
    challenges: Vec<Observation>,
    changes: Vec<Observation>,
    seen: BTreeSet<ObservationKey>,
}

/// Label one provider's challenges and removals. Dedup is safe per shard
/// because every key carries the provider: two shards can never produce the
/// same key.
fn provider_label_shard(
    inputs: &LabelInputs<'_>,
    hex_states: &HexStates,
    challenge_idx: &[usize],
    change_idx: &[usize],
) -> ProviderLabelShard {
    let mut seen: BTreeSet<ObservationKey> = BTreeSet::new();
    // Challenges. A hex is treated as challenged when any BSL in it is.
    let mut challenges = Vec::new();
    for &i in challenge_idx {
        let challenge = &inputs.challenges[i];
        let key = (challenge.provider, challenge.hex, challenge.technology);
        if !seen.insert(key) {
            continue;
        }
        challenges.push(Observation {
            provider: challenge.provider,
            hex: challenge.hex,
            technology: challenge.technology,
            // Every challenge hex is pre-resolved (fabric majority, or the
            // canonical challenge-state fallback for fabric-less hexes); a
            // miss means a label source was added to this shard without
            // teaching `resolve_label_hexes` about it — fail loudly instead
            // of silently reintroducing per-record states.
            state: hex_states
                .get(&challenge.hex)
                .cloned()
                .flatten()
                .expect("challenge hex not pre-resolved"),
            label: if challenge.is_successful() {
                Label::Unserved
            } else {
                Label::Served
            },
            source: LabelSource::Challenge {
                adjudicated: challenge.is_fcc_adjudicated(),
            },
        });
    }
    // Non-archived changes: removals between the initial and latest release,
    // streamed into cumulative evidence by the pipeline.
    let mut changes = Vec::new();
    for &i in change_idx {
        let change = &inputs.removal_evidence[i];
        let Some(hex) = inputs.fabric.hex_of(change.location) else {
            continue;
        };
        let key = (change.provider, hex, change.technology);
        if !seen.insert(key) {
            continue;
        }
        changes.push(Observation {
            provider: change.provider,
            hex,
            technology: change.technology,
            state: hex_states
                .get(&hex)
                .cloned()
                .flatten()
                .expect("map-change hex not pre-resolved"),
            label: Label::Unserved,
            source: LabelSource::MapChange,
        });
    }
    ProviderLabelShard {
        challenges,
        changes,
        seen,
    }
}

/// Build the labelled observation set under an explicit schedule.
///
/// Challenge and map-change labels shard per provider, likely-served
/// candidates shard per fixed coverage chunk, and the balancing fold runs
/// serially (it is RNG-free and order-preserving) — so every [`LabelMode`]
/// produces bit-identical observations in the canonical order: all challenge
/// labels in provider order, then all map-change labels in provider order
/// (claim-key order within a provider), then the likely-served fill in
/// descending coverage-score order.
pub fn build_labels_with(
    inputs: &LabelInputs<'_>,
    options: &LabelingOptions,
    mode: LabelMode,
) -> Vec<Observation> {
    let workers = mode.worker_count();

    // Group work per provider, ascending. Both challenge waves and removal
    // evidence arrive provider-grouped already, so regrouping just assigns
    // shard boundaries; within a provider the input order is preserved.
    let mut per_provider: BTreeMap<ProviderId, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (i, challenge) in inputs.challenges.iter().enumerate() {
        per_provider
            .entry(challenge.provider)
            .or_default()
            .0
            .push(i);
    }
    if options.include_changes {
        for (i, change) in inputs.removal_evidence.iter().enumerate() {
            per_provider.entry(change.provider).or_default().1.push(i);
        }
    }
    let provider_work: Vec<(Vec<usize>, Vec<usize>)> = per_provider.into_values().collect();
    let hex_states = resolve_label_hexes(inputs, options, workers);
    let shards = map_shards(workers, &provider_work, |_, (challenge_idx, change_idx)| {
        provider_label_shard(inputs, &hex_states, challenge_idx, change_idx)
    });

    // RNG-free serial assembly in provider order: challenges first, then
    // changes — the same shape a sequential pass over the sources produces.
    let mut seen: BTreeSet<ObservationKey> = BTreeSet::new();
    let mut observations: Vec<Observation> = Vec::new();
    let mut change_lists = Vec::with_capacity(shards.len());
    for shard in shards {
        observations.extend(shard.challenges);
        change_lists.push(shard.changes);
        seen.extend(shard.seen);
    }
    for changes in change_lists {
        observations.extend(changes);
    }

    // Likely served locations, consumed in descending coverage-score order
    // to balance the dataset.
    if options.include_likely_served {
        let candidates = likely_served_candidates(inputs, &hex_states, workers);
        if options.balance {
            add_balanced(&mut observations, &mut seen, candidates, inputs);
        } else {
            for obs in candidates {
                let key = (obs.provider, obs.hex, obs.technology);
                if seen.insert(key) {
                    observations.push(obs);
                }
            }
        }
    }
    observations
}

/// Candidate likely-served observations in descending coverage-score order:
/// hexes with coverage score > 1, MLab evidence for the provider in the hex,
/// and an NBM claim by that provider with some technology in the hex.
///
/// The coverage list is cut into fixed [`COVERAGE_CHUNK`]-sized shards fanned
/// across `workers`; concatenating the shard outputs in chunk order is
/// exactly the sequential scan, so the candidate order (and therefore the
/// balancing fold downstream) is schedule-independent.
fn likely_served_candidates(
    inputs: &LabelInputs<'_>,
    hex_states: &HexStates,
    workers: usize,
) -> Vec<Observation> {
    // Index NBM claims by hex for quick lookup (shared read-only by shards).
    let mut claims_by_hex: HashMap<HexCell, Vec<(ProviderId, Technology)>> = HashMap::new();
    for claim in inputs.initial_release.hex_claims() {
        claims_by_hex
            .entry(claim.hex)
            .or_default()
            .push((claim.provider, claim.technology));
    }

    let chunks: Vec<&[CoverageScore]> = inputs.coverage.chunks(COVERAGE_CHUNK).collect();
    let shard_candidates = map_shards(workers, &chunks, |_, chunk| {
        let mut out = Vec::new();
        for score in chunk.iter().filter(|s| s.is_likely_served()) {
            let Some(claims) = claims_by_hex.get(&score.hex) else {
                continue;
            };
            let Some(state) = hex_states.get(&score.hex).cloned().flatten() else {
                continue;
            };
            for (provider, technology) in claims {
                if inputs.mlab_evidence.count(*provider, score.hex) <= 0.0 {
                    continue;
                }
                out.push(Observation {
                    provider: *provider,
                    hex: score.hex,
                    technology: *technology,
                    state: state.clone(),
                    label: Label::Served,
                    source: LabelSource::LikelyServed,
                });
            }
        }
        out
    });
    shard_candidates.into_iter().flatten().collect()
}

/// Add likely-served candidates so that, per provider (and within the
/// provider, roughly per state), served observations catch up with unserved
/// ones; remaining imbalance is then addressed at the state level.
fn add_balanced(
    observations: &mut Vec<Observation>,
    seen: &mut BTreeSet<(ProviderId, HexCell, Technology)>,
    candidates: Vec<Observation>,
    _inputs: &LabelInputs<'_>,
) {
    // Current per-provider and per-state imbalance (unserved minus served).
    let mut provider_deficit: BTreeMap<ProviderId, i64> = BTreeMap::new();
    let mut state_deficit: BTreeMap<String, i64> = BTreeMap::new();
    for obs in observations.iter() {
        let delta = match obs.label {
            Label::Unserved => 1,
            Label::Served => -1,
        };
        *provider_deficit.entry(obs.provider).or_insert(0) += delta;
        *state_deficit.entry(obs.state.clone()).or_insert(0) += delta;
    }

    // First pass: fill per-provider deficits in candidate (coverage-score)
    // order. Second pass: fill remaining per-state deficits.
    let mut leftovers = Vec::new();
    for obs in candidates {
        let key = (obs.provider, obs.hex, obs.technology);
        if seen.contains(&key) {
            continue;
        }
        let deficit = provider_deficit.entry(obs.provider).or_insert(0);
        if *deficit > 0 {
            *deficit -= 1;
            *state_deficit.entry(obs.state.clone()).or_insert(0) -= 1;
            seen.insert(key);
            observations.push(obs);
        } else {
            leftovers.push(obs);
        }
    }
    for obs in leftovers {
        let key = (obs.provider, obs.hex, obs.technology);
        if seen.contains(&key) {
            continue;
        }
        let deficit = state_deficit.entry(obs.state.clone()).or_insert(0);
        if *deficit > 0 {
            *deficit -= 1;
            seen.insert(key);
            observations.push(obs);
        }
    }
}

/// Summary counts by label source, used for reporting dataset composition
/// (§4.3 reports 51% challenges, 22% changes, 27% synthetic).
pub fn source_composition(observations: &[Observation]) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for obs in observations {
        let key = match obs.source {
            LabelSource::Challenge { .. } => "challenges",
            LabelSource::MapChange => "changes",
            LabelSource::LikelyServed => "likely_served",
        };
        *out.entry(key).or_insert(0) += 1;
    }
    out
}

/// An order-sensitive stable digest of a labelled observation set: every
/// field of every observation folds through `synth::shard::StableHasher`, so
/// two sets fingerprint equal iff they are identical, observation by
/// observation. Pins the worker-invariance contract of
/// [`build_labels_with`] and the golden label fingerprints in
/// `tests/end_to_end.rs`.
pub fn observations_fingerprint(observations: &[Observation]) -> u64 {
    let mut h = synth::shard::StableHasher::new();
    observations.len().hash(&mut h);
    for o in observations {
        o.provider.hash(&mut h);
        o.hex.hash(&mut h);
        o.technology.hash(&mut h);
        o.state.hash(&mut h);
        o.label.hash(&mut h);
        o.source.hash(&mut h);
    }
    h.finish()
}

/// Fraction of observations labelled unserved.
pub fn unserved_fraction(observations: &[Observation]) -> f64 {
    if observations.is_empty() {
        return 0.0;
    }
    observations
        .iter()
        .filter(|o| o.label == Label::Unserved)
        .count() as f64
        / observations.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{stage_label_construction, AnalysisContext};
    use synth::{SynthConfig, SynthUs};

    fn context() -> (SynthUs, AnalysisContext) {
        let world = SynthUs::generate(&SynthConfig::tiny(5));
        let ctx = AnalysisContext::prepare(&world);
        (world, ctx)
    }

    /// The `label_construction` stage on the default schedule.
    fn label(
        world: &SynthUs,
        ctx: &AnalysisContext,
        options: &LabelingOptions,
    ) -> Vec<Observation> {
        stage_label_construction(world, ctx, options, LabelMode::Parallel)
    }

    #[test]
    fn full_labelling_has_all_three_sources() {
        let (world, ctx) = context();
        let labels = label(&world, &ctx, &LabelingOptions::default());
        assert!(labels.len() > 500, "only {} observations", labels.len());
        let comp = source_composition(&labels);
        assert!(comp.get("challenges").copied().unwrap_or(0) > 0);
        assert!(comp.get("changes").copied().unwrap_or(0) > 0);
        assert!(comp.get("likely_served").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn balancing_reduces_class_imbalance() {
        let (world, ctx) = context();
        let unbalanced = label(&world, &ctx, &LabelingOptions::challenges_and_changes());
        let balanced = label(&world, &ctx, &LabelingOptions::default());
        let unbalanced_frac = unserved_fraction(&unbalanced);
        let balanced_frac = unserved_fraction(&balanced);
        assert!(
            balanced_frac < unbalanced_frac,
            "balanced {balanced_frac} vs unbalanced {unbalanced_frac}"
        );
        assert!(
            unbalanced_frac > 0.8,
            "challenges+changes should be mostly unserved"
        );
    }

    #[test]
    fn no_duplicate_observation_keys() {
        let (world, ctx) = context();
        let labels = label(&world, &ctx, &LabelingOptions::default());
        let keys: BTreeSet<_> = labels
            .iter()
            .map(|o| (o.provider, o.hex, o.technology))
            .collect();
        assert_eq!(keys.len(), labels.len());
    }

    #[test]
    fn challenges_only_excludes_other_sources() {
        let (world, ctx) = context();
        let labels = label(&world, &ctx, &LabelingOptions::challenges_only());
        assert!(labels
            .iter()
            .all(|o| matches!(o.source, LabelSource::Challenge { .. })));
    }

    #[test]
    fn labels_mostly_agree_with_ground_truth() {
        // The labelling heuristics should recover the synthetic ground truth
        // for the overwhelming majority of observations.
        let (world, ctx) = context();
        let labels = label(&world, &ctx, &LabelingOptions::default());
        let mut correct = 0usize;
        let mut total = 0usize;
        for obs in &labels {
            if let Some(truly_served) = world.is_truly_served(obs.provider, obs.hex, obs.technology)
            {
                total += 1;
                let label_served = obs.label == Label::Served;
                if label_served == truly_served {
                    correct += 1;
                }
            }
        }
        assert!(total > 0);
        let agreement = correct as f64 / total as f64;
        assert!(agreement > 0.8, "label/ground-truth agreement {agreement}");
    }

    #[test]
    fn label_target_encoding() {
        assert_eq!(Label::Unserved.as_target(), 1.0);
        assert_eq!(Label::Served.as_target(), 0.0);
    }

    #[test]
    fn worker_count_never_changes_the_observations() {
        let (world, ctx) = context();
        for options in [
            LabelingOptions::default(),
            LabelingOptions::challenges_only(),
            LabelingOptions::challenges_and_changes(),
            LabelingOptions::challenges_and_likely_served(),
            LabelingOptions {
                balance: false,
                ..LabelingOptions::default()
            },
        ] {
            let base = stage_label_construction(&world, &ctx, &options, LabelMode::Sequential);
            for mode in [
                LabelMode::Parallel,
                LabelMode::Threads(3),
                LabelMode::Threads(16),
            ] {
                let other = stage_label_construction(&world, &ctx, &options, mode);
                assert_eq!(
                    observations_fingerprint(&other),
                    observations_fingerprint(&base),
                    "label construction differs under {mode:?} with {options:?}"
                );
                assert_eq!(other, base);
            }
        }
    }

    #[test]
    fn hex_state_resolution_is_shared_and_deterministic() {
        use bdc::{Bsl, Fabric, LocationId};
        use geoprim::LatLng;
        use hexgrid::NBM_RESOLUTION;

        // Two states in one hex: VA holds the majority.
        let base = LatLng::new(37.0, -80.0);
        let hex = HexCell::containing(&base, NBM_RESOLUTION);
        let fabric = Fabric::new(vec![
            Bsl::new(LocationId(0), base, 1, false, "WV"),
            Bsl::new(
                LocationId(1),
                LatLng::new(base.lat + 1e-5, base.lng),
                1,
                false,
                "VA",
            ),
            Bsl::new(
                LocationId(2),
                LatLng::new(base.lat + 2e-5, base.lng),
                1,
                false,
                "VA",
            ),
        ]);
        assert_eq!(resolve_hex_state(&fabric, &hex), Some("VA".to_string()));

        // An exact tie prefers the lexicographically smallest code.
        let tied = Fabric::new(vec![
            Bsl::new(LocationId(0), base, 1, false, "WV"),
            Bsl::new(
                LocationId(1),
                LatLng::new(base.lat + 1e-5, base.lng),
                1,
                false,
                "VA",
            ),
        ]);
        assert_eq!(resolve_hex_state(&tied, &hex), Some("VA".to_string()));

        // Unknown hexes resolve to None.
        let empty_hex = HexCell::containing(&LatLng::new(45.0, -100.0), NBM_RESOLUTION);
        assert_eq!(resolve_hex_state(&fabric, &empty_hex), None);
    }

    #[test]
    fn fabricless_challenged_hex_gets_one_canonical_state() {
        use bdc::{
            Bsl, ChallengeOutcome, ChallengeReason, DayStamp, Fabric, LocationId, NbmRelease,
            ReleaseVersion,
        };
        use geoprim::LatLng;
        use hexgrid::NBM_RESOLUTION;

        // The fabric knows one BSL far away from the challenged hex, so the
        // resolver cannot answer from BSLs and must fall back to challenge
        // states — which must still converge on one state per hex.
        let fabric = Fabric::new(vec![Bsl::new(
            LocationId(0),
            LatLng::new(45.0, -100.0),
            1,
            false,
            "ND",
        )]);
        let hex = HexCell::containing(&LatLng::new(37.0, -80.0), NBM_RESOLUTION);
        let challenge = |id: u64, state: &str, outcome: ChallengeOutcome| bdc::Challenge {
            provider: ProviderId(1),
            location: LocationId(id),
            hex,
            technology: Technology::Cable,
            state: state.into(),
            reason: ChallengeReason::TechnologyUnavailable,
            outcome,
            filed: DayStamp(0),
            resolved: DayStamp(1),
        };
        // Two challenges for the same fabric-less hex carrying different
        // states (distinct technologies would dedup; use distinct outcomes
        // via distinct technologies instead — here distinct providers).
        let mut second = challenge(2, "WV", ChallengeOutcome::FccOverturned);
        second.provider = ProviderId(2);
        let challenges = vec![
            challenge(1, "VA", ChallengeOutcome::ProviderConceded),
            second,
        ];
        let release = NbmRelease::from_parts(ReleaseVersion::initial(), DayStamp(0), Vec::new());
        let inputs = LabelInputs {
            fabric: &fabric,
            initial_release: &release,
            removal_evidence: &[],
            challenges: &challenges,
            coverage: &[],
            mlab_evidence: &Default::default(),
        };
        let labels = build_labels_with(&inputs, &LabelingOptions::default(), LabelMode::Parallel);
        assert_eq!(labels.len(), 2);
        for obs in &labels {
            assert_eq!(
                obs.state, "VA",
                "fabric-less hex must take the lexicographically smallest challenge state"
            );
        }
    }

    #[test]
    fn border_hex_appears_under_one_state_across_label_sources() {
        // In the synthetic worlds every label source now routes hex→state
        // through the shared resolver, so a hex can never appear under two
        // states regardless of which source labelled it.
        let (world, ctx) = context();
        let labels = label(&world, &ctx, &LabelingOptions::default());
        let mut state_of_hex: BTreeMap<HexCell, &str> = BTreeMap::new();
        for obs in &labels {
            let entry = state_of_hex.entry(obs.hex).or_insert(obs.state.as_str());
            assert_eq!(
                *entry, obs.state,
                "hex {:?} labelled under two states ({} vs {})",
                obs.hex, entry, obs.state
            );
        }
        // And every assigned state is what the resolver says.
        for obs in labels.iter().step_by(17) {
            if let Some(resolved) = resolve_hex_state(&world.fabric, &obs.hex) {
                assert_eq!(obs.state, resolved);
            }
        }
    }
}
