//! The materialised pipeline: the eight named `stage_*` functions over a
//! resident [`SynthUs`], and the [`PipelineEngine`] that runs them as one
//! timed dataset run.
//!
//! The engine has no stage sequence of its own. It wraps the world in a
//! private resident-world [`WorldSource`], whose source half is
//! `methodology_collection` and `release_diff`, and hands it to the one
//! runner in [`crate::streaming`], which runs the other six stages and
//! reports all eight in one [`StreamReport`]:
//!
//! ```text
//! methodology_collection → release_diff            (the resident source)
//!   → asn_matching → ookla_reprojection → coverage_scoring → mlab_attribution
//!   → label_construction → feature_engineering     (the runner)
//! ```
//!
//! [`AnalysisContext::prepare`] runs the same source through the runner's
//! preparation half only. The resident source hands the world's Ookla tiles
//! and MLab tests to the runner as [`SliceShards`], so the runner meters
//! them while it drains them, as it does for every source.
//!
//! Each pinned `stage_*` function calls the function the runner uses for its
//! stage, or the shared kernel that stage wraps, so running the stages one
//! at a time gives the engine's bits. Parallelism lives inside the stages
//! (shard fan-out under the default [`DiffMode`]), never between them, and
//! every mode is bit-identical.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use asnmap::{FrnRegistration, MatchReport, RegistrationSource, WhoisDb};
use bdc::source::{end_stage, SourceMeta};
use bdc::{
    Asn, Challenge, ClaimChange, DiffChain, DiffMode, FabricView, NbmRelease, ProviderId,
    ResidencyMeter, SliceShards, StreamReport, WorldSource,
};
use hexgrid::HexCell;
use obs::Telemetry;
use speedtest::{
    coverage_scores, CoverageScore, MlabTest, OoklaHexAggregate, OoklaTileRecord, ProviderHexTests,
};
use synth::SynthUs;

use crate::features::{build_features_from_inputs, FeatureConfig, FeatureInputs, FeatureMatrix};
use crate::labels::{build_labels_with, LabelInputs, LabelMode, LabelingOptions, Observation};
use crate::streaming::{
    attribute_mlab, match_providers, prepare_source, reproject_ookla, run_source, Prepared,
};

/// A full dataset-construction run: the prepared context, the labelled
/// feature matrix (row-aligned observations included), and one report
/// covering all eight stages.
#[derive(Debug)]
pub struct DatasetRun {
    pub context: AnalysisContext,
    pub matrix: FeatureMatrix,
    pub report: StreamReport,
}

/// The materialised execution engine: the streaming runner over a resident
/// [`SynthUs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineEngine;

impl PipelineEngine {
    /// Run all eight stages over a world — the resident source's
    /// `methodology_collection` and `release_diff`, then the runner's six
    /// with the given options — in a single [`StreamReport`].
    ///
    /// The report lands in `telemetry`'s `stream_*` series once the stages
    /// complete. Recording is pure observation — a run with
    /// [`Telemetry::disabled`] produces a bit-identical context and matrix.
    pub fn run_to_dataset_with(
        &self,
        world: &SynthUs,
        options: &LabelingOptions,
        features: &FeatureConfig,
        telemetry: &Telemetry,
    ) -> DatasetRun {
        let source = ResidentWorld::new(world);
        let (prepared, matrix, report) =
            run_source(&source, options, features, DiffMode::default(), telemetry)
                .expect(UNBUDGETED);
        DatasetRun {
            context: source.into_context(prepared),
            matrix,
            report,
        }
    }
}

const UNBUDGETED: &str = "an unbudgeted run cannot exceed its budget";

/// A resident [`SynthUs`] as a [`WorldSource`]. The fabric, initial release
/// and challenges are lent by reference, and the Ookla tiles and MLab tests
/// reach the runner as [`SliceShards`]. Building it runs the source half,
/// `methodology_collection` and `release_diff`, on a fresh unbudgeted meter
/// that then meters the runner's stages too.
struct ResidentWorld<'w> {
    world: &'w SynthUs,
    methodologies: BTreeMap<ProviderId, String>,
    diff_chain: DiffChain,
    removal_evidence: Vec<ClaimChange>,
    meter: ResidencyMeter,
    report: StreamReport,
}

impl<'w> ResidentWorld<'w> {
    fn new(world: &'w SynthUs) -> Self {
        let started = Instant::now();
        let meter = ResidencyMeter::new();
        let mut stages = Vec::new();

        let t = Instant::now();
        let methodologies = stage_methodology_collection(world);
        meter.pin(methodologies.len());
        end_stage(&mut stages, &meter, None, "methodology_collection", t, 1).expect(UNBUDGETED);

        // One shard per minor release the evidence spans; the source keeps
        // the evidence.
        let t = Instant::now();
        let diff_chain = stage_release_diff(world, DiffMode::default());
        let removal_evidence = diff_chain.removal_evidence();
        meter.pin(removal_evidence.len());
        let minors = world.config.n_minor_releases;
        end_stage(&mut stages, &meter, None, "release_diff", t, minors).expect(UNBUDGETED);

        let report = StreamReport {
            stages,
            total_wall: started.elapsed(),
            peak_resident_entries: meter.peak(),
            budget: None,
        };
        Self {
            world,
            methodologies,
            diff_chain,
            removal_evidence,
            meter,
            report,
        }
    }

    /// The prepared context: what the runner prepared, plus this source's
    /// methodology map and diff chain.
    fn into_context(self, prepared: Prepared) -> AnalysisContext {
        AnalysisContext {
            match_report: prepared.match_report,
            provider_asns: prepared.provider_asns,
            ookla_by_hex: prepared.ookla_by_hex,
            coverage: prepared.coverage,
            mlab_evidence: prepared.mlab_evidence,
            methodologies: self.methodologies,
            diff_chain: self.diff_chain,
        }
    }
}

impl WorldSource for ResidentWorld<'_> {
    type OoklaItem = OoklaTileRecord;
    type MlabItem = MlabTest;
    type OoklaStream<'a>
        = SliceShards<'a, OoklaTileRecord>
    where
        Self: 'a;
    type MlabStream<'a>
        = SliceShards<'a, MlabTest>
    where
        Self: 'a;

    fn meta(&self) -> SourceMeta {
        let config = &self.world.config;
        SourceMeta {
            name: "synth-resident",
            detail: format!(
                "seed {} · {} bsls · {} providers",
                config.seed, config.n_bsls, config.n_providers
            ),
            provider_count: self.world.providers.len(),
            release_count: config.n_minor_releases + 1,
        }
    }

    fn meter(&self) -> &ResidencyMeter {
        &self.meter
    }

    fn budget(&self) -> Option<usize> {
        None
    }

    fn source_report(&self) -> &StreamReport {
        &self.report
    }

    fn fabric(&self) -> &dyn FabricView {
        &self.world.fabric
    }

    fn initial_release(&self) -> &NbmRelease {
        self.world.initial_release()
    }

    fn removal_evidence(&self) -> &[ClaimChange] {
        &self.removal_evidence
    }

    fn challenges(&self) -> &[Challenge] {
        &self.world.challenges
    }

    fn methodologies(&self) -> &BTreeMap<ProviderId, String> {
        &self.methodologies
    }

    fn ookla_stream(&self) -> SliceShards<'_, OoklaTileRecord> {
        SliceShards::new(self.world.ookla.records())
    }

    fn mlab_stream(&self) -> SliceShards<'_, MlabTest> {
        SliceShards::new(self.world.mlab.tests())
    }
}

impl RegistrationSource for ResidentWorld<'_> {
    fn registrations(&self) -> &[FrnRegistration] {
        &self.world.registrations
    }

    fn whois(&self) -> &WhoisDb {
        &self.world.whois
    }
}

// ---------------------------------------------------------------------------
// The stages. Each is a pure, independently runnable function of its inputs.

/// `asn_matching`: run the four matching methods and lift the
/// result into typed ids.
pub fn stage_asn_matching(world: &SynthUs) -> (MatchReport, BTreeMap<ProviderId, BTreeSet<Asn>>) {
    match_providers(&world.registrations, &world.whois)
}

/// `ookla_reprojection`: re-project Ookla quadkey tiles onto
/// resolution-8 hexes.
pub fn stage_ookla_reprojection(world: &SynthUs) -> HashMap<HexCell, OoklaHexAggregate> {
    let tiles = SliceShards::new(world.ookla.records());
    reproject_ookla(&tiles, &ResidencyMeter::new(), &Telemetry::disabled())
}

/// `coverage_scoring`: per-hex devices-per-BSL coverage
/// scores, sorted descending.
pub fn stage_coverage_scoring(
    world: &SynthUs,
    ookla_by_hex: &HashMap<HexCell, OoklaHexAggregate>,
) -> Vec<CoverageScore> {
    coverage_scores(ookla_by_hex, &world.fabric)
}

/// `mlab_attribution`: attribute MLab tests to providers via
/// the ASN mapping and localise them within each claimed footprint.
pub fn stage_mlab_attribution(
    world: &SynthUs,
    provider_asns: &BTreeMap<ProviderId, BTreeSet<Asn>>,
) -> ProviderHexTests {
    let tests = SliceShards::new(world.mlab.tests());
    let (meter, telemetry) = (ResidencyMeter::new(), Telemetry::disabled());
    attribute_mlab(
        world.initial_release(),
        provider_asns,
        &tests,
        &meter,
        &telemetry,
    )
}

/// `methodology_collection`: each provider's filing
/// methodology text.
pub fn stage_methodology_collection(world: &SynthUs) -> BTreeMap<ProviderId, String> {
    world
        .filings
        .iter()
        .map(|f| (f.provider, f.methodology.clone()))
        .collect()
}

/// `release_diff`: the map-change evidence of the world's release timeline,
/// the initial claims absent from the latest release (§4.1.3). The synthetic
/// timeline only removes claims, and each scheduled removal takes effect by
/// the last minor release, so the evidence is read off the world's
/// [`RemovalSchedule`](synth::RemovalSchedule) with
/// [`RemovalSchedule::diff_chain`](synth::RemovalSchedule::diff_chain), the
/// same call `StreamWorld` makes; no release is diffed.
/// `tests/release_diff.rs` pins it equal to the batch diff of the initial
/// and latest releases.
///
/// `_mode` is ignored: reading the schedule has no worker fan-out. It stays
/// in the signature the repository benchmark calls.
pub fn stage_release_diff(world: &SynthUs, _mode: DiffMode) -> DiffChain {
    world.removal_schedule().diff_chain()
}

/// `label_construction`: build the labelled observation set
/// (§4.3) from the prepared context. Challenge and map-change labels shard
/// per provider, likely-served candidates per fixed coverage chunk, and the
/// balancing fold runs serially — every `mode` is bit-identical (the
/// `GenMode` contract), pinned by `tests/labelfeat_determinism.rs`.
pub fn stage_label_construction(
    world: &SynthUs,
    ctx: &AnalysisContext,
    options: &LabelingOptions,
    mode: LabelMode,
) -> Vec<Observation> {
    let removal_evidence = ctx.diff_chain.removal_evidence();
    let inputs = LabelInputs {
        fabric: &world.fabric,
        initial_release: world.initial_release(),
        removal_evidence: &removal_evidence,
        challenges: &world.challenges,
        coverage: &ctx.coverage,
        mlab_evidence: &ctx.mlab_evidence,
    };
    build_labels_with(&inputs, options, mode)
}

/// `feature_engineering`: vectorise labelled observations
/// into the Table 4 feature matrix (§5.1). Per-provider embeddings
/// precompute in parallel and rows shard per fixed observation chunk; every
/// `mode` is bit-identical.
pub fn stage_feature_engineering(
    world: &SynthUs,
    ctx: &AnalysisContext,
    observations: &[Observation],
    config: &FeatureConfig,
    mode: LabelMode,
) -> FeatureMatrix {
    let inputs = FeatureInputs {
        fabric: &world.fabric,
        release: world.initial_release(),
        ookla_by_hex: &ctx.ookla_by_hex,
        mlab_evidence: &ctx.mlab_evidence,
        methodologies: &ctx.methodologies,
    };
    build_features_from_inputs(&inputs, observations, config, mode)
}

/// Intermediate products of the pipeline that are shared by labelling, feature
/// engineering and several experiments: the provider→ASN match report, the
/// per-hex Ookla aggregates and coverage scores, and the attributed MLab
/// evidence.
#[derive(Debug)]
pub struct AnalysisContext {
    /// Result of running the four matching methods.
    pub match_report: MatchReport,
    /// Provider→ASN mapping recovered by the matcher (typed ids).
    pub provider_asns: BTreeMap<ProviderId, BTreeSet<Asn>>,
    /// Ookla open data re-projected onto resolution-8 hexes.
    pub ookla_by_hex: HashMap<HexCell, OoklaHexAggregate>,
    /// Per-hex service coverage scores, sorted descending.
    pub coverage: Vec<CoverageScore>,
    /// MLab tests attributed to providers and localised to hexes.
    pub mlab_evidence: ProviderHexTests,
    /// Each provider's filing methodology text.
    pub methodologies: BTreeMap<ProviderId, String>,
    /// The release timeline's map-change evidence: the initial claims absent
    /// from the latest release (`DiffChain::removal_evidence`, the §4.1.3
    /// labelling signal).
    pub diff_chain: DiffChain,
}

impl AnalysisContext {
    /// Run the data-preparation half of the pipeline (§4.1–4.3) over a
    /// world: the resident source's two stages, then the runner's
    /// preparation half, recording no telemetry.
    pub fn prepare(world: &SynthUs) -> Self {
        let source = ResidentWorld::new(world);
        let prepared =
            prepare_source(&source, &mut Vec::new(), &Telemetry::disabled()).expect(UNBUDGETED);
        source.into_context(prepared)
    }

    /// Number of providers for which both an ASN match and MLab evidence
    /// exist — the subset the paper can model (911 of 2,153 in the paper).
    /// One pass over the evidence collects the matched providers that carry
    /// positive mass.
    pub fn modelable_providers(&self) -> usize {
        self.mlab_evidence
            .iter()
            .filter(|(p, _, count)| *count > 0.0 && self.provider_asns.contains_key(p))
            .map(|(p, _, _)| p)
            .collect::<BTreeSet<ProviderId>>()
            .len()
    }

    /// An order-independent digest of every field, for asserting that two
    /// contexts are identical (e.g. under different worker counts).
    ///
    /// Hash-map contents are folded in sorted order and floats are hashed by
    /// their exact bit patterns, so two contexts fingerprint equal iff every
    /// value in every field is bit-identical. The fold runs through
    /// `synth::shard::StableHasher` (not `std`'s release-unstable
    /// `DefaultHasher`), so fingerprints can be pinned as golden constants
    /// across toolchains.
    pub fn canonical_fingerprint(&self) -> u64 {
        let mut h = synth::shard::StableHasher::new();

        let mr = &self.match_report;
        mr.providers_matched_by_method.len().hash(&mut h);
        for (m, n) in &mr.providers_matched_by_method {
            format!("{m:?}").hash(&mut h);
            n.hash(&mut h);
        }
        mr.provider_to_asns.hash(&mut h);
        for (m, mapping) in &mr.per_method {
            format!("{m:?}").hash(&mut h);
            mapping.hash(&mut h);
        }
        (
            mr.total_providers,
            mr.strong_matches,
            mr.partial_matches,
            mr.single_method_matches,
            mr.shared_asns,
        )
            .hash(&mut h);

        self.provider_asns.hash(&mut h);

        let mut ookla: Vec<(&HexCell, &OoklaHexAggregate)> = self.ookla_by_hex.iter().collect();
        ookla.sort_by_key(|(hex, _)| *hex);
        for (hex, agg) in ookla {
            hex.hash(&mut h);
            for v in [
                agg.tests,
                agg.devices,
                agg.max_avg_download_kbps,
                agg.max_avg_upload_kbps,
                agg.min_latency_ms,
            ] {
                v.to_bits().hash(&mut h);
            }
        }

        for c in &self.coverage {
            c.hex.hash(&mut h);
            c.devices.to_bits().hash(&mut h);
            c.bsls.hash(&mut h);
            c.score.to_bits().hash(&mut h);
        }

        let mut evidence: Vec<(ProviderId, HexCell, f64)> = self.mlab_evidence.iter().collect();
        evidence.sort_by_key(|(p, hex, _)| (*p, *hex));
        for (p, hex, count) in evidence {
            (p, hex, count.to_bits()).hash(&mut h);
        }

        self.methodologies.hash(&mut h);

        self.diff_chain.fold_evidence_into(&mut h);

        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth::SynthConfig;

    #[test]
    fn prepare_produces_consistent_context() {
        let world = SynthUs::generate(&SynthConfig::tiny(9));
        let ctx = AnalysisContext::prepare(&world);
        // A healthy majority of providers should match to ASNs.
        let match_rate = ctx.match_report.match_rate();
        assert!(
            match_rate > 0.5 && match_rate <= 1.0,
            "match rate {match_rate}"
        );
        // Coverage scores exist and are sorted descending.
        assert!(!ctx.coverage.is_empty());
        for w in ctx.coverage.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // MLab evidence exists for at least some providers.
        assert!(!ctx.mlab_evidence.is_empty());
        assert!(ctx.modelable_providers() > 0);
        assert!(ctx.modelable_providers() <= world.providers.len());
        // The one-pass count equals the per-provider definition: matched
        // providers whose total attributed mass is positive.
        let per_provider = ctx
            .provider_asns
            .keys()
            .filter(|p| {
                let total: f64 = ctx
                    .mlab_evidence
                    .iter()
                    .filter(|(q, _, _)| q == *p)
                    .map(|(_, _, count)| count)
                    .sum();
                total > 0.0
            })
            .count();
        assert_eq!(ctx.modelable_providers(), per_provider);
        // Every provider has a methodology string.
        assert_eq!(ctx.methodologies.len(), world.providers.len());
    }

    #[test]
    fn matched_asns_largely_agree_with_ground_truth() {
        let world = SynthUs::generate(&SynthConfig::tiny(10));
        let ctx = AnalysisContext::prepare(&world);
        let mut agree = 0usize;
        let mut total = 0usize;
        for (provider, true_asns) in &world.true_provider_asns {
            if let Some(found) = ctx.provider_asns.get(provider) {
                total += 1;
                if found.intersection(true_asns).next().is_some() {
                    agree += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            agree as f64 / total as f64 > 0.9,
            "only {agree}/{total} matched providers overlap the truth"
        );
    }

    #[test]
    fn engine_reports_every_stage_in_canonical_order() {
        let world = SynthUs::generate(&SynthConfig::tiny(9));
        let run = PipelineEngine.run_to_dataset_with(
            &world,
            &LabelingOptions::default(),
            &FeatureConfig::default(),
            &Telemetry::disabled(),
        );
        let names: Vec<&str> = run.report.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "methodology_collection",
                "release_diff",
                "asn_matching",
                "ookla_reprojection",
                "coverage_scoring",
                "mlab_attribution",
                "label_construction",
                "feature_engineering",
            ]
        );
        // One meter spans both halves, so the run peak is the largest stage
        // peak.
        assert!(run.report.stages[0].peak_resident_entries > 0);
        let largest = run.report.stages.iter().map(|s| s.peak_resident_entries);
        assert_eq!(run.report.peak_resident_entries, largest.max().unwrap());
        assert_eq!(run.report.budget, None);
        assert!(run.report.stage_sum() <= run.report.total_wall);
    }

    #[test]
    fn run_records_stage_telemetry_without_perturbing_the_context() {
        let world = SynthUs::generate(&SynthConfig::tiny(9));
        let registry = std::sync::Arc::new(obs::MetricsRegistry::new());
        let telemetry = Telemetry::with_metrics(std::sync::Arc::clone(&registry));
        let run = || {
            PipelineEngine.run_to_dataset_with(
                &world,
                &LabelingOptions::default(),
                &FeatureConfig::default(),
                &telemetry,
            )
        };
        let observed = run();
        assert_eq!(
            observed.context.canonical_fingerprint(),
            AnalysisContext::prepare(&world).canonical_fingerprint(),
            "telemetry must be pure observation"
        );
        let text = registry.encode_prometheus();
        for stage in &observed.report.stages {
            assert!(
                text.contains(&format!(
                    "stream_stage_wall_seconds_count{{stage=\"{}\"}} 1",
                    stage.name
                )),
                "stage {} missing from scrape:\n{text}",
                stage.name
            );
        }
        // A second run lands in the same series.
        let _ = run();
        let text = registry.encode_prometheus();
        assert!(
            text.contains("stream_stage_wall_seconds_count{stage=\"asn_matching\"} 2"),
            "{text}"
        );
        assert!(!text.contains("pipeline_"), "{text}");
    }

    #[test]
    fn pinned_stages_assemble_the_prepared_context() {
        let world = SynthUs::generate(&SynthConfig::tiny(9));
        let (match_report, provider_asns) = stage_asn_matching(&world);
        let ookla_by_hex = stage_ookla_reprojection(&world);
        let coverage = stage_coverage_scoring(&world, &ookla_by_hex);
        let mlab_evidence = stage_mlab_attribution(&world, &provider_asns);
        let staged = AnalysisContext {
            match_report,
            provider_asns,
            ookla_by_hex,
            coverage,
            mlab_evidence,
            methodologies: stage_methodology_collection(&world),
            diff_chain: stage_release_diff(&world, DiffMode::Sequential),
        };
        assert_eq!(
            staged.canonical_fingerprint(),
            AnalysisContext::prepare(&world).canonical_fingerprint()
        );
    }

    #[test]
    fn stages_are_independently_runnable() {
        let world = SynthUs::generate(&SynthConfig::tiny(9));
        // Ookla re-projection feeds coverage scoring.
        let ookla = stage_ookla_reprojection(&world);
        let coverage = stage_coverage_scoring(&world, &ookla);
        assert!(!coverage.is_empty());
        // ASN matching feeds MLab attribution.
        let (_, provider_asns) = stage_asn_matching(&world);
        let evidence = stage_mlab_attribution(&world, &provider_asns);
        assert!(!evidence.is_empty());
        // The release diff spans the whole timeline.
        let chain = stage_release_diff(&world, DiffMode::Sequential);
        assert!(
            chain.removal_count() > 0,
            "no removal evidence in tiny world"
        );
        assert_eq!(chain.from_version(), world.initial_release().version);
        let minor = world.config.n_minor_releases as u32;
        assert_eq!(chain.to_version().minor, minor);
        // Methodology collection needs nothing else.
        assert!(!stage_methodology_collection(&world).is_empty());
    }

    #[test]
    fn release_diff_stage_matches_batch_engine() {
        let world = SynthUs::generate(&SynthConfig::tiny(9));
        let chain = stage_release_diff(&world, DiffMode::Sequential);
        let emitter = world.release_emitter();
        let last = emitter.release(emitter.n_releases() - 1);
        let filed = || world.filings.iter().flat_map(|f| &f.records);
        let kept = filed().filter(|r| last.is_live(&r.claim_key()));
        let batch = bdc::MapDiff::between(
            (world.initial_release().version, filed()),
            (last.version(), kept),
        );
        let batch_removed: Vec<bdc::ClaimChange> = batch.removed().copied().collect();
        assert_eq!(
            chain.removal_evidence(),
            batch_removed,
            "schedule-built evidence must equal the batch initial-vs-latest removals"
        );
        assert_eq!(chain.to_version(), last.version());
    }
}
