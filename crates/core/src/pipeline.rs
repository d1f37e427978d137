//! The staged pipeline engine: everything that has to be computed once before
//! labels and features can be built, expressed as named, independently
//! runnable stages with recorded wall-clock timings.
//!
//! The data-preparation half of the paper (§4.1–4.3) decomposes into six
//! stages, and the dataset half (§4.3 labels, §5.1 features) adds two more
//! that consume the prepared context. [`PipelineEngine`] runs them on the
//! calling thread in canonical order:
//!
//! ```text
//! asn_matching → ookla_reprojection → coverage_scoring → mlab_attribution
//!   → methodology_collection → release_diff        (the AnalysisContext)
//!   → label_construction → feature_engineering     (the FeatureMatrix)
//! ```
//!
//! Parallelism lives inside the stages (shard fan-out under the default
//! [`DiffMode`]), never between them. Every stage is a pure function of its
//! inputs and every mode is bit-identical, so the assembled context and
//! matrix are the same under any worker count. The engine reports and meters
//! its stages exactly as the streaming runner does: one [`StreamReport`] row
//! per stage, closed by [`end_stage`] on a [`ResidencyMeter`] that holds each
//! stage's retained output.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use asnmap::{MatchReport, ProviderAsnMatcher};
use bdc::source::end_stage;
use bdc::{Asn, DiffChain, DiffMode, ProviderId, ResidencyMeter, StreamReport, StreamStage};
use hexgrid::{HexCell, NBM_RESOLUTION};
use obs::Telemetry;
use speedtest::{
    coverage_scores, CoverageScore, MlabAttributor, OoklaHexAggregate, ProviderHexTests,
};
use synth::SynthUs;

use crate::features::{build_features_with, FeatureConfig, FeatureMatrix, OBSERVATION_CHUNK};
use crate::labels::{
    build_labels_with, LabelInputs, LabelMode, LabelingOptions, Observation, COVERAGE_CHUNK,
};
use crate::streaming::observe_stream_report;

/// A finished pipeline run: the prepared context plus the report of its six
/// preparation stages.
#[derive(Debug)]
pub struct PipelineRun {
    pub context: AnalysisContext,
    pub report: StreamReport,
}

/// A full dataset-construction run: the prepared context, the labelled
/// feature matrix (row-aligned observations included), and one report
/// covering all eight stages — the six preparation stages plus
/// `label_construction` and `feature_engineering`.
#[derive(Debug)]
pub struct DatasetRun {
    pub context: AnalysisContext,
    pub matrix: FeatureMatrix,
    pub report: StreamReport,
}

/// The materialised execution engine: the eight `stage_*` functions called
/// in canonical order over a resident [`SynthUs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineEngine;

impl PipelineEngine {
    /// Run the six preparation stages over a world and return the prepared
    /// context with its stage report.
    /// [`PipelineEngine::run_to_dataset_with`] additionally runs the two
    /// dataset stages.
    ///
    /// The report lands in `telemetry`'s `stream_*` series once the stages
    /// complete. Recording is pure observation — a run with
    /// [`Telemetry::disabled`] produces a bit-identical context.
    pub fn run_with(&self, world: &SynthUs, telemetry: &Telemetry) -> PipelineRun {
        let mut ledger = Ledger::new();
        let context = run_preparation(world, &mut ledger);
        PipelineRun {
            context,
            report: ledger.finish(telemetry),
        }
    }

    /// Run all eight stages over a world: the six preparation stages, then
    /// `label_construction` and `feature_engineering` with the given options,
    /// all in a single [`StreamReport`] recorded into `telemetry` (see
    /// [`PipelineEngine::run_with`]).
    pub fn run_to_dataset_with(
        &self,
        world: &SynthUs,
        options: &LabelingOptions,
        features: &FeatureConfig,
        telemetry: &Telemetry,
    ) -> DatasetRun {
        let mode = DiffMode::default();
        let mut ledger = Ledger::new();
        let context = run_preparation(world, &mut ledger);

        let t = Instant::now();
        let observations = stage_label_construction(world, &context, options, mode);
        let shards = world.providers.len() + context.coverage.len().div_ceil(COVERAGE_CHUNK);
        ledger.close("label_construction", t, shards, observations.len());

        let t = Instant::now();
        let matrix = stage_feature_engineering(world, &context, &observations, features, mode);
        let values = matrix.dataset.n_rows() * matrix.dataset.feature_names().len();
        let shards = observations.len().div_ceil(OBSERVATION_CHUNK).max(1);
        ledger.close("feature_engineering", t, shards, values);

        DatasetRun {
            context,
            matrix,
            report: ledger.finish(telemetry),
        }
    }
}

/// The engine's stage bookkeeping: one unbudgeted meter and the stage rows
/// closed on it.
struct Ledger {
    started: Instant,
    meter: ResidencyMeter,
    stages: Vec<StreamStage>,
}

impl Ledger {
    fn new() -> Self {
        Self {
            started: Instant::now(),
            meter: ResidencyMeter::new(),
            stages: Vec::new(),
        }
    }

    /// Close a stage that retains `retained` entries of output. The world
    /// the stages read is already resident and shared, so the output is what
    /// a stage adds.
    fn close(&mut self, name: &'static str, started: Instant, shards: usize, retained: usize) {
        self.meter.acquire(retained);
        end_stage(&mut self.stages, &self.meter, None, name, started, shards)
            .expect("an unbudgeted stage cannot exceed its budget");
    }

    fn finish(self, telemetry: &Telemetry) -> StreamReport {
        let report = StreamReport {
            stages: self.stages,
            total_wall: self.started.elapsed(),
            peak_resident_entries: self.meter.peak(),
            budget: None,
        };
        observe_stream_report(telemetry, &report);
        report
    }
}

/// The six preparation stages in canonical order, each closed on `ledger`.
fn run_preparation(world: &SynthUs, ledger: &mut Ledger) -> AnalysisContext {
    let t = Instant::now();
    let (match_report, provider_asns) = stage_asn_matching(world);
    let pairs: usize = provider_asns.values().map(|a| a.len()).sum();
    ledger.close("asn_matching", t, 1, provider_asns.len() + pairs);

    let t = Instant::now();
    let ookla_by_hex = stage_ookla_reprojection(world);
    ledger.close("ookla_reprojection", t, 1, ookla_by_hex.len());

    let t = Instant::now();
    let coverage = stage_coverage_scoring(world, &ookla_by_hex);
    ledger.close("coverage_scoring", t, 1, coverage.len());

    let t = Instant::now();
    let mlab_evidence = stage_mlab_attribution(world, &provider_asns);
    ledger.close("mlab_attribution", t, 1, mlab_evidence.len());

    let t = Instant::now();
    let methodologies = stage_methodology_collection(world);
    ledger.close("methodology_collection", t, 1, methodologies.len());

    // One shard per minor release the evidence spans; the stage retains the
    // evidence.
    let t = Instant::now();
    let diff_chain = stage_release_diff(world, DiffMode::default());
    let minors = world.config.n_minor_releases;
    ledger.close("release_diff", t, minors, diff_chain.removal_count());

    AnalysisContext {
        match_report,
        provider_asns,
        ookla_by_hex,
        coverage,
        mlab_evidence,
        methodologies,
        diff_chain,
    }
}

// ---------------------------------------------------------------------------
// The stages. Each is a pure, independently runnable function of its inputs.

/// `asn_matching`: run the four matching methods and lift the
/// result into typed ids.
pub fn stage_asn_matching(world: &SynthUs) -> (MatchReport, BTreeMap<ProviderId, BTreeSet<Asn>>) {
    let matcher = ProviderAsnMatcher::new(world.registrations.clone());
    let match_report = matcher.run(&world.whois);
    let provider_asns = match_report
        .provider_to_asns
        .iter()
        .map(|(p, asns)| {
            (
                ProviderId(*p),
                asns.iter().map(|a| Asn(*a)).collect::<BTreeSet<Asn>>(),
            )
        })
        .collect();
    (match_report, provider_asns)
}

/// `ookla_reprojection`: re-project Ookla quadkey tiles onto
/// resolution-8 hexes.
pub fn stage_ookla_reprojection(world: &SynthUs) -> HashMap<HexCell, OoklaHexAggregate> {
    world.ookla.aggregate_to_hexes(NBM_RESOLUTION)
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
    let claimed_hexes = world
        .initial_release()
        .claimed_hexes_by_provider(provider_asns.keys().copied());
    let mut attributor = MlabAttributor::new(provider_asns, &claimed_hexes, NBM_RESOLUTION);
    attributor.add_tests(world.mlab.tests());
    attributor.finish()
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
    ctx.build_labels_with(world, options, mode)
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
    build_features_with(world, ctx, observations, config, mode)
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
    /// Run the data-preparation half of the pipeline (§4.1–4.3) over a world
    /// with the engine, recording no telemetry.
    pub fn prepare(world: &SynthUs) -> Self {
        PipelineEngine
            .run_with(world, &Telemetry::disabled())
            .context
    }

    /// Build labelled observations for a world with the given options, under
    /// the default (parallel) schedule.
    pub fn build_labels(&self, world: &SynthUs, options: &LabelingOptions) -> Vec<Observation> {
        self.build_labels_with(world, options, LabelMode::Parallel)
    }

    /// Build labelled observations under an explicit shard schedule — the
    /// `label_construction` stage body. Every mode produces bit-identical
    /// observations.
    pub fn build_labels_with(
        &self,
        world: &SynthUs,
        options: &LabelingOptions,
        mode: LabelMode,
    ) -> Vec<Observation> {
        let removal_evidence = self.diff_chain.removal_evidence();
        let inputs = LabelInputs {
            fabric: &world.fabric,
            initial_release: world.initial_release(),
            removal_evidence: &removal_evidence,
            challenges: &world.challenges,
            coverage: &self.coverage,
            mlab_evidence: &self.mlab_evidence,
        };
        build_labels_with(&inputs, options, mode)
    }

    /// Number of providers for which both an ASN match and MLab evidence
    /// exist — the subset the paper can model (911 of 2,153 in the paper).
    pub fn modelable_providers(&self) -> usize {
        self.provider_asns
            .keys()
            .filter(|p| self.mlab_evidence.total_for(**p) > 0.0)
            .count()
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
    use bdc::NbmRelease;
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
        let run = PipelineEngine.run_with(&world, &Telemetry::disabled());
        let names: Vec<&str> = run.report.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "asn_matching",
                "ookla_reprojection",
                "coverage_scoring",
                "mlab_attribution",
                "methodology_collection",
                "release_diff",
            ]
        );
        // Each stage's output stays resident, so the metered peaks climb
        // stage by stage and the run peak is the last stage's.
        for pair in run.report.stages.windows(2) {
            assert!(
                pair[1].peak_resident_entries > pair[0].peak_resident_entries,
                "{} adds no resident entries",
                pair[1].name
            );
        }
        assert!(run.report.stages[0].peak_resident_entries > 0);
        assert_eq!(
            run.report.peak_resident_entries,
            run.report.stages[5].peak_resident_entries
        );
        assert_eq!(run.report.budget, None);
        assert!(run.report.stage_sum() <= run.report.total_wall);
    }

    #[test]
    fn run_with_records_stage_telemetry_without_perturbing_the_context() {
        let world = SynthUs::generate(&SynthConfig::tiny(9));
        let registry = std::sync::Arc::new(obs::MetricsRegistry::new());
        let telemetry = Telemetry::with_metrics(std::sync::Arc::clone(&registry));
        let observed = PipelineEngine.run_with(&world, &telemetry);
        let silent = PipelineEngine.run_with(&world, &Telemetry::disabled());
        assert_eq!(
            observed.context.canonical_fingerprint(),
            silent.context.canonical_fingerprint(),
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
        // The dataset entry point lands all eight stages in the same series.
        let _ = PipelineEngine.run_to_dataset_with(
            &world,
            &LabelingOptions::default(),
            &FeatureConfig::default(),
            &telemetry,
        );
        let text = registry.encode_prometheus();
        assert!(
            text.contains("stream_stage_wall_seconds_count{stage=\"feature_engineering\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("stream_stage_wall_seconds_count{stage=\"asn_matching\"} 2"),
            "{text}"
        );
        assert!(!text.contains("pipeline_"), "{text}");
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
        let initial = world.initial_release();
        let kept = initial
            .records()
            .iter()
            .filter(|r| last.is_live(&r.claim_key()));
        let (version, published) = (last.version(), last.published());
        let latest =
            NbmRelease::from_records(version, published, kept.cloned().collect(), &world.fabric);
        let batch = bdc::MapDiff::between(initial, &latest);
        let batch_removed: Vec<bdc::ClaimChange> = batch.removed().copied().collect();
        assert_eq!(
            chain.removal_evidence(),
            batch_removed,
            "schedule-built evidence must equal the batch initial-vs-latest removals"
        );
        assert_eq!(chain.to_version(), latest.version);
    }
}
