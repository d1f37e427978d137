//! The source-agnostic streaming runner: any [`WorldSource`] → labelled
//! dataset without ever materialising the world.
//!
//! [`run_streaming_to_dataset_with`] is the bounded-memory counterpart of
//! [`PipelineEngine::run_to_dataset_with`](crate::pipeline::PipelineEngine::run_to_dataset_with).
//! Where the materialised path generates a full [`SynthUs`](synth::SynthUs)
//! (every BSL, claim, filing and release resident at once) and then runs the
//! eight pipeline stages over it, this runner consumes a [`WorldSource`] —
//! the synthetic [`StreamWorld`], which regenerates fabric, claim and
//! speed-test shards on demand from per-`(seed, stage, shard)` RNG streams,
//! or a file-backed source such as the ingest crate's BDC/Ookla reader —
//! and pulls the remaining pipeline stages through the same shard streams:
//!
//! ```text
//! WorldSource (synth or ingest)    this runner
//! ─────────────────────────────    ───────────────────────────────────
//! fabric view       ──┐            asn_matching        (RegistrationSource)
//! claim timeline      ├──────────► ookla_reprojection  (ookla_stream drained)
//! challenge record    │            coverage_scoring    (over the fabric view)
//! speed-test streams──┘            mlab_attribution    (mlab_stream drained)
//! source stages                    label_construction
//!                                  feature_engineering
//! ```
//!
//! Everything flows through the source's shared
//! [`ResidencyMeter`](bdc::ResidencyMeter), so the combined
//! [`StreamReport`] gives an honest per-stage high-water mark, and every
//! stage is checked against the source's resident-entry budget — an
//! over-budget run fails loudly instead of silently swapping.
//!
//! On the synth path the output is bit-identical to the materialised path:
//! the Ookla drain applies record contributions in the exact record order of
//! the materialised dataset, the MLab drain feeds the same `MlabAttributor`
//! the materialised stage uses, in provider order, and labels/features
//! run over the source's `FabricView` — asserted end-to-end by
//! `tests/streaming_world.rs` against the golden label and dataset
//! fingerprints. `tests/real_ingest.rs` pins the same worker-invariance
//! contract for the file-backed source.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use asnmap::{ProviderAsnMatcher, RegistrationSource};
use bdc::source::end_stage;
use bdc::{
    drain_shards, Asn, DiffMode, MeterInstruments, ProviderId, ShardStream, StreamReport,
    StreamStage, WorldSource,
};
use hexgrid::{HexCell, NBM_RESOLUTION};
use obs::{Telemetry, TraceValue, DEFAULT_WALL_BUCKETS};
use speedtest::{
    aggregate_records_into, coverage_scores, MlabAttributor, MlabTest, OoklaHexAggregate,
    OoklaTileRecord, ProviderHexTests,
};
use synth::StreamWorld;

use crate::features::{
    build_features_from_inputs, FeatureConfig, FeatureInputs, FeatureMatrix, OBSERVATION_CHUNK,
};
use crate::labels::{build_labels_with, LabelInputs, LabelingOptions, COVERAGE_CHUNK};

/// A finished streaming run: the consumed source (fabric view, challenges,
/// removal evidence, initial release — everything labels and features
/// consumed), the labelled feature matrix, and one report covering every
/// source and pipeline stage with wall-clock and peak-residency columns.
///
/// The source defaults to the synthetic [`StreamWorld`] so existing
/// annotations keep compiling; file-backed runs are
/// `StreamingDatasetRun<FileWorld>` etc.
pub struct StreamingDatasetRun<W = StreamWorld> {
    pub world: W,
    pub matrix: FeatureMatrix,
    /// All stages — the source half's plus this runner's six — against the
    /// run-wide peak and the configured budget.
    pub report: StreamReport,
}

/// The bound the runner needs: a [`WorldSource`] whose speed-test streams
/// yield the concrete Ookla/MLab record types, carrying registration data
/// for the ASN-matching stage.
pub trait StreamableSource:
    WorldSource<OoklaItem = OoklaTileRecord, MlabItem = MlabTest> + RegistrationSource
{
}

impl<W> StreamableSource for W where
    W: WorldSource<OoklaItem = OoklaTileRecord, MlabItem = MlabTest> + RegistrationSource
{
}

/// How many per-shard trace events a single drained stage may emit; denser
/// stages are strided down so a national run's timeline stays readable.
const TRACE_SHARDS_PER_STAGE: usize = 128;

/// Run source → dataset end-to-end through the shard streams, never
/// materialising the fabric, the location-level claims or the speed-test
/// datasets. Generic over [`WorldSource`]: the synthetic stream world and
/// the file-backed ingest source run byte-for-byte the same pipeline.
/// Returns `Err` when any stage's peak residency exceeds the source's
/// budget.
///
/// `mode` is the shared scheduling knob: it fans the label/feature shards
/// across workers, and every mode is bit-identical (the worker-invariance
/// contract).
///
/// `telemetry` receives the run's metrics and trace: the source's shared
/// [`ResidencyMeter`](bdc::ResidencyMeter) mirrors its acquire/release
/// traffic into registry instruments, every stage lands in `stream_stage_*`
/// series, and an attached trace sink receives a strided per-shard timeline
/// plus one `stage` event per stage. All recording is observation-only —
/// the matrix and every fingerprint are bit-identical with telemetry on or
/// off ([`Telemetry::disabled`]).
pub fn run_streaming_to_dataset_with<W: StreamableSource>(
    source: W,
    options: &LabelingOptions,
    features: &FeatureConfig,
    mode: DiffMode,
    telemetry: &Telemetry,
) -> Result<StreamingDatasetRun<W>, String> {
    let started = Instant::now();
    let meter = source.meter();
    if let Some(registry) = telemetry.registry() {
        meter.attach_instruments(MeterInstruments::register(registry, "stream_residency"));
    }
    let budget = source.budget();
    let meta = source.meta();
    let mut stages: Vec<StreamStage> = Vec::new();
    // The source half left its own stage peaks behind; start this runner's
    // first stage from the current watermark, not the ingest/generation peak.
    meter.take_stage_peak();

    // asn_matching — the matcher clones the registration rows (transient)
    // and retains only the provider→ASN pairs.
    let t = Instant::now();
    let n_regs = source.registrations().len();
    meter.acquire(n_regs);
    let match_report = {
        let matcher = ProviderAsnMatcher::new(source.registrations().to_vec());
        matcher.run(source.whois())
    };
    meter.release(n_regs);
    let provider_asns: BTreeMap<ProviderId, BTreeSet<Asn>> = match_report
        .provider_to_asns
        .iter()
        .map(|(p, asns)| {
            (
                ProviderId(*p),
                asns.iter().map(|a| Asn(*a)).collect::<BTreeSet<Asn>>(),
            )
        })
        .collect();
    drop(match_report);
    let asn_pairs: usize = provider_asns.values().map(|a| a.len()).sum();
    meter.acquire(provider_asns.len() + asn_pairs);
    end_stage(&mut stages, meter, budget, "asn_matching", t, 1)?;

    // ookla_reprojection — one shard stream from the source, folded straight
    // into the per-hex aggregate in record order (the float-accumulation
    // order of the materialised path).
    let t = Instant::now();
    let mut ookla_by_hex: HashMap<HexCell, OoklaHexAggregate> = HashMap::new();
    let ookla_shards;
    {
        let stream = source.ookla_stream();
        ookla_shards = stream.shard_count();
        let stride = (ookla_shards / TRACE_SHARDS_PER_STAGE).max(1);
        let mut pinned = 0usize;
        drain_shards(&stream, meter, |i, shard| {
            let records = shard.len();
            aggregate_records_into(&shard, NBM_RESOLUTION, &mut ookla_by_hex);
            let now = ookla_by_hex.len();
            meter.acquire(now - pinned);
            pinned = now;
            if i % stride == 0 {
                telemetry.emit(
                    "shard",
                    "ookla_reprojection",
                    &[
                        ("shard", TraceValue::U64(i as u64)),
                        ("records", TraceValue::U64(records as u64)),
                        ("resident", TraceValue::U64(meter.current() as u64)),
                    ],
                );
            }
        });
    }
    end_stage(
        &mut stages,
        meter,
        budget,
        "ookla_reprojection",
        t,
        ookla_shards,
    )?;

    // coverage_scoring — devices-per-BSL over the bounded fabric view.
    let t = Instant::now();
    let coverage = coverage_scores(&ookla_by_hex, source.fabric());
    meter.acquire(coverage.len());
    end_stage(&mut stages, meter, budget, "coverage_scoring", t, 1)?;

    // mlab_attribution — the source's test stream folded into the
    // attributor in shard order.
    let t = Instant::now();
    let claimed_hexes = source
        .initial_release()
        .claimed_hexes_by_provider(provider_asns.keys().copied());
    let claimed_total: usize = claimed_hexes.values().map(|h| h.len()).sum();
    meter.acquire(claimed_total);
    let mlab_shards;
    let mlab_evidence: ProviderHexTests;
    {
        let mut attributor = MlabAttributor::new(&provider_asns, &claimed_hexes, NBM_RESOLUTION);
        let stream = source.mlab_stream();
        mlab_shards = stream.shard_count();
        let stride = (mlab_shards / TRACE_SHARDS_PER_STAGE).max(1);
        drain_shards(&stream, meter, |i, tests| {
            let records = tests.len();
            attributor.add_tests(&tests);
            if i % stride == 0 {
                telemetry.emit(
                    "shard",
                    "mlab_attribution",
                    &[
                        ("shard", TraceValue::U64(i as u64)),
                        ("records", TraceValue::U64(records as u64)),
                        ("resident", TraceValue::U64(meter.current() as u64)),
                    ],
                );
            }
        });
        mlab_evidence = attributor.finish();
    }
    drop(claimed_hexes);
    meter.release(claimed_total);
    meter.acquire(mlab_evidence.len());
    end_stage(
        &mut stages,
        meter,
        budget,
        "mlab_attribution",
        t,
        mlab_shards,
    )?;

    // label_construction — the source's fabric view supplies hex membership;
    // no resident fabric is ever required.
    let t = Instant::now();
    let inputs = LabelInputs {
        fabric: source.fabric(),
        initial_release: source.initial_release(),
        removal_evidence: source.removal_evidence(),
        challenges: source.challenges(),
        coverage: &coverage,
        mlab_evidence: &mlab_evidence,
    };
    let observations = build_labels_with(&inputs, options, mode);
    meter.acquire(observations.len());
    let label_shards = meta.provider_count + coverage.len().div_ceil(COVERAGE_CHUNK);
    end_stage(
        &mut stages,
        meter,
        budget,
        "label_construction",
        t,
        label_shards,
    )?;

    // feature_engineering — fixed observation chunks over the same views.
    let t = Instant::now();
    let feature_inputs = FeatureInputs {
        fabric: source.fabric(),
        release: source.initial_release(),
        ookla_by_hex: &ookla_by_hex,
        mlab_evidence: &mlab_evidence,
        methodologies: source.methodologies(),
    };
    let matrix = build_features_from_inputs(&feature_inputs, &observations, features, mode);
    let values = matrix.dataset.n_rows() * matrix.dataset.feature_names().len();
    meter.acquire(values);
    let feature_shards = observations.len().div_ceil(OBSERVATION_CHUNK).max(1);
    end_stage(
        &mut stages,
        meter,
        budget,
        "feature_engineering",
        t,
        feature_shards,
    )?;

    // The source half ran before this runner started; its wall-clock is part
    // of the run, as its stages are part of the table.
    let source_report = source.source_report();
    let mut all_stages = source_report.stages.clone();
    all_stages.append(&mut stages);
    let report = StreamReport {
        stages: all_stages,
        total_wall: source_report.total_wall + started.elapsed(),
        peak_resident_entries: meter.peak(),
        budget,
    };
    observe_stream_report(telemetry, &report);
    telemetry
        .counter(
            "streaming_runs_total",
            "Completed streaming source-to-dataset runs.",
            &[],
        )
        .inc();
    Ok(StreamingDatasetRun {
        world: source,
        matrix,
        report,
    })
}

/// Record a finished run's report — streamed or materialised — as
/// per-stage wall histograms, peak-residency and shard-count gauges, the
/// run-wide peak/budget gauges, one `stage` trace event per stage and a
/// closing `run_end` event.
pub(crate) fn observe_stream_report(telemetry: &Telemetry, report: &StreamReport) {
    if !telemetry.is_enabled() {
        return;
    }
    for stage in &report.stages {
        telemetry
            .histogram(
                "stream_stage_wall_seconds",
                "Wall-clock of one pipeline-run stage (source and runner halves).",
                &DEFAULT_WALL_BUCKETS,
                &[("stage", stage.name)],
            )
            .observe_duration(stage.wall);
        telemetry
            .gauge(
                "stream_stage_peak_resident_entries",
                "Metered peak resident entries during the stage's most recent run.",
                &[("stage", stage.name)],
            )
            .set(stage.peak_resident_entries as f64);
        telemetry
            .gauge(
                "stream_stage_shards",
                "Shards the stage drained on its most recent run.",
                &[("stage", stage.name)],
            )
            .set(stage.shards as f64);
        telemetry.emit(
            "stage",
            stage.name,
            &[
                ("wall_seconds", TraceValue::F64(stage.wall.as_secs_f64())),
                ("shards", TraceValue::U64(stage.shards as u64)),
                (
                    "peak_resident_entries",
                    TraceValue::U64(stage.peak_resident_entries as u64),
                ),
            ],
        );
    }
    telemetry
        .gauge(
            "stream_run_peak_resident_entries",
            "Run-wide peak resident entries of the most recent pipeline run.",
            &[],
        )
        .set(report.peak_resident_entries as f64);
    if let Some(budget) = report.budget {
        telemetry
            .gauge(
                "stream_budget_entries",
                "Configured resident-entry budget of the most recent pipeline run.",
                &[],
            )
            .set(budget as f64);
    }
    telemetry
        .gauge(
            "stream_total_wall_seconds",
            "End-to-end wall-clock of the most recent pipeline run, source half included.",
            &[],
        )
        .set(report.total_wall.as_secs_f64());
    telemetry.emit(
        "run",
        "run_end",
        &[
            (
                "total_wall_seconds",
                TraceValue::F64(report.total_wall.as_secs_f64()),
            ),
            (
                "peak_resident_entries",
                TraceValue::U64(report.peak_resident_entries as u64),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineEngine;
    use synth::{GenMode, SynthConfig};

    /// Generate the tiny world for `seed` and stream it to a dataset.
    fn stream_tiny(seed: u64, mode: GenMode, telemetry: &Telemetry) -> StreamingDatasetRun {
        let source = StreamWorld::generate(&SynthConfig::tiny(seed), mode).expect("valid config");
        run_streaming_to_dataset_with(
            source,
            &LabelingOptions::default(),
            &FeatureConfig::default(),
            mode,
            telemetry,
        )
        .expect("tiny config fits any budget")
    }

    #[test]
    fn streaming_run_reports_every_stage_and_respects_budget() {
        let run = stream_tiny(91, GenMode::Sequential, &Telemetry::disabled());
        for name in [
            "asn_matching",
            "ookla_reprojection",
            "coverage_scoring",
            "mlab_attribution",
            "label_construction",
            "feature_engineering",
        ] {
            let stage = run
                .report
                .stage(name)
                .unwrap_or_else(|| panic!("stage `{name}` missing from the streaming report"));
            assert!(
                stage.peak_resident_entries > 0,
                "stage `{name}` reports an empty working set"
            );
        }
        // The synth half's stages are folded into the same report.
        assert!(run.report.stage("regulatory_pass").is_some());
        assert!(run.matrix.dataset.n_rows() > 0);
        assert!(run.report.peak_resident_entries > 0);
    }

    #[test]
    fn streaming_telemetry_records_stages_and_traces_shards() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf::default();
        let registry = Arc::new(obs::MetricsRegistry::new());
        let telemetry = Telemetry::with_metrics(Arc::clone(&registry))
            .with_trace(Arc::new(obs::TraceSink::to_writer(Box::new(buf.clone()))));
        let run = stream_tiny(91, GenMode::Sequential, &telemetry);

        // Registry: runner stages and residency instruments are all there.
        let text = registry.encode_prometheus();
        assert!(
            text.contains("stream_stage_wall_seconds_count{stage=\"mlab_attribution\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("stream_residency_acquired_entries_total"),
            "{text}"
        );
        assert_eq!(registry.counter("streaming_runs_total", "", &[]).value(), 1);
        let peak = registry.gauge("stream_run_peak_resident_entries", "", &[]);
        assert_eq!(peak.value(), run.report.peak_resident_entries as f64);

        // Trace: a per-stage timeline with strided shard events and a
        // closing run_end, one strict-JSON object per line.
        let bytes = buf.0.lock().unwrap().clone();
        let trace = String::from_utf8(bytes).unwrap();
        assert!(trace.lines().count() > run.report.stages.len());
        assert!(trace.contains("\"kind\":\"shard\""), "{trace}");
        assert!(trace.contains("\"name\":\"run_end\""), "{trace}");
        for line in trace.lines() {
            assert!(
                line.starts_with("{\"ts_us\":") && line.ends_with('}'),
                "{line}"
            );
        }

        // And the matrix is bit-identical to an untelemetered run.
        let silent = stream_tiny(91, GenMode::Sequential, &Telemetry::disabled());
        assert_eq!(
            crate::features::dataset_fingerprint(&run.matrix.dataset),
            crate::features::dataset_fingerprint(&silent.matrix.dataset),
            "telemetry must be pure observation"
        );
    }

    #[test]
    fn streaming_dataset_matches_materialised_engine() {
        use crate::features::dataset_fingerprint;
        use crate::labels::observations_fingerprint;

        let world = synth::SynthUs::generate(&SynthConfig::tiny(92));
        let materialised = PipelineEngine.run_to_dataset_with(
            &world,
            &LabelingOptions::default(),
            &FeatureConfig::default(),
            &Telemetry::disabled(),
        );
        let streamed = stream_tiny(92, GenMode::Parallel, &Telemetry::disabled());
        assert_eq!(
            observations_fingerprint(&streamed.matrix.observations),
            observations_fingerprint(&materialised.matrix.observations),
            "streamed labels must be bit-identical to the materialised path"
        );
        assert_eq!(
            dataset_fingerprint(&streamed.matrix.dataset),
            dataset_fingerprint(&materialised.matrix.dataset),
            "streamed dataset must be bit-identical to the materialised path"
        );
    }
}
