//! The source abstraction the analysis pipeline runs over.
//!
//! A [`WorldSource`] is everything the pipeline runner consumes from "the
//! world": a bounded [`FabricView`], the claim-release timeline (the initial
//! [`NbmRelease`] plus cumulative removal evidence), the challenge record,
//! speed-test shard streams, and per-source metadata — all accounted against
//! one shared [`ResidencyMeter`]. Three sources implement it: the synth
//! crate's `StreamWorld` (pure regeneration is its private strategy), the
//! ingest crate's file-backed BDC/Ookla source, and the resident synthetic
//! world `redsus_core`'s pipeline engine wraps. The runner in
//! `redsus_core::streaming` is generic over this trait and is the only
//! stage sequence, so synthetic and real data flow through byte-for-byte the
//! same pipeline.
//!
//! The speed-test streams are generic associated types rather than boxed
//! trait objects: each source names its own concrete stream (the synth
//! emitters borrow the source's tables; the file source and the resident
//! world hand out [`SliceShards`](crate::SliceShards) of records they
//! hold), the item types stay source-defined (this crate cannot name the
//! `speedtest` crate's records — `speedtest` depends on `bdc`), and the
//! runner pins the items it requires via equality bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use crate::challenge::Challenge;
use crate::diff::ClaimChange;
use crate::fabric::FabricView;
use crate::ids::ProviderId;
use crate::nbm::NbmRelease;
use crate::stream::{ResidencyMeter, ShardStream, SpeedTestStream};

/// Timing and residency of one streaming stage (source generation/ingest
/// half or pipeline-runner half — both report through the same row type).
#[derive(Debug, Clone)]
pub struct StreamStage {
    pub name: &'static str,
    pub wall: Duration,
    /// Number of independent shards the stage drained or fanned out.
    pub shards: usize,
    /// Highest number of metered entries resident at any point in the stage
    /// (includes everything pinned by earlier stages — residency is global).
    pub peak_resident_entries: usize,
}

/// Per-stage report of a streaming run: the source half's stages followed by
/// the pipeline runner's, against the run-wide peak and configured budget.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    pub stages: Vec<StreamStage>,
    pub total_wall: Duration,
    /// Run-wide peak residency in entries.
    pub peak_resident_entries: usize,
    /// The budget the run was checked against, if one was configured.
    pub budget: Option<usize>,
}

impl StreamReport {
    /// Look up one stage's stats by name.
    pub fn stage(&self, name: &str) -> Option<&StreamStage> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Sum of the stage wall-clocks; never more than `total_wall`.
    pub fn stage_sum(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// The report as a text table: one row per stage, then the totals.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>12} {:>10} {:>16}\n",
            "stage", "wall ms", "shards", "peak entries"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<24} {:>12.3} {:>10} {:>16}",
                s.name,
                s.wall.as_secs_f64() * 1e3,
                s.shards,
                s.peak_resident_entries,
            );
        }
        let budget = self.budget.map_or("none".into(), |b| b.to_string());
        let _ = writeln!(
            out,
            "total wall {:.3} s (stage sum {:.3} s), run peak {} entries (budget {budget})",
            self.total_wall.as_secs_f64(),
            self.stage_sum().as_secs_f64(),
            self.peak_resident_entries,
        );
        out
    }

    /// The report as one strict-JSON object: `stages` (each with `name`,
    /// `wall_s`, `shards`, `peak_resident_entries`), `total_wall_s`,
    /// `peak_resident_entries` and `budget` (`null` when unbudgeted). Stage
    /// names are static identifiers, so they need no escaping.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"wall_s\":{},\"shards\":{},\"peak_resident_entries\":{}}}",
                    s.name,
                    s.wall.as_secs_f64(),
                    s.shards,
                    s.peak_resident_entries,
                )
            })
            .collect();
        let budget = self.budget.map_or("null".into(), |b| b.to_string());
        format!(
            "{{\"stages\":[{}],\"total_wall_s\":{},\"peak_resident_entries\":{},\"budget\":{budget}}}",
            stages.join(","),
            self.total_wall.as_secs_f64(),
            self.peak_resident_entries,
        )
    }
}

/// Close a stage: record its wall-clock, shard count and the meter's stage
/// high-water mark, then enforce the budget. Shared by every source and by
/// the pipeline runner so a budget breach reads identically wherever it
/// happens.
pub fn end_stage(
    stages: &mut Vec<StreamStage>,
    meter: &ResidencyMeter,
    budget: Option<usize>,
    name: &'static str,
    started: Instant,
    shards: usize,
) -> Result<(), String> {
    let peak = meter.take_stage_peak();
    stages.push(StreamStage {
        name,
        wall: started.elapsed(),
        shards,
        peak_resident_entries: peak,
    });
    match budget {
        Some(b) if peak > b => Err(format!(
            "streaming stage `{name}` exceeded the resident-entry budget: \
             peak {peak} entries > budget {b}"
        )),
        _ => Ok(()),
    }
}

/// What a source is, for reports and telemetry labels. Purely descriptive —
/// nothing in the pipeline branches on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMeta {
    /// Short stable identifier, e.g. `"synth-stream"` or `"bdc-csv"`.
    pub name: &'static str,
    /// Human-readable provenance (config summary, data directory, ...).
    pub detail: String,
    /// Providers filing in the claim timeline (the label stage's per-provider
    /// shard count).
    pub provider_count: usize,
    /// Releases in the claim timeline the removal evidence was derived from.
    pub release_count: usize,
}

/// A world the streaming pipeline can run over: fabric + claim-release
/// timeline + speed-test streams + per-source metadata, with honest
/// `resident_entries` accounting on one shared meter.
///
/// Contract:
/// * every borrow handed out must stay coherent for the source's lifetime
///   (the runner interleaves fabric, release and stream access);
/// * [`WorldSource::meter`] is the one residency ledger — the speed-test
///   streams' `resident_entries` and anything the source keeps resident must
///   be accounted there so the runner's budget enforcement is honest;
/// * `source_report` covers the source's own generation/ingest stages; the
///   runner appends its pipeline stages to the same report shape.
pub trait WorldSource {
    /// Item type of the Ookla-style tile stream (the runner pins this to the
    /// speedtest crate's tile record).
    type OoklaItem: Send;
    /// Item type of the MLab-style test stream.
    type MlabItem: Send;
    /// The tile stream, borrowing from the source.
    type OoklaStream<'a>: SpeedTestStream<Item = Self::OoklaItem> + 'a
    where
        Self: 'a;
    /// The speed-test stream, borrowing from the source.
    type MlabStream<'a>: SpeedTestStream<Item = Self::MlabItem> + 'a
    where
        Self: 'a;

    /// Descriptive metadata (name, provenance, provider/release counts).
    fn meta(&self) -> SourceMeta;
    /// The shared residency meter every stage accounts against.
    fn meter(&self) -> &ResidencyMeter;
    /// The resident-entry budget, if one was configured.
    fn budget(&self) -> Option<usize>;
    /// The source half's per-stage report (generation or ingest).
    fn source_report(&self) -> &StreamReport;
    /// The bounded fabric view labels and features run over.
    fn fabric(&self) -> &dyn FabricView;
    /// The initial release of the claim timeline (the public per-hex view).
    fn initial_release(&self) -> &NbmRelease;
    /// Non-archived removals: the claims of the initial release absent from
    /// the latest one, in ascending claim-key order (see `DiffChain`).
    fn removal_evidence(&self) -> &[ClaimChange];
    /// Resolved availability challenges, provider order.
    fn challenges(&self) -> &[Challenge];
    /// Filing methodology free text per provider.
    fn methodologies(&self) -> &BTreeMap<ProviderId, String>;
    /// A fresh Ookla tile stream (drained once per run, shards in canonical
    /// order).
    fn ookla_stream(&self) -> Self::OoklaStream<'_>;
    /// A fresh MLab test stream (one shard per provider, provider order).
    fn mlab_stream(&self) -> Self::MlabStream<'_>;
}

/// A speed-test stream with no shards at all — for sources that carry no
/// data of one modality (e.g. the file-backed BDC source has no MLab feed
/// yet). Zero shards, zero resident entries.
pub struct EmptyStream<T>(PhantomData<fn() -> T>);

impl<T> Default for EmptyStream<T> {
    fn default() -> Self {
        Self(PhantomData)
    }
}

impl<T> EmptyStream<T> {
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Send> ShardStream for EmptyStream<T> {
    type Item = T;

    fn shard_count(&self) -> usize {
        0
    }

    fn shard(&self, index: usize) -> Vec<T> {
        panic!("EmptyStream has no shard {index}");
    }

    fn resident_entries(&self) -> usize {
        0
    }
}

impl<T: Send> SpeedTestStream for EmptyStream<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::collect_shards;

    #[test]
    fn empty_stream_is_empty() {
        let s: EmptyStream<u64> = EmptyStream::new();
        assert_eq!(s.shard_count(), 0);
        assert_eq!(s.resident_entries(), 0);
        assert!(collect_shards(&s, 2).is_empty());
    }

    #[test]
    fn end_stage_records_and_enforces_budget() {
        let meter = ResidencyMeter::new();
        let mut stages = Vec::new();
        meter.acquire(10);
        end_stage(&mut stages, &meter, Some(100), "ok", Instant::now(), 3)
            .expect("10 entries fit a budget of 100");
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].name, "ok");
        assert_eq!(stages[0].shards, 3);
        assert_eq!(stages[0].peak_resident_entries, 10);

        meter.acquire(200);
        let err = end_stage(&mut stages, &meter, Some(100), "burst", Instant::now(), 1)
            .expect_err("210 resident entries must breach a budget of 100");
        assert!(err.contains("exceeded the resident-entry budget"), "{err}");
        // The breaching stage still landed in the report for diagnostics.
        assert_eq!(stages.len(), 2);
    }

    #[test]
    fn report_stage_lookup() {
        let report = StreamReport {
            stages: vec![StreamStage {
                name: "ingest",
                wall: Duration::from_millis(1),
                shards: 4,
                peak_resident_entries: 7,
            }],
            total_wall: Duration::from_millis(1),
            peak_resident_entries: 7,
            budget: None,
        };
        assert!(report.stage("ingest").is_some());
        assert!(report.stage("missing").is_none());
        assert_eq!(
            report.to_json(),
            "{\"stages\":[{\"name\":\"ingest\",\"wall_s\":0.001,\"shards\":4,\
             \"peak_resident_entries\":7}],\"total_wall_s\":0.001,\
             \"peak_resident_entries\":7,\"budget\":null}"
        );
        let table = report.render();
        assert!(
            table.lines().nth(1).unwrap().starts_with("ingest"),
            "{table}"
        );
        assert!(table.contains("budget none"), "{table}");
    }
}
