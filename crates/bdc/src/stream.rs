//! Streaming release diffs: walking two NBM releases in claim-key order at
//! bounded memory.
//!
//! [`MapDiff::between`](crate::MapDiff::between) materialises both releases
//! as `BTreeMap`s, which is fine for the synthetic worlds the tests use but
//! cannot scale to the national map (~115M BSLs × dozens of bi-weekly
//! releases). This module provides the streaming counterpart:
//!
//! * [`ClaimEntry`] — the compact `(claim key, speeds)` projection of an
//!   availability record the diff engine operates on.
//! * [`ReleaseStream`] — a source of claim-key-ordered chunks of one
//!   release's entries; implementors hold at most one chunk at a time.
//! * [`StreamingDiff`] — a merge-join over two sorted streams, emitted as an
//!   iterator of [`ClaimChange`]s. Peak resident entries are tracked so the
//!   bounded-memory contract is observable, not just claimed.
//! * [`diff_releases`] — the engine entry point: sequential merge-join or a
//!   per-provider sharded fan-out across `std::thread::scope` workers under
//!   a [`DiffMode`] mirroring `synth::GenMode`'s contract (thread count is a
//!   scheduling decision, never a semantic one).
//! * [`DiffChain`] — folds the pairwise diffs of N successive releases into
//!   cumulative per-provider removal evidence (the §4.1.3 labelling signal),
//!   with a per-pair execution report.
//!
//! Both engines share one canonicalisation rule ([`ClaimEntry::wins_over`])
//! for duplicate claim keys and compare speeds by exact bit pattern, so the
//! streaming path is bit-identical to the batch path — a contract pinned by
//! the equivalence tests in `tests/streaming_diff.rs`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use obs::{Counter, Gauge, MetricsRegistry};

use crate::diff::{ClaimChange, ClaimChangeKind, MapDiff};
use crate::filing::AvailabilityRecord;
use crate::ids::ProviderId;
use crate::nbm::{ClaimKey, ReleaseVersion};

/// Default number of entries per streamed chunk. Large enough that chunk
/// bookkeeping is noise, small enough that two in-flight chunks stay well
/// under a megabyte.
pub const DEFAULT_DIFF_CHUNK: usize = 4096;

/// The compact projection of an availability record the diff engine operates
/// on: the claim key plus the filed speeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimEntry {
    pub key: ClaimKey,
    pub max_down_mbps: f64,
    pub max_up_mbps: f64,
}

impl ClaimEntry {
    /// Project a full availability record down to its diff-relevant fields.
    pub fn from_record(r: &AvailabilityRecord) -> Self {
        Self {
            key: r.claim_key(),
            max_down_mbps: r.max_down_mbps,
            max_up_mbps: r.max_up_mbps,
        }
    }

    /// The exact bit patterns of the speeds. Diffing compares these, not the
    /// float values: NaN therefore equals an identical NaN (instead of
    /// flagging the claim `Modified` forever) and `0.0`/`-0.0` are
    /// deterministically distinct.
    pub fn speed_bits(&self) -> (u64, u64) {
        (self.max_down_mbps.to_bits(), self.max_up_mbps.to_bits())
    }

    /// Canonical winner among entries sharing a claim key: the
    /// lexicographically greatest `(down, up)` pair under `f64::total_cmp`.
    /// Both the batch and streaming engines resolve duplicates with this
    /// rule, so a release with duplicate keys still diffs deterministically
    /// (instead of depending on record order).
    pub fn wins_over(&self, other: &Self) -> bool {
        speed_pair_wins(
            (self.max_down_mbps, self.max_up_mbps),
            (other.max_down_mbps, other.max_up_mbps),
        )
    }
}

/// The one `(down, up)` tie-break the crate uses wherever two speed claims
/// compete: lexicographically greater under `f64::total_cmp` wins. Shared by
/// duplicate-key canonicalisation (batch and streaming diffs) and by the
/// hex-level aggregation in [`crate::nbm`], so the rules can never drift
/// apart.
pub fn speed_pair_wins(candidate: (f64, f64), incumbent: (f64, f64)) -> bool {
    candidate
        .0
        .total_cmp(&incumbent.0)
        .then(candidate.1.total_cmp(&incumbent.1))
        .is_gt()
}

/// A source of one release's claim entries, yielded as claim-key-ordered
/// chunks.
///
/// Contract: concatenating all chunks gives every entry of the release in
/// non-decreasing claim-key order (duplicate keys are allowed and must be
/// adjacent; the consumer canonicalises them via [`ClaimEntry::wins_over`]).
/// Implementors should hold at most one chunk of entries in memory at a
/// time — that is the entire point of the trait.
pub trait ReleaseStream {
    /// The release being streamed.
    fn version(&self) -> ReleaseVersion;

    /// The next chunk, or `None` when the release is exhausted. Returned
    /// chunks must be non-empty.
    fn next_chunk(&mut self) -> Option<Vec<ClaimEntry>>;

    /// Entries held by the stream's *backing storage*, beyond the chunks it
    /// has already yielded. Genuinely streaming sources (a file reader, the
    /// synth `ReleaseEmitter`'s views over a shared base) return 0 — the
    /// default; in-memory adapters that own a full copy of the release
    /// ([`SortedClaimStream`]) must report it, so the peak-residency
    /// statistics the diff engine publishes stay honest about which paths
    /// are actually bounded.
    fn resident_entries(&self) -> usize {
        0
    }
}

/// An in-memory, pre-sorted claim stream — the [`ReleaseStream`] adapter for
/// data that already lives in memory (an `NbmRelease`, a test vector).
///
/// This adapter owns a full sorted copy of its release, and says so through
/// [`ReleaseStream::resident_entries`]: diffing through it is convenient but
/// not memory-bounded. The bounded path is a source that shares one backing
/// store across streams, like the synth crate's `ReleaseEmitter`.
#[derive(Debug, Clone)]
pub struct SortedClaimStream {
    version: ReleaseVersion,
    entries: Vec<ClaimEntry>,
    pos: usize,
    chunk_size: usize,
}

impl SortedClaimStream {
    /// Build a stream from entries in arbitrary order; they are sorted by
    /// claim key here (duplicates stay adjacent, in input order).
    pub fn new(version: ReleaseVersion, mut entries: Vec<ClaimEntry>, chunk_size: usize) -> Self {
        entries.sort_by_key(|e| e.key);
        Self {
            version,
            entries,
            pos: 0,
            chunk_size: chunk_size.max(1),
        }
    }

    /// Total number of entries the stream will yield.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the stream has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl ReleaseStream for SortedClaimStream {
    fn version(&self) -> ReleaseVersion {
        self.version
    }

    fn next_chunk(&mut self) -> Option<Vec<ClaimEntry>> {
        if self.pos >= self.entries.len() {
            return None;
        }
        let end = (self.pos + self.chunk_size).min(self.entries.len());
        let chunk = self.entries[self.pos..end].to_vec();
        self.pos = end;
        Some(chunk)
    }

    fn resident_entries(&self) -> usize {
        self.entries.len()
    }
}

/// A release that can hand out claim streams for the whole release or for a
/// single provider — everything [`diff_releases`] needs to run either the
/// sequential merge-join or the per-provider sharded fan-out.
///
/// Because claim keys order by provider first, concatenating per-provider
/// diffs in provider order is identical to diffing the full streams; that is
/// what makes the sharding a pure scheduling decision.
pub trait ShardableRelease: Sync {
    type Stream: ReleaseStream + Send;

    /// The release's version.
    fn version(&self) -> ReleaseVersion;

    /// Providers with at least one claim, in ascending id order.
    fn providers(&self) -> Vec<ProviderId>;

    /// Stream of every claim in the release.
    fn full_stream(&self, chunk_size: usize) -> Self::Stream;

    /// Stream of one provider's claims.
    fn provider_stream(&self, provider: ProviderId, chunk_size: usize) -> Self::Stream;
}

/// Thread-safe peak-residency accounting for shard streams: the same honest
/// bookkeeping [`StreamStats::peak_resident_entries`] gives the diff engine,
/// generalised so every streaming stage (fabric, claims, speed tests, labels,
/// features) can report what it actually held resident rather than what it
/// hoped to.
///
/// `acquire`/`release` track transient shard buffers; [`ResidencyMeter::pin`]
/// records long-lived structures (an index that stays resident for the rest
/// of the run). The peak is monotone and survives release, so a stage report
/// reflects the worst moment, not the final state.
#[derive(Debug, Default)]
pub struct ResidencyMeter {
    current: AtomicUsize,
    peak: AtomicUsize,
    stage_peak: AtomicUsize,
    instruments: OnceLock<MeterInstruments>,
}

/// Telemetry instruments mirroring a [`ResidencyMeter`]'s traffic into a
/// metrics registry: acquire/release entry counters plus live-current and
/// run-peak gauges. Pure observation — attaching instruments never changes
/// what the meter itself reports.
#[derive(Debug, Clone)]
pub struct MeterInstruments {
    /// Total entries ever acquired (pins included).
    pub acquired_entries: Counter,
    /// Total entries released again.
    pub released_entries: Counter,
    /// Entries resident right now.
    pub current_entries: Gauge,
    /// Run-wide peak residency.
    pub peak_entries: Gauge,
}

impl MeterInstruments {
    /// Build the standard instrument set in `registry` under
    /// `<prefix>_acquired_entries_total` / `<prefix>_released_entries_total`
    /// / `<prefix>_current_entries` / `<prefix>_peak_entries`.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        Self {
            acquired_entries: registry.counter(
                &format!("{prefix}_acquired_entries_total"),
                "Entries acquired (made resident) by the shard streams.",
                &[],
            ),
            released_entries: registry.counter(
                &format!("{prefix}_released_entries_total"),
                "Entries released (freed) by the shard streams.",
                &[],
            ),
            current_entries: registry.gauge(
                &format!("{prefix}_current_entries"),
                "Entries resident right now.",
                &[],
            ),
            peak_entries: registry.gauge(
                &format!("{prefix}_peak_entries"),
                "Run-wide peak resident entries.",
                &[],
            ),
        }
    }
}

impl ResidencyMeter {
    /// A meter with nothing resident.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach telemetry instruments. First caller wins; later attachments
    /// are ignored so shared meters cannot be re-pointed mid-run.
    pub fn attach_instruments(&self, instruments: MeterInstruments) {
        let _ = self.instruments.set(instruments);
    }

    /// Note `entries` newly resident (a pulled shard, a growing buffer).
    pub fn acquire(&self, entries: usize) {
        let now = self.current.fetch_add(entries, Ordering::Relaxed) + entries;
        let peak = self.peak.fetch_max(now, Ordering::Relaxed).max(now);
        self.stage_peak.fetch_max(now, Ordering::Relaxed);
        if let Some(instruments) = self.instruments.get() {
            instruments.acquired_entries.add(entries as u64);
            instruments.current_entries.set(now as f64);
            instruments.peak_entries.set(peak as f64);
        }
    }

    /// Note `entries` dropped again (a shard consumed and freed).
    pub fn release(&self, entries: usize) {
        let now = self.current.fetch_sub(entries, Ordering::Relaxed) - entries;
        if let Some(instruments) = self.instruments.get() {
            instruments.released_entries.add(entries as u64);
            instruments.current_entries.set(now as f64);
        }
    }

    /// Note `entries` that stay resident from now on (an index kept for the
    /// rest of the run). Equivalent to an `acquire` with no matching
    /// `release`; named separately so call sites state their intent.
    pub fn pin(&self, entries: usize) {
        self.acquire(entries);
    }

    /// Entries resident right now.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// The highest number of entries ever resident at once.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// The highest residency since the last call to this method (or since the
    /// meter was created), then reset the watermark to the current residency.
    /// Lets a multi-stage run report an honest per-stage peak from one shared
    /// meter while [`ResidencyMeter::peak`] stays the run-wide high water.
    pub fn take_stage_peak(&self) -> usize {
        let now = self.current.load(Ordering::Relaxed);
        self.stage_peak.swap(now, Ordering::Relaxed).max(now)
    }
}

/// A source of data that is *regenerated or read shard-by-shard on demand*
/// instead of being stored: the `ReleaseEmitter` pattern generalised. A shard
/// is an indexed, self-contained batch (one hex's speed-test tile, one
/// provider's MLab tests); calling [`ShardStream::shard`] twice
/// with the same index yields the same bytes, so consumers may pull shards in
/// any order, in parallel, or twice — scheduling is never semantic, exactly
/// as with [`map_shards`].
///
/// [`ShardStream::resident_entries`] is the honesty contract inherited from
/// [`ReleaseStream`]: a genuinely streaming source reports only the bounded
/// state it keeps between calls (an offset table, an RNG key), while an
/// in-memory adapter must admit its full backing copy.
pub trait ShardStream: Sync {
    /// What one shard yields.
    type Item: Send;

    /// Number of shards; valid indices are `0..shard_count()`.
    fn shard_count(&self) -> usize;

    /// Produce shard `index` from scratch. Pure: same index, same bytes.
    fn shard(&self, index: usize) -> Vec<Self::Item>;

    /// Entries the stream itself keeps resident between `shard` calls (its
    /// backing storage or index), for peak-residency accounting.
    fn resident_entries(&self) -> usize {
        0
    }
}

/// A shard-streamed source of speed-test records (Ookla tiles, MLab tests —
/// the item type is the implementor's). A marker refinement of
/// [`ShardStream`]: implementors promise shards arrive in the canonical
/// generation order of the dataset (sorted-hex order for tiles, provider
/// order for tests), so collecting the stream reproduces the materialised
/// dataset byte for byte.
pub trait SpeedTestStream: ShardStream {}

/// Materialise a shard stream: pull every shard through [`map_shards`] and
/// concatenate in shard order. This is the thin adapter that turns any
/// streaming source back into the resident representation — the generators'
/// batch paths are exactly this call, so the two paths cannot drift.
pub fn collect_shards<S: ShardStream>(stream: &S, workers: usize) -> Vec<S::Item> {
    let indices: Vec<usize> = (0..stream.shard_count()).collect();
    map_shards(workers, &indices, |_, &i| stream.shard(i))
        .into_iter()
        .flatten()
        .collect()
}

/// Drive a shard stream to exhaustion *without* keeping it: each shard is
/// produced, handed to `consume` in shard order, then dropped, with the
/// transient residency metered. This is the bounded-memory counterpart of
/// [`collect_shards`] for stages that only need one pass.
pub fn drain_shards<S: ShardStream>(
    stream: &S,
    meter: &ResidencyMeter,
    mut consume: impl FnMut(usize, Vec<S::Item>),
) {
    meter.acquire(stream.resident_entries());
    for i in 0..stream.shard_count() {
        let shard = stream.shard(i);
        meter.acquire(shard.len());
        let n = shard.len();
        consume(i, shard);
        meter.release(n);
    }
    meter.release(stream.resident_entries());
}

/// How [`diff_releases`] schedules the per-provider merge: every mode
/// produces bit-identical changes, the mode only decides how many
/// `std::thread::scope` workers the provider shards fan across.
///
/// This is the workspace's one scheduling-mode enum — the synth crate
/// re-exports it as `GenMode` for the sharded world generator, so both
/// engines share a single `worker_count` resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffMode {
    /// One merge-join over the full streams on the calling thread.
    Sequential,
    /// One worker per available core (degrades to `Sequential` on
    /// single-core hosts, where extra workers are pure overhead).
    #[default]
    Parallel,
    /// Exactly `n` workers, even on single-core hosts — the knob the
    /// determinism tests use to force the threaded path everywhere.
    Threads(usize),
}

impl DiffMode {
    /// The number of shard workers this mode resolves to on this host.
    pub fn worker_count(self) -> usize {
        match self {
            DiffMode::Sequential => 1,
            DiffMode::Threads(n) => n.max(1),
            DiffMode::Parallel => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Memory/IO statistics of one streaming diff.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Total chunks pulled from both streams.
    pub chunks_pulled: usize,
    /// Peak number of claim entries resident at once: in-flight chunks
    /// *plus* whatever backing storage the streams themselves admit to
    /// holding ([`ReleaseStream::resident_entries`]) — so an in-memory
    /// adapter reports its full copy and only genuinely streaming sources
    /// show the two-chunk bound. Exact for the sequential merge; for the
    /// sharded merge it is the upper bound `workers × max per-shard peak`.
    pub peak_resident_entries: usize,
    /// Workers the merge fanned across (1 for the sequential path), clamped
    /// to the number of provider shards.
    pub workers: usize,
}

/// Pulls chunks from a [`ReleaseStream`] one at a time and presents a
/// peek/advance cursor over the individual entries, canonicalising runs of
/// duplicate keys as it goes.
struct ChunkCursor<S: ReleaseStream> {
    stream: S,
    chunk: Vec<ClaimEntry>,
    pos: usize,
    done: bool,
    chunks_pulled: usize,
}

impl<S: ReleaseStream> ChunkCursor<S> {
    fn new(stream: S) -> Self {
        Self {
            stream,
            chunk: Vec::new(),
            pos: 0,
            done: false,
            chunks_pulled: 0,
        }
    }

    /// The next entry's key without consuming it; pulls the next chunk when
    /// the current one is exhausted.
    fn peek_key(&mut self) -> Option<ClaimKey> {
        loop {
            if self.pos < self.chunk.len() {
                return Some(self.chunk[self.pos].key);
            }
            if self.done {
                return None;
            }
            match self.stream.next_chunk() {
                Some(next) => {
                    debug_assert!(!next.is_empty(), "ReleaseStream yielded an empty chunk");
                    debug_assert!(
                        next.windows(2).all(|w| w[0].key <= w[1].key),
                        "ReleaseStream chunk not claim-key-ordered"
                    );
                    debug_assert!(
                        self.chunk.last().is_none_or(|last| {
                            next.first().is_none_or(|first| last.key <= first.key)
                        }),
                        "ReleaseStream chunks not ordered across the boundary"
                    );
                    self.chunks_pulled += 1;
                    self.chunk = next;
                    self.pos = 0;
                }
                None => {
                    self.done = true;
                    self.chunk.clear();
                    self.pos = 0;
                }
            }
        }
    }

    /// Consume the full run of entries sharing the next key and return the
    /// canonical winner among them.
    fn next_canonical(&mut self) -> Option<ClaimEntry> {
        let key = self.peek_key()?;
        let mut best = self.chunk[self.pos];
        self.pos += 1;
        while let Some(next_key) = self.peek_key() {
            if next_key != key {
                break;
            }
            let candidate = self.chunk[self.pos];
            self.pos += 1;
            if candidate.wins_over(&best) {
                best = candidate;
            }
        }
        Some(best)
    }

    /// Entries currently resident because of this stream: the in-flight
    /// chunk plus the stream's own backing storage.
    fn resident(&self) -> usize {
        self.chunk.len() + self.stream.resident_entries()
    }
}

/// A merge-join of two claim-key-ordered release streams, yielding the
/// [`ClaimChange`]s between them in global claim-key order.
///
/// Holds at most one chunk per stream; [`StreamingDiff::stats`] reports the
/// observed peak so tests and benches can assert the bound instead of
/// trusting it.
pub struct StreamingDiff<A: ReleaseStream, B: ReleaseStream> {
    old: ChunkCursor<A>,
    new: ChunkCursor<B>,
    from: ReleaseVersion,
    to: ReleaseVersion,
    peak_resident: usize,
}

impl<A: ReleaseStream, B: ReleaseStream> StreamingDiff<A, B> {
    /// Diff `old` against `new`.
    pub fn new(old: A, new: B) -> Self {
        let from = old.version();
        let to = new.version();
        Self {
            old: ChunkCursor::new(old),
            new: ChunkCursor::new(new),
            from,
            to,
            peak_resident: 0,
        }
    }

    /// Version of the older release.
    pub fn from_version(&self) -> ReleaseVersion {
        self.from
    }

    /// Version of the newer release.
    pub fn to_version(&self) -> ReleaseVersion {
        self.to
    }

    /// Statistics observed so far (exact once the iterator is exhausted).
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            chunks_pulled: self.old.chunks_pulled + self.new.chunks_pulled,
            peak_resident_entries: self.peak_resident,
            workers: 1,
        }
    }

    fn change(&self, key: ClaimKey, kind: ClaimChangeKind) -> ClaimChange {
        ClaimChange {
            provider: key.0,
            location: key.1,
            technology: key.2,
            kind,
        }
    }

    fn note_residency(&mut self) {
        self.peak_resident = self
            .peak_resident
            .max(self.old.resident() + self.new.resident());
    }
}

impl<A: ReleaseStream, B: ReleaseStream> Iterator for StreamingDiff<A, B> {
    type Item = ClaimChange;

    fn next(&mut self) -> Option<ClaimChange> {
        loop {
            let (ka, kb) = (self.old.peek_key(), self.new.peek_key());
            self.note_residency();
            match (ka, kb) {
                (None, None) => return None,
                (Some(_), None) => {
                    let e = self.old.next_canonical()?;
                    return Some(self.change(e.key, ClaimChangeKind::Removed));
                }
                (None, Some(_)) => {
                    let e = self.new.next_canonical()?;
                    return Some(self.change(e.key, ClaimChangeKind::Added));
                }
                (Some(ka), Some(kb)) => match ka.cmp(&kb) {
                    std::cmp::Ordering::Less => {
                        let e = self.old.next_canonical()?;
                        return Some(self.change(e.key, ClaimChangeKind::Removed));
                    }
                    std::cmp::Ordering::Greater => {
                        let e = self.new.next_canonical()?;
                        return Some(self.change(e.key, ClaimChangeKind::Added));
                    }
                    std::cmp::Ordering::Equal => {
                        let a = self.old.next_canonical()?;
                        let b = self.new.next_canonical()?;
                        if a.speed_bits() != b.speed_bits() {
                            return Some(self.change(a.key, ClaimChangeKind::Modified));
                        }
                        // Unchanged claim: keep walking.
                    }
                },
            }
        }
    }
}

/// The result of one streamed release diff: every change in claim-key order,
/// plus the observed execution statistics.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    pub from: ReleaseVersion,
    pub to: ReleaseVersion,
    /// Changes in ascending claim-key order (ties impossible: one change per
    /// key).
    pub changes: Vec<ClaimChange>,
    pub stats: StreamStats,
    pub wall: Duration,
}

impl DiffOutcome {
    /// Count of changes of each kind, as `(added, removed, modified)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for c in &self.changes {
            match c.kind {
                ClaimChangeKind::Added => counts.0 += 1,
                ClaimChangeKind::Removed => counts.1 += 1,
                ClaimChangeKind::Modified => counts.2 += 1,
            }
        }
        counts
    }

    /// View the outcome as a [`MapDiff`] (for comparisons with the batch
    /// engine and for the consumers of its accessors).
    pub fn into_map_diff(self) -> MapDiff {
        MapDiff::from_changes(self.from, self.to, self.changes)
    }
}

/// Fan `f` over contiguous chunks of `items` across `workers` scoped
/// threads, returning the results in item order. `f` receives
/// `(shard_index, &item)` where `shard_index` is the item's position in
/// `items` — the same values under every schedule, so as long as `f` is
/// pure the output is bit-identical for any worker count. Degrades to a
/// plain sequential map when one worker (or one item) is available.
///
/// This is the workspace's one scoped-thread fan-out primitive: the synth
/// crate's sharded world generator re-exports it as `synth::shard::map_shards`.
pub fn map_shards<I, T, F>(workers: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, chunk_items)| {
                scope.spawn(move || {
                    chunk_items
                        .iter()
                        .enumerate()
                        .map(|(j, it)| f(ci * chunk + j, it))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Diff two releases through the streaming engine.
///
/// `Sequential` (or any single-worker resolution) runs one merge-join over
/// the full streams. Multi-worker modes shard the merge per provider: each
/// worker diffs one provider's streams, and the per-provider change lists are
/// concatenated in provider order — bit-identical to the sequential merge
/// because claim keys order by provider first.
pub fn diff_releases<A, B>(old: &A, new: &B, chunk_size: usize, mode: DiffMode) -> DiffOutcome
where
    A: ShardableRelease,
    B: ShardableRelease,
{
    let start = Instant::now();
    let workers = mode.worker_count();
    let (from, to) = (old.version(), new.version());
    if workers <= 1 {
        let mut diff = StreamingDiff::new(old.full_stream(chunk_size), new.full_stream(chunk_size));
        let changes: Vec<ClaimChange> = diff.by_ref().collect();
        return DiffOutcome {
            from,
            to,
            changes,
            stats: diff.stats(),
            wall: start.elapsed(),
        };
    }

    // Union of both releases' providers, ascending (BTreeSet dedups).
    let providers: Vec<ProviderId> = old
        .providers()
        .into_iter()
        .chain(new.providers())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    // `map_shards` never spawns more workers than there are shards; report
    // the clamped count so the stats bound reflects what could actually be
    // resident at once.
    let workers = workers.min(providers.len().max(1));
    let shard_results = map_shards(workers, &providers, |_, &provider| {
        let mut diff = StreamingDiff::new(
            old.provider_stream(provider, chunk_size),
            new.provider_stream(provider, chunk_size),
        );
        let changes: Vec<ClaimChange> = diff.by_ref().collect();
        (changes, diff.stats())
    });
    let mut changes = Vec::new();
    let mut chunks_pulled = 0;
    let mut max_shard_peak = 0;
    for (shard_changes, stats) in shard_results {
        changes.extend(shard_changes);
        chunks_pulled += stats.chunks_pulled;
        max_shard_peak = max_shard_peak.max(stats.peak_resident_entries);
    }
    DiffOutcome {
        from,
        to,
        changes,
        stats: StreamStats {
            chunks_pulled,
            // Upper bound: every worker holds at most one chunk per stream.
            peak_resident_entries: max_shard_peak * workers,
            workers,
        },
        wall: start.elapsed(),
    }
}

/// Execution report of one pairwise diff absorbed by a [`DiffChain`].
#[derive(Debug, Clone)]
pub struct DiffPairReport {
    pub from: ReleaseVersion,
    pub to: ReleaseVersion,
    pub added: usize,
    pub removed: usize,
    pub modified: usize,
    pub stats: StreamStats,
    pub wall: Duration,
}

/// Folds the pairwise diffs of N successive releases into cumulative removal
/// evidence: the claims present in the first release that are absent from the
/// last one — exactly the set `MapDiff::between(first, last).removed()`
/// recovers, but computed one release pair at a time at bounded memory.
///
/// The fold is restoration-aware: a claim removed in one release and re-added
/// in a later one is not evidence, and a claim added mid-chain and removed
/// again never was. Memory is bounded by the *churn* between releases (the
/// removed/added key sets), never by release size.
#[derive(Debug, Clone)]
pub struct DiffChain {
    from: ReleaseVersion,
    to: ReleaseVersion,
    /// Claims of the initial release currently absent from the latest seen.
    removed: BTreeSet<ClaimKey>,
    /// Claims absent from the initial release currently present.
    added: BTreeSet<ClaimKey>,
    pairs: Vec<DiffPairReport>,
}

impl DiffChain {
    /// An empty chain anchored at the initial release.
    pub fn new(initial: ReleaseVersion) -> Self {
        Self {
            from: initial,
            to: initial,
            removed: BTreeSet::new(),
            added: BTreeSet::new(),
            pairs: Vec::new(),
        }
    }

    /// Version of the chain's initial release.
    pub fn from_version(&self) -> ReleaseVersion {
        self.from
    }

    /// Version of the most recent release folded in.
    pub fn to_version(&self) -> ReleaseVersion {
        self.to
    }

    /// Fold one pairwise diff outcome into the chain. The outcome's `from`
    /// must continue where the chain currently ends.
    pub fn absorb(&mut self, outcome: DiffOutcome) {
        assert_eq!(
            outcome.from, self.to,
            "DiffChain fed a non-contiguous release pair: chain ends at {}, diff starts at {}",
            self.to, outcome.from
        );
        let (added, removed, modified) = outcome.counts();
        for change in &outcome.changes {
            let key = (change.provider, change.location, change.technology);
            match change.kind {
                ClaimChangeKind::Removed => {
                    // A claim added mid-chain and removed again nets out.
                    if !self.added.remove(&key) {
                        self.removed.insert(key);
                    }
                }
                ClaimChangeKind::Added => {
                    // A removed claim coming back is a restoration, not a new
                    // claim.
                    if !self.removed.remove(&key) {
                        self.added.insert(key);
                    }
                }
                ClaimChangeKind::Modified => {}
            }
        }
        self.to = outcome.to;
        self.pairs.push(DiffPairReport {
            from: outcome.from,
            to: outcome.to,
            added,
            removed,
            modified,
            stats: outcome.stats,
            wall: outcome.wall,
        });
    }

    /// Convenience: stream-diff `new` against the chain's current end and
    /// absorb the result.
    pub fn extend_with<A, B>(&mut self, old: &A, new: &B, chunk_size: usize, mode: DiffMode)
    where
        A: ShardableRelease,
        B: ShardableRelease,
    {
        self.absorb(diff_releases(old, new, chunk_size, mode));
    }

    /// The cumulative removal evidence in ascending claim-key order: one
    /// `Removed` change per claim of the initial release that is absent from
    /// the latest release folded in.
    pub fn removal_evidence(&self) -> Vec<ClaimChange> {
        self.removed
            .iter()
            .map(|&(provider, location, technology)| ClaimChange {
                provider,
                location,
                technology,
                kind: ClaimChangeKind::Removed,
            })
            .collect()
    }

    /// Number of net-removed claims.
    pub fn removal_count(&self) -> usize {
        self.removed.len()
    }

    /// Per-provider count of net-removed claims — the cumulative evidence
    /// the labelling pipeline consumes.
    pub fn removals_by_provider(&self) -> std::collections::BTreeMap<ProviderId, usize> {
        let mut out = std::collections::BTreeMap::new();
        for (provider, _, _) in &self.removed {
            *out.entry(*provider).or_insert(0) += 1;
        }
        out
    }

    /// Per-pair execution reports, in fold order.
    pub fn pair_reports(&self) -> &[DiffPairReport] {
        &self.pairs
    }

    /// Sum of the per-pair diff wall-clocks.
    pub fn total_wall(&self) -> Duration {
        self.pairs.iter().map(|p| p.wall).sum()
    }

    /// Peak resident entries over all folded pairs.
    pub fn peak_resident_entries(&self) -> usize {
        self.pairs
            .iter()
            .map(|p| p.stats.peak_resident_entries)
            .max()
            .unwrap_or(0)
    }

    /// Fold the chain's identity and cumulative evidence into a hasher, for
    /// pinning golden fingerprints.
    pub fn fold_evidence_into<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        (self.from, self.to).hash(h);
        self.removed.len().hash(h);
        for key in &self.removed {
            key.hash(h);
        }
        self.added.len().hash(h);
        for key in &self.added {
            key.hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LocationId;
    use crate::tech::Technology;

    fn v(minor: u32) -> ReleaseVersion {
        ReleaseVersion { major: 1, minor }
    }

    fn entry(provider: u32, loc: u64, down: f64, up: f64) -> ClaimEntry {
        ClaimEntry {
            key: (ProviderId(provider), LocationId(loc), Technology::Cable),
            max_down_mbps: down,
            max_up_mbps: up,
        }
    }

    fn stream(minor: u32, entries: Vec<ClaimEntry>, chunk: usize) -> SortedClaimStream {
        SortedClaimStream::new(v(minor), entries, chunk)
    }

    /// An in-memory `ShardableRelease` for unit tests.
    struct TestRelease {
        version: ReleaseVersion,
        entries: Vec<ClaimEntry>,
    }

    impl TestRelease {
        fn new(minor: u32, entries: Vec<ClaimEntry>) -> Self {
            Self {
                version: v(minor),
                entries,
            }
        }
    }

    impl ShardableRelease for TestRelease {
        type Stream = SortedClaimStream;

        fn version(&self) -> ReleaseVersion {
            self.version
        }

        fn providers(&self) -> Vec<ProviderId> {
            let set: BTreeSet<ProviderId> = self.entries.iter().map(|e| e.key.0).collect();
            set.into_iter().collect()
        }

        fn full_stream(&self, chunk_size: usize) -> SortedClaimStream {
            SortedClaimStream::new(self.version, self.entries.clone(), chunk_size)
        }

        fn provider_stream(&self, provider: ProviderId, chunk_size: usize) -> SortedClaimStream {
            let entries = self
                .entries
                .iter()
                .filter(|e| e.key.0 == provider)
                .copied()
                .collect();
            SortedClaimStream::new(self.version, entries, chunk_size)
        }
    }

    #[test]
    fn merge_join_detects_all_change_kinds() {
        for chunk in [1, 2, 3, 1000] {
            let old = stream(
                0,
                vec![
                    entry(1, 0, 100.0, 10.0),
                    entry(1, 1, 100.0, 10.0),
                    entry(1, 2, 100.0, 10.0),
                ],
                chunk,
            );
            let new = stream(
                1,
                vec![
                    entry(1, 0, 100.0, 10.0),
                    entry(1, 2, 300.0, 10.0),
                    entry(1, 3, 100.0, 10.0),
                ],
                chunk,
            );
            let changes: Vec<ClaimChange> = StreamingDiff::new(old, new).collect();
            assert_eq!(changes.len(), 3, "chunk={chunk}");
            assert_eq!(changes[0].location, LocationId(1));
            assert_eq!(changes[0].kind, ClaimChangeKind::Removed);
            assert_eq!(changes[1].location, LocationId(2));
            assert_eq!(changes[1].kind, ClaimChangeKind::Modified);
            assert_eq!(changes[2].location, LocationId(3));
            assert_eq!(changes[2].kind, ClaimChangeKind::Added);
        }
    }

    #[test]
    fn identical_streams_yield_no_changes() {
        let entries = vec![entry(1, 0, 50.0, 5.0), entry(2, 9, 25.0, 3.0)];
        let diff = StreamingDiff::new(stream(0, entries.clone(), 1), stream(1, entries, 2));
        assert_eq!(diff.count(), 0);
    }

    #[test]
    fn empty_streams_are_handled() {
        let changes: Vec<ClaimChange> =
            StreamingDiff::new(stream(0, vec![], 4), stream(1, vec![], 4)).collect();
        assert!(changes.is_empty());
        let additions: Vec<ClaimChange> = StreamingDiff::new(
            stream(0, vec![], 4),
            stream(1, vec![entry(1, 0, 1.0, 1.0)], 4),
        )
        .collect();
        assert_eq!(additions.len(), 1);
        assert_eq!(additions[0].kind, ClaimChangeKind::Added);
    }

    #[test]
    fn duplicate_keys_canonicalise_to_the_fastest_record() {
        // Two records for the same key; the (down, up)-greatest one wins on
        // both sides, so the claim is unchanged regardless of record order.
        let old = vec![entry(1, 0, 10.0, 1.0), entry(1, 0, 100.0, 10.0)];
        let new = vec![entry(1, 0, 100.0, 10.0), entry(1, 0, 10.0, 1.0)];
        for chunk in [1, 2, 8] {
            let changes: Vec<ClaimChange> =
                StreamingDiff::new(stream(0, old.clone(), chunk), stream(1, new.clone(), chunk))
                    .collect();
            assert!(changes.is_empty(), "chunk={chunk}: {changes:?}");
        }
        // Equal download, higher upload wins the canonicalisation.
        let a = entry(1, 0, 100.0, 5.0);
        let b = entry(1, 0, 100.0, 50.0);
        assert!(b.wins_over(&a));
        assert!(!a.wins_over(&b));
    }

    #[test]
    fn duplicate_runs_spanning_chunk_boundaries_are_canonicalised() {
        // chunk=1 forces every duplicate run across a chunk boundary.
        let old = vec![
            entry(1, 0, 10.0, 1.0),
            entry(1, 0, 500.0, 50.0),
            entry(1, 0, 100.0, 10.0),
        ];
        let new = vec![entry(1, 0, 500.0, 50.0)];
        let changes: Vec<ClaimChange> =
            StreamingDiff::new(stream(0, old, 1), stream(1, new, 1)).collect();
        assert!(changes.is_empty(), "{changes:?}");
    }

    #[test]
    fn nan_speeds_compare_by_bit_pattern() {
        let nan = f64::NAN;
        let old = vec![entry(1, 0, nan, 1.0)];
        // Same bit pattern: unchanged, not eternally Modified.
        let changes: Vec<ClaimChange> =
            StreamingDiff::new(stream(0, old.clone(), 4), stream(1, old.clone(), 4)).collect();
        assert!(changes.is_empty(), "identical NaN must not be Modified");
        // A real speed change under a NaN upload is still detected.
        let new = vec![entry(1, 0, 2.0, 1.0)];
        let changes: Vec<ClaimChange> =
            StreamingDiff::new(stream(0, old, 4), stream(1, new, 4)).collect();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].kind, ClaimChangeKind::Modified);
    }

    /// A procedurally generated stream with no backing storage — the shape
    /// of a genuinely streaming source (file reader, emitter view).
    struct GenStream {
        version: ReleaseVersion,
        next: u64,
        end: u64,
        chunk_size: usize,
    }

    impl ReleaseStream for GenStream {
        fn version(&self) -> ReleaseVersion {
            self.version
        }

        fn next_chunk(&mut self) -> Option<Vec<ClaimEntry>> {
            if self.next >= self.end {
                return None;
            }
            let n = (self.chunk_size as u64).min(self.end - self.next);
            let chunk = (self.next..self.next + n)
                .map(|i| entry(1, i, 100.0, 10.0))
                .collect();
            self.next += n;
            Some(chunk)
        }
    }

    #[test]
    fn peak_residency_is_bounded_by_two_chunks_for_streaming_sources() {
        let chunk = 64;
        let gen = |minor: u32, range: std::ops::Range<u64>| GenStream {
            version: v(minor),
            next: range.start,
            end: range.end,
            chunk_size: chunk,
        };
        let mut diff = StreamingDiff::new(gen(0, 0..1000), gen(1, 500..1500));
        let n = diff.by_ref().count();
        assert_eq!(n, 1000);
        let stats = diff.stats();
        assert!(
            stats.peak_resident_entries <= 2 * chunk,
            "peak {} exceeds two chunks of {chunk}",
            stats.peak_resident_entries
        );
        assert!(stats.chunks_pulled >= 1000 / chunk);
    }

    #[test]
    fn in_memory_adapters_admit_their_backing_storage() {
        // SortedClaimStream owns a full copy of the release; the peak stats
        // must say so rather than pretend the path is bounded.
        let old: Vec<ClaimEntry> = (0..500).map(|i| entry(1, i, 100.0, 10.0)).collect();
        let mut diff = StreamingDiff::new(stream(0, old.clone(), 64), stream(1, old, 64));
        let _ = diff.by_ref().count();
        assert!(
            diff.stats().peak_resident_entries >= 1000,
            "in-memory adapter backing storage missing from peak ({})",
            diff.stats().peak_resident_entries
        );
    }

    #[test]
    fn sharded_diff_matches_sequential_for_any_worker_count() {
        let old = TestRelease::new(
            0,
            (0..300)
                .map(|i| entry((i % 7) as u32 + 1, i, 100.0 + i as f64, 10.0))
                .collect(),
        );
        let new = TestRelease::new(
            1,
            (0..300)
                .filter(|i| i % 5 != 0)
                .map(|i| entry((i % 7) as u32 + 1, i, 100.0 + (i + i % 3) as f64, 10.0))
                .collect(),
        );
        let base = diff_releases(&old, &new, 32, DiffMode::Sequential);
        assert!(!base.changes.is_empty());
        for workers in [2, 3, 8] {
            let sharded = diff_releases(&old, &new, 32, DiffMode::Threads(workers));
            assert_eq!(
                sharded.changes, base.changes,
                "sharded diff differs at {workers} workers"
            );
            // Reported workers are clamped to the shard count (7 providers).
            assert_eq!(sharded.stats.workers, workers.min(7));
        }
    }

    #[test]
    fn diff_mode_worker_counts_resolve_sanely() {
        assert_eq!(DiffMode::Sequential.worker_count(), 1);
        assert_eq!(DiffMode::Threads(0).worker_count(), 1);
        assert_eq!(DiffMode::Threads(4).worker_count(), 4);
        assert!(DiffMode::Parallel.worker_count() >= 1);
    }

    #[test]
    fn chain_accumulates_net_removals() {
        let r0 = TestRelease::new(0, vec![entry(1, 0, 1.0, 1.0), entry(1, 1, 1.0, 1.0)]);
        let r1 = TestRelease::new(1, vec![entry(1, 0, 1.0, 1.0)]);
        let r2 = TestRelease::new(2, vec![]);
        let mut chain = DiffChain::new(v(0));
        chain.extend_with(&r0, &r1, 16, DiffMode::Sequential);
        chain.extend_with(&r1, &r2, 16, DiffMode::Sequential);
        assert_eq!(chain.removal_count(), 2);
        assert_eq!(chain.removals_by_provider()[&ProviderId(1)], 2);
        assert_eq!(chain.pair_reports().len(), 2);
        assert_eq!(chain.to_version(), v(2));
        let evidence = chain.removal_evidence();
        assert!(evidence.iter().all(|c| c.kind == ClaimChangeKind::Removed));
        assert_eq!(evidence.len(), 2);
    }

    #[test]
    fn chain_nets_out_restorations_and_transients() {
        // Key A: in r0, removed in r1, restored in r2 → no evidence.
        // Key B: absent from r0, added in r1, removed in r2 → no evidence.
        // Key C: in r0, removed in r2 → evidence.
        let a = entry(1, 0, 1.0, 1.0);
        let b = entry(1, 1, 2.0, 2.0);
        let c = entry(1, 2, 3.0, 3.0);
        let r0 = TestRelease::new(0, vec![a, c]);
        let r1 = TestRelease::new(1, vec![b, c]);
        let r2 = TestRelease::new(2, vec![a]);
        let mut chain = DiffChain::new(v(0));
        chain.extend_with(&r0, &r1, 16, DiffMode::Sequential);
        chain.extend_with(&r1, &r2, 16, DiffMode::Sequential);
        let evidence = chain.removal_evidence();
        assert_eq!(evidence.len(), 1);
        assert_eq!(evidence[0].location, LocationId(2));
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn chain_rejects_non_contiguous_pairs() {
        let r0 = TestRelease::new(0, vec![]);
        let r2 = TestRelease::new(2, vec![]);
        let mut chain = DiffChain::new(v(1));
        chain.absorb(diff_releases(&r0, &r2, 16, DiffMode::Sequential));
    }

    /// A procedural claim stream: regenerates each provider's claims from the
    /// shard index alone, holding only the provider list resident.
    struct GenClaims {
        providers: Vec<ProviderId>,
        per_provider: usize,
    }

    impl ShardStream for GenClaims {
        type Item = ClaimEntry;

        fn shard_count(&self) -> usize {
            self.providers.len()
        }

        fn shard(&self, index: usize) -> Vec<ClaimEntry> {
            let p = self.providers[index];
            (0..self.per_provider as u64)
                .map(|i| entry(p.value(), i, 100.0 + i as f64, 10.0))
                .collect()
        }

        fn resident_entries(&self) -> usize {
            self.providers.len()
        }
    }

    #[test]
    fn residency_meter_tracks_peak_across_acquire_release() {
        let m = ResidencyMeter::new();
        m.acquire(100);
        m.release(100);
        m.acquire(60);
        m.pin(10);
        assert_eq!(m.current(), 70);
        assert_eq!(m.peak(), 100, "peak must survive release");
        m.acquire(50);
        assert_eq!(m.peak(), 120);
    }

    #[test]
    fn meter_instruments_mirror_traffic_without_changing_accounting() {
        let registry = MetricsRegistry::new();
        let m = ResidencyMeter::new();
        m.attach_instruments(MeterInstruments::register(&registry, "stream_residency"));
        m.acquire(100);
        m.release(40);
        m.pin(10);
        // The meter's own accounting is untouched by instrumentation.
        assert_eq!(m.current(), 70);
        assert_eq!(m.peak(), 100);
        // The registry sees the same traffic.
        let acquired = registry.counter("stream_residency_acquired_entries_total", "", &[]);
        assert_eq!(acquired.value(), 110, "pin counts as an acquire");
        let released = registry.counter("stream_residency_released_entries_total", "", &[]);
        assert_eq!(released.value(), 40);
        let current = registry.gauge("stream_residency_current_entries", "", &[]);
        assert_eq!(current.value(), 70.0);
        let peak = registry.gauge("stream_residency_peak_entries", "", &[]);
        assert_eq!(peak.value(), 100.0);
        // Second attachment is ignored: first wins.
        let other = MetricsRegistry::new();
        m.attach_instruments(MeterInstruments::register(&other, "stream_residency"));
        m.acquire(5);
        assert_eq!(acquired.value(), 115);
        assert_eq!(
            other
                .counter("stream_residency_acquired_entries_total", "", &[])
                .value(),
            0
        );
    }

    #[test]
    fn collect_shards_is_worker_count_invariant() {
        let stream = GenClaims {
            providers: (1..=9).map(ProviderId).collect(),
            per_provider: 37,
        };
        let base = collect_shards(&stream, 1);
        assert_eq!(base.len(), 9 * 37);
        // Shards concatenate in provider order → sorted claim base.
        assert!(base.windows(2).all(|w| w[0].key <= w[1].key));
        for workers in [2, 4, 16] {
            assert_eq!(collect_shards(&stream, workers), base);
        }
    }

    #[test]
    fn drain_shards_bounds_residency_to_one_shard() {
        let stream = GenClaims {
            providers: (1..=9).map(ProviderId).collect(),
            per_provider: 37,
        };
        let meter = ResidencyMeter::new();
        let mut seen = 0usize;
        let mut order = Vec::new();
        drain_shards(&stream, &meter, |i, shard| {
            seen += shard.len();
            order.push(i);
        });
        assert_eq!(seen, 9 * 37);
        assert_eq!(order, (0..9).collect::<Vec<_>>());
        assert_eq!(meter.current(), 0, "everything released after the drain");
        assert!(
            meter.peak() <= 37 + stream.resident_entries(),
            "peak {} exceeds one shard + backing state",
            meter.peak()
        );
    }
}
