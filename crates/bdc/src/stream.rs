//! Shard streams, residency metering and the workspace's worker schedule.
//!
//! * [`ClaimEntry`] — the compact `(claim key, speeds)` projection of an
//!   availability record that [`MapDiff::between`](crate::MapDiff::between)
//!   merges, with the one duplicate-key rule ([`ClaimEntry::wins_over`]).
//! * [`ShardStream`] and [`SpeedTestStream`] — sources regenerated or read
//!   shard by shard on demand, drained by [`drain_shards`] or collected by
//!   [`collect_shards`]; [`SliceShards`] streams records already resident.
//! * [`ResidencyMeter`] — honest peak-residency accounting shared by every
//!   streaming stage, mirrored into telemetry by [`MeterInstruments`].
//! * [`map_shards`] and [`DiffMode`] — the one scoped-thread fan-out and the
//!   one worker-count enum every parallel stage in the workspace uses.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use obs::{Counter, Gauge, MetricsRegistry};

use crate::filing::AvailabilityRecord;
use crate::nbm::ClaimKey;

/// The compact projection of an availability record a release diff operates
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
    /// [`MapDiff::between`](crate::MapDiff::between) resolves duplicates with
    /// this rule, so a release with duplicate keys still diffs
    /// deterministically (instead of depending on record order).
    pub fn wins_over(&self, other: &Self) -> bool {
        speed_pair_wins(
            (self.max_down_mbps, self.max_up_mbps),
            (other.max_down_mbps, other.max_up_mbps),
        )
    }
}

/// The one `(down, up)` tie-break the crate uses wherever two speed claims
/// compete: lexicographically greater under `f64::total_cmp` wins. Shared by
/// the release diff's duplicate-key canonicalisation and by the hex-level
/// aggregation in [`crate::nbm`], so the rules can never drift apart.
pub fn speed_pair_wins(candidate: (f64, f64), incumbent: (f64, f64)) -> bool {
    candidate
        .0
        .total_cmp(&incumbent.0)
        .then(candidate.1.total_cmp(&incumbent.1))
        .is_gt()
}

/// Thread-safe peak-residency accounting for shard streams, so every
/// streaming stage (fabric, claims, speed tests, labels, features) can report
/// what it actually held resident rather than what it hoped to.
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
/// [`ShardStream::resident_entries`] is the honesty contract: a genuinely
/// streaming source reports only the bounded state it keeps between calls
/// (an offset table, an RNG key), while an in-memory adapter must admit its
/// full backing copy.
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

/// Entries per [`SliceShards`] shard: the MLab attributor's test block, so a
/// resident source's test shards are exactly the blocks the attributor fans
/// out.
const SLICE_CHUNK: usize = 4096;

/// Records that are already resident, handed out as a [`SpeedTestStream`] in
/// 4096-entry shards, in slice order. The slice stays resident in its owner,
/// so `resident_entries` admits all of it: the meter charges what is
/// actually held, not what a shard happens to hand out.
pub struct SliceShards<'a, T> {
    items: &'a [T],
}

impl<'a, T> SliceShards<'a, T> {
    /// Stream a resident slice.
    pub fn new(items: &'a [T]) -> Self {
        Self { items }
    }
}

impl<T: Clone + Send + Sync> ShardStream for SliceShards<'_, T> {
    type Item = T;

    fn shard_count(&self) -> usize {
        self.items.len().div_ceil(SLICE_CHUNK)
    }

    fn shard(&self, index: usize) -> Vec<T> {
        let start = index * SLICE_CHUNK;
        let end = (start + SLICE_CHUNK).min(self.items.len());
        self.items[start..end].to_vec()
    }

    fn resident_entries(&self) -> usize {
        self.items.len()
    }
}

impl<T: Clone + Send + Sync> SpeedTestStream for SliceShards<'_, T> {}

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

/// How many `std::thread::scope` workers a sharded stage fans across. Every
/// mode produces bit-identical output; the mode is a scheduling decision,
/// never a semantic one.
///
/// This is the workspace's one scheduling enum: the synth crate re-exports
/// it as `GenMode`, `core` as `LabelMode`, and `serve` as `ScoreMode`, so
/// every parallel stage shares one `worker_count` resolution. The name is
/// historical; no release diff takes a mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffMode {
    /// Everything on the calling thread.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LocationId, ProviderId};
    use crate::tech::Technology;

    fn entry(provider: u32, loc: u64, down: f64, up: f64) -> ClaimEntry {
        ClaimEntry {
            key: (ProviderId(provider), LocationId(loc), Technology::Cable),
            max_down_mbps: down,
            max_up_mbps: up,
        }
    }

    #[test]
    fn equal_download_breaks_ties_by_upload() {
        let a = entry(1, 0, 100.0, 5.0);
        let b = entry(1, 0, 100.0, 50.0);
        assert!(b.wins_over(&a));
        assert!(!a.wins_over(&b));
    }

    #[test]
    fn diff_mode_worker_counts_resolve_sanely() {
        assert_eq!(DiffMode::Sequential.worker_count(), 1);
        assert_eq!(DiffMode::Threads(0).worker_count(), 1);
        assert_eq!(DiffMode::Threads(4).worker_count(), 4);
        assert!(DiffMode::Parallel.worker_count() >= 1);
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
    fn slice_shards_chunk_in_order_and_admit_the_whole_slice() {
        let items: Vec<usize> = (0..2 * SLICE_CHUNK + 5).collect();
        let shards = SliceShards::new(&items);
        assert_eq!(shards.shard_count(), 3);
        assert_eq!(shards.resident_entries(), items.len());
        assert_eq!(shards.shard(2), items[2 * SLICE_CHUNK..]);
        assert_eq!(collect_shards(&shards, 2), items);

        let empty = SliceShards::<usize>::new(&[]);
        assert_eq!(empty.shard_count(), 0);
        assert_eq!(empty.resident_entries(), 0);
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
