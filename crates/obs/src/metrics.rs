//! Lock-free metric instruments and the registry that encodes them.
//!
//! Three instrument kinds, all recordable from any thread without taking a
//! lock on the hot path:
//!
//! * [`Counter`] — a monotone `AtomicU64`. `inc`/`add` are single relaxed
//!   RMW operations.
//! * [`Gauge`] — an `AtomicU64` holding `f64` bits. `set` is one store;
//!   `add` is a short CAS loop (gauges move rarely compared to counters).
//! * [`Histogram`] — fixed upper-bound buckets (`AtomicU64` each) plus a
//!   count and an `f64` sum, from which p50/p99 are derivable without
//!   storing individual observations.
//!
//! Every instrument handle is internally an `Option<Arc<…>>`: a **noop**
//! handle (`None`) makes recording a single branch, so instrumented code
//! paths cost nothing measurable when telemetry is disabled, and an
//! **active** handle is a clone of the registry-owned core, so recording
//! never goes through the registry again after creation.
//!
//! [`MetricsRegistry`] maps `(name, sorted label pairs)` to instrument
//! cores, get-or-create style, and renders two snapshot formats:
//! [`MetricsRegistry::encode_prometheus`] (the text exposition format, with
//! cumulative `_bucket`/`_sum`/`_count` histogram series) and
//! [`MetricsRegistry::snapshot_json`] (a strict-JSON snapshot with derived
//! p50/p99 per histogram). Existing active handles can also be **adopted**
//! into a registry, so a subsystem that keeps its own counters (server
//! stats, model-registry lifecycle events) exposes the *same atomics* on
//! the scrape endpoint instead of double-bookkeeping.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Default latency buckets in seconds: 100µs … 10s, roughly log-spaced —
/// wide enough for a loopback `/healthz` and a 64-row `/score` alike.
pub const DEFAULT_LATENCY_BUCKETS: [f64; 16] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Default stage wall-clock buckets in seconds: 500µs … 2h — a tiny test
/// world's stage and the national regulatory pass land in-range.
pub const DEFAULT_WALL_BUCKETS: [f64; 12] = [
    0.0005, 0.005, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0, 1800.0, 3600.0, 7200.0,
];

// ---------------------------------------------------------------------------
// Instrument cores and handles

#[derive(Debug, Default)]
struct CounterCore {
    value: AtomicU64,
}

/// A monotone counter handle. Cheap to clone; recording is one relaxed
/// `fetch_add` (or a single branch when the handle is a noop).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<CounterCore>>);

impl Counter {
    /// A handle that records nothing and reads zero.
    pub fn noop() -> Self {
        Self(None)
    }

    /// A live counter not (yet) attached to any registry — the form
    /// subsystems use for always-on bookkeeping that a registry may later
    /// [adopt](MetricsRegistry::adopt_counter).
    pub fn active() -> Self {
        Self(Some(Arc::new(CounterCore::default())))
    }

    /// Whether this handle records anywhere.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.0 {
            core.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (zero for a noop handle).
    pub fn value(&self) -> u64 {
        self.0
            .as_ref()
            .map(|core| core.value.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[derive(Debug)]
struct GaugeCore {
    bits: AtomicU64,
}

impl Default for GaugeCore {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// A gauge handle: an arbitrary `f64` that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCore>>);

impl Gauge {
    /// A handle that records nothing and reads zero.
    pub fn noop() -> Self {
        Self(None)
    }

    /// A live gauge not (yet) attached to any registry.
    pub fn active() -> Self {
        Self(Some(Arc::new(GaugeCore::default())))
    }

    /// Whether this handle records anywhere.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Set the gauge.
    pub fn set(&self, value: f64) {
        if let Some(core) = &self.0 {
            core.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Move the gauge by `delta` (may be negative). A short CAS loop —
    /// gauges move orders of magnitude less often than counters.
    pub fn add(&self, delta: f64) {
        if let Some(core) = &self.0 {
            let _ = core
                .bits
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                    Some((f64::from_bits(bits) + delta).to_bits())
                });
        }
    }

    /// Current value (zero for a noop handle).
    pub fn value(&self) -> f64 {
        self.0
            .as_ref()
            .map(|core| f64::from_bits(core.bits.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite upper bounds, strictly increasing. The implicit final bucket
    /// is `+Inf`.
    bounds: Box<[f64]>,
    /// Per-bucket observation counts, `bounds.len() + 1` long (non
    /// cumulative; the encoder accumulates).
    buckets: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Self {
            bounds: bounds.into(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, value: f64) {
        // `le` semantics: a value lands in the first bucket whose upper
        // bound is >= it; NaN (never comparable) lands in +Inf.
        let idx = if value.is_nan() {
            self.bounds.len()
        } else {
            self.bounds.partition_point(|b| *b < value)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
    }

    /// Non-cumulative bucket snapshot (one read per bucket).
    fn bucket_snapshot(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// A live histogram with the given finite, strictly increasing upper
    /// bounds, not (yet) attached to any registry.
    pub fn active(bounds: &[f64]) -> Self {
        Self(Some(Arc::new(HistogramCore::new(bounds))))
    }

    /// Whether this handle records anywhere.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        if let Some(core) = &self.0 {
            core.observe(value);
        }
    }

    /// Record a duration in seconds — the latency-histogram entry point.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map(|core| core.bucket_snapshot().iter().sum())
            .unwrap_or(0)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.0.as_ref().map(|core| core.sum()).unwrap_or(0.0)
    }

    /// Derive the `q`-quantile (`0.0..=1.0`) from the buckets by linear
    /// interpolation within the containing bucket — the same estimate
    /// `histogram_quantile` makes. `NaN` when empty or for a noop handle.
    pub fn quantile(&self, q: f64) -> f64 {
        let Some(core) = &self.0 else {
            return f64::NAN;
        };
        let buckets = core.bucket_snapshot();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, n) in buckets.iter().enumerate() {
            let next = cumulative + n;
            if rank <= next && *n > 0 {
                if i == core.bounds.len() {
                    // The +Inf bucket has no upper bound to interpolate to;
                    // the last finite bound is the honest best estimate.
                    return core.bounds.last().copied().unwrap_or(f64::NAN);
                }
                let lower = if i == 0 {
                    0.0_f64.min(core.bounds[0])
                } else {
                    core.bounds[i - 1]
                };
                let fraction = (rank - cumulative) as f64 / *n as f64;
                return lower + (core.bounds[i] - lower) * fraction;
            }
            cumulative = next;
        }
        core.bounds.last().copied().unwrap_or(f64::NAN)
    }
}

// ---------------------------------------------------------------------------
// The registry

/// The three Prometheus metric kinds the registry exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn prom(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

/// Sorted `(key, value)` label pairs — the series key within a family.
type LabelSet = Vec<(String, String)>;

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<LabelSet, Series>,
}

/// A process- or subsystem-scoped metric registry.
///
/// `counter`/`gauge`/`histogram` are get-or-create: the first call with a
/// `(name, labels)` pair creates the series, later calls return a handle to
/// the same core — so hot paths create their handles once and record
/// lock-free thereafter. Asking for an existing name with a *different*
/// kind is a programming error and returns a noop handle (debug builds
/// assert), never a panic in a serving worker.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().enumerate().all(|(i, b)| {
            b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit())
        })
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the series for `(name, labels)`, with `make` supplying
    /// the core on first creation. `None` on a kind conflict.
    fn series(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Option<Series> {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let key = label_set(labels);
        {
            let families = self.families.read().expect("metrics lock poisoned");
            if let Some(family) = families.get(name) {
                if family.kind != kind {
                    debug_assert!(false, "metric {name} registered as {:?}", family.kind);
                    return None;
                }
                if let Some(series) = family.series.get(&key) {
                    return Some(series.clone());
                }
            }
        }
        let mut families = self.families.write().expect("metrics lock poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        if family.kind != kind {
            debug_assert!(false, "metric {name} registered as {:?}", family.kind);
            return None;
        }
        Some(family.series.entry(key).or_insert_with(make).clone())
    }

    /// Get or create a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels, || {
            Series::Counter(Arc::new(CounterCore::default()))
        }) {
            Some(Series::Counter(core)) => Counter(Some(core)),
            _ => Counter::noop(),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, labels, || {
            Series::Gauge(Arc::new(GaugeCore::default()))
        }) {
            Some(Series::Gauge(core)) => Gauge(Some(core)),
            _ => Gauge::noop(),
        }
    }

    /// Get or create a histogram series. `bounds` only applies on first
    /// creation; later calls return the existing series whatever bounds
    /// they pass.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.series(name, help, MetricKind::Histogram, labels, || {
            Series::Histogram(Arc::new(HistogramCore::new(bounds)))
        }) {
            Some(Series::Histogram(core)) => Histogram(Some(core)),
            _ => Histogram::noop(),
        }
    }

    /// Expose an existing active counter as a registry series — the
    /// one-source-of-truth path for subsystems that keep their own
    /// always-on counters. The registry series *is* the caller's atomic;
    /// incrementing either view moves both. Returns `false` for a noop
    /// handle or a kind conflict.
    pub fn adopt_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        counter: &Counter,
    ) -> bool {
        let Some(core) = &counter.0 else { return false };
        self.adopt(
            name,
            help,
            MetricKind::Counter,
            labels,
            Series::Counter(Arc::clone(core)),
        )
    }

    /// Expose an existing active gauge as a registry series (see
    /// [`MetricsRegistry::adopt_counter`]).
    pub fn adopt_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        gauge: &Gauge,
    ) -> bool {
        let Some(core) = &gauge.0 else { return false };
        self.adopt(
            name,
            help,
            MetricKind::Gauge,
            labels,
            Series::Gauge(Arc::clone(core)),
        )
    }

    fn adopt(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        series: Series,
    ) -> bool {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut families = self.families.write().expect("metrics lock poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        if family.kind != kind {
            debug_assert!(false, "metric {name} registered as {:?}", family.kind);
            return false;
        }
        family.series.insert(label_set(labels), series);
        true
    }

    /// Number of registered series across all families.
    pub fn series_count(&self) -> usize {
        self.families
            .read()
            .expect("metrics lock poisoned")
            .values()
            .map(|f| f.series.len())
            .sum()
    }

    /// Render the Prometheus text exposition format (version 0.0.4):
    /// `# HELP`/`# TYPE` per family, one line per series, histograms as
    /// cumulative `_bucket{le=…}` series plus `_sum` and `_count`.
    ///
    /// Bucket lines and `_count` are computed from one bucket snapshot, so
    /// cumulativity and `le="+Inf" == _count` hold within every scrape even
    /// under concurrent recording.
    pub fn encode_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let families = self.families.read().expect("metrics lock poisoned");
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&escape_help(&family.help));
            out.push_str("\n# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.prom());
            out.push('\n');
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(core) => {
                        push_series_line(
                            &mut out,
                            name,
                            labels,
                            None,
                            &core.value.load(Ordering::Relaxed).to_string(),
                        );
                    }
                    Series::Gauge(core) => {
                        push_series_line(
                            &mut out,
                            name,
                            labels,
                            None,
                            &fmt_value(f64::from_bits(core.bits.load(Ordering::Relaxed))),
                        );
                    }
                    Series::Histogram(core) => {
                        let snapshot = core.bucket_snapshot();
                        let mut cumulative = 0u64;
                        let bucket_name = format!("{name}_bucket");
                        for (i, n) in snapshot.iter().enumerate() {
                            cumulative += n;
                            let le = match core.bounds.get(i) {
                                Some(b) => fmt_value(*b),
                                None => "+Inf".to_string(),
                            };
                            push_series_line(
                                &mut out,
                                &bucket_name,
                                labels,
                                Some(("le", &le)),
                                &cumulative.to_string(),
                            );
                        }
                        push_series_line(
                            &mut out,
                            &format!("{name}_sum"),
                            labels,
                            None,
                            &fmt_value(core.sum()),
                        );
                        push_series_line(
                            &mut out,
                            &format!("{name}_count"),
                            labels,
                            None,
                            &cumulative.to_string(),
                        );
                    }
                }
            }
        }
        out
    }

    /// Render a strict-JSON snapshot of every family: counters and gauges
    /// with their value, histograms with count, sum, derived p50/p99 and
    /// the cumulative bucket table. Non-finite floats serialize as `null`.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        let families = self.families.read().expect("metrics lock poisoned");
        for (fi, (name, family)) in families.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(&escape_json(name));
            out.push_str("\",\"kind\":\"");
            out.push_str(family.kind.prom());
            out.push_str("\",\"help\":\"");
            out.push_str(&escape_json(&family.help));
            out.push_str("\",\"series\":[");
            for (si, (labels, series)) in family.series.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (li, (k, v)) in labels.iter().enumerate() {
                    if li > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str("\":\"");
                    out.push_str(&escape_json(v));
                    out.push('"');
                }
                out.push('}');
                match series {
                    Series::Counter(core) => {
                        out.push_str(",\"value\":");
                        out.push_str(&core.value.load(Ordering::Relaxed).to_string());
                    }
                    Series::Gauge(core) => {
                        out.push_str(",\"value\":");
                        push_json_number(
                            &mut out,
                            f64::from_bits(core.bits.load(Ordering::Relaxed)),
                        );
                    }
                    Series::Histogram(core) => {
                        let handle = Histogram(Some(Arc::clone(core)));
                        let snapshot = core.bucket_snapshot();
                        let total: u64 = snapshot.iter().sum();
                        out.push_str(",\"count\":");
                        out.push_str(&total.to_string());
                        out.push_str(",\"sum\":");
                        push_json_number(&mut out, core.sum());
                        out.push_str(",\"p50\":");
                        push_json_number(&mut out, handle.quantile(0.50));
                        out.push_str(",\"p99\":");
                        push_json_number(&mut out, handle.quantile(0.99));
                        out.push_str(",\"buckets\":[");
                        let mut cumulative = 0u64;
                        for (i, n) in snapshot.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            cumulative += n;
                            out.push_str("{\"le\":");
                            match core.bounds.get(i) {
                                Some(b) => push_json_number(&mut out, *b),
                                None => out.push_str("\"+Inf\""),
                            }
                            out.push_str(",\"cumulative\":");
                            out.push_str(&cumulative.to_string());
                            out.push('}');
                        }
                        out.push(']');
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// `name{labels,extra} value\n`, with label values escaped per the text
/// exposition format.
fn push_series_line(
    out: &mut String,
    name: &str,
    labels: &LabelSet,
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    let n_labels = labels.len() + extra.is_some() as usize;
    if n_labels > 0 {
        out.push('{');
        let mut first = true;
        for (k, v) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra)
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Escape a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape HELP text: `\` → `\\`, newline → `\n` (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus float rendering: shortest round-trip decimal, with the
/// spec's spellings for the non-finite values.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// JSON float rendering: non-finite values are not JSON, so they become
/// `null` (the same strictness contract the score endpoint keeps).
fn push_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        use std::fmt::Write as _;
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The body of a JSON string literal holding `s`: quotes, backslashes and
/// control characters escaped. Shared by the metrics snapshot, the trace
/// sink and the score server's responses.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_noop_and_active() {
        let noop = Counter::noop();
        noop.inc();
        assert_eq!(noop.value(), 0);
        assert!(!noop.is_active());

        let counter = Counter::active();
        counter.inc();
        counter.add(41);
        assert_eq!(counter.value(), 42);
        // Clones share the core.
        let clone = counter.clone();
        clone.inc();
        assert_eq!(counter.value(), 43);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let gauge = Gauge::active();
        gauge.set(10.5);
        gauge.add(-3.25);
        assert_eq!(gauge.value(), 7.25);
        gauge.add(1.0);
        assert_eq!(gauge.value(), 8.25);
        let noop = Gauge::noop();
        noop.set(99.0);
        assert_eq!(noop.value(), 0.0);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let hist = Histogram::active(&[0.1, 1.0, 10.0]);
        for v in [0.05, 0.1, 0.5, 2.0, 50.0, f64::NAN] {
            hist.observe(v);
        }
        assert_eq!(hist.count(), 6);
        // 0.05 and 0.1 land in le=0.1 (le is inclusive), 0.5 in le=1, 2.0 in
        // le=10, 50 and NaN in +Inf.
        let core = hist.0.as_ref().unwrap();
        assert_eq!(core.bucket_snapshot(), vec![2, 1, 1, 2]);
        let finite_sum: f64 = [0.05, 0.1, 0.5, 2.0, 50.0].iter().sum();
        assert!(hist.sum().is_nan(), "NaN observation poisons the sum only");
        // A NaN-free histogram sums exactly.
        let clean = Histogram::active(&[0.1, 1.0, 10.0]);
        for v in [0.05, 0.1, 0.5, 2.0, 50.0] {
            clean.observe(v);
        }
        assert_eq!(clean.sum(), finite_sum);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let hist = Histogram::active(&[1.0, 2.0, 4.0]);
        assert!(hist.quantile(0.5).is_nan(), "empty histogram has no median");
        for _ in 0..10 {
            hist.observe(1.5); // all in (1, 2]
        }
        let p50 = hist.quantile(0.5);
        assert!((1.0..=2.0).contains(&p50), "p50 {p50} outside its bucket");
        // p99 also in the same bucket.
        let p99 = hist.quantile(0.99);
        assert!((1.0..=2.0).contains(&p99));
        hist.observe(100.0); // +Inf bucket
        assert_eq!(
            hist.quantile(1.0),
            4.0,
            "+Inf quantile clamps to last bound"
        );
        assert!(Histogram::noop().quantile(0.5).is_nan());
    }

    #[test]
    fn registry_get_or_create_returns_shared_cores() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("requests_total", "Requests.", &[("route", "/score")]);
        let b = registry.counter("requests_total", "Requests.", &[("route", "/score")]);
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2, "same (name, labels) must share one core");
        let other = registry.counter("requests_total", "Requests.", &[("route", "/healthz")]);
        assert_eq!(other.value(), 0);
        assert_eq!(registry.series_count(), 2);
        // Label order never splits a series.
        let swapped = registry.counter("multi_total", "x", &[("b", "2"), ("a", "1")]);
        swapped.inc();
        assert_eq!(
            registry
                .counter("multi_total", "x", &[("a", "1"), ("b", "2")])
                .value(),
            1
        );
    }

    #[test]
    fn kind_conflicts_yield_noop_handles() {
        // A release-mode server worker must never panic on a metric-name
        // collision; the wrong-kind handle is inert instead.
        let registry = MetricsRegistry::new();
        registry.counter("x_total", "x", &[]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.gauge("x_total", "x", &[])
        }));
        // Debug builds assert instead; both behaviours keep the invariant
        // "a conflicting handle never records".
        if let Ok(gauge) = result {
            assert!(!gauge.is_active());
        }
    }

    #[test]
    fn adopt_counter_exposes_the_same_atomic() {
        let registry = MetricsRegistry::new();
        let stats_counter = Counter::active();
        stats_counter.add(7);
        assert!(registry.adopt_counter("requests_total", "Requests.", &[], &stats_counter));
        let adopted = registry.counter("requests_total", "Requests.", &[]);
        adopted.add(3);
        assert_eq!(stats_counter.value(), 10, "adoption must share the atomic");
        assert!(
            !registry.adopt_counter("noop_total", "x", &[], &Counter::noop()),
            "a noop handle has nothing to adopt"
        );
        let text = registry.encode_prometheus();
        assert!(text.contains("requests_total 10"), "{text}");
    }

    #[test]
    fn prometheus_encoding_escapes_names_and_labels() {
        let registry = MetricsRegistry::new();
        registry
            .counter(
                "weird_total",
                "help with \\ backslash\nand newline",
                &[("path", "a\"b\\c\nd")],
            )
            .inc();
        let text = registry.encode_prometheus();
        assert!(
            text.contains("# HELP weird_total help with \\\\ backslash\\nand newline"),
            "{text}"
        );
        assert!(
            text.contains("weird_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
        assert!(text.contains("# TYPE weird_total counter"), "{text}");
    }

    #[test]
    fn prometheus_histogram_is_cumulative_and_consistent() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("latency_seconds", "Latency.", &[0.1, 1.0, 10.0], &[]);
        for v in [0.05, 0.5, 0.5, 5.0, 100.0] {
            hist.observe(v);
        }
        let text = registry.encode_prometheus();

        // Extract the bucket counts in order and assert cumulativity.
        let mut cumulative = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("latency_seconds_bucket{le=\"") {
                let (_, value) = rest.split_once("\"} ").expect("bucket line shape");
                cumulative.push(value.parse::<u64>().expect("bucket count"));
            }
        }
        assert_eq!(cumulative, vec![1, 3, 4, 5], "buckets must accumulate");
        assert!(
            cumulative.windows(2).all(|w| w[0] <= w[1]),
            "cumulative bucket counts must be non-decreasing"
        );
        // `le="+Inf"` equals `_count`, and `_sum` is the exact total.
        assert!(text.contains("latency_seconds_count 5"), "{text}");
        assert!(
            text.contains("latency_seconds_bucket{le=\"+Inf\"} 5"),
            "{text}"
        );
        let sum: f64 = [0.05, 0.5, 0.5, 5.0, 100.0].iter().sum();
        assert!(
            text.contains(&format!("latency_seconds_sum {sum}")),
            "{text}"
        );
        // HELP/TYPE appear exactly once for the family.
        assert_eq!(text.matches("# TYPE latency_seconds histogram").count(), 1);
    }

    #[test]
    fn prometheus_value_spellings() {
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(fmt_value(0.25), "0.25");
    }

    #[test]
    fn json_snapshot_is_structurally_sound() {
        let registry = MetricsRegistry::new();
        registry
            .counter("a_total", "A \"quoted\" help.", &[("k", "v")])
            .add(3);
        registry.gauge("g", "G.", &[]).set(1.5);
        let hist = registry.histogram("h_seconds", "H.", &[1.0, 2.0], &[]);
        hist.observe(1.5);
        let json = registry.snapshot_json();
        assert!(json.starts_with("{\"metrics\":["), "{json}");
        assert!(json.contains("\"name\":\"a_total\""), "{json}");
        assert!(json.contains("\"A \\\"quoted\\\" help.\""), "{json}");
        assert!(json.contains("\"value\":3"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"le\":\"+Inf\""), "{json}");
        // Balanced braces/brackets (cheap structural check; the serve-side
        // loopback tests run a strict JSON parser over the same payload).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
