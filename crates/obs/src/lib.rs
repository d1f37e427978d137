//! End-to-end telemetry for the red-is-sus reproduction.
//!
//! Everything here is hand-rolled on `std` — no new dependencies, matching
//! the workspace's vendored-stub philosophy — and everything is
//! **observation-only**: no instrument touches RNG state, changes iteration
//! order, or otherwise perturbs the deterministic data path, so golden
//! fingerprints are byte-identical with telemetry on or off.
//!
//! Two pieces:
//!
//! * [`MetricsRegistry`] + [`Counter`]/[`Gauge`]/[`Histogram`] — lock-free
//!   recording, Prometheus text exposition
//!   ([`MetricsRegistry::encode_prometheus`]) and a strict-JSON snapshot
//!   ([`MetricsRegistry::snapshot_json`]) with derived p50/p99.
//! * [`TraceSink`] — a JSONL event sink producing a replayable
//!   per-stage/per-shard timeline (`--trace-out` on the national example
//!   and `redsus-score serve`).
//!
//! [`Telemetry`] bundles an optional registry and an optional trace sink
//! into the single handle the pipeline, streaming runner, and score server
//! thread through their layers. A disabled handle ([`Telemetry::disabled`])
//! makes every recording call a branch-on-`None` — the
//! zero-cost-when-disabled contract.

mod metrics;
mod trace;

pub use metrics::{
    escape_json, Counter, Gauge, Histogram, MetricKind, MetricsRegistry, DEFAULT_LATENCY_BUCKETS,
    DEFAULT_WALL_BUCKETS,
};
pub use trace::{TraceSink, TraceValue};

use std::sync::Arc;

/// The telemetry handle a subsystem threads through its layers: an
/// optional metrics registry plus an optional trace sink. Cloning is two
/// `Arc` bumps; every accessor on a disabled handle is a branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<TraceSink>>,
}

impl Telemetry {
    /// No metrics, no tracing: every instrument handed out is a noop.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Record metrics into `registry`.
    pub fn with_metrics(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            metrics: Some(registry),
            trace: None,
        }
    }

    /// Attach a trace sink (builder-style).
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Whether any backend (metrics or trace) is attached.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some() || self.trace.is_some()
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// Get-or-create a counter (noop when no registry is attached).
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.metrics {
            Some(registry) => registry.counter(name, help, labels),
            None => Counter::noop(),
        }
    }

    /// Get-or-create a gauge (noop when no registry is attached).
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.metrics {
            Some(registry) => registry.gauge(name, help, labels),
            None => Gauge::noop(),
        }
    }

    /// Get-or-create a histogram (noop when no registry is attached).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match &self.metrics {
            Some(registry) => registry.histogram(name, help, bounds, labels),
            None => Histogram::noop(),
        }
    }

    /// Emit a trace event (dropped when no sink is attached).
    pub fn emit(&self, kind: &str, name: &str, fields: &[(&str, TraceValue<'_>)]) {
        if let Some(sink) = &self.trace {
            sink.emit(kind, name, fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_hands_out_noops() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        let counter = telemetry.counter("x_total", "x", &[]);
        counter.inc();
        assert_eq!(counter.value(), 0);
        assert!(!telemetry
            .histogram("h", "h", &DEFAULT_LATENCY_BUCKETS, &[])
            .is_active());
        telemetry.emit("stage", "nothing", &[]); // must not panic
    }

    #[test]
    fn enabled_handle_records_into_its_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let telemetry = Telemetry::with_metrics(Arc::clone(&registry));
        assert!(telemetry.is_enabled());
        telemetry.counter("runs_total", "Runs.", &[]).inc();
        assert_eq!(registry.counter("runs_total", "Runs.", &[]).value(), 1);
    }
}
