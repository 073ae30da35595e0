//! Control-plane self-observability: a lightweight metrics registry with
//! RAII span timers, turned inward onto the adaptation framework itself.
//!
//! The `tracestore` crate observes the *simulated system*; this crate
//! observes the *framework* — where a control tick spends its time, how many
//! allocator epochs and probe solves a run costs, how large the planner's
//! class census is. Two hard design rules keep the rest of the repo's
//! determinism guarantees intact:
//!
//! 1. **Deterministic counters and gauges are separated from wall-clock
//!    histograms.** Counters and gauges record simulation behaviour (solve
//!    counts, op counts, census sizes) and are byte-identical across worker
//!    counts; they may be folded into sweep reports and trace stores.
//!    Histograms record wall-clock nanoseconds and are explicitly
//!    nondeterministic; they surface only through [`PerfReport`], never
//!    through a deterministic artifact.
//! 2. **The default sink is a disabled [`NullRegistry`]** and every emission
//!    site guards on [`MetricsSink::enabled`], so an unmetered run does no
//!    extra work and all existing outputs stay byte-identical.
//!
//! Metric names are interned [`archmodel::Key`]s: comparison is pointer
//! equality, ordering is string order, so snapshot iteration over a
//! `BTreeMap<Key, _>` is deterministic name order.

use archmodel::Key;
use serde::{Content, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A consumer of control-plane metrics.
///
/// All methods take `&self` so one sink can be shared across the framework
/// and its helpers; implementations use interior mutability. Emission sites
/// skip metric construction entirely when [`enabled`](Self::enabled) is
/// false — that short-circuit is what keeps unmetered runs byte-identical.
pub trait MetricsSink: Send + Sync {
    /// Whether this sink records anything at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the counter named `key`.
    fn add(&self, key: Key, delta: u64);

    /// Sets the counter named `key` to an absolute value (used when a
    /// component keeps its own cheap counter and the framework publishes it
    /// wholesale).
    fn set_counter(&self, key: Key, value: u64);

    /// Sets the gauge named `key`.
    fn set_gauge(&self, key: Key, value: f64);

    /// Records one wall-clock duration observation into the histogram named
    /// `key`. Histogram data is nondeterministic by construction and must
    /// never feed a deterministic artifact.
    fn observe_nanos(&self, key: Key, nanos: u64);

    /// The deterministic part of the registry, if this sink retains one. The
    /// default (and the [`NullRegistry`]) has nothing to report.
    fn deterministic_values(&self) -> Option<KeyedValues> {
        None
    }
}

/// A registry's counters, then its gauges, each in name order, by interned
/// name: what a trace sink copies without allocating a name.
pub type KeyedValues = (Vec<(Key, u64)>, Vec<(Key, f64)>);

/// A cheaply cloneable metrics handle.
pub type SharedMetrics = Arc<dyn MetricsSink>;

/// The default sink: disabled, records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRegistry;

impl MetricsSink for NullRegistry {
    fn enabled(&self) -> bool {
        false
    }

    fn add(&self, _key: Key, _delta: u64) {}
    fn set_counter(&self, _key: Key, _value: u64) {}
    fn set_gauge(&self, _key: Key, _value: f64) {}
    fn observe_nanos(&self, _key: Key, _nanos: u64) {}
}

/// A fresh [`NullRegistry`] handle — the default metrics target.
pub fn null_metrics() -> SharedMetrics {
    Arc::new(NullRegistry)
}

/// A wall-clock duration histogram: count/sum/min/max plus power-of-two
/// buckets (bucket `i` holds observations whose nanosecond value has bit
/// length `i`), giving an approximate p95 without storing samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum_nanos: u64,
    min_nanos: u64,
    max_nanos: u64,
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    fn observe(&mut self, nanos: u64) {
        self.count += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
        let bucket = (64 - nanos.leading_zeros()) as usize; // bit length, 0..=64
        self.buckets[bucket.min(63)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Smallest observation, nanoseconds (0 when empty).
    pub fn min_nanos(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_nanos
        }
    }

    /// Largest observation, nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// Mean observation, nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// Approximate 95th percentile: the upper bound of the power-of-two
    /// bucket containing the 95th-percentile observation.
    pub fn p95_nanos(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count as f64 * 0.95).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds values with bit length i: upper bound 2^i - 1.
                return if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
            }
        }
        self.max_nanos
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// The concrete registry: counters, gauges, and wall-clock histograms keyed
/// by interned [`Key`]s. Clones share storage, so the registry can be kept
/// for reading while a [`SharedMetrics`] handle is given to the emitters.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A [`SharedMetrics`] handle onto this registry.
    pub fn handle(&self) -> SharedMetrics {
        Arc::new(self.clone())
    }

    /// The current value of one counter (0 if never touched).
    pub fn counter(&self, key: Key) -> u64 {
        self.lock().counters.get(&key).copied().unwrap_or(0)
    }

    /// All counters, in deterministic name order.
    pub fn counters(&self) -> Vec<(Key, u64)> {
        self.lock().counters.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// All gauges, in deterministic name order.
    pub fn gauges(&self) -> Vec<(Key, f64)> {
        self.lock().gauges.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// The deterministic section: counters and gauges, name-ordered. This is
    /// what may be folded into sweep reports and trace stores.
    pub fn snapshot(&self) -> MetricsSnapshot {
        fn named<T>(values: Vec<(Key, T)>) -> NameSorted<T> {
            NameSorted(
                values
                    .into_iter()
                    .map(|(k, v)| (k.as_str().to_string(), v))
                    .collect(),
            )
        }
        MetricsSnapshot {
            counters: named(self.counters()),
            gauges: named(self.gauges()),
        }
    }

    /// The nondeterministic section: one row per wall-clock histogram, in
    /// name order. Timings vary run to run — never byte-compare this.
    pub fn perf_report(&self) -> PerfReport {
        let inner = self.lock();
        PerfReport {
            rows: inner
                .histograms
                .iter()
                .map(|(k, h)| PerfRow {
                    name: k.as_str().to_string(),
                    count: h.count(),
                    total_ms: h.sum_nanos() as f64 / 1e6,
                    mean_us: h.mean_nanos() / 1e3,
                    p95_us: h.p95_nanos() as f64 / 1e3,
                    max_us: h.max_nanos() as f64 / 1e3,
                })
                .collect(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("metrics registry lock")
    }
}

impl MetricsSink for MetricsRegistry {
    fn add(&self, key: Key, delta: u64) {
        *self.lock().counters.entry(key).or_insert(0) += delta;
    }

    fn set_counter(&self, key: Key, value: u64) {
        self.lock().counters.insert(key, value);
    }

    fn set_gauge(&self, key: Key, value: f64) {
        self.lock().gauges.insert(key, value);
    }

    fn observe_nanos(&self, key: Key, nanos: u64) {
        self.lock()
            .histograms
            .entry(key)
            .or_default()
            .observe(nanos);
    }

    fn deterministic_values(&self) -> Option<KeyedValues> {
        Some((self.counters(), self.gauges()))
    }
}

/// A registry plus a [`SharedMetrics`] handle onto it: hand the handle to
/// the framework, keep the registry to read what it recorded.
pub fn shared_registry() -> (MetricsRegistry, SharedMetrics) {
    let registry = MetricsRegistry::new();
    let handle = registry.handle();
    (registry, handle)
}

/// An RAII wall-clock timer: construct at the top of a phase, drops into the
/// named histogram when it leaves scope. When the sink is disabled the span
/// is inert — it never reads the clock, never clones the handle.
pub struct Span {
    active: Option<(SharedMetrics, Key, Instant)>,
}

impl Span {
    /// Starts timing `key`, or does nothing if `sink` is disabled.
    pub fn start(sink: &SharedMetrics, key: Key) -> Span {
        Span {
            active: sink
                .enabled()
                .then(|| (Arc::clone(sink), key, Instant::now())),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((sink, key, started)) = self.active.take() {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.observe_nanos(key, nanos);
        }
    }
}

/// A name-ordered `(name, value)` list that serialises as a JSON object
/// (`{"name": value, ...}`) instead of an array of pairs, so equal lists give
/// byte-equal JSON with integer values kept integers.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSorted<T>(pub Vec<(String, T)>);

impl<T: Serialize> Serialize for NameSorted<T> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.0
                .iter()
                .map(|(name, value)| (name.clone(), value.to_content()))
                .collect(),
        )
    }
}

impl<T> std::ops::Deref for NameSorted<T> {
    type Target = [(String, T)];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<T> IntoIterator for NameSorted<T> {
    type Item = (String, T);
    type IntoIter = std::vec::IntoIter<(String, T)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// The deterministic counter/gauge section of a registry, name-ordered.
/// Serialises as `{"counters": {...}, "gauges": {...}}` with integer counter
/// values, so equal counters give byte-equal JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Counter name → value, in name order.
    pub counters: NameSorted<u64>,
    /// Gauge name → value, in name order.
    pub gauges: NameSorted<f64>,
}

/// One histogram's wall-clock summary in a [`PerfReport`].
#[derive(Debug, Clone, Serialize)]
pub struct PerfRow {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Total time spent, milliseconds.
    pub total_ms: f64,
    /// Mean observation, microseconds.
    pub mean_us: f64,
    /// Approximate 95th percentile, microseconds.
    pub p95_us: f64,
    /// Largest observation, microseconds.
    pub max_us: f64,
}

/// The nondeterministic wall-clock section of a registry: one row per
/// histogram, name-ordered. Values are timings and vary run to run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PerfReport {
    /// One summary row per histogram.
    pub rows: Vec<PerfRow>,
}

impl PerfReport {
    /// Rows sorted by total time spent, descending — "where did it go?"
    pub fn by_total_time(&self) -> Vec<&PerfRow> {
        let mut rows: Vec<&PerfRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            b.total_ms
                .partial_cmp(&a.total_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_registry_is_disabled_and_inert() {
        let sink = null_metrics();
        assert!(!sink.enabled());
        let key = Key::new("test.null");
        sink.add(key, 5);
        sink.set_counter(key, 9);
        sink.set_gauge(key, 1.5);
        sink.observe_nanos(key, 100);
        assert!(sink.deterministic_values().is_none());
    }

    #[test]
    fn counters_accumulate_and_snapshot_in_name_order() {
        let (registry, handle) = shared_registry();
        let b = Key::new("test.b");
        let a = Key::new("test.a");
        handle.add(b, 2);
        handle.add(b, 3);
        handle.add(a, 1);
        handle.set_counter(a, 10);
        handle.set_gauge(Key::new("test.g"), 2.5);
        assert_eq!(registry.counter(b), 5);
        assert_eq!(registry.counter(a), 10);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counters.0,
            vec![("test.a".to_string(), 10), ("test.b".to_string(), 5)]
        );
        assert_eq!(snapshot.gauges.0, vec![("test.g".to_string(), 2.5)]);
        assert_eq!(
            handle.deterministic_values(),
            Some((vec![(a, 10), (b, 5)], vec![(Key::new("test.g"), 2.5)]))
        );
    }

    #[test]
    fn histogram_summary_statistics_are_sane() {
        let mut h = Histogram::default();
        assert_eq!(h.p95_nanos(), 0);
        assert_eq!(h.min_nanos(), 0);
        for nanos in [100u64, 200, 300, 400, 10_000] {
            h.observe(nanos);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_nanos(), 11_000);
        assert_eq!(h.min_nanos(), 100);
        assert_eq!(h.max_nanos(), 10_000);
        assert!((h.mean_nanos() - 2_200.0).abs() < 1e-9);
        // p95 rank 5 of 5 lands in the bucket holding 10_000 (bit length
        // 14): upper bound 2^14 - 1.
        assert_eq!(h.p95_nanos(), (1 << 14) - 1);
    }

    #[test]
    fn span_records_into_histogram_only_when_enabled() {
        let (registry, handle) = shared_registry();
        let key = Key::new("test.span");
        {
            let _span = Span::start(&handle, key);
        }
        let report = registry.perf_report();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].name, "test.span");
        assert_eq!(report.rows[0].count, 1);

        let null = null_metrics();
        {
            let _span = Span::start(&null, key);
        }
        // Nothing to check on the null side — the point is it cannot panic
        // and records nothing anywhere.
    }

    #[test]
    fn perf_report_orders_by_total_time() {
        let (registry, handle) = shared_registry();
        handle.observe_nanos(Key::new("test.cheap"), 10);
        handle.observe_nanos(Key::new("test.dear"), 1_000_000);
        let report = registry.perf_report();
        let ordered = report.by_total_time();
        assert_eq!(ordered[0].name, "test.dear");
        assert_eq!(ordered[1].name, "test.cheap");
    }

    #[test]
    fn snapshot_serialises_as_ordered_maps() {
        let (registry, handle) = shared_registry();
        handle.add(Key::new("test.ser.n"), 7);
        handle.set_gauge(Key::new("test.ser.g"), 0.5);
        let content = registry.snapshot().to_content();
        match content {
            Content::Map(fields) => {
                assert_eq!(fields[0].0, "counters");
                assert_eq!(fields[1].0, "gauges");
                match &fields[0].1 {
                    Content::Map(counters) => {
                        assert!(counters
                            .iter()
                            .any(|(k, v)| k == "test.ser.n" && *v == Content::U64(7)));
                    }
                    other => panic!("counters not a map: {other:?}"),
                }
            }
            other => panic!("snapshot not a map: {other:?}"),
        }
    }
}
