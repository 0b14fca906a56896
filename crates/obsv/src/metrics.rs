//! Lock-minimal metric primitives and the registry that owns them.
//!
//! Handles (`Arc<Counter>`, `Arc<Gauge>`, `Arc<Histogram>`) are fetched once
//! (registry lookup takes a short `RwLock` read) and then updated with
//! relaxed atomics only. Counters and histograms are sharded: each thread is
//! pinned to one of [`SHARDS`] cache-padded cells on first use, so
//! concurrent writers on different cores do not bounce a cache line.
//! Scrapes merge the shards.

use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Number of per-metric shards; a small power of two is enough to take
/// contention off the hot path without bloating scrape cost.
pub const SHARDS: usize = 16;

/// Upper bounds (seconds) for request-latency histograms, log-ish spaced
/// from 50µs to 2.5s. The final +Inf bucket is implicit.
pub const DEFAULT_LATENCY_BUCKETS: &[f64] = &[
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5,
];

/// Most distinct values any one metric family hands out through
/// [`bounded_label`]; values beyond this fold into [`OTHER_LABEL_VALUE`].
pub const MAX_LABEL_VALUES: usize = 64;

/// The fold label for values past the cardinality cap.
pub const OTHER_LABEL_VALUE: &str = "__other__";

/// The bounded label value for `family`: `value` itself while the family
/// has seen fewer than [`MAX_LABEL_VALUES`] distinct values (or this one
/// already has a slot), else [`OTHER_LABEL_VALUE`]. Every label whose
/// values come from outside the process (a store address, a contributor
/// name) goes through this, so an open-registration deployment cannot
/// blow up scrape cardinality.
pub fn bounded_label(family: &str, value: &str) -> String {
    static SEEN: OnceLock<Mutex<BTreeMap<String, BTreeSet<String>>>> = OnceLock::new();
    let mut seen = SEEN.get_or_init(|| Mutex::new(BTreeMap::new())).lock();
    let values = seen.entry(family.to_string()).or_default();
    if values.contains(value) {
        return value.to_string();
    }
    if values.len() < MAX_LABEL_VALUES {
        values.insert(value.to_string());
        return value.to_string();
    }
    OTHER_LABEL_VALUE.to_string()
}

#[repr(align(64))]
struct CachePadded<T>(T);

static NEXT_THREAD_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Sticky shard index: threads round-robin onto shards at first use.
    static THREAD_SHARD: usize =
        NEXT_THREAD_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

fn shard_index() -> usize {
    THREAD_SHARD.with(|s| *s)
}

/// Monotonic counter.
pub struct Counter {
    shards: Box<[CachePadded<AtomicU64>]>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            shards: (0..SHARDS)
                .map(|_| CachePadded(AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Merged value across shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Last-write-wins signed gauge.
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

struct HistogramShard {
    /// One cell per finite bound plus the +Inf overflow bucket.
    counts: Box<[AtomicU64]>,
    sum_nanos: AtomicU64,
}

/// Fixed-bucket histogram; quantiles come from bucket interpolation on a
/// merged [`HistogramSnapshot`].
pub struct Histogram {
    bounds: Arc<[f64]>,
    shards: Box<[CachePadded<HistogramShard>]>,
}

impl Histogram {
    fn new(bounds: Arc<[f64]>) -> Self {
        let buckets = bounds.len() + 1;
        Histogram {
            bounds: bounds.clone(),
            shards: (0..SHARDS)
                .map(|_| {
                    CachePadded(HistogramShard {
                        counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
                        sum_nanos: AtomicU64::new(0),
                    })
                })
                .collect(),
        }
    }

    #[inline]
    pub fn observe(&self, duration: Duration) {
        self.observe_secs(duration.as_secs_f64());
    }

    #[inline]
    pub fn observe_secs(&self, value: f64) {
        let bucket = self.bounds.partition_point(|&b| b < value);
        let shard = &self.shards[shard_index()].0;
        shard.counts[bucket].fetch_add(1, Ordering::Relaxed);
        let nanos = (value * 1e9).clamp(0.0, u64::MAX as f64) as u64;
        shard.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Merges every shard into one scrape-stable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; self.bounds.len() + 1];
        let mut sum_nanos = 0u64;
        for shard in self.shards.iter() {
            for (cell, total) in shard.0.counts.iter().zip(counts.iter_mut()) {
                *total += cell.load(Ordering::Relaxed);
            }
            sum_nanos = sum_nanos.saturating_add(shard.0.sum_nanos.load(Ordering::Relaxed));
        }
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts,
            sum: sum_nanos as f64 * 1e-9,
        }
    }
}

/// A merged point-in-time view of a [`Histogram`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket (not cumulative) counts; `counts[bounds.len()]` is +Inf.
    pub counts: Vec<u64>,
    /// Sum of observed values in seconds.
    pub sum: f64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Combines two snapshots observed against identical bucket layouts.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(self.bounds, other.bounds, "bucket layouts differ");
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            sum: self.sum + other.sum,
        }
    }

    /// Quantile estimate by linear interpolation inside the bucket that
    /// holds the requested rank. Returns 0.0 for an empty histogram; values
    /// landing in the +Inf bucket report the largest finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.counts.iter().enumerate() {
            let next = cumulative + bucket_count;
            if (next as f64) >= rank && bucket_count > 0 {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // +Inf bucket: report the largest finite bound rather
                    // than inventing an extrapolation.
                    return self.bounds.last().copied().unwrap_or(0.0);
                };
                let into_bucket =
                    ((rank - cumulative as f64) / bucket_count as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * into_bucket;
            }
            cumulative = next;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Sorted `(key, value)` label pairs identifying one series in a family.
pub type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

pub(crate) struct Family<M> {
    pub(crate) help: String,
    pub(crate) series: BTreeMap<LabelSet, Arc<M>>,
}

#[derive(Default)]
pub(crate) struct RegistryInner {
    pub(crate) counters: BTreeMap<String, Family<Counter>>,
    pub(crate) gauges: BTreeMap<String, Family<Gauge>>,
    pub(crate) histograms: BTreeMap<String, Family<Histogram>>,
}

/// A namespace of metric families. Lookups are idempotent: the same
/// `(name, labels)` always yields the same shared handle.
pub struct Registry {
    pub(crate) inner: RwLock<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            inner: RwLock::new(RegistryInner::default()),
        }
    }

    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let set = label_set(labels);
        if let Some(family) = self.inner.read().counters.get(name) {
            if let Some(handle) = family.series.get(&set) {
                return handle.clone();
            }
        }
        let mut inner = self.inner.write();
        let family = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                series: BTreeMap::new(),
            });
        family
            .series
            .entry(set)
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let set = label_set(labels);
        if let Some(family) = self.inner.read().gauges.get(name) {
            if let Some(handle) = family.series.get(&set) {
                return handle.clone();
            }
        }
        let mut inner = self.inner.write();
        let family = inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                series: BTreeMap::new(),
            });
        family
            .series
            .entry(set)
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// `bounds: None` uses [`DEFAULT_LATENCY_BUCKETS`]. All series of one
    /// family share the bucket layout of the first registration.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: Option<&[f64]>,
    ) -> Arc<Histogram> {
        let set = label_set(labels);
        if let Some(family) = self.inner.read().histograms.get(name) {
            if let Some(handle) = family.series.get(&set) {
                return handle.clone();
            }
        }
        let mut inner = self.inner.write();
        let family = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                series: BTreeMap::new(),
            });
        let layout: Arc<[f64]> = family
            .series
            .values()
            .next()
            .map(|h| h.bounds.clone())
            .unwrap_or_else(|| bounds.unwrap_or(DEFAULT_LATENCY_BUCKETS).into());
        family
            .series
            .entry(set)
            .or_insert_with(|| Arc::new(Histogram::new(layout)))
            .clone()
    }

    /// Prometheus text exposition of every family (see [`crate::expose`]).
    pub fn encode(&self) -> String {
        crate::expose::encode(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_across_threads() {
        let registry = Registry::new();
        let counter = registry.counter("jobs_total", "jobs", &[]);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = registry.counter("jobs_total", "jobs", &[]);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.get(), 8000);
    }

    #[test]
    fn same_labels_same_handle() {
        let registry = Registry::new();
        let a = registry.counter("x_total", "x", &[("b", "2"), ("a", "1")]);
        let b = registry.counter("x_total", "x", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn gauge_set_and_add() {
        let registry = Registry::new();
        let gauge = registry.gauge("depth", "queue depth", &[]);
        gauge.set(7);
        gauge.add(-2);
        assert_eq!(gauge.get(), 5);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let registry = Registry::new();
        let hist = registry.histogram(
            "lat_seconds",
            "latency",
            &[],
            Some(&[0.001, 0.01, 0.1, 1.0]),
        );
        for _ in 0..90 {
            hist.observe_secs(0.005);
        }
        for _ in 0..10 {
            hist.observe_secs(0.05);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 100);
        let p50 = snap.p50();
        assert!((0.001..=0.01).contains(&p50), "p50 = {p50}");
        let p99 = snap.p99();
        assert!((0.01..=0.1).contains(&p99), "p99 = {p99}");
        assert!(snap.p90() <= p99);
        assert!((snap.sum() - (90.0 * 0.005 + 10.0 * 0.05)).abs() < 1e-6);
    }

    #[test]
    fn bounded_labels_fold_into_other_past_the_cap() {
        // A synthetic family, so this flood cannot steal label slots from
        // the real families other tests (and processes) assert on.
        let family = "sensorsafe_test_cardinality_family";
        for i in 0..MAX_LABEL_VALUES {
            assert_eq!(bounded_label(family, &format!("c{i}")), format!("c{i}"));
        }
        // Known values keep their slots forever...
        assert_eq!(bounded_label(family, "c0"), "c0");
        assert_eq!(
            bounded_label(family, &format!("c{}", MAX_LABEL_VALUES - 1)),
            format!("c{}", MAX_LABEL_VALUES - 1)
        );
        // ...newcomers beyond the cap all fold into one label.
        for i in MAX_LABEL_VALUES..MAX_LABEL_VALUES + 10 {
            assert_eq!(bounded_label(family, &format!("c{i}")), OTHER_LABEL_VALUE);
        }
        // Folding is per family: a fresh family still hands out real labels.
        assert_eq!(
            bounded_label("sensorsafe_test_cardinality_family_2", "c9999"),
            "c9999"
        );
    }

    #[test]
    fn histogram_overflow_bucket_reports_last_bound() {
        let registry = Registry::new();
        let hist = registry.histogram("h_seconds", "h", &[], Some(&[0.1, 1.0]));
        hist.observe_secs(50.0);
        let snap = hist.snapshot();
        assert_eq!(snap.counts, vec![0, 0, 1]);
        assert_eq!(snap.quantile(0.99), 1.0);
    }
}
