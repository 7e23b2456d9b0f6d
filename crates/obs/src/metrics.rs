//! Process-wide metrics: counters, gauges and fixed-bucket histograms.
//!
//! Handles are `Arc`-backed and cheap to clone; the registry is only
//! locked when a handle is first created or a snapshot is taken, never
//! on the hot update path. Metrics are always live (they are a few
//! relaxed atomic ops), independent of the `QDI_LOG` filter.
//!
//! A labeled metric is an ordinary entry whose name is its Prometheus
//! series identity, built by [`series`]:
//!
//! ```
//! use qdi_obs::metrics::{counter, series};
//! counter(&series("serve.http.route.requests", &[("route", "GET /healthz"), ("tenant", "")]))
//!     .inc();
//! ```
//!
//! Snapshots, deltas and the run record carry it like any other name.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// A monotonically increasing count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value; also tracks a high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
    high_water: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value, updating the high-water mark.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta, updating the high-water mark.
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Raises the high-water mark to at least `v` without touching the
    /// current value (for externally tracked maxima).
    pub fn record_max(&self, v: i64) {
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever set/added/recorded.
    #[must_use]
    pub fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of each bucket, strictly increasing.
    bounds: Vec<f64>,
    /// One count per bound, plus one overflow bucket at the end.
    counts: Vec<AtomicU64>,
    /// Sum of observations, stored as `f64` bits.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A histogram with the given inclusive bucket upper bounds; an
    /// overflow bucket captures everything above the last bound.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn with_bounds(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Index of the bucket an observation lands in (the overflow bucket
    /// is `bounds.len()`). The first bucket whose bound is `>= v` wins.
    #[must_use]
    pub fn bucket_index(&self, v: f64) -> usize {
        self.0.bounds.partition_point(|&b| b < v)
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bucket_index(v);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // Lock-free f64 accumulation via compare-exchange on the bits.
        let mut current = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The configured bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }
}

/// The registry name of the series `name` with `labels`:
/// `name{k="v",…}` with the keys sorted and each value escaped by
/// [`crate::prometheus::escape_label_value`]. With no labels it is
/// `name` itself. [`crate::prometheus::parse`] names what it reads the
/// same way, so one series has one name on both sides of a scrape.
#[must_use]
pub fn series<K: AsRef<str>, V: AsRef<str>>(name: &str, labels: &[(K, V)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut pairs: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| (k.as_ref(), v.as_ref()))
        .collect();
    pairs.sort_unstable();
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", crate::prometheus::escape_label_value(v)))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Splits a series name into its metric name and its label block
/// (`{…}` included, empty when the series has no labels).
#[must_use]
pub(crate) fn split_series(series: &str) -> (&str, &str) {
    series.split_at(series.find('{').unwrap_or(series.len()))
}

/// The series `name` with `suffix` appended to its metric name, its
/// labels kept: `with_suffix("h{k=\"v\"}", ".sum")` is `h.sum{k="v"}`.
#[must_use]
pub(crate) fn with_suffix(series: &str, suffix: &str) -> String {
    let (name, labels) = split_series(series);
    format!("{name}{suffix}{labels}")
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A handle to the named counter, creating it on first use.
///
/// # Panics
///
/// Panics when `name` is already registered as a different metric kind.
#[must_use]
pub fn counter(name: &str) -> Counter {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Counter::default()))
    {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric `{name}` is not a counter"),
    }
}

/// A handle to the named gauge, creating it on first use.
///
/// # Panics
///
/// Panics when `name` is already registered as a different metric kind.
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Gauge::default()))
    {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric `{name}` is not a gauge"),
    }
}

/// A handle to the named histogram, creating it with `bounds` on first
/// use (later calls reuse the original bounds).
///
/// # Panics
///
/// Panics when `name` is already registered as a different metric kind,
/// or on invalid `bounds` (see [`Histogram::with_bounds`]).
#[must_use]
pub fn histogram(name: &str, bounds: &[f64]) -> Histogram {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Histogram::with_bounds(bounds)))
    {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric `{name}` is not a histogram"),
    }
}

/// One flattened metric reading inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Series name; histograms contribute `<name>.count` and
    /// `<name>.sum`, gauges contribute `<name>` and `<name>.max`, each
    /// suffix going on the metric name, before any label block.
    pub name: String,
    /// The reading, widened to `f64`.
    pub value: f64,
}

/// A full bucket-level reading of one registered histogram, kept next
/// to its flattened `<name>.count` / `<name>.sum` samples so the
/// Prometheus exposition can render the standard `_bucket`/`_sum`/
/// `_count` triplet instead of collapsing the distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// The histogram's series name: its dotted registry name, or its
    /// wire name when [`crate::prometheus::parse`] read it.
    pub name: String,
    /// Inclusive upper bounds, strictly increasing (no `+Inf` entry).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, non-cumulative; the final entry is the
    /// overflow (`+Inf`) bucket, so `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observation count (the sum over all buckets, saturating:
    /// a parsed scrape's counts are untrusted).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts
            .iter()
            .fold(0, |total, &c| total.saturating_add(c))
    }

    /// Nearest-rank quantile upper estimate: the bound of the first
    /// bucket whose cumulative count reaches rank `ceil(q * count)`.
    /// Observations above the last finite bound report `+Inf`. `None`
    /// when the histogram is empty or `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        let bucket = self.counts.iter().position(|&c| {
            cumulative = cumulative.saturating_add(c);
            cumulative >= rank
        });
        Some(
            bucket
                .and_then(|i| self.bounds.get(i).copied())
                .unwrap_or(f64::INFINITY),
        )
    }

    /// Adds another histogram's observations to this one (same bounds
    /// required), saturating the counts: used to aggregate per-tenant
    /// series under a wildcard SLO.
    ///
    /// # Errors
    ///
    /// Returns a description when the bucket layouts differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "cannot merge histogram `{}`: bucket layouts differ",
                self.name
            ));
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum += other.sum;
        Ok(())
    }
}

/// A point-in-time flattened reading of every registered metric.
///
/// Invariant: `samples` is sorted by name. [`MetricsSnapshot::capture`]
/// and [`MetricsSnapshot::delta_since`] uphold it; snapshots built by
/// hand or deserialized from external JSON should be passed through
/// [`MetricsSnapshot::normalize`] so JSONL, Prometheus exposition and
/// report diffs stay byte-stable across runs and worker counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Samples sorted by name.
    pub samples: Vec<MetricSample>,
    /// Bucket-level histogram readings, sorted by name (absent in
    /// snapshots serialized before the field existed).
    #[serde(default)]
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Reads every registered metric.
    #[must_use]
    pub fn capture() -> MetricsSnapshot {
        let reg = registry().lock().expect("metrics registry poisoned");
        let mut samples = Vec::with_capacity(reg.len());
        let mut histograms = Vec::new();
        for (name, metric) in reg.iter() {
            match metric {
                Metric::Counter(c) => samples.push(MetricSample {
                    name: name.clone(),
                    value: c.get() as f64,
                }),
                Metric::Gauge(g) => {
                    samples.push(MetricSample {
                        name: name.clone(),
                        value: g.get() as f64,
                    });
                    samples.push(MetricSample {
                        name: with_suffix(name, ".max"),
                        value: g.high_water() as f64,
                    });
                }
                Metric::Histogram(h) => {
                    samples.push(MetricSample {
                        name: with_suffix(name, ".count"),
                        value: h.count() as f64,
                    });
                    samples.push(MetricSample {
                        name: with_suffix(name, ".sum"),
                        value: h.sum(),
                    });
                    histograms.push(HistogramSnapshot {
                        name: name.clone(),
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        sum: h.sum(),
                    });
                }
            }
        }
        let mut snapshot = MetricsSnapshot {
            samples,
            histograms,
        };
        snapshot.normalize();
        snapshot
    }

    /// Restores the sorted-by-name invariant (stable, so equal names
    /// keep their relative order). Call after building a snapshot by
    /// hand or deserializing one from an external source.
    pub fn normalize(&mut self) {
        self.samples.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Whether the sorted-by-name invariant currently holds.
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        self.samples.windows(2).all(|w| w[0].name <= w[1].name)
    }

    /// The sample with the given name, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// Per-name differences `self - earlier`, dropping unchanged
    /// monotonic readings so step deltas stay small. Gauge-style
    /// absolute samples (`.max` and bare gauges) are kept as-is.
    #[must_use]
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut samples = Vec::new();
        for s in &self.samples {
            let before = earlier.get(&s.name).unwrap_or(0.0);
            let changed = (s.value - before).abs() > 0.0;
            let absolute = split_series(&s.name).0.ends_with(".max");
            if absolute {
                if changed || earlier.get(&s.name).is_none() {
                    samples.push(s.clone());
                }
            } else if changed {
                samples.push(MetricSample {
                    name: s.name.clone(),
                    value: s.value - before,
                });
            }
        }
        let mut delta = MetricsSnapshot {
            samples,
            histograms: Vec::new(),
        };
        delta.normalize();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_math() {
        let h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        assert_eq!(h.bucket_index(0.5), 0);
        assert_eq!(h.bucket_index(1.0), 0, "bounds are inclusive");
        assert_eq!(h.bucket_index(1.1), 1);
        assert_eq!(h.bucket_index(10.0), 1);
        assert_eq!(h.bucket_index(99.9), 2);
        assert_eq!(h.bucket_index(100.1), 3, "overflow bucket");
        for v in [0.5, 1.0, 5.0, 1000.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 1, 0, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 1006.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::with_bounds(&[1.0, 1.0]);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::default();
        g.set(5);
        g.add(-2);
        g.record_max(4);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 5);
    }

    #[test]
    fn concurrent_counters_do_not_lose_updates() {
        let c = counter("obs.test.concurrent");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn snapshots_are_sorted_regardless_of_registration_order() {
        // Register deliberately out of lexicographic order.
        let _z = counter("obs.test.order.z");
        let _a = counter("obs.test.order.a");
        let _m = gauge("obs.test.order.m");
        let snap = MetricsSnapshot::capture();
        assert!(snap.is_sorted(), "capture upholds the name ordering");
        let delta = snap.delta_since(&MetricsSnapshot::default());
        assert!(delta.is_sorted(), "deltas uphold the name ordering");
        let mut shuffled = MetricsSnapshot {
            samples: vec![
                MetricSample {
                    name: "b".into(),
                    value: 1.0,
                },
                MetricSample {
                    name: "a".into(),
                    value: 2.0,
                },
            ],
            histograms: Vec::new(),
        };
        assert!(!shuffled.is_sorted());
        shuffled.normalize();
        assert!(shuffled.is_sorted());
        assert_eq!(shuffled.samples[0].name, "a");
    }

    #[test]
    fn capture_carries_bucket_level_histograms() {
        let h = histogram("obs.test.buckets", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(2.0);
        h.observe(100.0);
        let snap = MetricsSnapshot::capture();
        let hs = snap
            .histograms
            .iter()
            .find(|h| h.name == "obs.test.buckets")
            .expect("histogram snapshot present");
        assert_eq!(hs.bounds, vec![1.0, 10.0]);
        assert_eq!(hs.counts, vec![1, 1, 1]);
        assert_eq!(hs.count(), 3);
        assert!((hs.sum - 102.5).abs() < 1e-9);
        // The flattened samples stay for JSONL/report consumers.
        assert_eq!(snap.get("obs.test.buckets.count"), Some(3.0));
    }

    #[test]
    fn snapshot_deltas() {
        let c = counter("obs.test.delta");
        let before = MetricsSnapshot::capture();
        c.add(7);
        let after = MetricsSnapshot::capture();
        let delta = after.delta_since(&before);
        assert_eq!(delta.get("obs.test.delta"), Some(7.0));
        // Unrelated registered-but-unchanged metrics drop out.
        assert!(delta
            .samples
            .iter()
            .all(|s| !s.name.ends_with("concurrent") || s.value != 0.0));
    }
}
