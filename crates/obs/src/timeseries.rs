//! Rolling time-series of every registered metric.
//!
//! A [`Recorder`] snapshots the metrics registry on each [`Recorder::tick`]
//! and appends one `(ts_us, value)` [`Point`] per metric into a
//! fixed-capacity ring buffer, so memory is bounded no matter how long a
//! campaign runs. Rings are summarized by [`Rollup`]s (min/max/mean and
//! nearest-rank p50/p90/p99) and exported as a serializable
//! [`TimeseriesSnapshot`] whose series are sorted by metric name, making
//! two runs directly comparable.
//!
//! Ticking is the only synchronized operation (one short mutex hold per
//! tick); nothing here touches metric *update* paths, which stay
//! lock-free. The process-global recorder behind [`global`] / [`tick`] /
//! [`snapshot`] / [`save_json`] is fed by the secure flow at every step
//! boundary and ticked by callers between their own phases.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;

/// Default ring capacity of the process-global recorder.
pub const DEFAULT_CAPACITY: usize = 512;

/// One observation of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Process-monotonic timestamp (see [`crate::now_us`]).
    pub ts_us: u64,
    /// The metric reading at that instant.
    pub value: f64,
}

/// Fixed-capacity ring of [`Point`]s; pushes past capacity overwrite the
/// oldest entry.
#[derive(Debug, Clone)]
pub struct Ring {
    cap: usize,
    buf: Vec<Point>,
    /// Index the *next* push writes to once the buffer is full.
    head: usize,
}

impl Ring {
    /// An empty ring holding at most `cap` points.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is zero.
    #[must_use]
    pub fn new(cap: usize) -> Ring {
        assert!(cap > 0, "ring capacity must be positive");
        Ring {
            cap,
            buf: Vec::new(),
            head: 0,
        }
    }

    /// Appends a point, evicting the oldest once full.
    pub fn push(&mut self, point: Point) {
        if self.buf.len() < self.cap {
            self.buf.push(point);
        } else {
            self.buf[self.head] = point;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Number of points currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no point has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained points, oldest first.
    #[must_use]
    pub fn points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Summary statistics over one ring (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Rollup {
    /// Points the rollup covers (at most the ring capacity).
    pub count: u64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Most recent value.
    pub last: f64,
    /// 50th percentile (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

/// Nearest-rank percentile of an already-sorted slice: the smallest
/// element with at least `p`% of the data at or below it.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Rolls up a sequence of values (in arrival order).
#[must_use]
pub fn rollup(values: &[f64]) -> Rollup {
    if values.is_empty() {
        return Rollup::default();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let sum: f64 = values.iter().sum();
    Rollup {
        count: values.len() as u64,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        mean: sum / values.len() as f64,
        last: values[values.len() - 1],
        p50: percentile(&sorted, 50.0),
        p90: percentile(&sorted, 90.0),
        p99: percentile(&sorted, 99.0),
    }
}

/// One metric's retained history plus its rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Metric name (same flattened names as [`MetricsSnapshot`]).
    pub name: String,
    /// Summary over `points`.
    pub rollup: Rollup,
    /// Retained points, oldest first.
    pub points: Vec<Point>,
}

/// A full export of the recorder: every series, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeseriesSnapshot {
    /// Total ticks taken (may exceed any ring's point count).
    pub ticks: u64,
    /// Series sorted by metric name.
    pub series: Vec<Series>,
}

/// Samples the metrics registry into per-metric rings on demand.
#[derive(Debug)]
pub struct Recorder {
    capacity: usize,
    series: Mutex<BTreeMap<String, Ring>>,
    ticks: AtomicU64,
}

impl Recorder {
    /// A recorder whose rings hold `capacity` points each.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Recorder {
        assert!(capacity > 0, "recorder capacity must be positive");
        Recorder {
            capacity,
            series: Mutex::new(BTreeMap::new()),
            ticks: AtomicU64::new(0),
        }
    }

    /// Ring capacity per metric.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ticks taken so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Captures the live metrics registry and appends one point per
    /// metric. Returns the tick count after this tick.
    pub fn tick(&self) -> u64 {
        self.ingest(crate::now_us(), &MetricsSnapshot::capture())
    }

    /// Appends one point per sample of an externally captured snapshot
    /// (deterministic variant of [`Recorder::tick`] for tests and
    /// replay).
    pub fn ingest(&self, ts_us: u64, snapshot: &MetricsSnapshot) -> u64 {
        let mut series = self.series.lock().expect("timeseries recorder poisoned");
        for sample in &snapshot.samples {
            series
                .entry(sample.name.clone())
                .or_insert_with(|| Ring::new(self.capacity))
                .push(Point {
                    ts_us,
                    value: sample.value,
                });
        }
        drop(series);
        self.ticks.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Full export: every series with points and rollup, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> TimeseriesSnapshot {
        let series = self.series.lock().expect("timeseries recorder poisoned");
        TimeseriesSnapshot {
            ticks: self.ticks(),
            series: series
                .iter()
                .map(|(name, ring)| {
                    let points = ring.points();
                    let values: Vec<f64> = points.iter().map(|p| p.value).collect();
                    Series {
                        name: name.clone(),
                        rollup: rollup(&values),
                        points,
                    }
                })
                .collect(),
        }
    }

    /// Drops all series and resets the tick count.
    pub fn clear(&self) {
        self.series
            .lock()
            .expect("timeseries recorder poisoned")
            .clear();
        self.ticks.store(0, Ordering::Relaxed);
    }
}

/// The process-global recorder used by flows and examples
/// (capacity [`DEFAULT_CAPACITY`]).
#[must_use]
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(|| Recorder::new(DEFAULT_CAPACITY))
}

/// Ticks the global recorder.
pub fn tick() -> u64 {
    global().tick()
}

/// Snapshot of the global recorder.
#[must_use]
pub fn snapshot() -> TimeseriesSnapshot {
    global().snapshot()
}

/// Writes the global recorder's snapshot as pretty JSON.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save_json(path: impl AsRef<Path>) -> std::io::Result<()> {
    let snap = snapshot();
    let json = serde_json::to_string_pretty(&snap)
        .map_err(|e| std::io::Error::other(format!("timeseries serialization failed: {e}")))?;
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{json}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricSample;

    fn snap(pairs: &[(&str, f64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            samples: pairs
                .iter()
                .map(|(n, v)| MetricSample {
                    name: (*n).to_string(),
                    value: *v,
                })
                .collect(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let mut ring = Ring::new(4);
        for i in 0..10u64 {
            ring.push(Point {
                ts_us: i,
                value: i as f64,
            });
        }
        assert_eq!(ring.len(), 4);
        let ts: Vec<u64> = ring.points().iter().map(|p| p.ts_us).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "oldest evicted, order preserved");
    }

    #[test]
    fn ring_partial_fill_is_in_order() {
        let mut ring = Ring::new(8);
        for i in 0..3u64 {
            ring.push(Point {
                ts_us: i,
                value: 0.0,
            });
        }
        let ts: Vec<u64> = ring.points().iter().map(|p| p.ts_us).collect();
        assert_eq!(ts, vec![0, 1, 2]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn rollup_stats() {
        let r = rollup(&[3.0, 1.0, 2.0]);
        assert_eq!(r.count, 3);
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 3.0);
        assert_eq!(r.mean, 2.0);
        assert_eq!(r.last, 2.0, "last follows arrival order, not sort order");
        assert_eq!(rollup(&[]), Rollup::default());
    }

    #[test]
    fn recorder_ingests_and_rolls_up() {
        let rec = Recorder::new(4);
        for i in 0..6u64 {
            rec.ingest(i * 10, &snap(&[("a", i as f64), ("b", 100.0)]));
        }
        assert_eq!(rec.ticks(), 6);
        let out = rec.snapshot();
        assert_eq!(out.ticks, 6);
        let names: Vec<&str> = out.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"], "series sorted by name");
        let a = &out.series[0];
        assert_eq!(a.points.len(), 4, "ring capacity bounds history");
        assert_eq!(a.rollup.min, 2.0, "oldest ticks evicted");
        assert_eq!(a.rollup.max, 5.0);
        assert_eq!(a.rollup.last, 5.0);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let rec = Recorder::new(4);
        rec.ingest(5, &snap(&[("x.count", 2.0)]));
        let out = rec.snapshot();
        let json = serde_json::to_string(&out).unwrap();
        let back: TimeseriesSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out);
    }
}
