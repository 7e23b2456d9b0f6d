//! Summaries of a metric's history: [`Point`]s and their [`Rollup`]
//! (min/max/mean and nearest-rank p50/p90/p99). `qdi-mon report` draws
//! one series per metric from the run record's metrics snapshots and
//! rolls each one up here.

use serde::{Deserialize, Serialize};

/// One observation of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Timestamp, UNIX-epoch µs.
    pub ts_us: u64,
    /// The metric reading at that instant.
    pub value: f64,
}

/// Summary statistics over one series (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Rollup {
    /// Points the rollup covers.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
