//! `qdi-mon analyze`: turns the profile rebuilt from a run record into
//! a verdict table and rustc-style findings that name *why* a parallel
//! campaign is slow.
//!
//! The verdict table reports parallel efficiency, idle fraction,
//! queue-wait fraction, steal rate, mean job duration, and per-job
//! overhead, each judged against a fixed threshold. Every threshold
//! breach becomes a finding with a stable `PROF...` code and a
//! concrete suggestion ("jobs are 55 µs mean but per-job overhead is
//! 70 µs: batch work items"). The binary exits `1` when any finding
//! fires, `0` on a clean profile, `2` on unreadable input — the
//! `qdi-lint` discipline.

use qdi_obs::prof::{PoolRun, ProfReport, RegionStat};
use serde::Serialize;

/// Efficiency below this fraction of the workers' time budget fires
/// [`PROF001`](Finding).
pub const MIN_EFFICIENCY: f64 = 0.75;
/// Per-job overhead above this fraction of the mean job duration fires
/// `PROF002`.
pub const MAX_OVERHEAD_RATIO: f64 = 0.5;
/// Steals per job above this rate fire `PROF003`.
pub const MAX_STEAL_RATE: f64 = 0.2;
/// Queue-wait above this fraction of the workers' time budget fires
/// `PROF004`.
pub const MAX_QUEUE_WAIT_FRACTION: f64 = 0.1;

/// One verdict-table row: a metric, its formatted value, and the
/// judgement against the metric's threshold.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Human-readable metric name.
    pub metric: String,
    /// Formatted value (`"42%"`, `"55.0 µs"`).
    pub value: String,
    /// `"ok"`, `"warn (...)"`, or `"—"` for informational rows.
    pub verdict: String,
}

/// One rustc-style finding with a stable code.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Stable code (`"PROF001"`..).
    pub code: &'static str,
    /// The one-line diagnosis.
    pub message: String,
    /// The suggested next move.
    pub help: String,
}

/// The full analysis of one profile.
#[derive(Debug, Clone, Serialize)]
pub struct Analysis {
    /// Verdict-table rows, fixed order.
    pub rows: Vec<Row>,
    /// Findings, in code order; empty means the profile looks healthy.
    pub findings: Vec<Finding>,
    /// Hottest regions by self time.
    pub top_regions: Vec<RegionStat>,
}

impl Analysis {
    /// Whether any finding fired (binary exit `1`).
    #[must_use]
    pub fn has_findings(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Renders the verdict table and findings as terminal text.
    #[must_use]
    pub fn render(&self) -> String {
        let metric_w = self
            .rows
            .iter()
            .map(|r| r.metric.chars().count())
            .max()
            .unwrap_or(6)
            .max("metric".len());
        let value_w = self
            .rows
            .iter()
            .map(|r| r.value.chars().count())
            .max()
            .unwrap_or(5)
            .max("value".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:metric_w$}  {:>value_w$}  verdict\n",
            "metric", "value"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:metric_w$}  {:>value_w$}  {}\n",
                row.metric, row.value, row.verdict
            ));
        }
        if !self.top_regions.is_empty() {
            out.push_str("\nhottest regions (self time):\n");
            for region in &self.top_regions {
                out.push_str(&format!(
                    "  {:<32} {:>10.3} ms self  {:>8} calls  {:>10.1} µs mean\n",
                    region.path,
                    region.self_ns as f64 / 1e6,
                    region.count,
                    region.mean_ns() / 1e3,
                ));
            }
        }
        out.push('\n');
        for finding in &self.findings {
            out.push_str(&format!(
                "warning[{}]: {}\n  = help: {}\n",
                finding.code, finding.message, finding.help
            ));
        }
        if self.findings.is_empty() {
            out.push_str("no findings: the profile looks healthy\n");
        }
        out
    }
}

/// Pool aggregates over a set of runs.
struct Totals {
    jobs: u64,
    steals: u64,
    capacity_us: u64,
    busy_us: u64,
    queue_wait_us: u64,
    idle_us: u64,
}

fn totals(runs: &[&PoolRun]) -> Totals {
    let mut t = Totals {
        jobs: 0,
        steals: 0,
        capacity_us: 0,
        busy_us: 0,
        queue_wait_us: 0,
        idle_us: 0,
    };
    // Saturating sums: a hostile profile must not overflow the totals.
    for run in runs {
        t.jobs = t.jobs.saturating_add(run.jobs);
        t.steals = t.steals.saturating_add(run.steals);
        t.capacity_us = t
            .capacity_us
            .saturating_add(run.wall_us.saturating_mul(run.workers as u64));
        t.busy_us = t.busy_us.saturating_add(run.busy_us());
        t.queue_wait_us = t.queue_wait_us.saturating_add(run.queue_wait_us());
        t.idle_us = t.idle_us.saturating_add(run.idle_us());
    }
    t
}

fn pct(fraction: f64) -> String {
    format!("{:.0}%", fraction * 100.0)
}

/// Analyzes a profile: verdict table over the pool runs (multi-worker
/// runs when present, since those are what a speedup claim rests on),
/// findings for every threshold breach, and the `top` hottest regions.
#[must_use]
pub fn analyze(report: &ProfReport, top: usize) -> Analysis {
    let mut rows = Vec::new();
    let mut findings = Vec::new();

    let all: Vec<&PoolRun> = report.pool_runs.iter().filter(|r| r.wall_us > 0).collect();
    let multi: Vec<&PoolRun> = all.iter().copied().filter(|r| r.workers > 1).collect();
    let judged = if multi.is_empty() { &all } else { &multi };

    if judged.is_empty() {
        rows.push(Row {
            metric: "pool runs".to_string(),
            value: "0".to_string(),
            verdict: "—".to_string(),
        });
        findings.push(Finding {
            code: "PROF000",
            message: "the profile holds no pool runs with measurable wall time".to_string(),
            help: "enable profiling around a parallel campaign \
                   (qdi_obs::prof::install)"
                .to_string(),
        });
        return Analysis {
            rows,
            findings,
            top_regions: report.regions.top_by_self(top),
        };
    }

    let t = totals(judged);
    let max_workers = judged.iter().map(|r| r.workers).max().unwrap_or(1);
    let efficiency = t.busy_us as f64 / t.capacity_us as f64;
    let idle_fraction = t.idle_us as f64 / t.capacity_us as f64;
    let queue_wait_fraction = t.queue_wait_us as f64 / t.capacity_us as f64;
    let steal_rate = if t.jobs == 0 {
        0.0
    } else {
        t.steals as f64 / t.jobs as f64
    };
    let mean_job_us = if t.jobs == 0 {
        0.0
    } else {
        t.busy_us as f64 / t.jobs as f64
    };
    let overhead_us = if t.jobs == 0 {
        0.0
    } else {
        t.capacity_us.saturating_sub(t.busy_us) as f64 / t.jobs as f64
    };

    rows.push(Row {
        metric: "pool runs judged".to_string(),
        value: format!(
            "{} ({} jobs, {} workers max)",
            judged.len(),
            t.jobs,
            max_workers
        ),
        verdict: if multi.is_empty() {
            "warn (single-worker only)".to_string()
        } else {
            "—".to_string()
        },
    });
    rows.push(Row {
        metric: "parallel efficiency".to_string(),
        value: pct(efficiency),
        verdict: if efficiency < MIN_EFFICIENCY {
            format!("warn (< {})", pct(MIN_EFFICIENCY))
        } else {
            "ok".to_string()
        },
    });
    rows.push(Row {
        metric: "idle fraction".to_string(),
        value: pct(idle_fraction),
        verdict: if efficiency < MIN_EFFICIENCY && idle_fraction > queue_wait_fraction {
            "warn (dominant loss)".to_string()
        } else {
            "ok".to_string()
        },
    });
    rows.push(Row {
        metric: "queue-wait fraction".to_string(),
        value: pct(queue_wait_fraction),
        verdict: if queue_wait_fraction > MAX_QUEUE_WAIT_FRACTION {
            format!("warn (> {})", pct(MAX_QUEUE_WAIT_FRACTION))
        } else {
            "ok".to_string()
        },
    });
    rows.push(Row {
        metric: "steal rate".to_string(),
        value: format!("{steal_rate:.2}/job"),
        verdict: if steal_rate > MAX_STEAL_RATE {
            format!("warn (> {MAX_STEAL_RATE:.1}/job)")
        } else {
            "ok".to_string()
        },
    });
    rows.push(Row {
        metric: "mean job duration".to_string(),
        value: format!("{mean_job_us:.1} µs"),
        verdict: "—".to_string(),
    });
    rows.push(Row {
        metric: "per-job overhead".to_string(),
        value: format!("{overhead_us:.1} µs"),
        verdict: if mean_job_us > 0.0 && overhead_us > MAX_OVERHEAD_RATIO * mean_job_us {
            format!("warn (> {:.0}% of mean job)", MAX_OVERHEAD_RATIO * 100.0)
        } else {
            "ok".to_string()
        },
    });

    if efficiency < MIN_EFFICIENCY {
        findings.push(Finding {
            code: "PROF001",
            message: format!(
                "parallel efficiency is {}: workers spend {} of the run not executing jobs",
                pct(efficiency),
                pct(1.0 - efficiency)
            ),
            help: "check the idle/queue-wait/overhead rows below for the dominant loss".to_string(),
        });
    }
    if mean_job_us > 0.0 && overhead_us > MAX_OVERHEAD_RATIO * mean_job_us {
        findings.push(Finding {
            code: "PROF002",
            message: format!(
                "jobs are {mean_job_us:.0} µs mean but per-job overhead is \
                 {overhead_us:.0} µs: batch work items"
            ),
            help: "merge several traces per pool job so dispatch and merge cost amortizes"
                .to_string(),
        });
    }
    if steal_rate > MAX_STEAL_RATE {
        findings.push(Finding {
            code: "PROF003",
            message: format!(
                "{steal_rate:.2} steals per job: the contiguous partition is unbalanced"
            ),
            help: "pre-partition by measured job cost or shrink the steal granularity".to_string(),
        });
    }
    if queue_wait_fraction > MAX_QUEUE_WAIT_FRACTION {
        findings.push(Finding {
            code: "PROF004",
            message: format!(
                "workers spend {} of the run acquiring work: queue contention",
                pct(queue_wait_fraction)
            ),
            help: "jobs are too small for the shared deques; batch work items".to_string(),
        });
    }
    if multi.is_empty() {
        findings.push(Finding {
            code: "PROF005",
            message: format!(
                "every pool run used a single worker (largest bag: {} jobs): \
                 speedup over serial cannot exceed 1.0",
                all.iter().map(|r| r.jobs).max().unwrap_or(0)
            ),
            help: "the host exposes too few cores for a parallel win; compare speedup \
                   only across hosts with equal worker counts"
                .to_string(),
        });
    }

    Analysis {
        rows,
        findings,
        top_regions: report.regions.top_by_self(top),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_obs::prof::{RegionProfile, WorkerLane};

    fn lane(worker: usize, jobs: u64, steals: u64, busy: u64, wait: u64, wall: u64) -> WorkerLane {
        WorkerLane {
            worker,
            jobs,
            steals,
            busy_us: busy,
            queue_wait_us: wait,
            idle_us: wall.saturating_sub(busy + wait),
            segments: vec![],
            segments_truncated: false,
        }
    }

    fn report_with(runs: Vec<PoolRun>) -> ProfReport {
        ProfReport {
            regions: RegionProfile::default(),
            pool_runs: runs,
            dropped_pool_runs: 0,
        }
    }

    #[test]
    fn healthy_profile_has_no_findings() {
        let report = report_with(vec![PoolRun {
            jobs: 100,
            workers: 2,
            wall_us: 1000,
            steals: 2,
            lanes: vec![lane(0, 50, 0, 900, 10, 1000), lane(1, 50, 2, 880, 20, 1000)],
        }]);
        let analysis = analyze(&report, 5);
        assert!(!analysis.has_findings(), "{:?}", analysis.findings);
        assert!(analysis.render().contains("no findings"));
    }

    #[test]
    fn overhead_dominated_profile_fires_prof002_with_the_numbers() {
        // 100 jobs, 2 workers, 6.25 ms wall: 5.5 ms busy → mean job
        // 55 µs, overhead (12500 − 5500)/100 = 70 µs.
        let report = report_with(vec![PoolRun {
            jobs: 100,
            workers: 2,
            wall_us: 6250,
            steals: 1,
            lanes: vec![
                lane(0, 50, 0, 2750, 100, 6250),
                lane(1, 50, 1, 2750, 100, 6250),
            ],
        }]);
        let analysis = analyze(&report, 0);
        let prof002 = analysis
            .findings
            .iter()
            .find(|f| f.code == "PROF002")
            .expect("overhead finding fires");
        assert_eq!(
            prof002.message,
            "jobs are 55 µs mean but per-job overhead is 70 µs: batch work items"
        );
        assert!(analysis.findings.iter().any(|f| f.code == "PROF001"));
        let text = analysis.render();
        assert!(text.contains("per-job overhead"), "{text}");
        assert!(text.contains("warning[PROF002]"), "{text}");
    }

    #[test]
    fn steal_heavy_profile_fires_prof003() {
        let report = report_with(vec![PoolRun {
            jobs: 10,
            workers: 2,
            wall_us: 1000,
            steals: 5,
            lanes: vec![lane(0, 5, 0, 950, 25, 1000), lane(1, 5, 5, 950, 25, 1000)],
        }]);
        let analysis = analyze(&report, 0);
        assert!(analysis.findings.iter().any(|f| f.code == "PROF003"));
    }

    #[test]
    fn queue_wait_heavy_profile_fires_prof004() {
        let report = report_with(vec![PoolRun {
            jobs: 100,
            workers: 2,
            wall_us: 1000,
            steals: 0,
            lanes: vec![
                lane(0, 50, 0, 700, 300, 1000),
                lane(1, 50, 0, 700, 300, 1000),
            ],
        }]);
        let analysis = analyze(&report, 0);
        assert!(analysis.findings.iter().any(|f| f.code == "PROF004"));
    }

    #[test]
    fn single_worker_runs_fire_prof005() {
        let report = report_with(vec![PoolRun {
            jobs: 512,
            workers: 1,
            wall_us: 1000,
            steals: 0,
            lanes: vec![lane(0, 512, 0, 990, 0, 1000)],
        }]);
        let analysis = analyze(&report, 0);
        let prof005 = analysis
            .findings
            .iter()
            .find(|f| f.code == "PROF005")
            .expect("single-worker finding fires");
        assert!(prof005.message.contains("512 jobs"), "{}", prof005.message);
        assert!(analysis
            .rows
            .iter()
            .any(|r| r.verdict.contains("single-worker")));
    }

    #[test]
    fn empty_profile_fires_prof000() {
        let analysis = analyze(&report_with(vec![]), 0);
        assert!(analysis.findings.iter().any(|f| f.code == "PROF000"));
        assert!(analysis.has_findings());
    }
}
