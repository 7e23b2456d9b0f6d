//! Wall-clock attribution profile: the call tree of hot spans and
//! per-worker pool timelines.
//!
//! The profile answers *where the time goes*. Its call tree is built
//! from span records alone: [`install`] adds the aggregator as a span
//! consumer (turning spans on), and every hot-span roll-up record
//! ([`crate::span::SpanRecord::rollup`]) folds into the node of its
//! folded path — the hot names from its nearest ordinary ancestor down
//! (`"exec.pool.run;exec.pool.job;dpa.acquire;sim.run"`). The
//! `qdi-exec` pool additionally records one [`PoolRun`] per parallel bag
//! while the profile is installed: per-worker lanes with job segments,
//! steal events, queue-wait and idle totals.
//!
//! [`report`] merges everything into a [`ProfReport`]. The profile is
//! never stored: the run record holds the same roll-ups and pool runs,
//! and [`ProfReport::from_records`] rebuilds the report from them by the
//! same fold, which `qdi-mon analyze` turns into a verdict table and
//! `qdi-mon flame` / `qdi-mon timeline` render as SVGs.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::record::Record;

/// Separator between frame names in a folded region path (the
/// flamegraph "folded stacks" convention).
pub const PATH_SEP: char = ';';

/// Job segments kept per worker lane in a [`PoolRun`]; further
/// segments are merged into the last one and flagged as truncated.
pub const MAX_LANE_SEGMENTS: usize = 512;

/// Pool runs retained in the in-memory ring; older runs are dropped
/// (counted in [`ProfReport::dropped_pool_runs`]) but their totals are
/// preserved via the lane aggregates of the runs that remain.
pub const MAX_POOL_RUNS: usize = 128;

/// Installs the profile as a span consumer: spans record from now on
/// and roll-ups accumulate until [`reset`].
pub fn install() {
    crate::set_switch(crate::SWITCH_PROFILE, true);
}

/// Removes the profile consumer; accumulated data stays readable.
pub fn uninstall() {
    crate::set_switch(crate::SWITCH_PROFILE, false);
}

/// Whether the profile is installed.
#[must_use]
pub fn enabled() -> bool {
    crate::switch() & crate::SWITCH_PROFILE != 0
}

// ---------------------------------------------------------------------------
// The call-tree aggregator
// ---------------------------------------------------------------------------

fn tree() -> &'static Mutex<HashMap<String, RegionStat>> {
    static TREE: OnceLock<Mutex<HashMap<String, RegionStat>>> = OnceLock::new();
    TREE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Folds the roll-up records of one closed span into the call tree.
pub(crate) fn ingest(batch: &[Record]) {
    fold(&mut tree().lock().expect("prof tree poisoned"), batch);
}

/// Folds the hot-span roll-ups among `records` into `tree`. Roll-ups
/// arrive parents first, so a record's path is its parent roll-up's
/// path plus its own name; a roll-up whose parent is an ordinary span
/// starts a path.
fn fold(tree: &mut HashMap<String, RegionStat>, records: &[Record]) {
    let mut paths: HashMap<&str, String> = HashMap::new();
    for record in records {
        let Record::Span(record) = record else {
            continue;
        };
        let Some(rollup) = record.rollup else {
            continue;
        };
        let path = match record.parent_id.as_deref().and_then(|p| paths.get(p)) {
            Some(parent) => format!("{parent}{PATH_SEP}{}", record.name),
            None => record.name.clone(),
        };
        let stat = tree.entry(path.clone()).or_insert_with(|| RegionStat {
            name: record.name.clone(),
            depth: path.matches(PATH_SEP).count(),
            path: path.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        stat.count = stat.count.saturating_add(rollup.count);
        stat.total_ns = stat.total_ns.saturating_add(rollup.total_ns);
        stat.self_ns = stat.self_ns.saturating_add(rollup.self_ns);
        stat.min_ns = stat.min_ns.min(rollup.min_ns);
        stat.max_ns = stat.max_ns.max(rollup.max_ns);
        paths.insert(&record.span_id, path);
    }
}

// ---------------------------------------------------------------------------
// Pool timelines
// ---------------------------------------------------------------------------

/// One contiguous busy stretch of a worker lane: consecutive jobs with
/// no measurable gap, coalesced so big bags stay renderable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Microseconds from the pool-run start to the segment start.
    pub start_us: u64,
    /// Microseconds from the pool-run start to the segment end.
    pub end_us: u64,
    /// Index of the first job in the segment.
    pub first_job: u64,
    /// Jobs coalesced into the segment.
    pub jobs: u32,
}

/// Timeline and totals of one worker of one pool run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerLane {
    /// Worker id within the run (0-based).
    pub worker: usize,
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Steals this worker performed.
    pub steals: u64,
    /// Microseconds spent inside job closures.
    pub busy_us: u64,
    /// Microseconds spent acquiring work: queue locks, steal scans.
    pub queue_wait_us: u64,
    /// Microseconds neither busy nor acquiring work (run wall minus
    /// the two), i.e. the worker had nothing to do.
    pub idle_us: u64,
    /// Coalesced busy segments (at most [`MAX_LANE_SEGMENTS`]).
    pub segments: Vec<Segment>,
    /// Whether segments were merged away beyond the cap.
    pub segments_truncated: bool,
}

/// One parallel bag executed by the `qdi-exec` pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolRun {
    /// Jobs in the bag.
    pub jobs: u64,
    /// Workers the bag ran with.
    pub workers: usize,
    /// Wall time of the whole run, µs.
    pub wall_us: u64,
    /// Steals across all workers.
    pub steals: u64,
    /// Per-worker lanes, in worker order.
    pub lanes: Vec<WorkerLane>,
}

impl PoolRun {
    /// Sum of `busy_us` over the lanes.
    #[must_use]
    pub fn busy_us(&self) -> u64 {
        self.lanes
            .iter()
            .fold(0, |acc, l| acc.saturating_add(l.busy_us))
    }

    /// Sum of `queue_wait_us` over the lanes.
    #[must_use]
    pub fn queue_wait_us(&self) -> u64 {
        self.lanes
            .iter()
            .fold(0, |acc, l| acc.saturating_add(l.queue_wait_us))
    }

    /// Sum of `idle_us` over the lanes.
    #[must_use]
    pub fn idle_us(&self) -> u64 {
        self.lanes
            .iter()
            .fold(0, |acc, l| acc.saturating_add(l.idle_us))
    }

    /// Fraction of the run's worker-seconds spent inside job closures
    /// (`busy / (workers · wall)`), the parallel efficiency. `None`
    /// when the run has zero wall time.
    #[must_use]
    pub fn efficiency(&self) -> Option<f64> {
        let capacity = self.wall_us.saturating_mul(self.workers as u64);
        if capacity == 0 {
            return None;
        }
        Some(self.busy_us() as f64 / capacity as f64)
    }
}

/// The most recent [`MAX_POOL_RUNS`] pool runs and how many older
/// ones were dropped.
#[derive(Default)]
struct PoolRuns {
    runs: Vec<PoolRun>,
    dropped: u64,
}

impl PoolRuns {
    fn push(&mut self, run: PoolRun) {
        if self.runs.len() == MAX_POOL_RUNS {
            self.runs.remove(0);
            self.dropped += 1;
        }
        self.runs.push(run);
    }
}

fn pool_registry() -> &'static Mutex<PoolRuns> {
    static POOL: OnceLock<Mutex<PoolRuns>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(PoolRuns::default()))
}

/// Records one completed pool run (called by `qdi-exec` after the
/// scope joins, never on the job hot path) and appends it to the run
/// record, when one is installed. Keeps the most recent
/// [`MAX_POOL_RUNS`] runs.
pub fn record_pool_run(run: PoolRun) {
    if crate::switch() & crate::SWITCH_FILE != 0 {
        crate::span::write_file(&[Record::PoolRun {
            ts_us: crate::unix_us().saturating_sub(run.wall_us),
            run: run.clone(),
        }]);
    }
    pool_registry()
        .lock()
        .expect("prof pool poisoned")
        .push(run);
}

/// Builds one worker lane incrementally while the worker runs. All
/// methods are cheap relative to the clock reads the caller already
/// pays; the recorder is only constructed when profiling is enabled.
#[derive(Debug)]
pub struct LaneRecorder {
    worker: usize,
    jobs: u64,
    steals: u64,
    busy_us: u64,
    queue_wait_us: u64,
    segments: Vec<Segment>,
    truncated: bool,
}

impl LaneRecorder {
    /// A fresh lane for `worker`.
    #[must_use]
    pub fn new(worker: usize) -> LaneRecorder {
        LaneRecorder {
            worker,
            jobs: 0,
            steals: 0,
            busy_us: 0,
            queue_wait_us: 0,
            segments: Vec::new(),
            truncated: false,
        }
    }

    /// Records one executed job by its `[start_us, end_us]` window on
    /// the run clock. Jobs that start where the previous segment ended
    /// (within 1 µs) coalesce.
    pub fn job(&mut self, index: u64, start_us: u64, end_us: u64) {
        self.jobs += 1;
        self.busy_us += end_us.saturating_sub(start_us);
        if let Some(last) = self.segments.last_mut() {
            if start_us.saturating_sub(last.end_us) <= 1 {
                last.end_us = last.end_us.max(end_us);
                last.jobs += 1;
                return;
            }
        }
        if self.segments.len() == MAX_LANE_SEGMENTS {
            // Keep totals exact and the tail visible: extend the last
            // segment instead of growing without bound.
            self.truncated = true;
            let last = self.segments.last_mut().expect("cap > 0");
            last.end_us = last.end_us.max(end_us);
            last.jobs += 1;
            return;
        }
        self.segments.push(Segment {
            start_us,
            end_us,
            first_job: index,
            jobs: 1,
        });
    }

    /// Records one steal performed by this worker.
    pub fn steal(&mut self) {
        self.steals += 1;
    }

    /// Adds time spent acquiring work (queue locks, steal scans).
    pub fn queue_wait_us(&mut self, us: u64) {
        self.queue_wait_us += us;
    }

    /// Finishes the lane against the run's total wall time.
    #[must_use]
    pub fn finish(self, wall_us: u64) -> WorkerLane {
        WorkerLane {
            worker: self.worker,
            jobs: self.jobs,
            steals: self.steals,
            busy_us: self.busy_us,
            queue_wait_us: self.queue_wait_us,
            idle_us: wall_us.saturating_sub(self.busy_us + self.queue_wait_us),
            segments: self.segments,
            segments_truncated: self.truncated,
        }
    }
}

// ---------------------------------------------------------------------------
// Merged profile
// ---------------------------------------------------------------------------

/// One merged call-tree node across all threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionStat {
    /// Folded-stack path, frames joined with [`PATH_SEP`]
    /// (`"exec.pool.job;sim.tb.run;sim.run"`).
    pub path: String,
    /// Leaf frame name.
    pub name: String,
    /// Nesting depth (0 = root-level region).
    pub depth: usize,
    /// Times the region closed.
    pub count: u64,
    /// Total wall time inside the region, ns.
    pub total_ns: u64,
    /// Total minus time attributed to child regions, ns.
    pub self_ns: u64,
    /// Shortest single visit, ns.
    pub min_ns: u64,
    /// Longest single visit, ns.
    pub max_ns: u64,
}

impl RegionStat {
    /// Mean wall time per visit, ns.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// The merged region call tree, sorted by path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionProfile {
    /// Merged nodes, sorted by `path` for deterministic output.
    pub regions: Vec<RegionStat>,
}

impl RegionProfile {
    /// The `top` regions by self time, descending (ties broken by
    /// path so the order is total).
    #[must_use]
    pub fn top_by_self(&self, top: usize) -> Vec<RegionStat> {
        let mut rows = self.regions.clone();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
        rows.truncate(top);
        rows
    }
}

/// The merged profile: the region call tree and the pool runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfReport {
    /// Merged region call tree.
    pub regions: RegionProfile,
    /// Retained pool runs, oldest first.
    pub pool_runs: Vec<PoolRun>,
    /// Pool runs dropped from the ring (beyond [`MAX_POOL_RUNS`]).
    pub dropped_pool_runs: u64,
}

impl ProfReport {
    /// Rebuilds the profile from the records of a run record: the fold
    /// the installed profile runs live, over every roll-up, and the
    /// pool runs in the same ring. A run record written while the
    /// profile was installed rebuilds to what [`report`] returns at the
    /// same point.
    #[must_use]
    pub fn from_records(records: &[Record]) -> ProfReport {
        let mut tree = HashMap::new();
        fold(&mut tree, records);
        let mut pool = PoolRuns::default();
        for record in records {
            if let Record::PoolRun { run, .. } = record {
                pool.push(run.clone());
            }
        }
        ProfReport::assemble(&tree, &pool)
    }

    fn assemble(tree: &HashMap<String, RegionStat>, pool: &PoolRuns) -> ProfReport {
        let mut regions: Vec<RegionStat> = tree.values().cloned().collect();
        regions.sort_by(|a, b| a.path.cmp(&b.path));
        ProfReport {
            regions: RegionProfile { regions },
            pool_runs: pool.runs.clone(),
            dropped_pool_runs: pool.dropped,
        }
    }
}

/// Emits pending thread-root roll-ups, then snapshots the call tree and
/// the pool-run ring as a [`ProfReport`]. Non-destructive: accumulation
/// continues afterwards.
#[must_use]
pub fn report() -> ProfReport {
    crate::span::drain_roots();
    let tree = tree().lock().expect("prof tree poisoned");
    ProfReport::assemble(&tree, &pool_registry().lock().expect("prof pool poisoned"))
}

/// Clears the call tree and the pool runs (tests, between independent
/// runs). Spans still open attribute into the fresh tree when they
/// close.
pub fn reset() {
    tree().lock().expect("prof tree poisoned").clear();
    let mut pool = pool_registry().lock().expect("prof pool poisoned");
    pool.runs.clear();
    pool.dropped = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::hot;

    /// These tests install the process-global profile; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .expect("test gate poisoned")
    }

    fn find<'a>(prof: &'a RegionProfile, path: &str) -> &'a RegionStat {
        prof.regions
            .iter()
            .find(|r| r.path == path)
            .unwrap_or_else(|| panic!("region `{path}` missing"))
    }

    #[test]
    fn uninstalled_profile_records_nothing() {
        let _gate = lock();
        uninstall();
        reset();
        {
            let _r = hot("prof.test.disabled");
        }
        let rep = report();
        assert!(
            !rep.regions
                .regions
                .iter()
                .any(|r| r.path.contains("prof.test.disabled")),
            "no call tree without the profile"
        );
    }

    #[test]
    fn nested_hot_spans_attribute_self_and_total() {
        let _gate = lock();
        install();
        reset();
        {
            let _outer = hot("prof.test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = hot("prof.test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let rep = report();
        uninstall();
        let outer = find(&rep.regions, "prof.test.outer");
        let inner = find(&rep.regions, "prof.test.outer;prof.test.inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.name, "prof.test.inner");
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns < outer.total_ns,
            "inner time must not count as outer self time"
        );
        assert!(inner.min_ns <= inner.max_ns);
        reset();
    }

    #[test]
    fn repeat_visits_accumulate_counts_and_minmax() {
        let _gate = lock();
        install();
        reset();
        for _ in 0..5 {
            let _r = hot("prof.test.repeat");
        }
        let rep = report();
        uninstall();
        let r = find(&rep.regions, "prof.test.repeat");
        assert_eq!(r.count, 5);
        assert!(r.min_ns <= r.max_ns);
        assert!(r.total_ns >= r.max_ns);
        assert!((r.mean_ns() - r.total_ns as f64 / 5.0).abs() < 1e-9);
        reset();
    }

    #[test]
    fn threads_merge_into_one_tree() {
        let _gate = lock();
        install();
        reset();
        // A finished thread's root roll-ups reach the next report.
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let _r = hot("prof.test.worker");
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker runs");
            }
        });
        let _r = hot("prof.test.worker");
        drop(_r);
        let rep = report();
        uninstall();
        assert_eq!(find(&rep.regions, "prof.test.worker").count, 4);
        reset();
    }

    #[test]
    fn lane_recorder_coalesces_and_caps_segments() {
        let mut lane = LaneRecorder::new(0);
        lane.job(0, 0, 10);
        lane.job(1, 10, 20); // adjacent: coalesces
        lane.job(2, 50, 60); // gap: new segment
        lane.steal();
        lane.queue_wait_us(5);
        let worker = lane.finish(100);
        assert_eq!(worker.segments.len(), 2);
        assert_eq!(worker.segments[0].jobs, 2);
        assert_eq!(worker.jobs, 3);
        assert_eq!(worker.busy_us, 30);
        assert_eq!(worker.queue_wait_us, 5);
        assert_eq!(worker.idle_us, 100 - 30 - 5);
        assert!(!worker.segments_truncated);

        let mut big = LaneRecorder::new(1);
        for i in 0..(MAX_LANE_SEGMENTS as u64 + 10) {
            big.job(i, i * 10, i * 10 + 2); // gaps of 8 µs: no coalescing
        }
        let worker = big.finish(u64::MAX);
        assert_eq!(worker.segments.len(), MAX_LANE_SEGMENTS);
        assert!(worker.segments_truncated);
        assert_eq!(worker.jobs, MAX_LANE_SEGMENTS as u64 + 10);
    }

    #[test]
    fn pool_run_efficiency_and_totals() {
        let run = PoolRun {
            jobs: 8,
            workers: 2,
            wall_us: 100,
            steals: 1,
            lanes: vec![
                WorkerLane {
                    worker: 0,
                    jobs: 5,
                    steals: 0,
                    busy_us: 90,
                    queue_wait_us: 5,
                    idle_us: 5,
                    segments: vec![],
                    segments_truncated: false,
                },
                WorkerLane {
                    worker: 1,
                    jobs: 3,
                    steals: 1,
                    busy_us: 50,
                    queue_wait_us: 10,
                    idle_us: 40,
                    segments: vec![],
                    segments_truncated: false,
                },
            ],
        };
        assert_eq!(run.busy_us(), 140);
        assert_eq!(run.queue_wait_us(), 15);
        assert_eq!(run.idle_us(), 45);
        let eff = run.efficiency().unwrap();
        assert!(
            (eff - 0.7).abs() < 1e-12,
            "140 / (2 * 100) = 0.7, got {eff}"
        );
    }

    #[test]
    fn report_rebuilds_from_run_record_records() {
        use crate::span::{Rollup, SpanRecord};
        let rollup = |count| {
            Some(Rollup {
                count,
                total_ns: 40,
                self_ns: 10,
                min_ns: 2,
                max_ns: 9,
            })
        };
        let span = |id: &str, parent: &str, name: &str, count: Option<u64>| {
            Record::Span(SpanRecord {
                trace_id: "4bf92f3577b34da6a3ce929d0e0e4736".into(),
                span_id: id.into(),
                parent_id: Some(parent.into()),
                links: vec![],
                service: "t".into(),
                name: name.into(),
                start_unix_us: 0,
                dur_us: 1,
                attrs: vec![],
                events: vec![],
                thread: Some(0),
                rollup: count.and_then(rollup),
            })
        };
        let run = PoolRun {
            jobs: 4,
            workers: 2,
            wall_us: 10,
            steals: 0,
            lanes: vec![],
        };
        let records = vec![
            // Two batches under two ordinary spans fold into one path.
            span("00000000000000b1", "00000000000000a1", "outer", Some(2)),
            span("00000000000000b2", "00000000000000b1", "inner", Some(3)),
            span("00000000000000a1", "00000000000000f0", "lease", None),
            span("00000000000000c1", "00000000000000a2", "outer", Some(1)),
            Record::PoolRun {
                ts_us: 5,
                run: run.clone(),
            },
        ];
        let rep = ProfReport::from_records(&records);
        let paths: Vec<&str> = rep
            .regions
            .regions
            .iter()
            .map(|r| r.path.as_str())
            .collect();
        assert_eq!(paths, ["outer", "outer;inner"]);
        let outer = find(&rep.regions, "outer");
        assert_eq!((outer.count, outer.total_ns, outer.min_ns), (3, 80, 2));
        assert_eq!(find(&rep.regions, "outer;inner").depth, 1);
        assert_eq!(rep.pool_runs, vec![run]);
    }

    #[test]
    fn top_by_self_picks_the_slowest_region() {
        let _gate = lock();
        install();
        reset();
        {
            let _slow = hot("prof.test.slow");
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        {
            let _fast = hot("prof.test.fast");
        }
        let top = report().regions.top_by_self(1);
        uninstall();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].name, "prof.test.slow");
        reset();
    }
}
