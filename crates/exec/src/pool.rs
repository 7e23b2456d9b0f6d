//! Deterministic work-stealing job pool on scoped threads.
//!
//! The pool runs `jobs` independent closures `f(0)..f(jobs-1)` on a
//! fixed set of workers. Indices are pre-partitioned into contiguous
//! per-worker deques; a worker that drains its own deque steals the
//! back half of a victim's. Because every job is identified by its
//! index and results are merged **in index order** after the scope
//! joins, the output is independent of the schedule — see the
//! determinism contract in the crate docs.
//!
//! Observability: each run is an `exec.pool.run` hot span and each job
//! an `exec.pool.job` hot span; worker threads adopt the caller's span
//! ([`qdi_obs::span::handoff`]), so job roll-ups land under it. The
//! `exec.pool.jobs` / `exec.pool.steals` counters and the
//! `exec.pool.workers` / `exec.pool.queue_depth` gauges aggregate
//! across runs (`queue_depth` tracks outstanding jobs, so its
//! high-water mark is the largest bag executed).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as
/// the human-readable message virtually every panic carries.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How a job bag is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads; `0` means one per available hardware thread
    /// ([`std::thread::available_parallelism`]), `1` runs the worker
    /// loop on the calling thread. The effective count is additionally
    /// capped by the number of jobs.
    pub workers: usize,
}

impl ExecConfig {
    /// One worker per available hardware thread.
    #[must_use]
    pub fn new() -> ExecConfig {
        ExecConfig { workers: 0 }
    }

    /// Runs every job inline on the calling thread.
    #[must_use]
    pub fn serial() -> ExecConfig {
        ExecConfig { workers: 1 }
    }

    /// Exactly `workers` threads (`0` = auto).
    #[must_use]
    pub fn with_workers(workers: usize) -> ExecConfig {
        ExecConfig { workers }
    }

    /// The worker count a bag of `jobs` jobs actually runs with.
    #[must_use]
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.workers
        };
        requested.min(jobs).max(1)
    }
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig::new()
    }
}

/// Runs `job(0)..job(jobs-1)` on the pool and returns the results in
/// index order. Equivalent to `(0..jobs).map(job).collect()` for any
/// worker count (see the determinism contract).
///
/// # Panics
///
/// A panicking job cancels the remaining queue; once every worker has
/// joined, the pool panics with a message naming the lowest panicked
/// index and its payload (use [`crate::supervisor::run_supervised`] to
/// quarantine panicking jobs instead).
pub fn run_indexed<T, F>(cfg: &ExecConfig, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_run_indexed(cfg, jobs, |i| Ok::<T, std::convert::Infallible>(job(i))) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// Fallible variant of [`run_indexed`]: runs jobs until one returns
/// `Err`, then cancels the remaining queue and returns the error with
/// the smallest index among the failures observed.
///
/// On success the result vector is schedule-independent. On failure the
/// *returned* error is one produced by the job closure, but *which*
/// failing index surfaces may depend on the schedule: jobs queued after
/// the first observed failure are cancelled, not run.
///
/// # Errors
///
/// The first (lowest-index) error among the jobs that ran.
///
/// # Panics
///
/// A panicking job no longer aborts the process with an anonymous
/// `resume_unwind`: the queue is cancelled, every worker joins cleanly,
/// and the pool panics with a message reporting which index panicked
/// and its payload message.
pub fn try_run_indexed<T, E, F>(cfg: &ExecConfig, jobs: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = cfg.effective_workers(jobs);
    let _span = qdi_obs::span::hot("exec.pool.run");
    let start = std::time::Instant::now();
    qdi_obs::metrics::gauge("exec.pool.workers").set(workers as i64);
    let depth = qdi_obs::metrics::gauge("exec.pool.queue_depth");
    depth.add(jobs as i64);
    if jobs == 0 {
        return Ok(Vec::new());
    }

    let run = Run {
        // Contiguous partition: worker w owns [w*jobs/workers, (w+1)*jobs/workers).
        queues: (0..workers)
            .map(|w| Mutex::new((w * jobs / workers..(w + 1) * jobs / workers).collect()))
            .collect(),
        cancel: AtomicBool::new(false),
        epoch: start,
        // Snapshot the profiler switch once per bag so a mid-run toggle
        // cannot produce half-recorded timelines.
        profiling: qdi_obs::prof::enabled(),
        job: &job,
        depth: depth.clone(),
        jobs_metric: qdi_obs::metrics::counter("exec.pool.jobs"),
        steals_metric: qdi_obs::metrics::counter("exec.pool.steals"),
    };
    // One worker runs on the calling thread; more run in scoped threads.
    let mut per_worker: Vec<WorkerOutput<T, E>> = if workers == 1 {
        vec![work(&run, 0)]
    } else {
        let run = &run;
        let parent = qdi_obs::span::handoff();
        let parent = &parent;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|wid| {
                    s.spawn(move || {
                        let _adopted = parent.as_ref().map(qdi_obs::span::Handoff::adopt);
                        work(run, wid)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // Job panics are caught inside the worker loop; reaching
                    // this arm means the pool machinery itself panicked.
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        })
    };

    if run.profiling {
        let wall_us = elapsed_us(&start);
        let lanes: Vec<qdi_obs::prof::WorkerLane> = per_worker
            .iter_mut()
            .filter_map(|w| w.lane.take())
            .map(|lane| lane.finish(wall_us))
            .collect();
        let steals = lanes.iter().map(|l| l.steals).sum();
        qdi_obs::prof::record_pool_run(qdi_obs::prof::PoolRun {
            jobs: jobs as u64,
            workers,
            wall_us,
            steals,
            lanes,
        });
    }

    let mut merged: Vec<(usize, Result<T, E>)> = Vec::with_capacity(jobs);
    let mut first_panic: Option<(usize, String)> = None;
    let mut panicked_jobs = 0usize;
    for (wid, worker) in per_worker.into_iter().enumerate() {
        if let Some((index, msg)) = worker.panicked {
            panicked_jobs += 1;
            if first_panic
                .as_ref()
                .is_none_or(|(lowest, _)| index < *lowest)
            {
                first_panic = Some((index, msg));
            }
        }
        qdi_obs::metrics::counter(&format!("exec.pool.worker.{wid}.jobs")).add(worker.done as u64);
        // Share of the bag this worker executed, in percent. Computed
        // once after the workers stop (not on the hot path); an even
        // split reads 100/workers, so a stalled worker is visible as a
        // near-zero share. Feeds the pool section of `qdi-mon watch`.
        qdi_obs::metrics::gauge(&format!("exec.pool.worker.{wid}.share_pct"))
            .set((worker.done * 100 / jobs) as i64);
        merged.extend(worker.results);
    }
    // Cancelled (never-run) jobs leave no entry; drain the gauge for
    // them (panicked indices already drained theirs in the worker).
    depth.add(-((jobs - merged.len() - panicked_jobs) as i64));
    if let Some((index, msg)) = first_panic {
        panic!(
            "qdi-exec pool job {index} panicked: {msg} ({} of {jobs} jobs completed)",
            merged.len()
        );
    }
    merged.sort_by_key(|(i, _)| *i);
    merged.into_iter().map(|(_, r)| r).collect()
}

/// Microseconds elapsed since `epoch` (the pool-run clock the lane
/// timelines are expressed in).
fn elapsed_us(epoch: &std::time::Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Shared state of one pool run, borrowed by every worker.
struct Run<'a, F> {
    queues: Vec<Mutex<VecDeque<usize>>>,
    cancel: AtomicBool,
    /// The run clock every lane timeline is expressed in.
    epoch: std::time::Instant,
    profiling: bool,
    job: &'a F,
    depth: qdi_obs::metrics::Gauge,
    jobs_metric: qdi_obs::metrics::Counter,
    steals_metric: qdi_obs::metrics::Counter,
}

/// What one worker did: jobs completed, `(job index, result)` pairs,
/// its profiling lane, and the job that panicked, if any.
struct WorkerOutput<T, E> {
    done: usize,
    results: Vec<(usize, Result<T, E>)>,
    lane: Option<qdi_obs::prof::LaneRecorder>,
    panicked: Option<(usize, String)>,
}

/// The worker loop: pops its own queue front to back, steals the back
/// half of the fullest victim when it runs dry, and stops when every
/// queue is drained or any job fails or panics.
fn work<T, E, F>(run: &Run<'_, F>, wid: usize) -> WorkerOutput<T, E>
where
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let queues = &run.queues;
    let epoch = &run.epoch;
    let mut out = WorkerOutput {
        done: 0,
        results: Vec::new(),
        lane: run.profiling.then(|| qdi_obs::prof::LaneRecorder::new(wid)),
        panicked: None,
    };
    let lane = &mut out.lane;
    loop {
        if run.cancel.load(Ordering::Relaxed) {
            break;
        }
        // Everything from here until a job index is in hand counts as
        // queue wait: own-queue locking plus steal scans.
        let acquire_start = lane.as_ref().map(|_| elapsed_us(epoch));
        let next = queues[wid].lock().expect("queue poisoned").pop_front();
        let Some(index) = next else {
            // Steal the back half of the fullest victim.
            let mut best: Option<(usize, usize)> = None;
            for (vid, victim) in queues.iter().enumerate() {
                if vid == wid {
                    continue;
                }
                let len = victim.lock().expect("queue poisoned").len();
                if len > 0 && best.is_none_or(|(_, blen)| len > blen) {
                    best = Some((vid, len));
                }
            }
            let Some((vid, _)) = best else {
                break; // every queue is drained
            };
            let mut victim = queues[vid].lock().expect("queue poisoned");
            let n = victim.len();
            if n > 0 {
                let stolen = victim.split_off(n - n.div_ceil(2));
                drop(victim);
                run.steals_metric.inc();
                if let Some(lane) = lane.as_mut() {
                    lane.steal();
                }
                queues[wid].lock().expect("queue poisoned").extend(stolen);
            } // else raced; rescan
            if let (Some(lane), Some(from)) = (lane.as_mut(), acquire_start) {
                lane.queue_wait_us(elapsed_us(epoch) - from);
            }
            continue;
        };
        let job_start = lane.as_ref().map(|_| elapsed_us(epoch));
        if let (Some(lane), Some(from), Some(to)) = (lane.as_mut(), acquire_start, job_start) {
            lane.queue_wait_us(to - from);
        }
        let outcome = {
            let _span = qdi_obs::span::hot("exec.pool.job");
            catch_unwind(AssertUnwindSafe(|| (run.job)(index)))
        };
        if let (Some(lane), Some(from)) = (lane.as_mut(), job_start) {
            lane.job(index as u64, from, elapsed_us(epoch));
        }
        run.depth.add(-1);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(payload) => {
                // A panic cancels the run like an error does, but is
                // reported after the merge so every worker stops
                // cleanly first.
                out.panicked = Some((index, panic_message(payload.as_ref())));
                run.cancel.store(true, Ordering::Relaxed);
                break;
            }
        };
        out.done += 1;
        run.jobs_metric.inc();
        let failed = outcome.is_err();
        out.results.push((index, outcome));
        if failed {
            run.cancel.store(true, Ordering::Relaxed);
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::job_rng;
    use rand::Rng;

    #[test]
    fn matches_serial_map_for_any_worker_count() {
        let expected: Vec<u64> = (0..257).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for workers in [1, 2, 3, 8] {
            let got = run_indexed(&ExecConfig::with_workers(workers), 257, |i| {
                (i as u64).wrapping_mul(0x9E37)
            });
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn per_index_rng_is_schedule_independent() {
        let draw = |i: usize| -> u64 { job_rng(42, i as u64).gen() };
        let serial: Vec<u64> = (0..100).map(draw).collect();
        let parallel = run_indexed(&ExecConfig::with_workers(8), 100, draw);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_bag_returns_empty() {
        let out: Vec<u8> = run_indexed(&ExecConfig::new(), 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_bags_cover_every_index() {
        for jobs in [1usize, 2, 5, 7, 31] {
            let got = run_indexed(&ExecConfig::with_workers(4), jobs, |i| i);
            assert_eq!(got, (0..jobs).collect::<Vec<_>>(), "jobs = {jobs}");
        }
    }

    #[test]
    fn error_cancels_and_surfaces() {
        for workers in [1, 4] {
            let result = try_run_indexed(&ExecConfig::with_workers(workers), 64, |i| {
                if i == 20 {
                    Err(format!("boom at {i}"))
                } else {
                    Ok(i)
                }
            });
            let err = result.expect_err("job 20 fails");
            assert!(err.starts_with("boom at"), "{err}");
        }
    }

    #[test]
    fn panicking_job_is_reported_with_index_and_payload() {
        for workers in [1, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_indexed(&ExecConfig::with_workers(workers), 64, |i| {
                    assert!(i != 20, "job exploded deliberately");
                    i
                })
            }))
            .expect_err("job 20 panics");
            let msg = panic_message(caught.as_ref());
            assert!(
                msg.contains("pool job 20 panicked") && msg.contains("job exploded deliberately"),
                "workers = {workers}: {msg}"
            );
        }
    }

    #[test]
    fn effective_workers_caps_by_jobs() {
        assert_eq!(ExecConfig::with_workers(8).effective_workers(3), 3);
        assert_eq!(ExecConfig::with_workers(2).effective_workers(100), 2);
        assert_eq!(ExecConfig::serial().effective_workers(100), 1);
        assert!(ExecConfig::new().effective_workers(100) >= 1);
        assert_eq!(ExecConfig::with_workers(8).effective_workers(0), 1);
    }

    /// Runs `body` with a fresh run record installed, and the profile
    /// too when `profile`, and rebuilds the profile from the file. Both
    /// are process-global, so these tests take one gate.
    fn recorded(name: &str, profile: bool, body: impl FnOnce()) -> qdi_obs::ProfReport {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let path =
            std::env::temp_dir().join(format!("qdi_exec_pool_{name}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        qdi_obs::span::set_file(&path);
        if profile {
            qdi_obs::prof::install();
        }
        body();
        qdi_obs::prof::uninstall();
        qdi_obs::flush();
        qdi_obs::span::close_file();
        let read = qdi_obs::span::read_records(&path).expect("run record reads");
        let _ = std::fs::remove_file(&path);
        qdi_obs::ProfReport::from_records(&read.records)
    }

    #[test]
    fn profiling_records_pool_runs_with_lanes() {
        // Distinctive job counts, so the bags of concurrent tests in this
        // binary, which reach the same run record, cannot alias the runs.
        let report = recorded("lanes", true, || {
            let _ = run_indexed(&ExecConfig::with_workers(2), 23, |i| i * 3);
            let _ = run_indexed(&ExecConfig::serial(), 7, |i| i);
        });

        let parallel = report
            .pool_runs
            .iter()
            .find(|r| r.jobs == 23 && r.workers == 2)
            .expect("parallel run recorded");
        assert_eq!(parallel.lanes.len(), 2);
        assert_eq!(parallel.lanes.iter().map(|l| l.jobs).sum::<u64>(), 23);
        assert_eq!(
            parallel.steals,
            parallel.lanes.iter().map(|l| l.steals).sum::<u64>()
        );

        let serial = report
            .pool_runs
            .iter()
            .find(|r| r.jobs == 7 && r.workers == 1)
            .expect("a one-worker run records its lane");
        assert_eq!(serial.lanes.len(), 1);
        assert_eq!(serial.lanes[0].jobs, 7);
        assert_eq!(serial.steals, 0);

        // The job closures show up in the call tree nested under
        // `exec.pool.run`, whether a scoped worker or the calling thread
        // ran them.
        let job_visits: u64 = report
            .regions
            .regions
            .iter()
            .filter(|r| r.path == "exec.pool.run;exec.pool.job")
            .map(|r| r.count)
            .sum();
        assert!(job_visits >= 30, "23 parallel + 7 serial, got {job_visits}");
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        // The run record alone: spans record, but no pool run does.
        let report = recorded("no_profile", false, || {
            let _ = run_indexed(&ExecConfig::with_workers(2), 19, |i| i);
        });
        assert!(
            report
                .regions
                .regions
                .iter()
                .any(|r| r.path == "exec.pool.run"),
            "the bag's spans record"
        );
        assert!(
            !report.pool_runs.iter().any(|r| r.jobs == 19),
            "no PoolRun without the profile"
        );
    }

    #[test]
    fn oversubscribed_pool_still_deterministic() {
        // More workers than jobs and than cores: indices must still map
        // 1:1 onto results.
        let got = run_indexed(&ExecConfig::with_workers(16), 5, |i| i * i);
        assert_eq!(got, vec![0, 1, 4, 9, 16]);
    }
}
