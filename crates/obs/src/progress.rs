//! Live campaign progress: completed/total, throughput and ETA.
//!
//! Long-running parallel loops (`qdi_dpa::parallel`, the store-backed
//! campaign runner, `qdi_fi` fault campaigns, `qdi_pnr` stability
//! studies) register a [`ProgressTask`] and call
//! [`ProgressTask::advance`] once per finished work item. Progress has
//! one switch, its file: until [`set_file`] installs one — the default —
//! [`task`] hands back an inert handle and the whole facility costs one
//! relaxed atomic load per registration and a branch per advance,
//! mirroring the `QDI_LOG`-off tracing path.
//!
//! Once a file is installed, each task keeps all-atomic state (completed
//! count, an EWMA of instantaneous throughput) so worker threads never
//! contend on a lock, [`ProgressSnapshot::capture`] folds every live
//! task plus the `exec.pool.*` gauges into a serializable snapshot, and
//! advances stream that snapshot to the file at most every 200 ms for
//! `qdi-mon watch` to tail. [`ewma_step`] and [`TaskSnapshot::new`] are
//! the throughput and ETA formulas of every producer of a
//! [`TaskSnapshot`], `qdi-serve`'s jobs included.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::metrics::{MetricSample, MetricsSnapshot};

/// Time constant of the throughput EWMA, in seconds.
const EWMA_TAU_S: f64 = 2.0;

/// ETA value reported when throughput is still unknown.
pub const ETA_UNKNOWN: f64 = -1.0;

/// Minimum spacing of the progress-file writes that advances drive, µs.
const WRITE_INTERVAL_US: u64 = 200_000;

/// Fast-path flag mirroring "a progress file is installed": tasks are
/// live.
static FILE_SET: AtomicBool = AtomicBool::new(false);
/// `now_us` of the last progress-file write (claimed by CAS).
static LAST_WRITE_US: AtomicU64 = AtomicU64::new(0);

/// One step of a throughput EWMA: `ewma` (items/s, 0 before any
/// sample) after `items` more finished in `dt_s` seconds. The first
/// sample seeds it; later ones move it by α = 1 − e^(−Δt/τ), τ = 2 s,
/// so the weight of a sample grows with the time it covers. A step of
/// no time leaves it unchanged.
#[must_use]
pub fn ewma_step(ewma: f64, items: u64, dt_s: f64) -> f64 {
    if dt_s <= 0.0 {
        return ewma;
    }
    let inst = items as f64 / dt_s;
    if ewma == 0.0 {
        inst
    } else {
        ewma + (1.0 - (-dt_s / EWMA_TAU_S).exp()) * (inst - ewma)
    }
}

struct TaskInner {
    name: String,
    total: AtomicU64,
    completed: AtomicU64,
    /// Items already done when the clock started at `started_us`.
    started_at: u64,
    started_us: u64,
    last_us: AtomicU64,
    /// EWMA of instantaneous throughput (items/s), stored as f64 bits.
    ewma_bits: AtomicU64,
    done: AtomicBool,
}

fn registry() -> &'static Mutex<Vec<Arc<TaskInner>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<TaskInner>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a named task with a known work-item total. Re-registering
/// a name replaces the previous task (campaign restarted). Until a
/// progress file is installed the returned handle is inert, and stays
/// so.
#[must_use]
pub fn task(name: &str, total: usize) -> ProgressTask {
    task_from(name, 0, total)
}

/// Registers a task that starts with `completed` of its `total` items
/// already done, such as a campaign resumed from a checkpoint. Those
/// items are no rate sample: the EWMA waits for the first
/// [`ProgressTask::advance`], and the overall rate counts only the items
/// finished after registration.
#[must_use]
pub fn task_from(name: &str, completed: usize, total: usize) -> ProgressTask {
    if !FILE_SET.load(Ordering::Relaxed) {
        return ProgressTask { inner: None };
    }
    let now = crate::now_us();
    let inner = Arc::new(TaskInner {
        name: name.to_string(),
        total: AtomicU64::new(total as u64),
        completed: AtomicU64::new(completed as u64),
        started_at: completed as u64,
        started_us: now,
        last_us: AtomicU64::new(now),
        ewma_bits: AtomicU64::new(0f64.to_bits()),
        done: AtomicBool::new(false),
    });
    let mut reg = registry().lock().expect("progress registry poisoned");
    reg.retain(|t| t.name != name);
    reg.push(inner.clone());
    drop(reg);
    ProgressTask { inner: Some(inner) }
}

/// Drops every registered task (tests, between independent runs).
pub fn clear() {
    registry()
        .lock()
        .expect("progress registry poisoned")
        .clear();
}

/// A handle advancing one registered task; cheap to clone and safe to
/// share across pool workers.
#[derive(Clone)]
pub struct ProgressTask {
    inner: Option<Arc<TaskInner>>,
}

impl ProgressTask {
    /// Whether this handle actually records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `n` newly completed work items, updating the throughput
    /// EWMA and (when due) the streamed progress file.
    pub fn advance(&self, n: usize) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        inner.completed.fetch_add(n as u64, Ordering::Relaxed);
        let now = crate::now_us();
        let last = inner.last_us.swap(now, Ordering::Relaxed);
        if now > last {
            let dt = (now - last) as f64 / 1e6;
            let mut current = inner.ewma_bits.load(Ordering::Relaxed);
            loop {
                let next = ewma_step(f64::from_bits(current), n as u64, dt);
                match inner.ewma_bits.compare_exchange_weak(
                    current,
                    next.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => current = seen,
                }
            }
        }
        maybe_write_file(now, false);
    }

    /// Marks the task finished and forces a progress-file write.
    pub fn finish(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner.done.store(true, Ordering::Relaxed);
            maybe_write_file(crate::now_us(), true);
        }
    }

    /// Point-in-time view of this task, when enabled.
    #[must_use]
    pub fn snapshot(&self) -> Option<TaskSnapshot> {
        self.inner
            .as_ref()
            .map(|inner| snapshot_inner(inner, crate::now_us()))
    }
}

fn snapshot_inner(inner: &TaskInner, now_us: u64) -> TaskSnapshot {
    TaskSnapshot::new(
        inner.name.clone(),
        inner.started_at,
        inner.completed.load(Ordering::Relaxed),
        inner.total.load(Ordering::Relaxed),
        now_us.saturating_sub(inner.started_us) as f64 / 1e6,
        f64::from_bits(inner.ewma_bits.load(Ordering::Relaxed)),
        inner.done.load(Ordering::Relaxed),
    )
}

/// Serializable view of one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSnapshot {
    /// Task name (e.g. `dpa.campaign`).
    pub name: String,
    /// Work items finished so far.
    pub completed: u64,
    /// Work items in total.
    pub total: u64,
    /// Seconds since the task's clock started.
    pub elapsed_s: f64,
    /// Overall throughput: the items finished since the clock started
    /// over `elapsed_s`, items/s.
    pub rate: f64,
    /// EWMA of instantaneous throughput, items/s.
    pub ewma_rate: f64,
    /// Estimated seconds to completion ([`ETA_UNKNOWN`] when the
    /// throughput is still zero).
    pub eta_s: f64,
    /// Whether the task finished ([`ProgressTask::finish`]).
    pub done: bool,
}

impl TaskSnapshot {
    /// The view of a task that has finished `completed` of `total` items,
    /// `started_at` of them before its clock started `elapsed_s` seconds
    /// ago (a resumed task starts partly done), at the throughput EWMA
    /// `ewma_rate` of [`ewma_step`]. The overall rate counts only the
    /// items finished on the clock. The ETA is 0 once the task is done or
    /// complete, [`ETA_UNKNOWN`] while the EWMA has no sample, and the
    /// remaining items over the EWMA otherwise.
    #[must_use]
    pub fn new(
        name: String,
        started_at: u64,
        completed: u64,
        total: u64,
        elapsed_s: f64,
        ewma_rate: f64,
        done: bool,
    ) -> TaskSnapshot {
        let remaining = total.saturating_sub(completed);
        let eta_s = if done || remaining == 0 {
            0.0
        } else if ewma_rate > 0.0 {
            remaining as f64 / ewma_rate
        } else {
            ETA_UNKNOWN
        };
        TaskSnapshot {
            name,
            completed,
            total,
            elapsed_s,
            rate: if elapsed_s > 0.0 {
                completed.saturating_sub(started_at) as f64 / elapsed_s
            } else {
                0.0
            },
            ewma_rate,
            eta_s,
            done,
        }
    }

    /// Completion as a fraction in `[0, 1]` (1 when `total` is zero).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            (self.completed as f64 / self.total as f64).min(1.0)
        }
    }
}

/// Everything `qdi-mon watch` needs for one dashboard frame.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Capture timestamp on the process-monotonic clock.
    pub ts_us: u64,
    /// Every registered task, sorted by name.
    pub tasks: Vec<TaskSnapshot>,
    /// The `exec.pool.*` and `exec.supervisor.*` gauges/counters
    /// (queue depth, steals, per-worker utilization, panic/quarantine
    /// totals), sorted by name.
    pub pool: Vec<MetricSample>,
}

impl ProgressSnapshot {
    /// Captures every registered task plus the pool metrics.
    #[must_use]
    pub fn capture() -> ProgressSnapshot {
        let now = crate::now_us();
        let tasks = registry()
            .lock()
            .expect("progress registry poisoned")
            .iter()
            .map(|inner| snapshot_inner(inner, now))
            .collect();
        ProgressSnapshot::from_tasks(now, tasks)
    }

    /// A snapshot of `tasks` taken at `ts_us` (sorted here by name) plus
    /// the live pool metrics, for callers that keep their own tasks.
    #[must_use]
    pub fn from_tasks(ts_us: u64, mut tasks: Vec<TaskSnapshot>) -> ProgressSnapshot {
        tasks.sort_by(|a, b| a.name.cmp(&b.name));
        let pool = MetricsSnapshot::capture()
            .samples
            .into_iter()
            .filter(|s| s.name.starts_with("exec.pool.") || s.name.starts_with("exec.supervisor."))
            .collect();
        ProgressSnapshot { ts_us, tasks, pool }
    }

    /// Whether every task has finished (or reached its total).
    #[must_use]
    pub fn all_done(&self) -> bool {
        !self.tasks.is_empty()
            && self
                .tasks
                .iter()
                .all(|t| t.done || (t.total > 0 && t.completed >= t.total))
    }

    /// Serializes to pretty JSON with a durable trailer, written via
    /// write-then-rename so `qdi-mon watch` never reads a torn file.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::other(format!("progress serialization failed: {e}")))?;
        crate::durable::save(
            path.as_ref(),
            (json + "\n").as_bytes(),
            crate::durable::Durability::Snapshot,
        )
        .map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// Loads a snapshot written by [`ProgressSnapshot::save`], verifying
    /// the durable trailer.
    ///
    /// # Errors
    ///
    /// Returns a description when the file is missing, torn (a file
    /// with no trailer included), corrupt or not a progress snapshot.
    pub fn load(path: impl AsRef<Path>) -> Result<ProgressSnapshot, String> {
        let path = path.as_ref();
        let recovered =
            crate::durable::recover(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let text =
            String::from_utf8(recovered.payload).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn file_slot() -> &'static Mutex<Option<PathBuf>> {
    static FILE: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    FILE.get_or_init(|| Mutex::new(None))
}

/// Installs the progress file: tasks registered from now on are live,
/// and [`ProgressTask::advance`] calls stream [`ProgressSnapshot`]s to
/// `path` (atomically replaced) at most every 200 ms.
pub fn set_file(path: impl AsRef<Path>) {
    *file_slot().lock().expect("progress file poisoned") = Some(path.as_ref().to_path_buf());
    LAST_WRITE_US.store(0, Ordering::Relaxed);
    FILE_SET.store(true, Ordering::Relaxed);
}

/// Forces an immediate write of the configured progress file, if any.
/// Returns whether a file was written.
pub fn write_now() -> bool {
    maybe_write_file(crate::now_us(), true)
}

/// Writes the progress file at `now_us`, when one is installed and
/// `force` is set or the last write is 200 ms old.
fn maybe_write_file(now: u64, force: bool) -> bool {
    if !FILE_SET.load(Ordering::Relaxed) {
        return false;
    }
    if !force {
        let last = LAST_WRITE_US.load(Ordering::Relaxed);
        if now.saturating_sub(last) < WRITE_INTERVAL_US {
            return false;
        }
        // Claim the write; losers skip instead of stacking up.
        if LAST_WRITE_US
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
    } else {
        LAST_WRITE_US.store(now, Ordering::Relaxed);
    }
    let Some(path) = file_slot().lock().expect("progress file poisoned").clone() else {
        return false;
    };
    ProgressSnapshot::capture().save(&path).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes these tests, which share the process-global registry,
    /// and installs the progress file that makes their tasks live; the
    /// tasks and the file go when it drops. A handle with no file
    /// installed is pinned in `tests/progress_off.rs`, its own binary.
    struct Live {
        _gate: std::sync::MutexGuard<'static, ()>,
        path: PathBuf,
    }

    fn live() -> Live {
        static GATE: Mutex<()> = Mutex::new(());
        let gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let path =
            std::env::temp_dir().join(format!("qdi_obs_progress_{}.json", std::process::id()));
        set_file(&path);
        Live { _gate: gate, path }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            clear();
            let _ = std::fs::remove_file(&self.path);
        }
    }

    #[test]
    fn enabled_task_tracks_completed_total_and_eta() {
        let _live = live();
        let t = task("obs.test.live", 100);
        assert!(t.is_enabled());
        t.advance(10);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.advance(15);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.completed, 25);
        assert_eq!(snap.total, 100);
        assert!(snap.elapsed_s > 0.0);
        assert!(snap.rate > 0.0);
        assert!(snap.ewma_rate > 0.0, "second advance seeds the EWMA");
        assert!(snap.eta_s > 0.0);
        assert!(!snap.done);
        assert!((snap.fraction() - 0.25).abs() < 1e-12);
        t.finish();
        assert!(t.snapshot().unwrap().done);
    }

    #[test]
    fn reregistering_a_name_replaces_the_task() {
        let _live = live();
        let a = task("obs.test.replace", 5);
        a.advance(5);
        let _b = task("obs.test.replace", 9);
        let snap = ProgressSnapshot::capture();
        let entry = snap
            .tasks
            .iter()
            .find(|t| t.name == "obs.test.replace")
            .unwrap();
        assert_eq!(entry.total, 9);
        assert_eq!(entry.completed, 0, "fresh task replaced the old one");
    }

    #[test]
    fn progress_snapshot_round_trips_through_a_file() {
        let _live = live();
        let t = task("obs.test.file", 4);
        t.advance(4);
        t.finish();
        let snap = ProgressSnapshot::capture();
        assert!(snap.all_done());
        let path = std::env::temp_dir().join("qdi_obs_progress_test.json");
        snap.save(&path).unwrap();
        let back = ProgressSnapshot::load(&path).unwrap();
        assert_eq!(back.tasks, snap.tasks);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eta_unknown_before_any_progress() {
        let _live = live();
        let t = task("obs.test.eta", 50);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.eta_s, ETA_UNKNOWN);
    }

    #[test]
    fn one_formula_steps_the_ewma_and_derives_the_eta() {
        assert_eq!(ewma_step(0.0, 10, 0.5), 20.0, "the first sample seeds it");
        assert_eq!(ewma_step(20.0, 10, 0.0), 20.0, "no time, no step");
        let alpha = 1.0 - (-1.0f64 / EWMA_TAU_S).exp();
        assert!((ewma_step(20.0, 40, 1.0) - (20.0 + alpha * 20.0)).abs() < 1e-12);

        let eta = |completed, ewma, done| {
            TaskSnapshot::new("t".into(), 0, completed, 100, 2.0, ewma, done).eta_s
        };
        assert_eq!(eta(0, 0.0, false), ETA_UNKNOWN, "no throughput yet");
        assert_eq!(eta(40, 0.0, false), ETA_UNKNOWN, "the EWMA has no sample");
        assert_eq!(eta(40, 20.0, false), 3.0, "remaining over the EWMA");
        assert_eq!(eta(40, 20.0, true), 0.0, "done");
        assert_eq!(eta(100, 20.0, false), 0.0, "complete");
        let snap = TaskSnapshot::new("t".into(), 0, 40, 100, 2.0, 20.0, false);
        assert_eq!(snap.rate, 20.0, "overall rate: completed over elapsed");
        let resumed = TaskSnapshot::new("t".into(), 30, 40, 100, 2.0, 20.0, false);
        assert_eq!(resumed.rate, 5.0, "only the items finished on the clock");
        assert_eq!(
            TaskSnapshot::new("t".into(), 0, 0, 100, 0.0, 0.0, false).rate,
            0.0
        );
    }
}
