//! Live campaign progress: completed/total, throughput and ETA.
//!
//! Long-running parallel loops (`qdi_dpa::parallel`, the store-backed
//! campaign runner, `qdi_fi` fault campaigns, `qdi_pnr` stability
//! studies) register a [`ProgressTask`] and call
//! [`ProgressTask::advance`] once per finished work item. When progress
//! is disabled — the default — [`task`] hands back an inert handle and
//! the whole facility costs one relaxed atomic load per registration
//! and a branch per advance, mirroring the `QDI_LOG`-off tracing path.
//!
//! When enabled, each task keeps all-atomic state (completed count, an
//! EWMA of instantaneous throughput) so worker threads never contend on
//! a lock, and [`ProgressSnapshot::capture`] folds every live task plus
//! the `exec.pool.*` gauges into a serializable snapshot. Campaigns can
//! additionally stream snapshots to a JSON file on a throttle
//! ([`set_file`]) for `qdi-mon watch` to tail.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::metrics::{MetricSample, MetricsSnapshot};

/// Time constant of the throughput EWMA, in seconds.
const EWMA_TAU_S: f64 = 2.0;

/// ETA value reported when throughput is still unknown.
pub const ETA_UNKNOWN: f64 = -1.0;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Fast-path flag mirroring "a progress file is configured".
static FILE_SET: AtomicBool = AtomicBool::new(false);
/// `now_us` of the last progress-file write (claimed by CAS).
static LAST_WRITE_US: AtomicU64 = AtomicU64::new(0);

/// Turns the progress facility on or off process-wide. Tasks created
/// while disabled stay inert even if progress is enabled later.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether progress tracking is currently enabled (one relaxed load).
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct TaskInner {
    name: String,
    total: AtomicU64,
    completed: AtomicU64,
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
/// a name replaces the previous task (campaign restarted). When the
/// facility is disabled the returned handle is inert.
#[must_use]
pub fn task(name: &str, total: usize) -> ProgressTask {
    if !enabled() {
        return ProgressTask { inner: None };
    }
    let now = crate::now_us();
    let inner = Arc::new(TaskInner {
        name: name.to_string(),
        total: AtomicU64::new(total as u64),
        completed: AtomicU64::new(0),
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
            let inst = n as f64 / dt;
            let alpha = 1.0 - (-dt / EWMA_TAU_S).exp();
            let mut current = inner.ewma_bits.load(Ordering::Relaxed);
            loop {
                let prev = f64::from_bits(current);
                let next = if prev == 0.0 {
                    inst
                } else {
                    prev + alpha * (inst - prev)
                };
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
        maybe_write_file(false);
    }

    /// Marks the task finished and forces a progress-file write.
    pub fn finish(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner.done.store(true, Ordering::Relaxed);
            maybe_write_file(true);
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
    let completed = inner.completed.load(Ordering::Relaxed);
    let total = inner.total.load(Ordering::Relaxed);
    let elapsed_s = now_us.saturating_sub(inner.started_us) as f64 / 1e6;
    let rate = if elapsed_s > 0.0 {
        completed as f64 / elapsed_s
    } else {
        0.0
    };
    let ewma_rate = f64::from_bits(inner.ewma_bits.load(Ordering::Relaxed));
    let remaining = total.saturating_sub(completed);
    let eta_rate = if ewma_rate > 0.0 { ewma_rate } else { rate };
    let eta_s = if remaining == 0 {
        0.0
    } else if eta_rate > 0.0 {
        remaining as f64 / eta_rate
    } else {
        ETA_UNKNOWN
    };
    TaskSnapshot {
        name: inner.name.clone(),
        completed,
        total,
        elapsed_s,
        rate,
        ewma_rate,
        eta_s,
        done: inner.done.load(Ordering::Relaxed),
    }
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
    /// Seconds since the task was registered.
    pub elapsed_s: f64,
    /// Overall throughput `completed / elapsed`, items/s.
    pub rate: f64,
    /// EWMA of instantaneous throughput, items/s.
    pub ewma_rate: f64,
    /// Estimated seconds to completion ([`ETA_UNKNOWN`] when the
    /// throughput is still zero).
    pub eta_s: f64,
    /// Whether [`ProgressTask::finish`] was called.
    pub done: bool,
}

impl TaskSnapshot {
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
    /// (queue depth, steals, per-worker utilization, retry/quarantine
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
    /// the durable trailer. Trailer-less files (older writers) are
    /// accepted as-is for compatibility.
    ///
    /// # Errors
    ///
    /// Returns a description when the file is unreadable, torn, corrupt
    /// or not a progress snapshot.
    pub fn load(path: impl AsRef<Path>) -> Result<ProgressSnapshot, String> {
        let path = path.as_ref();
        let text = match crate::durable::recover(path) {
            Ok(recovered) => String::from_utf8(recovered.payload)
                .map_err(|e| format!("{}: {e}", path.display()))?,
            // Compatibility: a readable file without any durable trailer
            // is treated as a bare legacy snapshot. Files that carry a
            // trailer but fail verification stay rejected.
            Err(err) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|_| format!("{}: {err}", path.display()))?;
                if text.contains(crate::durable::TRAILER_PREFIX) {
                    return Err(format!("{}: {err}", path.display()));
                }
                text
            }
        };
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn file_slot() -> &'static Mutex<Option<(PathBuf, u64)>> {
    static FILE: OnceLock<Mutex<Option<(PathBuf, u64)>>> = OnceLock::new();
    FILE.get_or_init(|| Mutex::new(None))
}

/// Streams [`ProgressSnapshot`]s to `path` (atomically replaced) at
/// most every `interval_ms`, driven by [`ProgressTask::advance`] calls.
pub fn set_file(path: impl AsRef<Path>, interval_ms: u64) {
    *file_slot().lock().expect("progress file poisoned") = Some((
        path.as_ref().to_path_buf(),
        interval_ms.saturating_mul(1000),
    ));
    LAST_WRITE_US.store(0, Ordering::Relaxed);
    FILE_SET.store(true, Ordering::Relaxed);
}

/// Forces an immediate write of the configured progress file, if any.
/// Returns whether a file was written.
pub fn write_now() -> bool {
    maybe_write_file(true)
}

fn maybe_write_file(force: bool) -> bool {
    if !FILE_SET.load(Ordering::Relaxed) {
        return false;
    }
    let now = crate::now_us();
    if !force {
        let last = LAST_WRITE_US.load(Ordering::Relaxed);
        let interval = {
            let slot = file_slot().lock().expect("progress file poisoned");
            match slot.as_ref() {
                Some((_, interval_us)) => *interval_us,
                None => return false,
            }
        };
        if now.saturating_sub(last) < interval {
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
    let path = {
        let slot = file_slot().lock().expect("progress file poisoned");
        match slot.as_ref() {
            Some((path, _)) => path.clone(),
            None => return false,
        }
    };
    ProgressSnapshot::capture().save(&path).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// These tests toggle process-global state; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .expect("test gate poisoned")
    }

    #[test]
    fn disabled_handles_are_inert() {
        let _gate = lock();
        set_enabled(false);
        let t = task("obs.test.inert", 10);
        assert!(!t.is_enabled());
        t.advance(5);
        t.finish();
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn enabled_task_tracks_completed_total_and_eta() {
        let _gate = lock();
        set_enabled(true);
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
        set_enabled(false);
        clear();
    }

    #[test]
    fn reregistering_a_name_replaces_the_task() {
        let _gate = lock();
        set_enabled(true);
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
        set_enabled(false);
        clear();
    }

    #[test]
    fn progress_snapshot_round_trips_through_a_file() {
        let _gate = lock();
        set_enabled(true);
        clear();
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
        set_enabled(false);
        clear();
    }

    #[test]
    fn eta_unknown_before_any_progress() {
        let _gate = lock();
        set_enabled(true);
        let t = task("obs.test.eta", 50);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.eta_s, ETA_UNKNOWN);
        set_enabled(false);
        clear();
    }
}
