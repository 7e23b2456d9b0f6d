//! Supervised job execution: panic isolation and quarantine.
//!
//! [`run_supervised`] runs every job of a bag once on the pool, each
//! under `catch_unwind`, so a panicking or erroring job becomes a
//! [`Quarantine`] entry — job index, kind, reason — instead of killing
//! the campaign. Every other job's value is exactly what
//! [`crate::run_indexed`] would return for it.
//!
//! # One attempt per job
//!
//! A job draws its randomness from [`crate::job_rng`]`(root, index)`
//! only, so its result is a pure function of its index: a job that
//! failed once fails again. The supervisor therefore never re-runs one.
//! A caller that wants a bigger simulator budget configures it up front
//! — a larger limit costs nothing until a run uses it.
//!
//! Obs counters `exec.supervisor.{quarantined,panics}` aggregate across
//! runs and feed the existing `qdi-mon` pipeline via the progress
//! snapshot's pool section.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::pool::{panic_message, run_indexed, ExecConfig};

/// Selects supervised execution where a driver can also fail fast (see
/// `qdi_dpa::StoreCampaignRunner::with_supervisor`). It has no knobs:
/// every job runs once, and a failed one is quarantined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorPolicy;

impl SupervisorPolicy {
    /// The supervisor policy.
    #[must_use]
    pub fn new() -> SupervisorPolicy {
        SupervisorPolicy
    }
}

/// Why a job was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineKind {
    /// The job panicked.
    Panic,
    /// The job returned an error.
    Error,
}

/// One quarantined job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Job index within the bag.
    pub index: usize,
    /// Why the job was quarantined.
    pub kind: QuarantineKind,
    /// The panic payload or the rendered error.
    pub reason: String,
}

/// Every job of a supervised run that failed, in index order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    /// Quarantined jobs, in index order.
    pub entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    /// Whether no job was quarantined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Quarantined job count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The quarantined indices, in order.
    #[must_use]
    pub fn indices(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.index).collect()
    }
}

/// Result of a supervised bag: one value per index (`None` where the job
/// was quarantined) plus the quarantine.
#[derive(Debug)]
pub struct SupervisedRun<T> {
    /// Per-index values, in index order.
    pub values: Vec<Option<T>>,
    /// Every job that panicked or returned an error.
    pub quarantine: Quarantine,
}

/// Runs `job(0)..job(jobs-1)` once each under supervision: a job that
/// panics or returns `Err` is quarantined and every other job still
/// runs — the pool itself never fails.
///
/// After the workers join, the supervisor emits pending obs roll-ups
/// whenever anything was quarantined, so a degraded campaign's run
/// record is never missing them.
pub fn run_supervised<T, E, F>(cfg: &ExecConfig, jobs: usize, job: F) -> SupervisedRun<T>
where
    T: Send,
    E: std::fmt::Display + Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let quarantined = qdi_obs::metrics::counter("exec.supervisor.quarantined");
    let panics = qdi_obs::metrics::counter("exec.supervisor.panics");
    let outcomes = run_indexed(cfg, jobs, |index| {
        match catch_unwind(AssertUnwindSafe(|| job(index))) {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(error)) => Err((QuarantineKind::Error, error.to_string())),
            Err(payload) => {
                panics.inc();
                Err((QuarantineKind::Panic, panic_message(payload.as_ref())))
            }
        }
    });

    let mut quarantine = Quarantine::default();
    let values = outcomes
        .into_iter()
        .enumerate()
        .map(|(index, outcome)| match outcome {
            Ok(value) => Some(value),
            Err((kind, reason)) => {
                quarantine.entries.push(QuarantineEntry {
                    index,
                    kind,
                    reason,
                });
                None
            }
        })
        .collect();

    // A degraded campaign must not strand pending roll-ups: emit them
    // from the supervisor's post-join path.
    if !quarantine.is_empty() {
        quarantined.add(quarantine.len() as u64);
        qdi_obs::flush();
    }

    SupervisedRun { values, quarantine }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::job_rng;
    use rand::Rng;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn clean_bag_completes_without_retries() {
        let run = run_supervised(&ExecConfig::serial(), 16, |i| -> Result<u64, String> {
            Ok(job_rng(7, i as u64).gen())
        });
        assert!(run.quarantine.is_empty());
        let clean: Vec<Option<u64>> = (0..16).map(|i| Some(job_rng(7, i).gen())).collect();
        assert_eq!(run.values, clean);
    }

    #[test]
    fn failing_jobs_quarantine_with_reason_after_one_attempt() {
        let attempts: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        let run = run_supervised(
            &ExecConfig::with_workers(2),
            6,
            |i| -> Result<usize, String> {
                attempts[i].fetch_add(1, Ordering::Relaxed);
                match i {
                    2 => panic!("always panics"),
                    4 => Err("always errors".to_string()),
                    _ => Ok(i),
                }
            },
        );
        let attempts: Vec<u32> = attempts.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        assert_eq!(attempts, vec![1; 6], "every job runs exactly once");
        assert_eq!(run.quarantine.indices(), vec![2, 4]);
        let panic_entry = &run.quarantine.entries[0];
        assert_eq!(panic_entry.kind, QuarantineKind::Panic);
        assert!(panic_entry.reason.contains("always panics"));
        let error_entry = &run.quarantine.entries[1];
        assert_eq!(error_entry.kind, QuarantineKind::Error);
        assert!(error_entry.reason.contains("always errors"));
        // Completed indices still carry their values.
        assert_eq!(
            run.values,
            vec![Some(0), Some(1), None, Some(3), None, Some(5)]
        );
    }
}
