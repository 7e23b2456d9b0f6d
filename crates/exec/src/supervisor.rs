//! Supervised job execution: panic isolation, deterministic retry with
//! seeded backoff, watchdog timeouts and quarantine.
//!
//! [`run_supervised`] wraps every job of a bag in `catch_unwind`, so a
//! panicking, erroring or overrunning job becomes a per-index
//! [`JobOutcome`] instead of killing the campaign. Jobs that keep
//! failing after `max_retries` re-attempts land in a [`Quarantine`]
//! report — job index, per-index seed, attempt count, last error or
//! panic message, elapsed time — which renders through the shared
//! `qdi-netlist` diagnostic model as `QDI03xx` runtime findings and
//! serializes to a durable manifest for later re-attempts.
//!
//! # Determinism contract
//!
//! The retry loop extends the pool's contract: **a job that succeeds on
//! retry N produces bit-identical output to first-try success.** Two
//! rules make that hold:
//!
//! * per-index seeding is attempt-independent — the job closure must
//!   draw randomness from [`crate::job_rng`]`(root, index)` only, which
//!   the supervisor never touches between attempts;
//! * backoff jitter draws from a *separate* stream
//!   (`job_rng(root ^ SALT, index)`), so sleeping never perturbs the
//!   job's own randomness.
//!
//! The one escape hatch is `job_timeout`: it compares against the wall
//! clock, so whether a given attempt times out can differ between runs
//! on a loaded host. Campaigns that require bit-identical replays
//! should treat a timeout quarantine as an infrastructure failure (and
//! re-attempt), never silently accept the partial bag as canonical.
//!
//! # Watchdog
//!
//! When `job_timeout` is set, a monotonic-clock watchdog thread polls
//! the in-flight attempt table and *flags* any attempt that overruns
//! (counter `exec.supervisor.timeouts`, once per offending attempt).
//! The worker thread itself cannot be interrupted — jobs are ordinary
//! closures — so enforcement happens when the attempt returns: an
//! overrunning attempt's value is discarded and the job re-attempted;
//! on repeated offense (retries exhausted) the job is quarantined as
//! [`JobOutcome::TimedOut`].
//!
//! Obs counters `exec.supervisor.{retries,timeouts,quarantined,panics}`
//! aggregate across runs and feed the existing `qdi-mon` pipeline via
//! the progress snapshot's pool section.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::Rng;
use serde::{Deserialize, Serialize};

use qdi_netlist::diag::{Diagnostic, LintCode, Severity, Subject};

use crate::pool::{panic_message, run_indexed, ExecConfig};
use crate::seed::{derive_seed, job_rng};

/// Salt separating the backoff-jitter RNG stream from the job's own
/// per-index stream.
const BACKOFF_SALT: u64 = 0x5AB0_77ED_BACC_0FF5;

/// Retry/backoff/timeout policy for a supervised bag.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorPolicy {
    /// Re-attempts after the first try (0 = single attempt).
    pub max_retries: u32,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
    /// Wall-clock budget per attempt in milliseconds; `None` disables
    /// the watchdog. See the module docs for the determinism caveat.
    pub job_timeout_ms: Option<u64>,
}

impl SupervisorPolicy {
    /// Two retries, seeded exponential backoff from 10 ms, no timeout.
    #[must_use]
    pub fn new() -> SupervisorPolicy {
        SupervisorPolicy {
            max_retries: 2,
            backoff: Backoff::Deterministic {
                base_ms: 10,
                factor: 2,
                max_ms: 1_000,
                jitter: true,
            },
            job_timeout_ms: None,
        }
    }

    /// Sets the per-attempt wall-clock budget (builder style).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> SupervisorPolicy {
        self.job_timeout_ms = Some(u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX));
        self
    }

    /// The per-attempt budget as a [`Duration`], when set.
    #[must_use]
    pub fn job_timeout(&self) -> Option<Duration> {
        self.job_timeout_ms.map(Duration::from_millis)
    }

    /// Sets the retry count (builder style).
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> SupervisorPolicy {
        self.max_retries = max_retries;
        self
    }

    /// No sleeping between attempts (tests, in-memory workloads).
    #[must_use]
    pub fn without_backoff(mut self) -> SupervisorPolicy {
        self.backoff = Backoff::None;
        self
    }
}

impl Default for SupervisorPolicy {
    fn default() -> SupervisorPolicy {
        SupervisorPolicy::new()
    }
}

/// Delay between re-attempts of one job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backoff {
    /// Retry immediately.
    None,
    /// Exponential backoff `base_ms * factor^(attempt-1)`, capped at
    /// `max_ms`, plus (when `jitter`) a seeded draw in `[0, base_ms)`
    /// from the per-index jitter stream — deterministic for a fixed
    /// root seed and index, independent of the job's own randomness.
    Deterministic {
        /// First-retry delay in milliseconds.
        base_ms: u64,
        /// Multiplier per further retry.
        factor: u64,
        /// Upper bound on the computed delay.
        max_ms: u64,
        /// Add a seeded jitter draw in `[0, base_ms)`.
        jitter: bool,
    },
}

impl Backoff {
    /// The delay before re-attempt number `retry` (1-based) of job
    /// `index`, drawing jitter from the dedicated seeded stream.
    fn delay(&self, retry: u32, jitter_rng: &mut rand_chacha::ChaCha8Rng) -> Duration {
        match *self {
            Backoff::None => Duration::ZERO,
            Backoff::Deterministic {
                base_ms,
                factor,
                max_ms,
                jitter,
            } => {
                let exp = base_ms.saturating_mul(factor.saturating_pow(retry.saturating_sub(1)));
                let jit = if jitter && base_ms > 0 {
                    jitter_rng.gen_range(0..base_ms)
                } else {
                    0
                };
                Duration::from_millis(exp.saturating_add(jit).min(max_ms))
            }
        }
    }
}

/// Terminal state of one supervised job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job returned a value (possibly after retries).
    Completed {
        /// The job's result.
        value: T,
        /// Attempts it took (1 = first try).
        attempts: u32,
    },
    /// Every attempt panicked; the job is quarantined.
    Panicked {
        /// Message rendered from the last panic payload.
        payload: String,
        /// The per-index seed the job ran with.
        job_seed: u64,
        /// Attempts made.
        attempts: u32,
        /// Wall time of the last attempt, in milliseconds.
        elapsed_ms: u64,
    },
    /// Every attempt returned `Err`; the job is quarantined.
    Failed {
        /// The last error, rendered.
        error: String,
        /// The per-index seed the job ran with.
        job_seed: u64,
        /// Attempts made.
        attempts: u32,
        /// Wall time of the last attempt, in milliseconds.
        elapsed_ms: u64,
    },
    /// Every attempt overran `job_timeout`; the job is quarantined.
    TimedOut {
        /// Wall time of the last attempt, in milliseconds.
        elapsed_ms: u64,
        /// The per-index seed the job ran with.
        job_seed: u64,
        /// Attempts made.
        attempts: u32,
    },
}

impl<T> JobOutcome<T> {
    /// The completed value, if any.
    pub fn into_value(self) -> Option<T> {
        match self {
            JobOutcome::Completed { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Whether the job completed.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }
}

/// Why a job was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineKind {
    /// Every attempt panicked (`QDI0301`).
    Panic,
    /// Every attempt overran the per-attempt timeout (`QDI0302`).
    Timeout,
    /// Every attempt returned an error (`QDI0303`).
    Error,
}

impl QuarantineKind {
    /// The `QDI03xx` lint code for this kind.
    #[must_use]
    pub fn code(self) -> LintCode {
        match self {
            QuarantineKind::Panic => LintCode(301),
            QuarantineKind::Timeout => LintCode(302),
            QuarantineKind::Error => LintCode(303),
        }
    }

    /// A lowercase mnemonic (`panic`, `timeout`, `error`).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            QuarantineKind::Panic => "panic",
            QuarantineKind::Timeout => "timeout",
            QuarantineKind::Error => "error",
        }
    }
}

/// One quarantined job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Job index within the bag.
    pub index: usize,
    /// The per-index seed the job ran with (`derive_seed(root, index)`).
    pub job_seed: u64,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Why the job was quarantined.
    pub kind: QuarantineKind,
    /// Last panic payload / error rendering / timeout description.
    pub reason: String,
    /// Wall time of the last attempt, in milliseconds.
    pub elapsed_ms: u64,
}

/// The quarantine manifest of one supervised run: every job that
/// exhausted its retries, with enough context to re-attempt it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Renders every entry as a `QDI03xx` runtime diagnostic scoped to
    /// `scope` (e.g. the campaign or netlist name), sharing the rustc-
    /// style model all other findings use.
    #[must_use]
    pub fn diagnostics(&self, scope: &str) -> Vec<Diagnostic> {
        self.entries
            .iter()
            .map(|e| {
                Diagnostic::new(
                    e.kind.code(),
                    Severity::Warn,
                    Subject::Netlist {
                        name: scope.to_string(),
                    },
                    format!(
                        "job {} quarantined after {} attempt{} ({}): {}",
                        e.index,
                        e.attempts,
                        if e.attempts == 1 { "" } else { "s" },
                        e.kind.mnemonic(),
                        e.reason
                    ),
                )
                .with_label(
                    Subject::Netlist {
                        name: scope.to_string(),
                    },
                    format!(
                        "job_seed = {:#018x}, last attempt took {} ms",
                        e.job_seed, e.elapsed_ms
                    ),
                )
                .with_help(
                    "re-run with the same root seed to re-attempt exactly this index; \
                     a checkpointed campaign resume re-attempts quarantined indices \
                     automatically",
                )
            })
            .collect()
    }

    /// Writes the manifest as durable pretty JSON (write-then-rename +
    /// trailing CRC).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as rendered strings.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        qdi_obs::durable::save(
            path.as_ref(),
            (json + "\n").as_bytes(),
            qdi_obs::durable::Durability::Snapshot,
        )
        .map_err(|e| e.to_string())
    }

    /// Loads a manifest written by [`Quarantine::save`].
    ///
    /// # Errors
    ///
    /// Returns a description when the file is missing, torn, corrupt or
    /// not a manifest.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Quarantine, String> {
        let recovered = qdi_obs::durable::recover(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        let text = String::from_utf8(recovered.payload)
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.as_ref().display()))
    }
}

/// Result of a supervised bag: one terminal [`JobOutcome`] per index
/// plus the quarantine manifest.
#[derive(Debug)]
pub struct SupervisedRun<T> {
    /// Per-index outcomes, in index order.
    pub outcomes: Vec<JobOutcome<T>>,
    /// Every job that exhausted its retries.
    pub quarantine: Quarantine,
    /// Total re-attempts across the bag.
    pub retries: u64,
}

impl<T> SupervisedRun<T> {
    /// Splits into per-index values (`None` where quarantined) and the
    /// quarantine manifest.
    pub fn into_values(self) -> (Vec<Option<T>>, Quarantine) {
        (
            self.outcomes
                .into_iter()
                .map(JobOutcome::into_value)
                .collect(),
            self.quarantine,
        )
    }

    /// Completed job count.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_completed()).count()
    }
}

/// In-flight attempt table shared with the watchdog: slot `i` holds
/// `start_us + 1` while job `i` is running an attempt, 0 otherwise.
struct WatchdogState {
    slots: Vec<AtomicU64>,
    flagged: Vec<AtomicBool>,
    stop: AtomicBool,
}

/// Runs `job(0)..job(jobs-1)` under supervision: panics are caught,
/// failures retried per `policy`, and jobs that exhaust their retries
/// quarantined — the pool itself never fails.
///
/// `seed` is the campaign root seed: it names each job's
/// [`derive_seed`]`(seed, index)` in the quarantine report and seeds the
/// backoff-jitter stream. The job closure is responsible for actually
/// drawing its randomness from `job_rng(seed, index)` (attempts are
/// seeded identically, which is what makes retry-N output bit-identical
/// to first-try output).
///
/// After the workers join, the supervisor emits pending obs roll-ups
/// whenever anything was retried or quarantined, so an aborted
/// campaign's run record is never missing them.
pub fn run_supervised<T, E, F>(
    cfg: &ExecConfig,
    policy: &SupervisorPolicy,
    seed: u64,
    jobs: usize,
    job: F,
) -> SupervisedRun<T>
where
    T: Send,
    E: std::fmt::Display + Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let retries_metric = qdi_obs::metrics::counter("exec.supervisor.retries");
    let timeouts_metric = qdi_obs::metrics::counter("exec.supervisor.timeouts");
    let quarantined_metric = qdi_obs::metrics::counter("exec.supervisor.quarantined");
    let panics_metric = qdi_obs::metrics::counter("exec.supervisor.panics");

    let watchdog_state = policy.job_timeout().map(|timeout| {
        (
            WatchdogState {
                slots: (0..jobs).map(|_| AtomicU64::new(0)).collect(),
                flagged: (0..jobs).map(|_| AtomicBool::new(false)).collect(),
                stop: AtomicBool::new(false),
            },
            timeout,
        )
    });
    let watchdog_state = watchdog_state.as_ref();
    let timeouts_ref = &timeouts_metric;
    let panics_ref = &panics_metric;
    let retries_ref = &retries_metric;
    let policy_ref = policy;

    let supervised = |index: usize| -> JobOutcome<T> {
        let mut jitter_rng = job_rng(seed ^ BACKOFF_SALT, index as u64);
        let job_seed = derive_seed(seed, index as u64);
        let mut last: Option<JobOutcome<T>> = None;
        for attempt in 1..=policy_ref.max_retries.saturating_add(1) {
            if attempt > 1 {
                retries_ref.inc();
                let delay = policy_ref.backoff.delay(attempt - 1, &mut jitter_rng);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            let start = Instant::now();
            if let Some((state, _)) = watchdog_state {
                state.slots[index].store(qdi_obs::now_us() + 1, Ordering::Relaxed);
                state.flagged[index].store(false, Ordering::Relaxed);
            }
            let result = catch_unwind(AssertUnwindSafe(|| job(index)));
            if let Some((state, _)) = watchdog_state {
                state.slots[index].store(0, Ordering::Relaxed);
            }
            let elapsed = start.elapsed();
            let elapsed_ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
            let overran = policy_ref
                .job_timeout()
                .is_some_and(|timeout| elapsed > timeout);
            last = Some(match result {
                // An overrunning attempt is discarded even when it
                // produced a value: enforcement for jobs the watchdog
                // can only flag, not interrupt.
                Ok(_) if overran => {
                    // The watchdog may already have flagged (and
                    // counted) this attempt while it was in flight.
                    let already = watchdog_state
                        .is_some_and(|(state, _)| state.flagged[index].load(Ordering::Relaxed));
                    if !already {
                        timeouts_ref.inc();
                    }
                    JobOutcome::TimedOut {
                        elapsed_ms,
                        job_seed,
                        attempts: attempt,
                    }
                }
                Ok(Ok(value)) => {
                    return JobOutcome::Completed {
                        value,
                        attempts: attempt,
                    }
                }
                Ok(Err(error)) => JobOutcome::Failed {
                    error: error.to_string(),
                    job_seed,
                    attempts: attempt,
                    elapsed_ms,
                },
                Err(payload) => {
                    panics_ref.inc();
                    JobOutcome::Panicked {
                        payload: panic_message(payload.as_ref()),
                        job_seed,
                        attempts: attempt,
                        elapsed_ms,
                    }
                }
            });
        }
        last.expect("at least one attempt ran")
    };

    let outcomes = std::thread::scope(|s| {
        let watchdog = watchdog_state.map(|(state, timeout)| {
            let timeout_us = u64::try_from(timeout.as_micros()).unwrap_or(u64::MAX);
            // Poll well inside the timeout so overruns are flagged
            // promptly, but never busier than 1 kHz.
            let poll = (*timeout / 8).clamp(Duration::from_millis(1), Duration::from_millis(250));
            s.spawn(move || {
                while !state.stop.load(Ordering::Relaxed) {
                    let now = qdi_obs::now_us();
                    for (slot, flagged) in state.slots.iter().zip(&state.flagged) {
                        let started = slot.load(Ordering::Relaxed);
                        if started != 0
                            && now.saturating_sub(started - 1) > timeout_us
                            && !flagged.swap(true, Ordering::Relaxed)
                        {
                            timeouts_ref.inc();
                        }
                    }
                    std::thread::sleep(poll);
                }
            })
        });
        let outcomes = run_indexed(cfg, jobs, supervised);
        if let Some((state, _)) = watchdog_state {
            state.stop.store(true, Ordering::Relaxed);
        }
        drop(watchdog);
        outcomes
    });

    let mut quarantine = Quarantine::default();
    for (index, outcome) in outcomes.iter().enumerate() {
        let entry = match outcome {
            JobOutcome::Completed { .. } => continue,
            JobOutcome::Panicked {
                payload,
                job_seed,
                attempts,
                elapsed_ms,
            } => QuarantineEntry {
                index,
                job_seed: *job_seed,
                attempts: *attempts,
                kind: QuarantineKind::Panic,
                reason: payload.clone(),
                elapsed_ms: *elapsed_ms,
            },
            JobOutcome::Failed {
                error,
                job_seed,
                attempts,
                elapsed_ms,
            } => QuarantineEntry {
                index,
                job_seed: *job_seed,
                attempts: *attempts,
                kind: QuarantineKind::Error,
                reason: error.clone(),
                elapsed_ms: *elapsed_ms,
            },
            JobOutcome::TimedOut {
                elapsed_ms,
                job_seed,
                attempts,
            } => QuarantineEntry {
                index,
                job_seed: *job_seed,
                attempts: *attempts,
                kind: QuarantineKind::Timeout,
                reason: format!("attempt exceeded the per-job timeout ({elapsed_ms} ms)"),
                elapsed_ms: *elapsed_ms,
            },
        };
        quarantined_metric.inc();
        quarantine.entries.push(entry);
    }

    let retries = outcomes
        .iter()
        .map(|o| {
            u64::from(match o {
                JobOutcome::Completed { attempts, .. }
                | JobOutcome::Panicked { attempts, .. }
                | JobOutcome::Failed { attempts, .. }
                | JobOutcome::TimedOut { attempts, .. } => attempts.saturating_sub(1),
            })
        })
        .sum();

    // An aborted or degraded campaign must not strand pending roll-ups:
    // emit them from the supervisor's post-join path.
    if retries > 0 || !quarantine.is_empty() {
        qdi_obs::flush();
    }

    SupervisedRun {
        outcomes,
        quarantine,
        retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn policy() -> SupervisorPolicy {
        SupervisorPolicy::new().without_backoff()
    }

    #[test]
    fn clean_bag_completes_without_retries() {
        let run = run_supervised(
            &ExecConfig::serial(),
            &policy(),
            7,
            16,
            |i| -> Result<u64, String> { Ok(job_rng(7, i as u64).gen()) },
        );
        assert_eq!(run.completed(), 16);
        assert_eq!(run.retries, 0);
        assert!(run.quarantine.is_empty());
    }

    #[test]
    fn flaky_job_succeeds_bit_identically_after_retries() {
        use std::sync::atomic::AtomicU32;
        let clean: Vec<u64> = (0..8).map(|i| job_rng(11, i).gen()).collect();
        for workers in [1, 2, 8] {
            let attempts: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
            let run = run_supervised(
                &ExecConfig::with_workers(workers),
                &policy(),
                11,
                8,
                |i| -> Result<u64, String> {
                    // Index 3 panics twice, index 5 errors once.
                    let n = attempts[i].fetch_add(1, Ordering::Relaxed);
                    if i == 3 && n < 2 {
                        panic!("flaky panic {n}");
                    }
                    if i == 5 && n < 1 {
                        return Err(format!("flaky error {n}"));
                    }
                    Ok(job_rng(11, i as u64).gen())
                },
            );
            assert!(run.quarantine.is_empty(), "workers = {workers}");
            assert_eq!(run.retries, 3, "workers = {workers}");
            let (values, _) = run.into_values();
            let values: Vec<u64> = values.into_iter().map(Option::unwrap).collect();
            assert_eq!(values, clean, "retry output drifted at {workers} workers");
        }
    }

    #[test]
    fn exhausted_retries_quarantine_with_reason() {
        let run = run_supervised(
            &ExecConfig::with_workers(2),
            &policy().with_retries(1),
            3,
            6,
            |i| -> Result<usize, String> {
                match i {
                    2 => panic!("always panics"),
                    4 => Err("always errors".to_string()),
                    _ => Ok(i),
                }
            },
        );
        assert_eq!(run.completed(), 4);
        assert_eq!(run.quarantine.len(), 2);
        assert_eq!(run.quarantine.indices(), vec![2, 4]);
        let panic_entry = &run.quarantine.entries[0];
        assert_eq!(panic_entry.kind, QuarantineKind::Panic);
        assert_eq!(panic_entry.attempts, 2);
        assert_eq!(panic_entry.job_seed, derive_seed(3, 2));
        assert!(panic_entry.reason.contains("always panics"));
        let error_entry = &run.quarantine.entries[1];
        assert_eq!(error_entry.kind, QuarantineKind::Error);
        assert!(error_entry.reason.contains("always errors"));
        // Completed indices still carry their values.
        assert!(matches!(
            run.outcomes[0],
            JobOutcome::Completed { value: 0, .. }
        ));
    }

    #[test]
    fn timeout_discards_and_quarantines_slow_jobs() {
        let run = run_supervised(
            &ExecConfig::with_workers(2),
            &policy()
                .with_retries(1)
                .with_timeout(Duration::from_millis(10)),
            5,
            4,
            |i| -> Result<usize, String> {
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                Ok(i)
            },
        );
        assert_eq!(run.completed(), 3);
        assert_eq!(run.quarantine.indices(), vec![1]);
        let entry = &run.quarantine.entries[0];
        assert_eq!(entry.kind, QuarantineKind::Timeout);
        assert!(entry.elapsed_ms >= 10, "elapsed {} ms", entry.elapsed_ms);
    }

    #[test]
    fn quarantine_renders_qdi03xx_diagnostics() {
        let quarantine = Quarantine {
            entries: vec![
                QuarantineEntry {
                    index: 9,
                    job_seed: 0xDEAD,
                    attempts: 3,
                    kind: QuarantineKind::Panic,
                    reason: "boom".into(),
                    elapsed_ms: 12,
                },
                QuarantineEntry {
                    index: 11,
                    job_seed: 0xBEEF,
                    attempts: 2,
                    kind: QuarantineKind::Timeout,
                    reason: "too slow".into(),
                    elapsed_ms: 900,
                },
            ],
        };
        let diags = quarantine.diagnostics("aes_campaign");
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].code, LintCode(301));
        assert_eq!(diags[1].code, LintCode(302));
        let text = diags[0].render(false);
        assert!(text.contains("QDI0301"), "{text}");
        assert!(text.contains("job 9 quarantined"), "{text}");
        assert!(text.contains("boom"), "{text}");
        assert!(text.contains("netlist aes_campaign"), "{text}");
    }

    #[test]
    fn quarantine_manifest_round_trips_durably() {
        let quarantine = Quarantine {
            entries: vec![QuarantineEntry {
                index: 4,
                job_seed: 42,
                attempts: 3,
                kind: QuarantineKind::Error,
                reason: "sim diverged".into(),
                elapsed_ms: 7,
            }],
        };
        let path =
            std::env::temp_dir().join(format!("qdi_exec_quarantine_{}.json", std::process::id()));
        quarantine.save(&path).expect("saves");
        let back = Quarantine::load(&path).expect("loads");
        assert_eq!(back, quarantine);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_index() {
        let backoff = Backoff::Deterministic {
            base_ms: 8,
            factor: 2,
            max_ms: 100,
            jitter: true,
        };
        let delays = |index: u64| -> Vec<Duration> {
            let mut rng = job_rng(99 ^ BACKOFF_SALT, index);
            (1..=4).map(|r| backoff.delay(r, &mut rng)).collect()
        };
        assert_eq!(delays(0), delays(0), "same index, same schedule");
        // Exponential envelope: retry r is in [8*2^(r-1), 8*2^(r-1)+8).
        for (r, d) in delays(1).iter().enumerate() {
            let exp = 8 * 2u64.pow(r as u32);
            let ms = u64::try_from(d.as_millis()).unwrap();
            assert!(
                ms >= exp.min(100) && ms < (exp + 8).min(101),
                "retry {r}: {ms} ms"
            );
        }
    }
}
