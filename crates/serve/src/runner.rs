//! Lease execution: what a worker does between [`crate::scheduler`]
//! hand-offs.
//!
//! DPA campaigns run chunk-at-a-time through
//! [`qdi_dpa::StoreCampaignRunner`], handing a checkpoint over after
//! every chunk to a per-lease thread that saves the newest one durably
//! while later chunks are acquired. That buys three properties at once:
//!
//! * **fair-share preemption is free** — parking the job is just
//!   dropping the runner; the next lease resumes from the checkpoint
//!   and per-index seeding makes the traces bit-identical;
//! * **`kill -9` is survivable** — a restarted server re-queues the
//!   job and the resume truncates whatever the crash left past the
//!   last checkpoint that landed;
//! * **cancellation is prompt** — the cancel flag is honored at every
//!   chunk boundary.
//!
//! Fault-injection and P&R jobs are monolithic library calls and run
//! as single uninterruptible leases.

use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{Scope, ScopedJoinHandle};

use serde::{Deserialize, Serialize};

use qdi_crypto::gatelevel::slice::{aes_first_round_slice, AesByteSlice, SliceStage};
use qdi_dpa::selection::{AesSboxSelect, AesXorSelect};
use qdi_dpa::{SelectionFunction, StoreCampaignRunner, StoreCheckpoint};
use qdi_exec::{ExecConfig, StoreOptions, SupervisorPolicy};

use qdi_obs::span::{SpanId, TraceContext, TraceId, FLAG_SAMPLED, LINK_RESUME};
use qdi_obs::Span;

use crate::job::{JobHandle, JobRecord, JobState, CHECKPOINT_FILE, REPORT_FILE, STORE_FILE};
use crate::scheduler::Scheduler;
use crate::spec::{DpaJobSpec, FiJobSpec, JobKind, PnrJobSpec};

/// What the worker should do with the job after a lease ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Terminal (or drained): do not re-queue.
    Done,
    /// Parked by fair share: re-queue immediately.
    Requeue,
}

/// The bias signal of one key guess in a completed campaign's report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GuessReport {
    /// The key guess.
    pub guess: u16,
    /// Peak `|T|` over the bias signal.
    pub abs_peak: f64,
    /// Time of the peak, ps.
    pub peak_t_ps: u64,
    /// The full `T = A0 − A1` signal, bit-identical to
    /// [`qdi_dpa::parallel_bias_signal`] over the same traces.
    pub samples: Vec<f64>,
}

/// The `report.json` artifact of a completed DPA job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpaReport {
    /// Job id.
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Traces acquired (equals the configured campaign size).
    pub traces: u64,
    /// Quarantined campaign indices (absent from the store).
    pub quarantined: Vec<u64>,
    /// Selection function name, when an attack was requested.
    pub selection: Option<String>,
    /// One bias signal per requested guess.
    pub guesses: Vec<GuessReport>,
    /// Guess with the largest peak, when an attack was requested.
    pub best_guess: Option<u16>,
}

fn stage_of(stage: &str) -> Result<SliceStage, String> {
    match stage {
        "xor" => Ok(SliceStage::XorOnly),
        "sbox" => Ok(SliceStage::XorSbox),
        other => Err(format!("unknown stage {other:?}")),
    }
}

/// Atomic plain-file write (tmp + rename): artifacts stay valid JSON
/// even if the process dies mid-write.
fn write_artifact(path: &Path, json: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, json).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

fn quarantined_u64(indices: &[usize]) -> Vec<u64> {
    indices.iter().map(|&i| i as u64).collect()
}

/// Opens this lease's span under the job's persisted trace: a child of
/// the submitting span (same parent across restarts), with a `resume`
/// link to the previous lease span when one ran — possibly in a server
/// process that has since been killed. The new span id is persisted
/// before any work so even a `kill -9` mid-lease leaves the link chain
/// intact for the *next* lease. Untraced jobs get a root lease span.
/// The campaign's hot spans roll up under the lease.
fn open_lease_span(job: &Arc<JobHandle>, record: &JobRecord) -> Span {
    let lease = qdi_obs::span("qdi-serve", "lease")
        .attr("job", record.id.clone())
        .attr("tenant", record.spec.tenant.clone())
        .attr("resumes", record.resumes.to_string());
    let Some(meta) = record.trace.as_ref() else {
        return lease;
    };
    let (Ok(trace_id), Ok(root_span)) = (
        meta.trace_id.parse::<TraceId>(),
        meta.root_span.parse::<SpanId>(),
    ) else {
        return lease;
    };
    let root = TraceContext {
        trace_id,
        span_id: root_span,
        flags: FLAG_SAMPLED,
    };
    let mut span = lease.child_of(&root);
    if let Some(prev) = meta
        .last_lease_span
        .as_deref()
        .and_then(|s| s.parse::<SpanId>().ok())
    {
        let prior = TraceContext {
            trace_id,
            span_id: prev,
            flags: FLAG_SAMPLED,
        };
        span.link(&prior, LINK_RESUME);
    }
    if let Some(ctx) = span.context() {
        let _ = job.set_lease_span(&ctx.span_id.to_string());
    }
    span
}

/// Publishes the terminal `state` of `job`, counted first in
/// `serve.jobs.completed`, `.failed` or `.canceled`, so a client that
/// sees the job end also sees it counted on `/metrics`.
pub(crate) fn end_job(job: &JobHandle, state: JobState, error: Option<String>) {
    let counter = match state {
        JobState::Completed => "serve.jobs.completed",
        JobState::Failed => "serve.jobs.failed",
        JobState::Canceled => "serve.jobs.canceled",
        JobState::Queued | JobState::Running => unreachable!("{state:?} is not terminal"),
    };
    qdi_obs::metrics::counter(counter).inc();
    let _ = job.set_state(state, error);
}

/// Releases a lease's worker ([`Scheduler::release`]) when dropped.
struct LeaseHeld<'a>(&'a Scheduler);

impl Drop for LeaseHeld<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Runs one lease of `job`, which [`Scheduler::take_next`] handed out.
/// Owns all state transitions; the returned [`Disposition`] tells the
/// worker whether to re-queue. The worker is released once the job's
/// state is published, before the lease span closes, and on a panic.
pub fn run_lease(sched: &Scheduler, job: &Arc<JobHandle>) -> Disposition {
    let held = LeaseHeld(sched);
    if job.cancel_requested() {
        end_job(job, JobState::Canceled, None);
        return Disposition::Done;
    }
    let _ = job.set_state(JobState::Running, None);
    let record = job.record();
    let mut lease = open_lease_span(job, &record);
    let result = match &record.spec.kind {
        JobKind::Dpa(spec) => run_dpa(sched, job, spec, &mut lease),
        JobKind::Fi(spec) => run_fi(job, spec).map(|()| Disposition::Done),
        JobKind::Pnr(spec) => run_pnr(job, spec).map(|()| Disposition::Done),
    };
    let disposition = match result {
        Ok(disposition) => {
            lease.set_attr(
                "disposition",
                match disposition {
                    Disposition::Done => "done",
                    Disposition::Requeue => "requeue",
                },
            );
            disposition
        }
        Err(message) => {
            lease.set_attr("error", message.clone());
            end_job(job, JobState::Failed, Some(message));
            Disposition::Done
        }
    };
    drop(held);
    disposition
}

/// The lease's end of the hand-off to its saver: the newest checkpoint
/// the saver has not taken yet, and a one-deep wake-up. [`Handover::put`]
/// replaces the waiting checkpoint and never waits, so however slow the
/// disk, at most one unsaved checkpoint is held. Dropping it, by
/// [`CheckpointSaver::finish`], an early return or a panic, ends the
/// saver once it has taken what is left.
struct Handover {
    newest: Arc<Mutex<Option<StoreCheckpoint>>>,
    wake: SyncSender<()>,
}

/// The saver's end of a [`Handover`]. The saver drops it when it stops,
/// and every later hand-over then fails.
struct Pickup {
    newest: Arc<Mutex<Option<StoreCheckpoint>>>,
    woken: Receiver<()>,
}

/// An empty slot and its two ends.
fn checkpoint_slot() -> (Handover, Pickup) {
    let newest = Arc::new(Mutex::new(None));
    let (wake, woken) = mpsc::sync_channel(1);
    let pickup = Pickup {
        newest: Arc::clone(&newest),
        woken,
    };
    (Handover { newest, wake }, pickup)
}

fn lock(newest: &Mutex<Option<StoreCheckpoint>>) -> MutexGuard<'_, Option<StoreCheckpoint>> {
    newest.lock().expect("checkpoint slot poisoned")
}

impl Handover {
    /// Puts `checkpoint` in the slot, replacing any the saver has not
    /// taken yet. `false` once the saver has stopped.
    fn put(&self, checkpoint: StoreCheckpoint) -> bool {
        *lock(&self.newest) = Some(checkpoint);
        // A full channel holds a wake-up the saver has yet to see, and
        // the saver takes the slot's newest checkpoint when it does.
        !matches!(self.wake.try_send(()), Err(TrySendError::Disconnected(())))
    }
}

impl Pickup {
    /// Waits for a checkpoint and takes the newest; `None` once the
    /// [`Handover`] is dropped and nothing is left.
    fn take(&self) -> Option<StoreCheckpoint> {
        while self.woken.recv().is_ok() {
            if let Some(checkpoint) = lock(&self.newest).take() {
                return Some(checkpoint);
            }
        }
        None
    }
}

/// Saves a lease's checkpoints on a thread of its own, so acquisition
/// never waits on the disk. Each chunk's checkpoint goes through a
/// [`Handover`], and the saver lands the newest one with one save at a
/// time: a checkpoint handed over while a save is in flight replaces any
/// that is waiting. The job advances as each save lands, so
/// [`JobHandle::status`]'s `completed` is always durable progress. The
/// thread adopts the caller's span, so its `dpa.checkpoint.save`
/// roll-ups land under the lease.
struct CheckpointSaver<'scope> {
    handover: Handover,
    thread: ScopedJoinHandle<'scope, Result<(), String>>,
}

impl<'scope> CheckpointSaver<'scope> {
    fn start<'env>(
        scope: &'scope Scope<'scope, 'env>,
        job: &'env JobHandle,
        path: &'env Path,
        total: u64,
    ) -> CheckpointSaver<'scope> {
        let (handover, pickup) = checkpoint_slot();
        let lease = qdi_obs::span::handoff();
        let thread = scope.spawn(move || {
            let _lease = lease.as_ref().map(qdi_obs::span::Handoff::adopt);
            while let Some(checkpoint) = pickup.take() {
                checkpoint
                    .save(path)
                    .map_err(|e| format!("checkpoint: {e:?}"))?;
                job.advance(
                    checkpoint.completed as u64,
                    total,
                    quarantined_u64(&checkpoint.quarantined),
                );
            }
            Ok(())
        });
        CheckpointSaver { handover, thread }
    }

    /// Hands `checkpoint` over without waiting. `false` when the saver
    /// has stopped; [`CheckpointSaver::finish`] returns its error.
    fn save(&self, checkpoint: StoreCheckpoint) -> bool {
        self.handover.put(checkpoint)
    }

    /// Waits until the last checkpoint handed over has landed.
    fn finish(self) -> Result<(), String> {
        let CheckpointSaver { handover, thread } = self;
        drop(handover);
        thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

fn build_slice(stage: &str) -> Result<AesByteSlice, String> {
    aes_first_round_slice("serve", stage_of(stage)?).map_err(|e| format!("slice: {e}"))
}

fn run_dpa(
    sched: &Scheduler,
    job: &Arc<JobHandle>,
    spec: &DpaJobSpec,
    lease: &mut Span,
) -> Result<Disposition, String> {
    let record = job.record();
    let tenant = record.spec.tenant.clone();
    let priority = record.spec.priority();
    let slice = build_slice(&spec.stage)?;
    let resilience = spec.resilience.unwrap_or_default();
    let exec = ExecConfig {
        workers: spec.exec_workers.unwrap_or(1).max(1),
    };
    let store_path = job.dir.join(STORE_FILE);
    let ckpt_path = job.dir.join(CHECKPOINT_FILE);
    let total = spec.campaign.traces as u64;

    let runner = if ckpt_path.exists() {
        let checkpoint =
            StoreCheckpoint::load(&ckpt_path).map_err(|e| format!("checkpoint: {e:?}"))?;
        StoreCampaignRunner::resume(&slice, spec.campaign, resilience, exec, checkpoint)
            .map_err(|e| format!("resume: {e:?}"))?
    } else {
        StoreCampaignRunner::new(
            &slice,
            spec.campaign,
            resilience,
            exec,
            &store_path,
            StoreOptions::new(),
        )
        .map_err(|e| format!("create store: {e:?}"))?
    };
    let mut runner = runner.with_supervisor(SupervisorPolicy::new());

    let parked = std::thread::scope(|scope| {
        let saver = CheckpointSaver::start(scope, job, &ckpt_path, total);
        while !runner.is_done() {
            if job.cancel_requested() {
                saver.finish()?;
                runner
                    .checkpoint()
                    .save(&ckpt_path)
                    .map_err(|e| format!("checkpoint: {e:?}"))?;
                end_job(job, JobState::Canceled, None);
                return Ok(Some(Disposition::Done));
            }
            runner.step_chunk().map_err(|e| format!("acquire: {e:?}"))?;
            if !saver.save(runner.checkpoint()) {
                let stopped = saver.finish().err();
                return Err(stopped.unwrap_or_else(|| "checkpoint saver stopped".into()));
            }
            sched.charge(&tenant, 1);
            lease.event("chunk", &[("completed", runner.completed().to_string())]);
            if sched.draining() {
                // Park durably: once the last checkpoint is saved, the
                // next server start re-queues us and resumes exactly here.
                saver.finish()?;
                lease.event("drain.park", &[]);
                let _ = job.set_state(JobState::Queued, None);
                return Ok(Some(Disposition::Done));
            }
            if sched.should_yield(&tenant, priority) {
                saver.finish()?;
                qdi_obs::metrics::counter("serve.sched.yields").inc();
                lease.event("sched.yield", &[("tenant", tenant.clone())]);
                let _ = job.set_state(JobState::Queued, None);
                return Ok(Some(Disposition::Requeue));
            }
        }
        saver.finish().map(|()| None)
    })?;
    if let Some(disposition) = parked {
        return Ok(disposition);
    }

    // The saver has landed the last checkpoint: it is the final one.
    let quarantined = quarantined_u64(runner.quarantined());
    runner.finish().map_err(|e| format!("finish: {e:?}"))?;

    let report = dpa_report(&record.id, &tenant, spec, &store_path, &quarantined)?;
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("{e:?}"))?;
    write_artifact(&job.dir.join(REPORT_FILE), &json)?;
    job.advance(total, total, quarantined);
    end_job(job, JobState::Completed, None);
    Ok(Disposition::Done)
}

fn dpa_report(
    id: &str,
    tenant: &str,
    spec: &DpaJobSpec,
    store_path: &Path,
    quarantined: &[u64],
) -> Result<DpaReport, String> {
    let mut report = DpaReport {
        id: id.to_owned(),
        tenant: tenant.to_owned(),
        traces: spec.campaign.traces as u64,
        quarantined: quarantined.to_vec(),
        selection: None,
        guesses: Vec::new(),
        best_guess: None,
    };
    let Some(attack) = &spec.attack else {
        return Ok(report);
    };
    let sel: Box<dyn SelectionFunction> = match attack.selection.as_str() {
        "sbox" => Box::new(AesSboxSelect {
            byte: 0,
            bit: attack.bit,
        }),
        _ => Box::new(AesXorSelect {
            byte: 0,
            bit: attack.bit,
        }),
    };
    report.selection = Some(sel.name());
    let guesses = attack
        .guesses
        .clone()
        .unwrap_or_else(|| vec![u16::from(spec.campaign.key)]);
    let chunk = spec.resilience.unwrap_or_default().checkpoint_every.max(1);
    let biases = qdi_dpa::bias_signals_from_store(store_path, sel.as_ref(), &guesses, chunk)
        .map_err(|e| format!("bias: {e}"))?;
    for (guess, bias) in guesses.into_iter().zip(biases) {
        let Some(trace) = bias else { continue };
        let (peak_t_ps, peak) = trace.abs_peak().unwrap_or((0, 0.0));
        report.guesses.push(GuessReport {
            guess,
            abs_peak: peak.abs(),
            peak_t_ps,
            samples: trace.samples().to_vec(),
        });
    }
    report.best_guess = report
        .guesses
        .iter()
        .max_by(|a, b| a.abs_peak.total_cmp(&b.abs_peak))
        .map(|g| g.guess);
    Ok(report)
}

fn run_fi(job: &Arc<JobHandle>, spec: &FiJobSpec) -> Result<(), String> {
    let slice = build_slice(&spec.stage)?;
    let models = qdi_fi::parse_models(&spec.models).map_err(|m| format!("model {m:?}"))?;
    let times = match &spec.times_ps {
        Some(times) => times.clone(),
        None => qdi_fi::default_injection_times(&slice.netlist, &spec.campaign)
            .map_err(|e| format!("golden run: {e}"))?,
    };
    let mut faults = qdi_fi::enumerate_faults(&slice.netlist, &models, &times);
    if let Some(k) = spec.sample {
        faults = qdi_fi::sample_faults(faults, k, spec.campaign.seed);
    }
    let total = faults.len() as u64;
    job.advance(0, total, Vec::new());
    let report = qdi_fi::run_campaign_parallel(
        &slice.netlist,
        &faults,
        &spec.campaign,
        ExecConfig { workers: 1 },
    )
    .map_err(|e| format!("campaign: {e}"))?;
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("{e:?}"))?;
    write_artifact(&job.dir.join(REPORT_FILE), &json)?;
    job.advance(total, total, Vec::new());
    end_job(job, JobState::Completed, None);
    Ok(())
}

fn run_pnr(job: &Arc<JobHandle>, spec: &PnrJobSpec) -> Result<(), String> {
    let column = qdi_crypto::gatelevel::column::aes_column_datapath("aes_column")
        .map_err(|e| format!("column: {e}"))?;
    let mut cfg = qdi_pnr::PnrConfig::default();
    if let Some(moves) = spec.moves_per_gate {
        cfg.anneal.moves_per_gate = moves as usize;
    }
    let total = spec.seeds.len() as u64;
    job.advance(0, total, Vec::new());
    let outcomes = qdi_pnr::stability_study_parallel(
        &column.netlist,
        spec.strategy,
        &cfg,
        &spec.seeds,
        ExecConfig { workers: 1 },
    );
    let json = serde_json::to_string_pretty(&outcomes).map_err(|e| format!("{e:?}"))?;
    write_artifact(&job.dir.join(REPORT_FILE), &json)?;
    job.advance(total, total, Vec::new());
    end_job(job, JobState::Completed, None);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qdi_serve_saver_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn running_job(dir: PathBuf, total: u64) -> JobHandle {
        let record = JobRecord {
            id: "j000001".into(),
            spec: JobSpec {
                tenant: "t".into(),
                name: None,
                priority: None,
                kind: JobKind::Dpa(DpaJobSpec {
                    stage: "xor".into(),
                    campaign: qdi_dpa::CampaignConfig::new(1),
                    resilience: None,
                    exec_workers: None,
                    attack: None,
                }),
            },
            state: JobState::Running,
            completed: 0,
            total,
            error: None,
            quarantined: Vec::new(),
            resumes: 0,
            submit_seq: 0,
            trace: None,
        };
        JobHandle::new(record, dir)
    }

    fn checkpoint(completed: usize, quarantined: Vec<usize>) -> StoreCheckpoint {
        StoreCheckpoint {
            fingerprint: String::new(),
            completed,
            store_path: String::new(),
            store_offset: completed as u64,
            quarantined,
        }
    }

    #[test]
    fn the_saver_lands_the_last_checkpoint_and_the_job_follows_it() {
        let dir = tmp_dir("last");
        let job = running_job(dir.clone(), 1_024);
        let path = dir.join(CHECKPOINT_FILE);
        std::thread::scope(|scope| {
            let saver = CheckpointSaver::start(scope, &job, &path, 1_024);
            for completed in (8..=1_024).step_by(8) {
                assert!(saver.save(checkpoint(completed, vec![3])));
            }
            saver.finish().expect("every save lands");
        });
        let saved = StoreCheckpoint::load(&path).expect("the checkpoint loads");
        assert_eq!((saved.completed, saved.quarantined), (1_024, vec![3]));
        let status = job.status();
        assert_eq!((status.completed, status.quarantined), (1_024, vec![3]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_save_stops_the_saver_and_finish_returns_its_error() {
        let dir = tmp_dir("fail");
        let job = running_job(dir.clone(), 64);
        let path = dir.join("missing").join(CHECKPOINT_FILE);
        let err = std::thread::scope(|scope| {
            let saver = CheckpointSaver::start(scope, &job, &path, 64);
            assert!(saver.save(checkpoint(8, Vec::new())));
            // The saver exits on the failed save; later hand-overs are
            // refused once it has.
            while saver.save(checkpoint(16, Vec::new())) {
                std::thread::yield_now();
            }
            saver.finish().expect_err("the save fails")
        });
        assert!(err.starts_with("checkpoint: "), "{err}");
        assert_eq!(job.status().completed, 0, "nothing landed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hand_overs_the_saver_has_not_taken_leave_only_the_newest() {
        let (handover, pickup) = checkpoint_slot();
        for completed in 1..=1_000 {
            assert!(handover.put(checkpoint(completed, vec![completed])));
        }
        drop(handover);
        let taken = pickup.take().expect("the newest checkpoint waits");
        assert_eq!((taken.completed, taken.quarantined), (1_000, vec![1_000]));
        assert!(pickup.take().is_none(), "nothing older is left");
    }

    #[test]
    fn a_checkpoint_handed_over_just_before_finish_still_lands() {
        let dir = tmp_dir("finish");
        let job = running_job(dir.clone(), 64);
        let path = dir.join(CHECKPOINT_FILE);
        std::thread::scope(|scope| {
            let saver = CheckpointSaver::start(scope, &job, &path, 64);
            assert!(saver.save(checkpoint(64, vec![5])));
            saver.finish().expect("the save lands");
        });
        let saved = StoreCheckpoint::load(&path).expect("the checkpoint loads");
        assert_eq!((saved.completed, saved.quarantined), (64, vec![5]));
        let status = job.status();
        assert_eq!((status.completed, status.quarantined), (64, vec![5]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs a lease scope that hands one checkpoint over and then leaves
    /// through `exit` without [`CheckpointSaver::finish`], on a thread of
    /// its own. The job's durable progress once the scope has returned.
    fn progress_after_unfinished_exit(
        tag: &str,
        exit: fn(CheckpointSaver<'_>),
    ) -> Result<u64, mpsc::RecvTimeoutError> {
        let dir = tmp_dir(tag);
        let job = running_job(dir.clone(), 64);
        let (returned, scope_returned) = mpsc::channel();
        std::thread::spawn(move || {
            let path = dir.join(CHECKPOINT_FILE);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                std::thread::scope(|scope| {
                    let saver = CheckpointSaver::start(scope, &job, &path, 64);
                    assert!(saver.save(checkpoint(8, Vec::new())));
                    exit(saver);
                });
            }));
            let _ = returned.send(job.status().completed);
            std::fs::remove_dir_all(&dir).ok();
        });
        // Generous: the scope either returns at once or never does.
        scope_returned.recv_timeout(std::time::Duration::from_secs(60))
    }

    #[test]
    fn a_lease_that_leaves_without_finish_still_ends_its_saver() {
        // An error returned early from the lease drops the saver...
        assert_eq!(
            progress_after_unfinished_exit("drop", |saver| drop(saver)),
            Ok(8)
        );
        // ...and so does a panic, before the scope re-raises it.
        assert_eq!(
            progress_after_unfinished_exit("panic", |_| panic!("the lease panics")),
            Ok(8)
        );
    }
}
