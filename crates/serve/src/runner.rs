//! Lease execution: what a worker does between [`crate::scheduler`]
//! hand-offs.
//!
//! DPA campaigns run chunk-at-a-time through
//! [`qdi_dpa::StoreCampaignRunner`] with a durable
//! checkpoint after every chunk, which buys three properties at once:
//!
//! * **fair-share preemption is free** — parking the job is just
//!   dropping the runner; the next lease resumes from the checkpoint
//!   and per-index seeding makes the traces bit-identical;
//! * **`kill -9` is survivable** — a restarted server re-queues the
//!   job and the resume truncates whatever torn tail the crash left;
//! * **cancellation is prompt** — the cancel flag is honored at every
//!   chunk boundary.
//!
//! Fault-injection and P&R jobs are monolithic library calls and run
//! as single uninterruptible leases.

use std::path::Path;
use std::sync::Arc;

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
    /// Indices still quarantined after the final retry (absent from
    /// the store).
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

/// Runs one lease of `job`. Owns all state transitions; the returned
/// [`Disposition`] tells the worker whether to re-queue.
pub fn run_lease(sched: &Scheduler, job: &Arc<JobHandle>) -> Disposition {
    if job.cancel_requested() {
        let _ = job.set_state(JobState::Canceled, None);
        qdi_obs::metrics::counter("serve.jobs.canceled").inc();
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
    match result {
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
            let _ = job.set_state(JobState::Failed, Some(message));
            qdi_obs::metrics::counter("serve.jobs.failed").inc();
            Disposition::Done
        }
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

    while !runner.is_done() {
        if job.cancel_requested() {
            runner
                .checkpoint()
                .save(&ckpt_path)
                .map_err(|e| format!("checkpoint: {e:?}"))?;
            let _ = job.set_state(JobState::Canceled, None);
            qdi_obs::metrics::counter("serve.jobs.canceled").inc();
            return Ok(Disposition::Done);
        }
        runner.step_chunk().map_err(|e| format!("acquire: {e:?}"))?;
        runner
            .checkpoint()
            .save(&ckpt_path)
            .map_err(|e| format!("checkpoint: {e:?}"))?;
        sched.charge(&tenant, 1);
        let _ = job.advance(
            runner.completed() as u64,
            total,
            quarantined_u64(runner.quarantined()),
        );
        lease.event("chunk", &[("completed", runner.completed().to_string())]);
        if sched.draining() {
            // Park durably: the next server start re-queues us and the
            // checkpoint written above resumes exactly here.
            lease.event("drain.park", &[]);
            let _ = job.set_state(JobState::Queued, None);
            return Ok(Disposition::Done);
        }
        if sched.should_yield(&tenant, priority) {
            qdi_obs::metrics::counter("serve.sched.yields").inc();
            lease.event("sched.yield", &[("tenant", tenant.clone())]);
            let _ = job.set_state(JobState::Queued, None);
            return Ok(Disposition::Requeue);
        }
    }

    // One final rescue pass over anything the supervisor quarantined
    // (either in this lease or recorded by the checkpoint we resumed).
    if !runner.quarantined().is_empty() {
        let recovered = runner
            .retry_quarantined()
            .map_err(|e| format!("retry quarantined: {e:?}"))?;
        if recovered > 0 {
            qdi_obs::metrics::counter("serve.jobs.rescued").add(recovered as u64);
        }
    }
    runner
        .checkpoint()
        .save(&ckpt_path)
        .map_err(|e| format!("checkpoint: {e:?}"))?;
    let quarantined = quarantined_u64(runner.quarantined());
    runner.finish().map_err(|e| format!("finish: {e:?}"))?;

    let report = dpa_report(&record.id, &tenant, spec, &store_path, &quarantined)?;
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("{e:?}"))?;
    write_artifact(&job.dir.join(REPORT_FILE), &json)?;
    let _ = job.advance(total, total, quarantined);
    let _ = job.set_state(JobState::Completed, None);
    qdi_obs::metrics::counter("serve.jobs.completed").inc();
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
    for guess in guesses {
        let bias = qdi_dpa::bias_signal_from_store(store_path, sel.as_ref(), guess, chunk)
            .map_err(|e| format!("bias: {e}"))?;
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
    let _ = job.advance(0, total, Vec::new());
    let report = qdi_fi::run_campaign_parallel(
        &slice.netlist,
        &faults,
        &spec.campaign,
        ExecConfig { workers: 1 },
    )
    .map_err(|e| format!("campaign: {e}"))?;
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("{e:?}"))?;
    write_artifact(&job.dir.join(REPORT_FILE), &json)?;
    let _ = job.advance(total, total, Vec::new());
    let _ = job.set_state(JobState::Completed, None);
    qdi_obs::metrics::counter("serve.jobs.completed").inc();
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
    let _ = job.advance(0, total, Vec::new());
    let outcomes = qdi_pnr::stability_study_parallel(
        &column.netlist,
        spec.strategy,
        &cfg,
        &spec.seeds,
        ExecConfig { workers: 1 },
    );
    let json = serde_json::to_string_pretty(&outcomes).map_err(|e| format!("{e:?}"))?;
    write_artifact(&job.dir.join(REPORT_FILE), &json)?;
    let _ = job.advance(total, total, Vec::new());
    let _ = job.set_state(JobState::Completed, None);
    qdi_obs::metrics::counter("serve.jobs.completed").inc();
    Ok(())
}
