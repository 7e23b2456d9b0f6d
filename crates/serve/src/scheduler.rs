//! Fair-share scheduling across tenants.
//!
//! The contract, in order of precedence:
//!
//! 1. **Fair share across tenants** — the next lease goes to the
//!    queued job whose tenant has consumed the fewest scheduling
//!    quanta (chunks) so far. Two tenants submitting simultaneously
//!    interleave chunk-for-chunk regardless of how much either has
//!    queued, and a tenant cannot starve another by submitting more
//!    or higher-priority work.
//! 2. **Priority within a tenant** — among one tenant's queued jobs,
//!    `High` beats `Normal` beats `Low`.
//! 3. **FIFO** — ties break on submission order.
//!
//! Preemption is cooperative: a running DPA job re-evaluates
//! [`Scheduler::should_yield`] after every checkpointed chunk and, if
//! a more deserving tenant is waiting and no worker is free to take
//! that job, parks itself back in the queue (its checkpoint makes the
//! hand-off cheap, but the resumed lease starts with a cold trace cache
//! and rescans the store prefix). Fault-injection and P&R jobs run as
//! single leases.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::job::JobHandle;
use crate::spec::Priority;

struct QueueEntry {
    job: Arc<JobHandle>,
    tenant: String,
    priority: Priority,
    submit_seq: u64,
}

struct SchedInner {
    queue: Vec<QueueEntry>,
    /// Scheduling quanta charged per tenant since server start.
    service: HashMap<String, u64>,
    /// Workers holding a lease: handed a job by `take_next` and not yet
    /// released by [`Scheduler::release`].
    leased: usize,
    draining: bool,
}

/// The shared scheduler; all methods are thread-safe.
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    cv: Condvar,
    /// Worker threads taking jobs from this scheduler.
    workers: usize,
}

impl Scheduler {
    /// An empty scheduler feeding `workers` worker threads.
    #[must_use]
    pub fn new(workers: usize) -> Scheduler {
        Scheduler {
            inner: Mutex::new(SchedInner {
                queue: Vec::new(),
                service: HashMap::new(),
                leased: 0,
                draining: false,
            }),
            cv: Condvar::new(),
            workers,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedInner> {
        self.inner.lock().expect("scheduler lock poisoned")
    }

    /// Queues a job (idempotence is the caller's concern). Traced jobs
    /// get a `sched.enqueue` span parented under their submitting span,
    /// so waterfalls show every (re)queue — initial submit, fair-share
    /// requeue, crash recovery — on one time axis.
    pub fn enqueue(&self, job: Arc<JobHandle>) {
        let record = job.record();
        if let Some(ctx) = record.trace.as_ref().and_then(|meta| {
            Some(qdi_obs::span::TraceContext {
                trace_id: meta.trace_id.parse().ok()?,
                span_id: meta.root_span.parse().ok()?,
                flags: qdi_obs::span::FLAG_SAMPLED,
            })
        }) {
            let _mark = qdi_obs::span("qdi-serve", "sched.enqueue")
                .child_of(&ctx)
                .attr("job", record.id.clone())
                .attr("tenant", record.spec.tenant.clone())
                .attr("resumes", record.resumes.to_string());
        }
        let entry = QueueEntry {
            tenant: record.spec.tenant.clone(),
            priority: record.spec.priority(),
            submit_seq: record.submit_seq,
            job,
        };
        let mut inner = self.lock();
        inner.queue.push(entry);
        drop(inner);
        self.cv.notify_all();
        qdi_obs::metrics::gauge("serve.sched.queued").add(1);
    }

    /// Removes a queued job by id (used by cancel). Returns whether it
    /// was queued.
    pub fn remove(&self, id: &str) -> bool {
        let mut inner = self.lock();
        let before = inner.queue.len();
        inner.queue.retain(|e| e.job.record().id != id);
        let removed = before != inner.queue.len();
        if removed {
            qdi_obs::metrics::gauge("serve.sched.queued").add(-1);
        }
        removed
    }

    /// Blocks until a job is available and returns the most deserving
    /// one, or `None` once draining (workers exit on `None`). The
    /// calling worker holds a lease from here until it calls
    /// [`Scheduler::release`].
    #[must_use]
    pub fn take_next(&self) -> Option<Arc<JobHandle>> {
        let mut inner = self.lock();
        loop {
            if inner.draining {
                return None;
            }
            if let Some(best) = pick(&inner) {
                let entry = inner.queue.swap_remove(best);
                inner.leased += 1;
                qdi_obs::metrics::gauge("serve.sched.queued").add(-1);
                return Some(entry.job);
            }
            inner = self.cv.wait(inner).expect("scheduler lock poisoned");
        }
    }

    /// Charges `quanta` scheduling quanta to `tenant`.
    pub fn charge(&self, tenant: &str, quanta: u64) {
        let mut inner = self.lock();
        *inner.service.entry(tenant.to_owned()).or_insert(0) += quanta;
        qdi_obs::metrics::counter("serve.sched.leases").add(quanta);
    }

    /// Ends the lease a [`Scheduler::take_next`] call handed out: the
    /// job has published a terminal or parked state, so its worker is
    /// free from now on even while it is still closing the lease.
    pub fn release(&self) {
        // Runs from a drop guard, possibly while a panicking lease
        // unwinds, so it must not panic itself.
        if let Ok(mut inner) = self.inner.lock() {
            inner.leased = inner.leased.saturating_sub(1);
        }
    }

    /// Whether the job a worker is running for `tenant` should park
    /// itself: true when every worker holds a lease and either a
    /// strictly less-served tenant is waiting or the same tenant has
    /// queued something of strictly higher priority than `running`.
    /// While a worker is free, it takes the waiting job itself, and
    /// parking would only cost the running job its warm trace cache.
    #[must_use]
    pub fn should_yield(&self, tenant: &str, running: Priority) -> bool {
        let inner = self.lock();
        if inner.leased < self.workers {
            return false;
        }
        let mine = inner.service.get(tenant).copied().unwrap_or(0);
        inner.queue.iter().any(|e| {
            if e.tenant == tenant {
                e.priority.rank() < running.rank()
            } else {
                inner.service.get(&e.tenant).copied().unwrap_or(0) < mine
            }
        })
    }

    /// Starts draining: queued jobs stay queued (and durably recorded
    /// as such), workers exit as soon as their current chunk finishes.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.cv.notify_all();
    }

    /// Whether [`Scheduler::drain`] was called.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Snapshot of per-tenant service counters (for `/healthz`).
    #[must_use]
    pub fn service_snapshot(&self) -> Vec<(String, u64)> {
        let inner = self.lock();
        let mut all: Vec<(String, u64)> =
            inner.service.iter().map(|(k, v)| (k.clone(), *v)).collect();
        all.sort();
        all
    }
}

fn pick(inner: &SchedInner) -> Option<usize> {
    inner
        .queue
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| {
            (
                inner.service.get(&e.tenant).copied().unwrap_or(0),
                e.priority.rank(),
                e.submit_seq,
            )
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRecord, JobState};
    use crate::spec::{DpaJobSpec, JobKind, JobSpec};

    fn handle(id: &str, tenant: &str, priority: Priority, seq: u64) -> Arc<JobHandle> {
        let record = JobRecord {
            id: id.to_owned(),
            spec: JobSpec {
                tenant: tenant.to_owned(),
                name: None,
                priority: Some(priority),
                kind: JobKind::Dpa(DpaJobSpec {
                    stage: "xor".into(),
                    campaign: qdi_dpa::CampaignConfig::new(1),
                    resilience: None,
                    exec_workers: None,
                    attack: None,
                }),
            },
            state: JobState::Queued,
            completed: 0,
            total: 1,
            error: None,
            quarantined: Vec::new(),
            resumes: 0,
            submit_seq: seq,
            trace: None,
        };
        Arc::new(JobHandle::new(record, std::env::temp_dir()))
    }

    #[test]
    fn alternates_between_tenants_regardless_of_queue_depth() {
        let sched = Scheduler::new(2);
        // Tenant a floods the queue before b shows up.
        for i in 0..3 {
            sched.enqueue(handle(&format!("a{i}"), "a", Priority::High, i));
        }
        sched.enqueue(handle("b0", "b", Priority::Low, 10));
        let mut order = Vec::new();
        for _ in 0..2 {
            let job = sched.take_next().expect("job");
            let tenant = job.tenant();
            sched.charge(&tenant, 1);
            order.push(tenant);
        }
        // First pick ties at 0 service (a wins FIFO), the second must
        // go to the other tenant even though its job is Low priority.
        assert_eq!(order, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn priority_orders_within_a_tenant() {
        let sched = Scheduler::new(1);
        sched.enqueue(handle("a0", "a", Priority::Low, 0));
        sched.enqueue(handle("a1", "a", Priority::High, 1));
        let first = sched.take_next().expect("job");
        assert_eq!(first.record().id, "a1");
    }

    #[test]
    fn yields_to_a_less_served_tenant_and_to_higher_priority() {
        let sched = Scheduler::new(1);
        sched.enqueue(handle("a0", "a", Priority::Normal, 0));
        let _running = sched.take_next().expect("the one worker leases a0");
        sched.charge("a", 5);
        assert!(!sched.should_yield("a", Priority::Normal), "empty queue");
        sched.enqueue(handle("b0", "b", Priority::Low, 0));
        assert!(sched.should_yield("a", Priority::Normal), "b has 0 < 5");
        assert!(
            !sched.should_yield("b", Priority::Normal),
            "b is the minimum"
        );
        sched.remove("b0");
        sched.enqueue(handle("a1", "a", Priority::High, 1));
        assert!(
            sched.should_yield("a", Priority::Normal),
            "own High job waits"
        );
        assert!(!sched.should_yield("a", Priority::High));
    }

    #[test]
    fn does_not_yield_while_a_worker_is_free() {
        let sched = Scheduler::new(2);
        sched.enqueue(handle("a0", "a", Priority::Normal, 0));
        let _a0 = sched.take_next().expect("worker 1 leases a0");
        sched.charge("a", 1);
        sched.enqueue(handle("b0", "b", Priority::Normal, 1));
        sched.enqueue(handle("b1", "b", Priority::Normal, 2));
        assert!(
            !sched.should_yield("a", Priority::Normal),
            "worker 2 is free and takes b0"
        );
        let b0 = sched.take_next().expect("worker 2 leases b0");
        assert_eq!(b0.record().id, "b0");
        assert!(
            sched.should_yield("a", Priority::Normal),
            "both workers hold leases and b1 waits on a less-served tenant"
        );
        sched.release();
        assert!(
            !sched.should_yield("a", Priority::Normal),
            "worker 2 published b0's state and takes b1 next"
        );
    }

    #[test]
    fn drain_wakes_blocked_workers_with_none() {
        let sched = Arc::new(Scheduler::new(1));
        let waiter = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.take_next().is_none())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.drain();
        assert!(waiter.join().expect("joins"), "drained take_next is None");
    }
}
