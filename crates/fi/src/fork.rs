//! Fault runs forked from the golden run.
//!
//! Until its first fault action fires, an injected run *is* the golden
//! run. [`GoldenRun`] therefore simulates the golden testbench once,
//! pausing it wherever a fault armed at one of the campaign's injection
//! times would fire ([`Testbench::pause_at`]) and keeping a clone there.
//! A fault run clones the latest snapshot at or before its plan's first
//! action, injects the plan and runs on, so the fault-free prefix is
//! simulated once per campaign instead of once per fault. A plan that
//! fires while the testbench settles has no snapshot before it and runs
//! from a fresh testbench; a plan that would fire after the golden run
//! ends forks from the last snapshot and never fires.
//!
//! One kind of plan needs no simulation at all, because its run is the
//! golden run edge for edge: a *golden-identical* fault, that is one
//! `stuck0`/`stuck1` fault with no duration on a net that already holds
//! the stuck level at the snapshot, or one `delay` fault with no
//! duration, where golden never toggles the site's net at or after the
//! fault time. The fault fires but moves no net: gate evaluation reads
//! levels and pending values, never pending times, so both runs make the
//! same schedule and cancel calls until a first differing edge, and any
//! such edge would be a golden edge on the site. Three more conditions
//! keep the argument exact: the watchdog has no sim-time deadline (it
//! also checks cancelled queue entries, which differ between the runs),
//! the site passes [`qdi_sim::Fault::check`], and the snapshot holds an
//! event still due, so the clock the fault moved to its time is set by
//! that event before anything reads it. DESIGN.md §4d has the full
//! argument.
//!
//! Every result equals [`Stimulus::run`]'s for the same plan, field for
//! field; `crates/fi/tests/fork_oracle.rs` checks that.
//!
//! Classification resumes the same way ([`GoldenRun::outcome`]). Each
//! snapshot also keeps the protocol checker's state after golden's log so
//! far, and that log's length. A forked run's log is golden's log up to
//! the snapshot followed by the fork's own edges, so the checker steps
//! only those edges, from the snapshot's state; a violation in golden's
//! prefix is already in that state and sticks. A plan that fires while
//! the testbench settles runs from scratch and is checked from idle. The
//! sinks' values are compared with golden's directly, in attachment order.
//! Each outcome equals [`crate::classify`] of the same run.

use std::collections::BTreeSet;

use qdi_netlist::Netlist;
use qdi_sim::protocol::{CheckState, PinIndex};
use qdi_sim::{
    Advance, FaultKind, FaultPlan, SimError, Testbench, TestbenchConfig, TestbenchRun, TimePs,
};

use crate::harness::Stimulus;
use crate::outcome::{completed, failed, FaultOutcome};

/// How [`GoldenRun::fault_run`] produced a plan's run.
#[derive(Debug, Clone)]
pub enum FaultRun {
    /// The run is the golden run ([`GoldenRun::run`]) edge for edge, known
    /// without simulating it.
    Golden,
    /// The simulated run, forked from a snapshot or, for a plan that fires
    /// while the testbench settles, run from scratch.
    Simulated(Result<TestbenchRun, SimError>),
}

/// One clone of the golden testbench, taken at a pause.
#[derive(Debug)]
struct Snapshot<'a> {
    at_ps: TimePs,
    bench: Testbench<'a>,
    /// The queue holds an event still due to fire.
    live: bool,
    /// The protocol check after golden's log up to here.
    check: CheckState,
    /// How many edges golden had logged here: a fork's log starts with
    /// exactly these.
    logged: usize,
}

/// A stimulus's golden run, with a testbench snapshot at every pause time
/// to fork fault runs from.
#[derive(Debug)]
pub struct GoldenRun<'a> {
    netlist: &'a Netlist,
    /// The testbench before it started: forks of it run from scratch.
    start: Testbench<'a>,
    /// Snapshots in time order, one per pause the golden run stopped at.
    snapshots: Vec<Snapshot<'a>>,
    run: TestbenchRun,
    /// Golden's own class: the outcome of every golden-identical fault.
    outcome: FaultOutcome,
    /// The netlist's channels, indexed once for every classification.
    index: PinIndex<'a>,
    /// Per net: the time of golden's last edge on it.
    last_edge: Vec<Option<TimePs>>,
    /// The watchdog has a sim-time deadline, which turns the
    /// golden-identical rule off.
    deadline: bool,
}

impl<'a> GoldenRun<'a> {
    /// Runs `stimulus` on `netlist` once, fault-free, pausing at each of
    /// `pauses` (in any order; duplicates are ignored) and keeping a
    /// snapshot of the testbench at every pause it reaches after settling.
    /// Fault runs fork fastest from a snapshot at exactly their plan's
    /// first action, so pass every first-action time.
    ///
    /// # Errors
    ///
    /// Propagates environment-attachment errors and the golden run's own
    /// failure ([`SimError`]), exactly as [`Stimulus::run`] reports them.
    pub fn new(
        netlist: &'a Netlist,
        stimulus: &Stimulus,
        cfg: &TestbenchConfig,
        pauses: impl IntoIterator<Item = TimePs>,
    ) -> Result<GoldenRun<'a>, SimError> {
        let start = stimulus.testbench(netlist, cfg)?;
        let mut bench = start.clone();
        for at_ps in pauses.into_iter().collect::<BTreeSet<_>>() {
            bench.pause_at(at_ps);
        }
        let index = PinIndex::new(netlist.channels());
        let mut check = index.idle();
        let mut snapshots = Vec::new();
        let run = loop {
            match bench.advance()? {
                Advance::Paused(at_ps) => {
                    let log = bench.simulator().transitions();
                    let logged = snapshots.last().map_or(0, |s: &Snapshot<'_>| s.logged);
                    check.feed(&index, &log[logged..]);
                    snapshots.push(Snapshot {
                        at_ps,
                        live: bench.simulator().pending_events() > 0,
                        check: check.clone(),
                        logged: log.len(),
                        bench: bench.clone(),
                    });
                }
                Advance::Done(run) => break run,
            }
        };
        // Golden's class: its check finished, and its values are golden's.
        let outcome = {
            let _span = qdi_obs::span::hot("fi.classify");
            let logged = snapshots.last().map_or(0, |s| s.logged);
            completed(check.feed(&index, &run.transitions[logged..]), || true)
        };
        let mut last_edge = vec![None; netlist.net_count()];
        for t in &run.transitions {
            last_edge[t.net.index()] = Some(t.time_ps);
        }
        Ok(GoldenRun {
            netlist,
            start,
            snapshots,
            run,
            outcome,
            index,
            last_edge,
            deadline: cfg.watchdog.max_sim_time_ps.is_some(),
        })
    }

    /// The golden run.
    #[must_use]
    pub fn run(&self) -> &TestbenchRun {
        &self.run
    }

    /// The run `plan` produces: what [`Stimulus::run`] returns for it,
    /// without simulating the fault-free prefix, or without simulating at
    /// all when the run is provably the golden run (see the module docs).
    #[must_use]
    pub fn fault_run(&self, plan: &FaultPlan) -> FaultRun {
        self.fork(plan).1
    }

    /// The class of the run `plan` produces, against the golden run:
    /// [`crate::classify`] of [`GoldenRun::fault_run`]'s run, with the protocol
    /// check resumed from the fork's snapshot (see the module docs).
    #[must_use]
    pub fn outcome(&self, plan: &FaultPlan) -> FaultOutcome {
        let (snapshot, run) = self.fork(plan);
        let result = match run {
            FaultRun::Golden => return self.outcome,
            FaultRun::Simulated(result) => result,
        };
        let _span = qdi_obs::span::hot("fi.classify");
        let run = match result {
            Ok(run) => run,
            Err(err) => return failed(&err),
        };
        let (mut check, logged) = match snapshot {
            Some(s) => (s.check.clone(), s.logged),
            None => (self.index.idle(), 0),
        };
        let conformant = check.feed(&self.index, &run.transitions[logged..]);
        completed(conformant, || {
            run.received_all().eq(self.run.received_all())
        })
    }

    /// The snapshot `plan`'s run forks from, if any, and the run.
    fn fork(&self, plan: &FaultPlan) -> (Option<&Snapshot<'a>>, FaultRun) {
        // An empty plan has no first action and runs from the start.
        let first = plan.iter().map(|f| f.at_ps).min().unwrap_or(0);
        let latest = self.snapshots.partition_point(|s| s.at_ps <= first);
        let snapshot = latest.checked_sub(1).map(|i| &self.snapshots[i]);
        if snapshot.is_some_and(|s| self.moves_no_net(s, plan)) {
            return (snapshot, FaultRun::Golden);
        }
        let _span = qdi_obs::span::hot("fi.fault_run");
        let mut bench = snapshot.map_or(&self.start, |s| &s.bench).clone();
        let run = FaultRun::Simulated(bench.inject(plan).and_then(|()| bench.run()));
        (snapshot, run)
    }

    /// The golden-identical rule: `plan` is one fault that fires at
    /// `snapshot` and cannot change any net level.
    fn moves_no_net(&self, snapshot: &Snapshot<'_>, plan: &FaultPlan) -> bool {
        let mut faults = plan.iter();
        let (Some(fault), None) = (faults.next(), faults.next()) else {
            return false;
        };
        if self.deadline
            || !snapshot.live
            || snapshot.at_ps != fault.at_ps
            || fault.duration_ps.is_some()
            || fault.check(self.netlist).is_err()
        {
            return false;
        }
        let net = fault.net(self.netlist);
        let quiet = self.last_edge[net.index()].is_none_or(|t| t < fault.at_ps);
        quiet
            && match fault.kind {
                FaultKind::StuckAt(v) => snapshot.bench.simulator().level(net) == v,
                FaultKind::DelayPerturb { .. } => true,
                _ => false,
            }
    }
}
