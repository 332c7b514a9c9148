//! The cycle-level out-of-order processor model: a thin orchestrator.
//!
//! [`Processor`] owns the machine substrate (`PipelineState`: the shared
//! free lists, functional units and memory hierarchy plus one `ThreadState`
//! — ROB, IQ, RAT, LQ/SQ, LTP unit — per hardware thread) and one
//! [`StageBus`] per thread, and advances a cycle by invoking the stage
//! modules in back-to-front order (writeback → commit → release →
//! issue → rename; see [`crate::stages`]). The model is timing-only: values
//! are never computed, only the dependence, resource and latency behaviour
//! is simulated, which is the level of modelling the paper's analysis
//! requires.
//!
//! A single-thread run spends host time on events, not cycles: whenever no
//! stage can act on the next cycle (a memory-bound window stalled behind
//! LLC misses), the run loop jumps to the first cycle at which one can and
//! accounts for the skipped span in one step, cycle-exactly (see
//! `Processor::drive` and the "Event-proportional cycle loop" section of
//! `PERF.md`).
//!
//! With a single hardware thread (the default) the cycle loop is exactly the
//! pre-SMT pipeline. Under SMT ([`PipelineConfig::smt`]) every stage runs
//! once per thread per cycle — the per-cycle thread order and the shared
//! front-end/issue/commit width split are decided by the configured
//! [`crate::SharePolicy`] — and [`Processor::run_smt`] drives two (or more)
//! independent instruction streams to a per-thread [`RunResult`] over one
//! shared cycle timeline.

use crate::config::{PipelineConfig, SharePolicy};
use crate::free_list::FreeList;
use crate::frontend::FrontEnd;
use crate::iq::IssueQueue;
use crate::lsq::{LoadQueue, MemDepPredictor, StoreQueue};
use crate::rat::Rat;
use crate::result::{
    ActivityCounters, DeadlockSnapshot, OccupancyReport, RunError, RunResult, SmtRunResult,
};
use crate::rob::{Rob, RobEntry};
use crate::stages::{commit, issue, release, writeback, RenameStage, StageBus};
use crate::state::{PipelineState, RegSet, ThreadState};
use crate::FuPool;
use ltp_core::{CriticalityClassifier, LtpUnit, OracleClassifier};
use ltp_isa::{DynInst, InstStream, IntHashMap, ThreadId};
use ltp_mem::{AccessKind, Cycle, MemoryHierarchy, MemoryRequest};

/// If no instruction commits for this many cycles the simulation aborts with
/// a [`RunError::Deadlock`]: it indicates a resource-accounting deadlock.
const DEADLOCK_CYCLES: u64 = 500_000;

/// Upper bound on hardware threads (enforced by `PipelineConfig::validate`),
/// used to keep the per-cycle thread ordering allocation-free.
const MAX_THREADS: usize = 4;

/// A snapshot of one free list, exposed to per-cycle observers.
#[derive(Debug, Clone, Copy)]
pub struct RegFileSnapshot {
    /// Registers currently allocated.
    pub allocated: usize,
    /// Registers still available.
    pub available: usize,
    /// Current capacity of the pool (`usize::MAX` for the limit study).
    pub capacity: usize,
}

impl RegFileSnapshot {
    fn of(list: &FreeList) -> RegFileSnapshot {
        RegFileSnapshot {
            allocated: list.allocated(),
            available: list.available(),
            capacity: list.capacity(),
        }
    }
}

/// What a per-cycle observer (see [`Processor::run_observed`]) gets to see
/// after each simulated cycle: the stage-bus traffic of the cycle plus
/// resource-accounting snapshots, enough to check structural invariants
/// without exposing the mutable machine state.
///
/// The observer sees every simulated cycle exactly once, in order —
/// including the quiescent cycles the run loop accounts for without
/// stepping the stages. On such a cycle no stage acted, so the view shows an
/// empty bus and the same accounting as the cycle before.
#[derive(Debug)]
pub struct CycleView<'a> {
    /// The cycle that just finished.
    pub cycle: Cycle,
    /// The signals the stages exchanged during this cycle.
    pub bus: &'a StageBus,
    /// Integer free-list accounting.
    pub int_regs: RegFileSnapshot,
    /// Floating point free-list accounting.
    pub fp_regs: RegFileSnapshot,
    /// Occupied ROB entries.
    pub rob_len: usize,
    /// Instructions committed so far.
    pub committed: u64,
}

/// The out-of-order core.
#[derive(Debug)]
pub struct Processor {
    pub(crate) state: PipelineState,
    /// One signal bus per hardware thread (sequence numbers are dense per
    /// thread, so delayed signals must not mix threads).
    pub(crate) buses: Vec<StageBus>,
    /// One rename skid buffer per hardware thread.
    pub(crate) renames: Vec<RenameStage>,
}

/// Per-thread structure size under the configured sharing policy: static
/// partitioning splits the total, dynamic sharing gives every thread the
/// full size and bounds the combined occupancy in the capacity checks.
fn per_thread_size(total: usize, cfg: &PipelineConfig) -> usize {
    if cfg.smt.is_smt() && cfg.smt.policy == SharePolicy::StaticPartition && total != usize::MAX {
        (total / cfg.smt.threads).max(1)
    } else {
        total
    }
}

impl Processor {
    /// Builds a processor from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    #[must_use]
    pub fn new(cfg: PipelineConfig) -> Processor {
        Processor::with_memory(cfg, MemoryHierarchy::new(cfg.mem))
    }

    /// [`Processor::new`] around an existing memory hierarchy (a
    /// checkpoint's warm state), so the empty one `new` would build is never
    /// allocated. `mem` must have been built for `cfg.mem`.
    pub(crate) fn with_memory(cfg: PipelineConfig, mem: MemoryHierarchy) -> Processor {
        cfg.validate();
        let monitor_timeout = cfg.mem.dram.typical_total_latency() + cfg.mem.l3.latency;
        // Size the stage-bus timing wheels for the worst common-case delay:
        // a DRAM access behind the full cache hierarchy plus slack for bank
        // queueing. Longer delays still deliver via the wheels' far level.
        let signal_horizon = monitor_timeout + 64;
        let n = cfg.smt.threads;
        let static_split = cfg.smt.is_smt() && cfg.smt.policy == SharePolicy::StaticPartition;
        let reg_quota = |total: usize| {
            if static_split && total != usize::MAX {
                (total / n).max(1)
            } else {
                usize::MAX
            }
        };
        let mut threads: Vec<Box<ThreadState>> = (0..n)
            .map(|tid| {
                Box::new(ThreadState {
                    tid: ThreadId(tid as u8),
                    ltp: LtpUnit::new(cfg.ltp, monitor_timeout),
                    rob: Rob::new(per_thread_size(cfg.rob_size, &cfg)),
                    iq: IssueQueue::new(per_thread_size(cfg.iq_size, &cfg)),
                    rat: Rat::new(),
                    lq: LoadQueue::new(per_thread_size(cfg.lq_size, &cfg)),
                    sq: StoreQueue::new(per_thread_size(cfg.sq_size, &cfg)),
                    memdep: MemDepPredictor::new(),
                    // Slack beyond the configured files covers the recycled
                    // architectural mappings, so the set never grows mid-run.
                    completed_regs: RegSet::with_capacity(
                        cfg.int_regs.min(1024).max(cfg.fp_regs.min(1024)) + 64,
                    ),
                    released_parked_regs: IntHashMap::with_capacity_and_hasher(
                        64,
                        Default::default(),
                    ),
                    committed: 0,
                    loads_committed: 0,
                    stores_committed: 0,
                    llc_miss_loads: 0,
                    last_commit_cycle: 0,
                    occupancy: OccupancyReport::default(),
                    activity: ActivityCounters::default(),
                    int_regs_used: 0,
                    fp_regs_used: 0,
                    int_quota: reg_quota(cfg.int_regs),
                    fp_quota: reg_quota(cfg.fp_regs),
                })
            })
            .collect();
        let thread0 = threads.remove(0);
        Processor {
            state: PipelineState {
                now: 0,
                mem,
                fu: FuPool::new(&cfg.fu),
                int_free: FreeList::new(cfg.int_regs),
                fp_free: FreeList::new(cfg.fp_regs),
                issue_scratch: Vec::with_capacity(cfg.issue_width.min(64)),
                thread: thread0,
                parked_threads: threads,
                active: 0,
                cfg,
            },
            buses: (0..n)
                .map(|_| StageBus::with_horizon(signal_horizon))
                .collect(),
            renames: (0..n).map(|_| RenameStage::default()).collect(),
        }
    }

    /// Attaches an oracle classifier (perfect classification, limit study)
    /// to thread 0.
    pub fn set_oracle(&mut self, oracle: OracleClassifier) {
        self.set_oracle_for(0, oracle);
    }

    /// Attaches an oracle classifier to the given hardware thread. Each
    /// thread of an SMT machine is analysed against its own trace.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn set_oracle_for(&mut self, tid: usize, oracle: OracleClassifier) {
        self.state.thread_mut(tid).ltp.set_oracle(oracle);
    }

    /// Replaces the criticality classifier driving thread 0's LTP unit.
    pub fn set_classifier(&mut self, classifier: Box<dyn CriticalityClassifier>) {
        self.set_classifier_for(0, classifier);
    }

    /// Replaces the criticality classifier of the given hardware thread.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn set_classifier_for(&mut self, tid: usize, classifier: Box<dyn CriticalityClassifier>) {
        self.state.thread_mut(tid).ltp.set_classifier(classifier);
    }

    /// Warms the caches by replaying memory accesses of `trace` functionally
    /// (no timing). The paper warms the caches before every simulation point;
    /// an SMT co-run warms with each thread's trace in turn.
    pub fn warm_caches(&mut self, trace: &[DynInst]) {
        for inst in trace {
            if let Some(access) = inst.mem_access() {
                let kind = if inst.op().is_store() {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                self.state
                    .mem
                    .warm(&MemoryRequest::new(inst.pc(), access.addr(), kind));
            }
        }
    }

    /// The memory hierarchy's current state. Together with
    /// [`Processor::restore_memory_state`] this lets a sweep harness warm
    /// the caches once per (trace, memory geometry) and reuse the result
    /// across detail configurations — [`Processor::warm_caches`] touches
    /// nothing but the hierarchy, so restoring a warmed hierarchy into a
    /// fresh machine is bit-identical to re-warming it.
    #[must_use]
    pub fn memory_state(&self) -> &MemoryHierarchy {
        &self.state.mem
    }

    /// Replaces the memory hierarchy state (see
    /// [`Processor::memory_state`]). Only exact when `mem` was captured
    /// from a machine with the same memory configuration; geometry is the
    /// caller's (cache key's) responsibility.
    pub fn restore_memory_state(&mut self, mem: MemoryHierarchy) {
        self.state.mem = mem;
    }

    /// The configuration of this processor.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.state.cfg
    }

    /// Current accounting of the integer and floating point register files
    /// (in that order), for resource-conservation checks.
    #[must_use]
    pub fn register_files(&self) -> (RegFileSnapshot, RegFileSnapshot) {
        (
            RegFileSnapshot::of(&self.state.int_free),
            RegFileSnapshot::of(&self.state.fp_free),
        )
    }

    /// Runs the processor on `stream` until `max_insts` instructions have
    /// committed or the stream is exhausted, and returns the run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] when no instruction commits for a very
    /// long time, which indicates a resource-accounting deadlock (or an
    /// intentionally starved configuration) rather than a valid simulation
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics on an SMT-configured machine; use [`Processor::run_smt`] there.
    pub fn run<S: InstStream>(&mut self, stream: S, max_insts: u64) -> Result<RunResult, RunError> {
        self.run_single(stream, max_insts, None::<fn(&CycleView<'_>)>)
    }

    /// Like [`Processor::run`], but calls `observer` with a [`CycleView`]
    /// after every simulated cycle (quiescent cycles included, see
    /// [`CycleView`]). This is the hook the structural-invariant test-suite
    /// uses to watch the stage bus and the resource accounting.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] under the same conditions as
    /// [`Processor::run`].
    ///
    /// # Panics
    ///
    /// Panics on an SMT-configured machine; use [`Processor::run_smt`] there.
    pub fn run_observed<S, F>(
        &mut self,
        stream: S,
        max_insts: u64,
        observer: F,
    ) -> Result<RunResult, RunError>
    where
        S: InstStream,
        F: FnMut(&CycleView<'_>),
    {
        self.run_single(stream, max_insts, Some(observer))
    }

    fn run_single<S, F>(
        &mut self,
        stream: S,
        max_insts: u64,
        observer: Option<F>,
    ) -> Result<RunResult, RunError>
    where
        S: InstStream,
        F: FnMut(&CycleView<'_>),
    {
        assert_eq!(
            self.state.nthreads(),
            1,
            "run/run_observed drive a single-threaded machine; use run_smt for SMT co-runs"
        );
        self.check_oracle()?;
        let workload = stream.name().to_string();
        let mut fe = FrontEnd::new(
            stream,
            self.state.cfg.frontend_delay,
            self.state.cfg.mispredict_penalty,
        );
        let warmup = self.state.cfg.warmup_insts;
        let measured = self.drive(
            &mut fe,
            &workload,
            max_insts,
            (warmup > 0).then_some(warmup),
            None,
            observer,
        )?;
        Ok(self.assemble_result(
            workload,
            measured.unwrap_or((0, 0)),
            fe.branch_predictor().misprediction_rate(),
        ))
    }

    /// Runs the machine in detail until `checkpoint_at` instructions have
    /// committed (or the stream drains first) and captures a [`crate::Snapshot`] of
    /// the complete machine state at that cycle boundary. Restoring the
    /// snapshot ([`crate::Snapshot::resume`]) and finishing the run is bit-for-bit
    /// identical to never having stopped.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] / [`RunError::OracleNotAttached`] under
    /// the same conditions as [`Processor::run`], and
    /// [`RunError::SnapshotUnsupported`] when the machine cannot be
    /// checkpointed (SMT configuration, or a custom classifier without
    /// snapshot support).
    pub fn run_to_snapshot<S: InstStream>(
        &mut self,
        stream: S,
        checkpoint_at: u64,
    ) -> Result<crate::Snapshot, RunError> {
        if self.state.nthreads() != 1 {
            return Err(RunError::SnapshotUnsupported(
                crate::SnapshotError::SmtUnsupported.to_string(),
            ));
        }
        self.check_oracle()?;
        let workload = stream.name().to_string();
        let mut fe = FrontEnd::new(
            stream,
            self.state.cfg.frontend_delay,
            self.state.cfg.mispredict_penalty,
        );
        let warmup = self.state.cfg.warmup_insts;
        let measured = self.drive(
            &mut fe,
            &workload,
            checkpoint_at,
            (warmup > 0).then_some(warmup),
            None,
            None::<fn(&CycleView<'_>)>,
        )?;
        crate::Snapshot::capture(
            self,
            fe.export_state(),
            self.renames[0].pending.clone(),
            measured,
        )
        .map_err(|e| RunError::SnapshotUnsupported(e.to_string()))
    }

    /// An oracle-configured machine must have had its analysed oracle (or a
    /// deliberate classifier override) attached; running on the built-in
    /// fallback would silently produce wrongly-labelled results.
    pub(crate) fn check_oracle(&self) -> Result<(), RunError> {
        if self.state.cfg.needs_oracle() && !self.state.thread.ltp.classifier_attached() {
            Err(RunError::OracleNotAttached)
        } else {
            Ok(())
        }
    }

    /// The single-thread run loop behind [`Processor::run`],
    /// [`Processor::run_observed`], [`Processor::run_to_snapshot`] and
    /// [`crate::ResumedRun::run`]: steps the machine until `stop_at`
    /// instructions have committed or the stream has drained, and returns
    /// the `(cycle, committed)` at which the measured window opened — the
    /// `measured` passed in, or the first cycle boundary at which the
    /// committed count reached `measure_at`.
    ///
    /// Host time is proportional to events, not cycles: whenever no stage can
    /// act on the current cycle, the loop accounts for every cycle up to the
    /// earliest one at which a stage may act (see `quiet_until`) in one step
    /// and resumes stepping there. The result is cycle-exact — the same
    /// cycles, statistics and machine state as stepping every cycle. An idle
    /// cycle writes only per-cycle latches (the LTP queue's port window, the
    /// force-release latch, the wheels' drain point), and the first active
    /// cycle after the span rewrites each of them exactly as the idle cycles
    /// would have (see `PERF.md`).
    pub(crate) fn drive<S, F>(
        &mut self,
        fe: &mut FrontEnd<S>,
        workload: &str,
        stop_at: u64,
        measure_at: Option<u64>,
        mut measured: Option<(Cycle, u64)>,
        mut observer: Option<F>,
    ) -> Result<Option<(Cycle, u64)>, RunError>
    where
        S: InstStream,
        F: FnMut(&CycleView<'_>),
    {
        while self.state.thread.committed < stop_at
            && !(fe.is_drained() && self.state.thread.rob.is_empty())
        {
            if let Some(wake) = self.quiet_until(fe) {
                // Cycles `now..wake` are no-ops: account for them in one step
                // (the watchdog may fire inside the span, as it would have).
                self.skip_to(wake, &mut observer);
                if let Some(err) = self.deadlock_check(workload) {
                    return Err(err);
                }
            }
            self.cycle(std::slice::from_mut(fe), u64::MAX);
            if let Some(observe) = observer.as_mut() {
                observe(&self.view(self.state.now - 1));
            }
            let committed = self.state.thread.committed;
            if measured.is_none() && measure_at.is_some_and(|m| committed >= m) {
                measured = Some((self.state.now, committed));
            }
            if let Some(err) = self.deadlock_check(workload) {
                return Err(err);
            }
        }
        Ok(measured)
    }

    /// If no stage can act on the current cycle, the first later cycle at
    /// which one may; `None` when a stage may act now. "No stage can act"
    /// means: the IQ has no ready entry (issue), the ROB head has not
    /// completed (commit), rename is blocked, fetch cannot pull from the
    /// stream, no delayed signal is due (writeback) and no LTP release is
    /// possible. While that holds the machine state does not change, so it
    /// keeps holding until a time-driven condition flips: a delayed signal
    /// falls due, an instruction leaves the front-end pipe, a fetch redirect
    /// ends, the forced-release timeout expires, or the deadlock watchdog
    /// fires.
    pub(crate) fn quiet_until<S: InstStream>(&self, fe: &FrontEnd<S>) -> Option<Cycle> {
        let state = &self.state;
        let t = state.t();
        let now = state.now;
        if t.iq.has_ready() || t.rob.head().is_some_and(RobEntry::is_completed) {
            return None;
        }
        let rename = &self.renames[0];
        if !rename.is_blocked(state, fe) {
            return None;
        }
        let bus = &self.buses[0];
        let rename_requests = rename.pending.is_some() && t.ltp.occupancy() > 0;
        let wake = [
            bus.next_signal(),
            fe.next_ready().filter(|&ready| ready > now),
            fe.next_fetch(now, state.cfg.front_width),
            release::next_release(state, bus, rename_requests),
        ]
        .into_iter()
        .flatten()
        .fold(t.last_commit_cycle + DEADLOCK_CYCLES, Cycle::min);
        (wake > now).then_some(wake)
    }

    /// Accounts for the quiescent cycles `now..until` without running the
    /// stages: records their occupancy in spans over which the
    /// outstanding-miss count is constant, shows each cycle to the observer
    /// with an empty bus, and moves the clock to `until`.
    fn skip_to<F: FnMut(&CycleView<'_>)>(&mut self, until: Cycle, observer: &mut Option<F>) {
        let from = self.state.now;
        self.buses[0].begin_cycle();
        let state = &mut self.state;
        let mut k = from;
        while k < until {
            let end = state
                .mem
                .next_outstanding_change(k)
                .map_or(until, |c| c.min(until));
            let outstanding = state.mem.outstanding_misses(k) as u64;
            state.sample_occupancy(end - k, outstanding);
            k = end;
        }
        if let Some(observe) = observer.as_mut() {
            for cycle in from..until {
                observe(&self.view(cycle));
            }
        }
        self.state.now = until;
    }

    /// The observer's view of thread 0 after `cycle`.
    fn view(&self, cycle: Cycle) -> CycleView<'_> {
        CycleView {
            cycle,
            bus: &self.buses[0],
            int_regs: RegFileSnapshot::of(&self.state.int_free),
            fp_regs: RegFileSnapshot::of(&self.state.fp_free),
            rob_len: self.state.thread.rob.len(),
            committed: self.state.thread.committed,
        }
    }

    /// Single-thread deadlock watchdog of the run loop.
    pub(crate) fn deadlock_check(&self, workload: &str) -> Option<RunError> {
        if self.state.now - self.state.thread.last_commit_cycle >= DEADLOCK_CYCLES {
            Some(RunError::Deadlock {
                cycle: self.state.now,
                snapshot: Box::new(self.deadlock_snapshot(workload.to_string())),
            })
        } else {
            None
        }
    }

    /// Builds the [`RunResult`] of the active single-thread run, measuring
    /// from `start` (`(cycle, committed)` at the warmup boundary, or zeros).
    pub(crate) fn assemble_result(
        &self,
        workload: String,
        start: (Cycle, u64),
        branch_mispredict_rate: f64,
    ) -> RunResult {
        let (start_cycle, start_insts) = start;
        let t = &self.state.thread;
        RunResult {
            workload,
            cycles: self.state.now.saturating_sub(start_cycle).max(1),
            instructions: t.committed.saturating_sub(start_insts),
            occupancy: t.occupancy.clone(),
            activity: t.activity,
            ltp: t.ltp.stats().clone(),
            ltp_enabled_fraction: t.ltp.enabled_fraction(self.state.now.max(1)),
            mem: self.state.mem.stats(),
            branch_mispredict_rate,
            loads: t.loads_committed,
            stores: t.stores_committed,
            llc_miss_loads: t.llc_miss_loads,
        }
    }

    /// Runs an SMT co-run: one independent instruction stream per hardware
    /// thread over the shared back end, until every stream has drained or
    /// reached its `max_insts_per_thread` budget. A thread that reaches the
    /// budget stops fetching and renaming and drains its back end (its
    /// committed count can therefore exceed the budget by the instructions
    /// already in flight); the co-run ends when every thread has drained.
    /// Returns one [`RunResult`] per thread on the shared cycle timeline.
    ///
    /// Pipeline warm-up (`PipelineConfig::warmup_insts`) is not applied to
    /// co-runs; statistics cover the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] when no thread commits for a very long
    /// time, and [`RunError::OracleNotAttached`] when the configuration
    /// selects the oracle classifier but not every thread has one attached
    /// (see [`Processor::set_oracle_for`]).
    ///
    /// # Panics
    ///
    /// Panics if the number of streams does not match the configured thread
    /// count.
    pub fn run_smt<S: InstStream>(
        &mut self,
        streams: Vec<S>,
        max_insts_per_thread: u64,
    ) -> Result<SmtRunResult, RunError> {
        assert_eq!(
            streams.len(),
            self.state.nthreads(),
            "one instruction stream per configured hardware thread"
        );
        if self.state.cfg.needs_oracle()
            && !self
                .state
                .all_threads()
                .all(|t| t.ltp.classifier_attached())
        {
            return Err(RunError::OracleNotAttached);
        }
        let workloads: Vec<String> = streams.iter().map(|s| s.name().to_string()).collect();
        let mut fes: Vec<FrontEnd<S>> = streams
            .into_iter()
            .map(|s| {
                FrontEnd::new(
                    s,
                    self.state.cfg.frontend_delay,
                    self.state.cfg.mispredict_penalty,
                )
            })
            .collect();

        let n = self.state.nthreads();
        let thread_active = |t: &ThreadState, fe: &FrontEnd<S>| {
            let starved = fe.is_drained() || t.committed >= max_insts_per_thread;
            !(starved && t.rob.is_empty())
        };
        // Cycle at which each thread drained, so per-thread IPC is measured
        // over the thread's own active window rather than being diluted by a
        // co-runner's tail (the usual co-run methodology).
        let mut finish: Vec<Option<Cycle>> = vec![None; n];
        while (0..n).any(|i| thread_active(self.state.thread_ref(i), &fes[i])) {
            self.cycle(&mut fes, max_insts_per_thread);
            for (i, done) in finish.iter_mut().enumerate() {
                if done.is_none() && !thread_active(self.state.thread_ref(i), &fes[i]) {
                    *done = Some(self.state.now);
                }
            }
            let last_commit = self
                .state
                .all_threads()
                .map(|t| t.last_commit_cycle)
                .max()
                .unwrap_or(0);
            if self.state.now - last_commit >= DEADLOCK_CYCLES {
                return Err(RunError::Deadlock {
                    cycle: self.state.now,
                    snapshot: Box::new(self.deadlock_snapshot(workloads.join("+"))),
                });
            }
        }

        let cycles = self.state.now.max(1);
        let mem_stats = self.state.mem.stats();
        let threads = workloads
            .into_iter()
            .zip(finish)
            .enumerate()
            .map(|(i, (workload, done))| {
                let t = self.state.thread_ref(i);
                RunResult {
                    workload,
                    cycles: done.unwrap_or(cycles).max(1),
                    instructions: t.committed,
                    occupancy: t.occupancy.clone(),
                    activity: t.activity,
                    ltp: t.ltp.stats().clone(),
                    ltp_enabled_fraction: t.ltp.enabled_fraction(done.unwrap_or(cycles).max(1)),
                    mem: mem_stats,
                    branch_mispredict_rate: fes[i].branch_predictor().misprediction_rate(),
                    loads: t.loads_committed,
                    stores: t.stores_committed,
                    llc_miss_loads: t.llc_miss_loads,
                }
            })
            .collect();
        Ok(SmtRunResult { cycles, threads })
    }

    /// The per-cycle thread order: the primary thread gets first claim on
    /// the shared front-end, issue and commit bandwidth. Round-robin by
    /// cycle parity for the static and plain-shared policies, fewest
    /// front-end + IQ instructions first (ICOUNT) for `SharePolicy::Icount`.
    fn thread_order<S: InstStream>(&self, fes: &[FrontEnd<S>]) -> ([usize; MAX_THREADS], usize) {
        let n = self.state.nthreads();
        let mut order = [0usize; MAX_THREADS];
        if n == 1 {
            return (order, 1);
        }
        match self.state.cfg.smt.policy {
            SharePolicy::Icount => {
                for (i, slot) in order.iter_mut().take(n).enumerate() {
                    *slot = i;
                }
                order[..n].sort_unstable_by_key(|&t| {
                    (self.state.thread_ref(t).iq.len() + fes[t].backlog(), t)
                });
            }
            SharePolicy::StaticPartition | SharePolicy::Shared => {
                let primary = (self.state.now as usize) % n;
                for (i, slot) in order.iter_mut().take(n).enumerate() {
                    *slot = (primary + i) % n;
                }
            }
        }
        (order, n)
    }

    /// Advances the machine by one cycle, driving the stages back-to-front.
    /// Under SMT every stage runs once per thread (in the policy's priority
    /// order) before the next stage — the faithful model of SMT stages
    /// operating concurrently — so, e.g., both threads' release stages see
    /// the IQ entries freed by both threads' commits before either thread's
    /// rename claims shared capacity. The commit, issue, front-end and fetch
    /// widths are shared budgets; the primary thread has first claim.
    ///
    /// A thread whose committed count has reached `insts_cap` no longer
    /// renames or fetches (it drains in flight). Single-thread runs pass
    /// `u64::MAX`: their run loop stops the whole simulation at the cap
    /// instead, which keeps that path bit-identical to the pre-SMT machine.
    pub(crate) fn cycle<S: InstStream>(&mut self, fes: &mut [FrontEnd<S>], insts_cap: u64) {
        let (order, n) = self.thread_order(fes);
        let order = &order[..n];
        let Processor {
            state,
            buses,
            renames,
        } = self;
        for &t in order {
            buses[t].begin_cycle();
        }
        state.fu.new_cycle();
        for &t in order {
            state.activate(t);
            writeback::run(state, &mut buses[t]);
        }
        let mut commit_budget = state.cfg.commit_width;
        for &t in order {
            state.activate(t);
            commit_budget =
                commit_budget.saturating_sub(commit::run(state, &mut buses[t], commit_budget));
        }
        for &t in order {
            state.activate(t);
            release::run(state, &mut buses[t]);
        }
        let mut issue_budget = state.cfg.issue_width;
        for &t in order {
            state.activate(t);
            issue_budget =
                issue_budget.saturating_sub(issue::run(state, &mut buses[t], issue_budget));
        }
        let mut rename_budget = state.cfg.front_width;
        for &t in order {
            state.activate(t);
            if state.thread.committed >= insts_cap {
                continue;
            }
            // The pending-dispatch retry does not consume budget it was not
            // given, so a thread can rename one instruction past an exhausted
            // share; saturate rather than underflow.
            rename_budget = rename_budget.saturating_sub(renames[t].run(
                state,
                &mut buses[t],
                &mut fes[t],
                rename_budget,
            ));
        }
        let mut fetch_budget = state.cfg.front_width;
        for &t in order {
            if state.thread_ref(t).committed >= insts_cap {
                continue;
            }
            let before = fes[t].fetched();
            fes[t].fetch(state.now, fetch_budget);
            fetch_budget = fetch_budget.saturating_sub((fes[t].fetched() - before) as usize);
            if fetch_budget == 0 {
                break;
            }
        }
        let outstanding = state.mem.outstanding_misses(state.now) as u64;
        for &t in order {
            state.activate(t);
            state.sample_occupancy(1, outstanding);
        }
        state.now += 1;
    }

    fn deadlock_snapshot(&self, workload: String) -> DeadlockSnapshot {
        let state = &self.state;
        let head_thread = state
            .all_threads()
            .find(|t| !t.rob.is_empty())
            .unwrap_or(&state.thread);
        DeadlockSnapshot {
            workload,
            committed: state.all_threads().map(|t| t.committed).sum(),
            rob_len: state.all_threads().map(|t| t.rob.len()).sum(),
            iq_len: state.iq_total(),
            ltp_occupancy: state.all_threads().map(|t| t.ltp.occupancy()).sum(),
            head: head_thread.rob.head().map(|e| (e.seq, e.state, e.op)),
            iq_size: state.cfg.iq_size,
            int_regs_available: state.int_free.available(),
            fp_regs_available: state.fp_free.available(),
            lq_len: state.all_threads().map(|t| t.lq.len()).sum(),
            sq_len: state.all_threads().map(|t| t.sq.len()).sum(),
            ltp_mode: state.cfg.ltp.mode,
        }
    }
}
