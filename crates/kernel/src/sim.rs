//! The simulator: elaboration (spawning processes, creating channels) and
//! the scheduler loop.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use scperf_obs::{MemorySink, MetricsSnapshot, TraceSink, TraceTable};

use crate::config::{SimOptions, TraceMode};
use crate::event::Event;
use crate::handoff::{
    clear_panic_suppression, install_silent_kill_hook, panic_message, DirectHandoff, KillToken,
    RunState,
};
use crate::parallel::Effect;
use crate::process::{ProcCtx, ProcId};
use crate::state::{AdvanceOutcome, ProcMeta, SchedSnapshot, Shared};
use crate::time::Time;
use crate::trace::TraceRecord;

/// Why a call to [`Simulator::run`] / [`Simulator::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No runnable processes and no pending notifications remain.
    EventsExhausted,
    /// The time limit passed to [`Simulator::run_until`] was reached.
    TimeLimit,
}

/// Statistics describing a finished (or paused) simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSummary {
    /// Simulation time when the run stopped.
    pub end_time: Time,
    /// Total delta cycles executed.
    pub deltas: u64,
    /// Total process activations (dispatches).
    pub activations: u64,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// Errors surfaced by the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A process body panicked; carries the process name and panic message.
    ProcessPanic {
        /// Name of the panicking process.
        process: String,
        /// Stringified panic payload.
        message: String,
    },
    /// Parallel evaluation (`jobs > 1`) detected a construct whose
    /// outcome depends on process execution order within one delta
    /// cycle — conflicting same-delta channel accesses (two writers on
    /// a signal, two readers on a fifo) or an immediate notification
    /// with live waiters. Such a model is not a *determinate
    /// specification* in the sense of the paper's §4, so instead of
    /// silently racing the kernel stops and reports it. The simulator
    /// is poisoned afterwards. See `docs/PARALLELISM.md`.
    NonDeterminate {
        /// Human-readable description of the conflicting construct.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ProcessPanic { process, message } => {
                write!(f, "process '{process}' panicked: {message}")
            }
            SimError::NonDeterminate { detail } => {
                write!(
                    f,
                    "non-determinate construct under parallel evaluation: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

struct ProcHandle {
    baton: Arc<DirectHandoff>,
    thread: Option<JoinHandle<()>>,
}

/// A discrete-event simulator with SystemC semantics.
///
/// Elaborate the model by spawning processes ([`Simulator::spawn`]) and
/// creating channels, then call [`Simulator::run`]. Each process runs on its
/// own OS thread but the kernel hands out a single run-baton, so execution
/// is cooperative and deterministic: within a delta cycle, runnable
/// processes execute in spawn order.
///
/// # Examples
///
/// ```
/// use scperf_kernel::{Simulator, Time};
///
/// let mut sim = Simulator::new();
/// let fifo = sim.fifo::<u32>("data", 2);
/// let (tx, rx) = (fifo.clone(), fifo);
/// sim.spawn("producer", move |ctx| {
///     for i in 0..4 {
///         tx.write(ctx, i);
///     }
/// });
/// sim.spawn("consumer", move |ctx| {
///     let mut sum = 0;
///     for _ in 0..4 {
///         sum += rx.read(ctx);
///     }
///     assert_eq!(sum, 6);
/// });
/// let summary = sim.run()?;
/// assert_eq!(summary.end_time, Time::ZERO); // untimed model: all in delta cycles
/// # Ok::<(), scperf_kernel::SimError>(())
/// ```
pub struct Simulator {
    shared: Arc<Shared>,
    procs: Vec<ProcHandle>,
    errored: bool,
    /// Accumulated process→scheduler resume latency, exported through
    /// [`Simulator::metrics`].
    handoff_resume_nanos: u64,
    handoff_resumes: u64,
    /// Evaluate-phase parallelism degree; 1 = the sequential baton
    /// path, preserved verbatim.
    jobs: usize,
    /// Lazily created dispatcher pool for parallel rounds (`jobs - 1`
    /// workers; the scheduler thread runs the first chunk inline).
    pool: Option<scperf_sync::WorkerPool>,
}

impl Simulator {
    /// Creates an empty simulator with default options: sequential
    /// evaluation, no attribution, no tracing.
    pub fn new() -> Simulator {
        install_silent_kill_hook();
        Simulator {
            shared: Shared::new(),
            procs: Vec::new(),
            errored: false,
            handoff_resume_nanos: 0,
            handoff_resumes: 0,
            jobs: 1,
            pool: None,
        }
    }

    /// Creates an empty simulator from a [`SimOptions`] value: the
    /// evaluate-phase parallelism, attribution and trace-sink wiring, in
    /// one place. This is the constructor the `scperf_core::SimConfig`
    /// session builder threads its kernel half through.
    pub fn with_options(options: SimOptions) -> Simulator {
        let mut sim = Simulator::new();
        sim.set_jobs(options.jobs);
        if options.attribution {
            sim.set_attribution(true);
        }
        match options.sink {
            Some(sink) => sim.set_trace_sink(sink),
            None => match options.trace {
                TraceMode::Off => {}
                TraceMode::Unbounded => sim.enable_tracing(),
                TraceMode::Ring(n) => sim.enable_tracing_ring(n),
            },
        }
        sim
    }

    /// Sets the evaluate-phase parallelism degree (normally through
    /// [`SimOptions::jobs`]). `0` is treated as `1`. With `jobs > 1`
    /// each delta's runnable set is partitioned across dispatcher
    /// threads and process side effects are committed in canonical
    /// pid order at the delta boundary, keeping results bit-identical
    /// to `jobs = 1` for determinate models — see `docs/PARALLELISM.md`.
    /// Call before `run`.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// The configured evaluate-phase parallelism degree.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Spawns a process (the analogue of `SC_THREAD`). The body runs when
    /// the simulation starts and the process terminates when it returns.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started.
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + Send + 'static,
    {
        let name = name.into();
        let pid = self.shared.with_state(|st| {
            assert!(
                !st.started,
                "processes must be spawned before the simulation starts"
            );
            st.procs.push(ProcMeta::new(name.clone()));
            st.procs.len() - 1
        });
        let baton = Arc::new(DirectHandoff::new());
        let mut ctx = ProcCtx {
            pid,
            shared: Arc::clone(&self.shared),
            baton: Arc::clone(&baton),
        };
        let thread_baton = Arc::clone(&baton);
        let thread = std::thread::Builder::new()
            .name(format!("scperf-proc-{name}"))
            .spawn(move || {
                // Mark this OS thread as pid's, so `Event::notify_*`
                // (which carry no ProcCtx) can route buffered effects
                // to the right log during parallel rounds.
                crate::parallel::set_current_pid(pid);
                if !thread_baton.wait_first_dispatch() {
                    return; // killed before ever running
                }
                let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                clear_panic_suppression();
                let msg = match result {
                    Ok(()) => None,
                    Err(payload) if payload.is::<KillToken>() => return,
                    Err(payload) => Some(panic_message(payload.as_ref())),
                };
                thread_baton.finish(msg);
            })
            .expect("failed to spawn process thread");
        baton.set_proc_thread(thread.thread().clone());
        self.procs.push(ProcHandle {
            baton,
            thread: Some(thread),
        });
        ProcId(pid)
    }

    /// Creates a named event (for testbench components and channels).
    pub fn event(&mut self, name: impl Into<String>) -> Event {
        Event::new(Arc::clone(&self.shared), name)
    }

    /// Enables trace recording into an unbounded in-memory sink. Call
    /// before `run`.
    pub fn enable_tracing(&mut self) {
        if !self.shared.tracing_fast() {
            self.shared.set_sink(Some(Box::new(MemorySink::new())));
        }
    }

    /// Enables trace recording into a ring buffer keeping roughly the
    /// last `max_events` events — bounded memory for long simulations.
    pub fn enable_tracing_ring(&mut self, max_events: usize) {
        self.shared
            .set_sink(Some(Box::new(MemorySink::ring(max_events))));
    }

    /// Installs a custom [`TraceSink`] (streaming writer, aggregator,
    /// …). Replaces any previous sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.shared.set_sink(Some(sink));
    }

    /// Disables tracing and returns the installed sink, if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.shared.take_sink()
    }

    /// Takes the recorded trace as legacy string-based records (a view
    /// materialized from the compact event buffer). Tracing stays
    /// enabled with a fresh buffer.
    ///
    /// Returns an empty vector when tracing is disabled or a custom
    /// (non-memory) sink is installed.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        let table = self.take_events();
        table
            .events
            .iter()
            .map(|ev| crate::trace::materialize_record(&table, ev))
            .collect()
    }

    /// Takes the recorded trace as a detached [`TraceTable`] (compact
    /// events plus string table and process names). Tracing stays
    /// enabled with a fresh buffer.
    pub fn take_events(&mut self) -> TraceTable {
        self.shared.with_state(|st| {
            let (events, dropped) = match st.sink.as_mut().and_then(|s| s.as_memory()) {
                Some(mem) => {
                    let dropped = mem.dropped();
                    (mem.drain(), dropped)
                }
                None => (Vec::new(), 0),
            };
            TraceTable {
                events,
                strings: st.interner.snapshot(),
                process_names: st.procs.iter().map(|p| p.name.clone()).collect(),
                dropped,
            }
        })
    }

    /// Snapshots the kernel's metrics (delta cycles, context switches,
    /// notification counts, per-channel access counts, …). Available at
    /// any point, with or without tracing.
    ///
    /// This includes the accumulated process→scheduler resume latency
    /// (`kernel.handoff.*`): the host time from a process releasing the
    /// baton to the scheduler observing it.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.shared.with_state(|st| st.metrics_snapshot());
        m.set_counter("kernel.handoff.resumes", self.handoff_resumes);
        m.set_counter("kernel.handoff.resume_nanos", self.handoff_resume_nanos);
        if self.handoff_resumes > 0 {
            m.set_gauge(
                "kernel.handoff.mean_resume_ns",
                self.handoff_resume_nanos as f64 / self.handoff_resumes as f64,
            );
        }
        if self.jobs > 1 {
            use std::sync::atomic::Ordering::Relaxed;
            let par = &self.shared.par;
            m.set_counter("kernel.par.jobs", self.jobs as u64);
            m.set_counter("kernel.par.rounds", par.rounds.load(Relaxed));
            m.set_counter("kernel.par.workers", par.workers.load(Relaxed));
            m.set_counter("kernel.par.effects", par.effects_committed.load(Relaxed));
            m.set_counter("kernel.par.commit_nanos", par.commit_nanos.load(Relaxed));
            m.set_counter("kernel.par.seq_fallbacks", par.seq_fallbacks.load(Relaxed));
        }
        m
    }

    /// Enables/disables scheduling-state attribution: per-process
    /// waiting-time accounting and per-channel queue-depth/blocked-time
    /// counters, all in *simulated* time. Attribution is
    /// measurement-only — simulated behaviour is bit-identical whether
    /// it is on or off. Usually set through
    /// [`SimOptions::attribution`]; call before `run`.
    pub fn set_attribution(&mut self, enable: bool) {
        self.shared.set_attribution(enable);
    }

    /// Snapshots the scheduling attribution: per-process activation and
    /// wait accounting plus per-channel access/contention counters.
    /// The time-valued fields are only populated when attribution was
    /// enabled ([`SimOptions::attribution`] /
    /// [`Simulator::set_attribution`]); the snapshot's `enabled` flag
    /// records which.
    pub fn sched_stats(&self) -> SchedSnapshot {
        self.shared.with_state(|st| st.sched_snapshot())
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.shared.with_state(|st| st.now)
    }

    /// The name of a process.
    pub fn process_name(&self, pid: ProcId) -> String {
        self.shared.with_state(|st| st.procs[pid.0].name.clone())
    }

    /// Ids of all spawned processes, in spawn order.
    pub fn process_ids(&self) -> Vec<ProcId> {
        self.shared
            .with_state(|st| (0..st.procs.len()).map(ProcId).collect())
    }

    /// Number of spawned processes.
    pub fn process_count(&self) -> usize {
        self.shared.with_state(|st| st.procs.len())
    }

    /// Number of registered channels (FIFOs, signals, rendezvous).
    pub fn channel_count(&self) -> usize {
        self.shared.with_state(|st| st.chan_stats.len())
    }

    /// Runs until no events remain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessPanic`] if any process body panics; the
    /// simulator cannot be resumed afterwards.
    pub fn run(&mut self) -> Result<SimSummary, SimError> {
        self.run_until(Time::MAX)
    }

    /// Runs until no events remain or simulation time would exceed `limit`.
    /// Can be called repeatedly with growing limits to step a simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessPanic`] if any process body panics.
    pub fn run_until(&mut self, limit: Time) -> Result<SimSummary, SimError> {
        assert!(!self.errored, "simulator is poisoned by an earlier error");
        // Register this thread as the unpark target for process yields.
        // Every process is parked (or not yet started) here, so the
        // handoff cells are safe to write.
        let scheduler = std::thread::current();
        for proc in &self.procs {
            proc.baton.set_scheduler(&scheduler);
        }
        self.shared.with_state(|st| {
            if !st.started {
                st.started = true;
                for pid in 0..st.procs.len() {
                    st.runnable.insert(pid);
                }
            }
        });
        let reason = loop {
            // Evaluate phase.
            {
                let _span = scperf_obs::profile::span("kernel.evaluate");
                let runnable = self.shared.with_state(|st| st.runnable.len());
                if self.parallel_round_possible(runnable) {
                    self.evaluate_parallel()?;
                } else {
                    if self.jobs > 1 && runnable > 0 {
                        self.shared
                            .par
                            .seq_fallbacks
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    loop {
                        let next = self.shared.with_state(|st| {
                            let pid = st.runnable.pop_first();
                            st.current = pid;
                            pid
                        });
                        let Some(pid) = next else { break };
                        self.dispatch(pid)?;
                    }
                    self.shared.with_state(|st| st.current = None);
                }
            }
            // Update phase.
            {
                let _span = scperf_obs::profile::span("kernel.update");
                self.shared.with_state(|st| st.run_update_phase());
            }
            // Delta notification phase.
            let progressed = self.shared.with_state(|st| {
                if st.next_runnable.is_empty() {
                    false
                } else {
                    st.runnable = std::mem::take(&mut st.next_runnable);
                    st.delta += 1;
                    true
                }
            });
            if progressed {
                continue;
            }
            // Timed notification phase.
            match self.shared.with_state(|st| st.advance_time(limit)) {
                AdvanceOutcome::Advanced => continue,
                AdvanceOutcome::LimitReached => break StopReason::TimeLimit,
                AdvanceOutcome::Exhausted => break StopReason::EventsExhausted,
            }
        };
        Ok(self.shared.with_state(|st| SimSummary {
            end_time: st.now,
            deltas: st.delta,
            activations: st.activations,
            reason,
        }))
    }

    fn dispatch(&mut self, pid: usize) -> Result<(), SimError> {
        if self.jobs > 1 {
            // A previous parallel round may have registered a pool
            // worker as this baton's yield target; point it back at
            // the scheduler thread. (Safe: the process is parked.)
            self.procs[pid].baton.set_scheduler(&std::thread::current());
        }
        let (outcome, latency) = self.procs[pid].baton.dispatch();
        if let Some(lat) = latency {
            self.handoff_resume_nanos += lat.as_nanos() as u64;
            self.handoff_resumes += 1;
        }
        let waiting = matches!(outcome, RunState::Waiting);
        self.shared.with_state(|st| {
            st.activations += 1;
            if st.attribution {
                let now = st.now;
                let p = &mut st.procs[pid];
                p.activations += 1;
                if waiting {
                    // The wake paths in `KernelState` close the span.
                    p.wait_since = Some(now);
                }
            }
        });
        match outcome {
            RunState::Waiting => Ok(()),
            RunState::Done(None) => {
                self.shared.with_state(|st| st.procs[pid].alive = false);
                if let Some(t) = self.procs[pid].thread.take() {
                    let _ = t.join();
                }
                Ok(())
            }
            RunState::Done(Some(message)) => {
                self.errored = true;
                let process = self.shared.with_state(|st| {
                    st.procs[pid].alive = false;
                    st.procs[pid].name.clone()
                });
                if let Some(t) = self.procs[pid].thread.take() {
                    let _ = t.join();
                }
                Err(SimError::ProcessPanic { process, message })
            }
        }
    }

    /// A parallel round needs `jobs > 1`, at least two runnable
    /// processes, and no feature that forces the sequential path
    /// (attribution's wait-span accounting is order-sensitive). A
    /// reset-and-reused simulator whose new life spawned more processes
    /// than its effect-log table holds also falls back.
    fn parallel_round_possible(&self, runnable: usize) -> bool {
        self.jobs > 1
            && runnable >= 2
            && !self.shared.attribution_fast()
            && self.shared.par.logs_fit(self.procs.len())
    }

    /// Runs one evaluate phase in parallel: snapshot the runnable set,
    /// dispatch ascending-pid chunks across the pool (chunk 0 inline on
    /// the scheduler thread), then commit every buffered effect in
    /// canonical pid order. See `docs/PARALLELISM.md` for the contract.
    fn evaluate_parallel(&mut self) -> Result<(), SimError> {
        use std::sync::atomic::Ordering;

        // Snapshot *without draining*: the commit loop pops `runnable`
        // exactly like the sequential kernel, so depth-derived metrics
        // (ready_peak) evolve identically.
        let members: Vec<usize> = self
            .shared
            .with_state(|st| st.runnable.iter().copied().collect());
        let nprocs = self.procs.len();
        let gate = self.shared.par.begin_round(members.clone(), nprocs);
        let workers = self.jobs.min(members.len());
        if workers > 1 && self.pool.is_none() {
            self.pool = Some(scperf_sync::WorkerPool::new("scperf-par", self.jobs - 1));
        }

        type Outcomes = scperf_sync::Mutex<Vec<(usize, RunState, Option<std::time::Duration>)>>;
        let outcomes: Arc<Outcomes> = Arc::new(scperf_sync::Mutex::new(Vec::new()));

        // One contiguous ascending chunk per dispatcher. Ascending
        // order within a chunk is what keeps the pid-order fences
        // deadlock-free: the smallest non-yielded pid is always at the
        // head of some dispatcher's chunk.
        let base = members.len() / workers;
        let extra = members.len() % workers;
        let mut start = 0usize;
        let mut chunks: Vec<Vec<(usize, Arc<DirectHandoff>)>> = Vec::with_capacity(workers);
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let chunk = members[start..start + len]
                .iter()
                .map(|&pid| (pid, Arc::clone(&self.procs[pid].baton)))
                .collect();
            chunks.push(chunk);
            start += len;
        }
        let mut chunk_iter = chunks.into_iter();
        let inline_chunk = chunk_iter.next().expect("at least one chunk");
        for chunk in chunk_iter {
            let gate = Arc::clone(&gate);
            let outcomes = Arc::clone(&outcomes);
            let pool = self.pool.as_ref().expect("pool exists when workers > 1");
            pool.submit(move || run_chunk(chunk, &gate, &outcomes));
        }
        run_chunk(inline_chunk, &gate, &outcomes);
        if let Some(pool) = &self.pool {
            pool.wait_idle();
        }
        // Every member has yielded; flip back to live-kernel mode so
        // the commit replay below goes through the normal paths.
        self.shared.par.end_round();
        self.shared.par.rounds.fetch_add(1, Ordering::Relaxed);
        self.shared
            .par
            .workers
            .fetch_max(workers as u64, Ordering::Relaxed);

        // Conflicting same-delta accesses detected mid-round mean the
        // model is not a determinate spec: report, don't race.
        let hazards = self.shared.par.take_hazards();
        if let Some(detail) = hazards.into_iter().next() {
            self.errored = true;
            return Err(SimError::NonDeterminate { detail });
        }

        let mut outs: Vec<Option<RunState>> = (0..nprocs).map(|_| None).collect();
        for (pid, state, latency) in std::mem::take(&mut *outcomes.lock()) {
            if let Some(lat) = latency {
                self.handoff_resume_nanos += lat.as_nanos() as u64;
                self.handoff_resumes += 1;
            }
            outs[pid] = Some(state);
        }

        // Commit: replay each member's effects in ascending pid order,
        // each log in program order, through the same KernelState entry
        // points the sequential kernel uses — reproducing sequence
        // numbers, metrics and the trace stream bit-exactly.
        let commit_start = std::time::Instant::now();
        let mut effects_committed = 0u64;
        let mut finished: Vec<usize> = Vec::new();
        let shared = Arc::clone(&self.shared);
        let result: Result<(), SimError> = shared.with_state(|st| {
            while let Some(pid) = st.runnable.pop_first() {
                st.current = Some(pid);
                for effect in self.shared.par.drain(pid) {
                    effects_committed += 1;
                    match effect {
                        Effect::Schedule { delay, action } => st.schedule(delay, action),
                        Effect::WaitEvent { ev } => {
                            st.events[ev].waiters.insert(pid);
                        }
                        Effect::NotifyDelta { ev } => st.notify_event_delta(ev),
                        Effect::NotifyImmediate { ev } => {
                            if !st.events[ev].waiters.is_empty() {
                                return Err(SimError::NonDeterminate {
                                    detail: format!(
                                        "immediate notification of event '{}' with live \
                                         waiters during a parallel evaluate round (wakes \
                                         within the current delta depend on execution \
                                         order); use notify_delta or run with jobs = 1",
                                        st.events[ev].name
                                    ),
                                });
                            }
                            st.notify_event_immediate(ev);
                        }
                        Effect::Trace {
                            label,
                            chan,
                            payload,
                        } => {
                            st.record_event(Some(pid), label, chan, payload);
                        }
                        Effect::TraceText { label, detail } => {
                            st.record_text(Some(pid), &label, &detail);
                        }
                    }
                }
                st.activations += 1;
                match outs[pid].take() {
                    Some(RunState::Waiting) | None => {}
                    Some(RunState::Done(None)) => {
                        st.procs[pid].alive = false;
                        finished.push(pid);
                    }
                    Some(RunState::Done(Some(message))) => {
                        st.procs[pid].alive = false;
                        finished.push(pid);
                        return Err(SimError::ProcessPanic {
                            process: st.procs[pid].name.clone(),
                            message,
                        });
                    }
                }
            }
            st.current = None;
            Ok(())
        });
        self.shared
            .par
            .effects_committed
            .fetch_add(effects_committed, Ordering::Relaxed);
        self.shared
            .par
            .commit_nanos
            .fetch_add(commit_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        for pid in finished {
            if let Some(t) = self.procs[pid].thread.take() {
                let _ = t.join();
            }
        }
        if result.is_err() {
            self.errored = true;
        }
        result
    }

    /// Returns this simulator to its just-constructed state so a pooled
    /// slot can be reused without paying thread-pool, allocation and
    /// interner setup again: every process thread is killed and joined,
    /// the kernel state (time, queues, events, process table, metrics,
    /// channel registries, trace sink) is cleared in place, the
    /// `kernel.par.*` counters are zeroed, and the error/poison flag is
    /// cleared — a [`SimError::NonDeterminate`] in the previous life
    /// does not poison the next one. The `jobs` degree, attribution flag
    /// and the lazily created dispatcher pool are kept.
    ///
    /// After a reset the simulator behaves exactly like
    /// `Simulator::with_options` with the same options: spawn processes,
    /// create channels, run. Verified bit-identical to a fresh build by
    /// the core pool determinism tests.
    pub fn reset(&mut self) {
        // Tear down the previous life's processes (same as Drop).
        self.shared.with_state(|st| st.clear_update_hooks());
        for proc in &mut self.procs {
            proc.baton.kill();
            if let Some(t) = proc.thread.take() {
                let _ = t.join();
            }
        }
        self.procs.clear();
        // Drop the sink through `set_sink` so the lock-free tracing
        // mirror stays in sync, then clear the state in place.
        self.shared.set_sink(None);
        self.shared.with_state(|st| st.reset());
        self.shared.par.reset_counters();
        self.errored = false;
        self.handoff_resume_nanos = 0;
        self.handoff_resumes = 0;
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

/// Dispatches one ascending chunk of a parallel round: registers the
/// calling thread as each baton's yield target, runs the process until
/// it yields, and marks it yielded on the round gate (releasing any
/// higher-pid fences waiting on it).
fn run_chunk(
    chunk: Vec<(usize, Arc<DirectHandoff>)>,
    gate: &crate::parallel::RoundGate,
    outcomes: &scperf_sync::Mutex<Vec<(usize, RunState, Option<std::time::Duration>)>>,
) {
    let me = std::thread::current();
    for (pid, baton) in chunk {
        // Safe: the process is parked and this dispatcher holds its
        // baton, which is exactly the set_scheduler contract.
        baton.set_scheduler(&me);
        let (state, latency) = baton.dispatch();
        gate.mark_yielded(pid);
        outcomes.lock().push((pid, state, latency));
    }
}

impl Default for Simulator {
    fn default() -> Simulator {
        Simulator::new()
    }
}

impl Drop for Simulator {
    fn drop(&mut self) {
        // Break the kernel ↔ channel reference cycle.
        self.shared.with_state(|st| st.clear_update_hooks());
        for proc in &mut self.procs {
            proc.baton.kill();
            if let Some(t) = proc.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("processes", &self.procs.len())
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_simulation_finishes_immediately() {
        let mut sim = Simulator::new();
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ZERO);
        assert_eq!(s.reason, StopReason::EventsExhausted);
        assert_eq!(s.activations, 0);
    }

    #[test]
    fn single_process_advances_time() {
        let mut sim = Simulator::new();
        sim.spawn("p", |ctx| {
            ctx.wait(Time::ns(5));
            ctx.wait(Time::ns(7));
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ns(12));
        assert_eq!(s.reason, StopReason::EventsExhausted);
    }

    #[test]
    fn processes_interleave_by_time() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let mut sim = Simulator::new();
        let tx1 = tx.clone();
        sim.spawn("a", move |ctx| {
            ctx.wait(Time::ns(10));
            tx1.send(("a", ctx.now())).unwrap();
        });
        sim.spawn("b", move |ctx| {
            ctx.wait(Time::ns(5));
            tx.send(("b", ctx.now())).unwrap();
        });
        sim.run().unwrap();
        let order: Vec<_> = rx.try_iter().collect();
        assert_eq!(order, vec![("b", Time::ns(5)), ("a", Time::ns(10))]);
    }

    #[test]
    fn same_instant_wakes_in_pid_order() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let mut sim = Simulator::new();
        for name in ["x", "y", "z"] {
            let tx = tx.clone();
            sim.spawn(name, move |ctx| {
                ctx.wait(Time::ns(3));
                tx.send(name).unwrap();
            });
        }
        sim.run().unwrap();
        let order: Vec<_> = rx.try_iter().collect();
        assert_eq!(order, vec!["x", "y", "z"]);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut sim = Simulator::new();
        sim.spawn("p", |ctx| {
            ctx.wait(Time::ns(100));
        });
        let s = sim.run_until(Time::ns(10)).unwrap();
        assert_eq!(s.reason, StopReason::TimeLimit);
        assert_eq!(s.end_time, Time::ns(10));
        let s = sim.run().unwrap();
        assert_eq!(s.reason, StopReason::EventsExhausted);
        assert_eq!(s.end_time, Time::ns(100));
    }

    #[test]
    fn zero_wait_is_one_timestep() {
        let mut sim = Simulator::new();
        sim.spawn("p", |ctx| {
            let d0 = ctx.delta_count();
            ctx.wait(Time::ZERO);
            assert_eq!(ctx.now(), Time::ZERO);
            assert!(ctx.delta_count() > d0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn event_wait_and_notify() {
        let mut sim = Simulator::new();
        let ev = sim.event("go");
        let ev2 = ev.clone();
        sim.spawn("waiter", move |ctx| {
            ctx.wait_event(&ev);
            assert_eq!(ctx.now(), Time::ns(42));
        });
        sim.spawn("notifier", move |ctx| {
            ctx.wait(Time::ns(42));
            ev2.notify_delta();
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ns(42));
    }

    #[test]
    fn immediate_notification_runs_same_evaluate_phase() {
        let mut sim = Simulator::new();
        let ev = sim.event("now");
        let ev2 = ev.clone();
        // waiter (pid 0) waits first, notifier (pid 1) fires immediately at
        // time zero; the waiter must complete in the same delta.
        sim.spawn("waiter", move |ctx| {
            ctx.wait_event(&ev);
            assert_eq!(ctx.delta_count(), 0);
        });
        sim.spawn("notifier", move |_ctx| {
            ev2.notify_immediate();
        });
        sim.run().unwrap();
    }

    #[test]
    fn process_panic_is_reported() {
        let mut sim = Simulator::new();
        sim.spawn("bad", |_ctx| panic!("deliberate test panic"));
        let err = sim.run().unwrap_err();
        match err {
            SimError::ProcessPanic { process, message } => {
                assert_eq!(process, "bad");
                assert!(message.contains("deliberate"));
            }
            other => panic!("expected ProcessPanic, got {other:?}"),
        }
    }

    #[test]
    fn drop_kills_blocked_processes() {
        let mut sim = Simulator::new();
        let ev = sim.event("never");
        sim.spawn("stuck", move |ctx| {
            ctx.wait_event(&ev); // never notified
            unreachable!();
        });
        let s = sim.run().unwrap();
        assert_eq!(s.reason, StopReason::EventsExhausted);
        drop(sim); // must not hang or print panic noise
    }

    #[test]
    fn tracing_records_emitted_events() {
        let mut sim = Simulator::new();
        sim.enable_tracing();
        sim.spawn("p", |ctx| {
            ctx.wait(Time::ns(1));
            ctx.emit_trace("custom", "hello");
        });
        sim.run().unwrap();
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].label, "custom");
        assert_eq!(trace[0].process, "p");
        assert_eq!(trace[0].time, Time::ns(1));
    }

    #[test]
    fn activations_are_counted() {
        let mut sim = Simulator::new();
        sim.spawn("p", |ctx| {
            ctx.wait(Time::ns(1));
            ctx.wait(Time::ns(1));
        });
        let s = sim.run().unwrap();
        // initial dispatch + 2 wakes = 3 activations
        assert_eq!(s.activations, 3);
    }

    #[test]
    fn attribution_accounts_waits_in_simulated_time() {
        let mut sim = crate::SimOptions::new().attribution(true).build();
        let ev = sim.event("go");
        let ev2 = ev.clone();
        sim.spawn("waiter", move |ctx| {
            ctx.wait_event(&ev);
        });
        sim.spawn("notifier", move |ctx| {
            ctx.wait(Time::ns(42));
            ev2.notify_delta();
        });
        sim.run().unwrap();
        let stats = sim.sched_stats();
        assert!(stats.enabled);
        let waiter = &stats.processes[0];
        assert_eq!(waiter.name, "waiter");
        assert_eq!(waiter.waits, 1);
        assert_eq!(waiter.wait, Time::ns(42));
        assert_eq!(waiter.activations, 2);
        // Timed waits are wait episodes too: the notifier slept 42ns.
        let notifier = &stats.processes[1];
        assert_eq!(notifier.waits, 1);
        assert_eq!(notifier.wait, Time::ns(42));
    }

    #[test]
    fn attribution_tracks_channel_depth_and_blocked_time() {
        let mut sim = crate::SimOptions::new().attribution(true).build();
        let f = sim.fifo::<u32>("ch", 2);
        let (w, r) = (f.clone(), f);
        sim.spawn("w", move |ctx| {
            for i in 0..4 {
                w.write(ctx, i); // fills to depth 2, then blocks
            }
        });
        sim.spawn("r", move |ctx| {
            ctx.wait(Time::ns(10));
            for _ in 0..4 {
                let _ = r.read(ctx);
            }
        });
        sim.run().unwrap();
        let stats = sim.sched_stats();
        let ch = &stats.channels[0];
        assert_eq!(ch.name, "ch");
        assert_eq!(ch.writes, 4);
        assert_eq!(ch.reads, 4);
        assert_eq!(ch.max_depth, 2);
        assert!(ch.blocks > 0);
        // The writer blocked on a full FIFO until the reader started
        // draining at 10ns.
        assert!(ch.blocked >= Time::ns(10), "blocked = {:?}", ch.blocked);
        let m = sim.metrics();
        assert!(m.counter("kernel.sched.w.wait_ns").unwrap() >= 10);
        assert!(m.counter("channel.ch.max_depth").unwrap() == 2);
        assert!(m.counter("channel.ch.blocked_ns").unwrap() >= 10);
    }

    #[test]
    fn attribution_is_bit_identical_and_off_stays_zero() {
        let run = |attr: bool| {
            let mut sim = crate::SimOptions::new().attribution(attr).build();
            let f = sim.fifo::<u32>("ch", 1);
            let (w, r) = (f.clone(), f);
            sim.spawn("w", move |ctx| {
                for i in 0..8 {
                    w.write(ctx, i);
                    ctx.wait(Time::ns(3));
                }
            });
            sim.spawn("r", move |ctx| {
                for _ in 0..8 {
                    let _ = r.read(ctx);
                    ctx.wait(Time::ns(5));
                }
            });
            let summary = sim.run().unwrap();
            (summary, sim.sched_stats())
        };
        let (s_on, st_on) = run(true);
        let (s_off, st_off) = run(false);
        assert_eq!(s_on, s_off, "attribution must not change simulated results");
        assert!(st_on.enabled && !st_off.enabled);
        assert!(st_on.processes.iter().any(|p| p.waits > 0));
        assert!(st_off
            .processes
            .iter()
            .all(|p| p.waits == 0 && p.wait == Time::ZERO && p.activations == 0));
        assert!(st_off
            .channels
            .iter()
            .all(|c| c.max_depth == 0 && c.blocked == Time::ZERO));
    }

    fn elaborate_fifo_pair(sim: &mut Simulator) {
        let f = sim.fifo::<u32>("ch", 2);
        let (w, r) = (f.clone(), f);
        sim.spawn("w", move |ctx| {
            for i in 0..4 {
                w.write(ctx, i);
                ctx.wait(Time::ns(3));
            }
        });
        sim.spawn("r", move |ctx| {
            for _ in 0..4 {
                let _ = r.read(ctx);
                ctx.wait(Time::ns(5));
            }
        });
    }

    #[test]
    fn reset_reuses_a_simulator_bit_identically() {
        let mut fresh = Simulator::new();
        fresh.enable_tracing();
        elaborate_fifo_pair(&mut fresh);
        let s_fresh = fresh.run().unwrap();
        let t_fresh = fresh.take_trace();

        // Run an unrelated model first, then reset and rebuild the same
        // model: summary and full trace must match the fresh run.
        let mut reused = Simulator::new();
        reused.enable_tracing();
        reused.spawn("other", |ctx| {
            ctx.wait(Time::us(1));
            ctx.emit_trace("leftover", "state that must not leak");
        });
        reused.run().unwrap();
        reused.reset();
        reused.enable_tracing();
        elaborate_fifo_pair(&mut reused);
        let s_reused = reused.run().unwrap();
        assert_eq!(s_fresh, s_reused);
        assert_eq!(t_fresh, reused.take_trace());
    }

    #[test]
    fn reset_clears_the_poison_flag_after_a_panic() {
        let mut sim = Simulator::new();
        sim.spawn("bad", |_ctx| panic!("deliberate test panic"));
        assert!(sim.run().is_err());
        sim.reset();
        sim.spawn("good", |ctx| ctx.wait(Time::ns(7)));
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, Time::ns(7));
    }

    #[test]
    #[should_panic(expected = "before the simulation starts")]
    fn spawn_after_start_panics() {
        let mut sim = Simulator::new();
        sim.run().unwrap();
        sim.spawn("late", |_| {});
    }
}
