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
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ProcessPanic { process, message } => {
                write!(f, "process '{process}' panicked: {message}")
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
    /// The trace mode this simulator was built with.
    trace: TraceMode,
    /// Accumulated process→scheduler resume latency, exported through
    /// [`Simulator::metrics`].
    handoff_resume_nanos: u64,
    handoff_resumes: u64,
}

impl Simulator {
    /// Creates an empty simulator with default options: no attribution,
    /// no tracing.
    pub fn new() -> Simulator {
        Simulator::with_options(SimOptions::new())
    }

    /// Creates an empty simulator from a [`SimOptions`] value. Options
    /// are fixed for the simulator's one life: a simulator is built,
    /// elaborated, run and dropped, never re-armed. This is the
    /// constructor the `scperf_core::SimConfig` session builder threads
    /// its kernel half through.
    pub fn with_options(options: SimOptions) -> Simulator {
        install_silent_kill_hook();
        let sink: Option<Box<dyn TraceSink>> = match options.sink {
            Some(sink) => Some(sink),
            None => match options.trace {
                TraceMode::Off => None,
                TraceMode::Unbounded => Some(Box::new(MemorySink::new())),
                TraceMode::Ring(n) => Some(Box::new(MemorySink::ring(n))),
            },
        };
        Simulator {
            shared: Shared::new(sink, options.attribution),
            procs: Vec::new(),
            errored: false,
            trace: options.trace,
            handoff_resume_nanos: 0,
            handoff_resumes: 0,
        }
    }

    /// The [`TraceMode`] this simulator was built with
    /// ([`SimOptions::tracing`]); a custom sink from
    /// [`SimOptions::trace_sink`] does not show here.
    pub fn trace_mode(&self) -> TraceMode {
        self.trace
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
        m
    }

    /// Snapshots the scheduling attribution: per-process activation and
    /// wait accounting plus per-channel access/contention counters.
    /// The time-valued fields are only populated when attribution was
    /// enabled ([`SimOptions::attribution`]); the snapshot's `enabled`
    /// flag records which.
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

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
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
        let SimError::ProcessPanic { process, message } = sim.run().unwrap_err();
        assert_eq!(process, "bad");
        assert!(message.contains("deliberate"));
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
        let mut sim = SimOptions::new().tracing(TraceMode::Unbounded).build();
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

    #[test]
    #[should_panic(expected = "before the simulation starts")]
    fn spawn_after_start_panics() {
        let mut sim = Simulator::new();
        sim.run().unwrap();
        sim.spawn("late", |_| {});
    }
}
