//! The simulator: elaboration (spawning processes, creating channels) and
//! the scheduler loop. Processes are coroutines ([`crate::coro`]) that
//! run on the thread calling [`Simulator::run`].

use std::fmt;
use std::rc::Rc;
use std::thread;

use scperf_obs::{MemorySink, MetricsSnapshot, TraceSink, TraceTable};

use crate::config::{SimOptions, TraceMode};
use crate::coro::{install_silent_kill_hook, Coroutine, RunState};
use crate::event::Event;
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

/// A discrete-event simulator with SystemC semantics.
///
/// Elaborate the model by spawning processes ([`Simulator::spawn`]) and
/// creating channels, then call [`Simulator::run`]. Each process is a
/// coroutine with its own stack, run on the thread that calls `run`, so
/// execution is cooperative and deterministic: within a delta cycle,
/// runnable processes execute in spawn order.
///
/// A simulator and every handle into it ([`Event`], the channels,
/// [`ProcCtx`]) are `!Send`: the simulation is built, run and dropped on
/// one thread, so its state needs no lock, and process bodies may
/// capture `Rc<RefCell<_>>` state. Moving a simulator to another thread
/// does not compile:
///
/// ```compile_fail
/// let mut sim = scperf_kernel::Simulator::new();
/// std::thread::spawn(move || sim.run());
/// ```
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
    shared: Rc<Shared>,
    /// Boxed: each process's body and `ProcCtx` point to its coroutine,
    /// so it must not move when the vector grows.
    #[allow(clippy::vec_box)]
    procs: Vec<Box<Coroutine>>,
    errored: bool,
    /// The trace mode this simulator was built with.
    trace: TraceMode,
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
        F: FnOnce(&mut ProcCtx) + 'static,
    {
        let name = name.into();
        let pid = self.shared.with_state(|st| {
            assert!(
                !st.started,
                "processes must be spawned before the simulation starts"
            );
            st.procs.push(ProcMeta::new(name));
            st.procs.len() - 1
        });
        let co = Box::new(Coroutine::new());
        let mut ctx = ProcCtx {
            pid,
            shared: Rc::clone(&self.shared),
            co: &*co,
        };
        co.set_body(Box::new(move || body(&mut ctx)));
        self.procs.push(co);
        ProcId(pid)
    }

    /// Creates a named event (for testbench components and channels).
    pub fn event(&mut self, name: impl Into<String>) -> Event {
        Event::new(Rc::clone(&self.shared), name)
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
    /// `kernel.handoff.resumes` counts the switches from the scheduler
    /// into a process.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.with_state(|st| st.metrics_snapshot())
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
        self.shared.now()
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
        let outcome = self.procs[pid].resume();
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
                Ok(())
            }
            RunState::Done(Some(message)) => {
                self.errored = true;
                let process = self.shared.with_state(|st| {
                    st.procs[pid].alive = false;
                    st.procs[pid].name.clone()
                });
                Err(SimError::ProcessPanic { process, message })
            }
        }
    }

    pub(crate) fn shared(&self) -> &Rc<Shared> {
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
        // Unwinding a suspended body is unsafe while this thread already
        // unwinds (the kill token would panic inside a panic and abort),
        // so then its stack leaks.
        let unwind = !thread::panicking();
        for co in &self.procs {
            co.kill(unwind);
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
    use std::cell::RefCell;

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
    fn bodies_share_single_thread_state() {
        use std::cell::RefCell;
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        for (name, ns) in [("a", 10), ("b", 5), ("c", 5)] {
            let log = Rc::clone(&log);
            sim.spawn(name, move |ctx| {
                log.borrow_mut().push((name, ctx.now()));
                ctx.wait(Time::ns(ns));
                log.borrow_mut().push((name, ctx.now()));
            });
        }
        sim.run().unwrap();
        assert_eq!(
            *log.borrow(),
            [
                ("a", Time::ZERO),
                ("b", Time::ZERO),
                ("c", Time::ZERO),
                ("b", Time::ns(5)),
                ("c", Time::ns(5)),
                ("a", Time::ns(10)),
            ]
        );
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
    fn run_until_an_earlier_limit_does_not_rewind_the_clock() {
        let wakes = Rc::new(RefCell::new(Vec::new()));
        let seen = Rc::clone(&wakes);
        let mut sim = Simulator::new();
        sim.spawn("p", move |ctx| {
            ctx.wait(Time::ns(5));
            seen.borrow_mut().push(ctx.now());
            ctx.wait(Time::ns(15));
            seen.borrow_mut().push(ctx.now());
        });
        assert_eq!(sim.run_until(Time::ns(10)).unwrap().end_time, Time::ns(10));
        let s = sim.run_until(Time::ns(2)).unwrap();
        assert_eq!(s.reason, StopReason::TimeLimit);
        assert_eq!(s.end_time, Time::ns(10));
        assert_eq!(sim.now(), Time::ns(10));
        assert_eq!(sim.run().unwrap().end_time, Time::ns(20));
        assert_eq!(*wakes.borrow(), [Time::ns(5), Time::ns(20)]);
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
    fn drop_before_first_run_drops_captured_state() {
        let probe = Rc::new(());
        let mut sim = Simulator::new();
        for name in ["a", "b", "c"] {
            let p = Rc::clone(&probe);
            sim.spawn(name, move |_ctx| drop(p));
        }
        assert_eq!(Rc::strong_count(&probe), 4);
        drop(sim);
        assert_eq!(Rc::strong_count(&probe), 1);
    }

    #[test]
    fn drop_mid_body_drops_captured_state() {
        let probe = Rc::new(());
        let mut sim = Simulator::new();
        let ev = sim.event("never");
        for ns in 1..=3 {
            let (p, ev) = (Rc::clone(&probe), ev.clone());
            sim.spawn(format!("p{ns}"), move |ctx| {
                // One count captured, one on the process's own stack.
                let on_stack = Rc::clone(&p);
                ctx.wait(Time::ns(ns));
                ctx.wait_event(&ev);
                unreachable!("{on_stack:?}");
            });
        }
        sim.run_until(Time::ns(2)).unwrap();
        assert_eq!(Rc::strong_count(&probe), 7);
        drop(sim);
        assert_eq!(Rc::strong_count(&probe), 1);
    }

    /// Re-runs this test binary with `var` set, on the one test `name`.
    fn child(name: &str, var: &str, env: &[(&str, &str)]) -> std::process::Output {
        std::process::Command::new(std::env::current_exe().unwrap())
            .args([name, "--exact", "--nocapture", "--test-threads=1"])
            .env(var, "1")
            .envs(env.iter().copied())
            .output()
            .unwrap()
    }

    #[test]
    fn stack_overflow_in_a_process_kills_the_program() {
        #[allow(unconditional_recursion)]
        fn deep(n: u64) -> u64 {
            let frame = std::hint::black_box([n; 64]);
            deep(std::hint::black_box(n + 1)) + frame[7]
        }
        if std::env::var_os("SCPERF_CHILD_OVERFLOW").is_some() {
            let mut sim = Simulator::new();
            sim.spawn("deep", |_ctx| {
                deep(0);
            });
            let _ = sim.run();
            std::process::exit(0);
        }
        let out = child(
            "sim::tests::stack_overflow_in_a_process_kills_the_program",
            "SCPERF_CHILD_OVERFLOW",
            &[],
        );
        use std::os::unix::process::ExitStatusExt;
        const SIGBUS: i32 = 7;
        const SIGSEGV: i32 = 11;
        assert!(
            matches!(out.status.signal(), Some(SIGSEGV | SIGBUS)),
            "child ended with {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn process_panic_backtrace_stays_on_the_process_stack() {
        if std::env::var_os("SCPERF_CHILD_BACKTRACE").is_some() {
            let mut sim = Simulator::new();
            sim.spawn("bad", |ctx| {
                ctx.wait(Time::ns(1));
                panic!("deliberate backtrace panic");
            });
            let err = sim.run().unwrap_err();
            assert!(matches!(err, SimError::ProcessPanic { ref process, .. } if process == "bad"));
            return;
        }
        let out = child(
            "sim::tests::process_panic_backtrace_stays_on_the_process_stack",
            "SCPERF_CHILD_BACKTRACE",
            &[("RUST_BACKTRACE", "full")],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "child ended with {:?}: {stderr}",
            out.status
        );
        assert!(stderr.contains("deliberate backtrace panic"), "{stderr}");
        assert!(stderr.contains("stack backtrace"), "{stderr}");
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
