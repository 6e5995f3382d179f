//! Process identity and the per-process execution context.

use std::fmt;
use std::rc::Rc;

use crate::coro::Coroutine;
use crate::event::Event;
use crate::state::{bump, ChanStats, Shared, TimedAction};
use crate::time::Time;

/// Identifies a process within one simulator. Ordered by spawn order; the
/// scheduler uses this order to make delta cycles deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub(crate) usize);

impl ProcId {
    /// The process's index in spawn order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The execution context handed to every process body.
///
/// All interaction between a process and the simulated world goes through
/// this context: reading the clock, timed waits, and (indirectly, via the
/// channels) event waits. A process that returns from its body terminates.
///
/// # Examples
///
/// ```
/// use scperf_kernel::{Simulator, Time};
///
/// let mut sim = Simulator::new();
/// sim.spawn("ticker", |ctx| {
///     for _ in 0..3 {
///         ctx.wait(Time::ns(10));
///     }
///     assert_eq!(ctx.now(), Time::ns(30));
/// });
/// sim.run().unwrap();
/// ```
pub struct ProcCtx {
    pub(crate) pid: usize,
    pub(crate) shared: Rc<Shared>,
    /// The process's coroutine, boxed and owned by the simulator.
    pub(crate) co: *const Coroutine,
}

impl ProcCtx {
    /// This process's id.
    pub fn pid(&self) -> ProcId {
        ProcId(self.pid)
    }

    /// This process's name.
    pub fn name(&self) -> String {
        self.shared.with_state(|st| st.procs[self.pid].name.clone())
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.shared.now()
    }

    /// Number of delta cycles executed so far.
    pub fn delta_count(&self) -> u64 {
        self.shared.with_state(|st| st.delta)
    }

    /// Suspends this process for `delay` of simulated time
    /// (SystemC `wait(sc_time)`).
    ///
    /// A zero delay suspends until the next timed-notification phase at the
    /// same instant, i.e. it behaves like `wait(SC_ZERO_TIME)`.
    pub fn wait(&mut self, delay: Time) {
        self.shared
            .with_state(|st| st.schedule(delay, TimedAction::WakeProc(self.pid)));
        self.suspend();
    }

    /// Suspends this process until `event` is notified.
    ///
    /// User processes following the paper's specification methodology never
    /// call this directly — channels do — but testbench components may.
    pub fn wait_event(&mut self, event: &Event) {
        self.shared.with_state(|st| {
            st.events[event.id].waiters.insert(self.pid);
        });
        self.suspend();
    }

    /// A channel's blocking wait on `event`: counts the block in `stats`
    /// and, when attribution is on, adds the blocked span in simulated
    /// time.
    pub(crate) fn block_on(&mut self, event: &Event, stats: &ChanStats) {
        bump(&stats.blocks, 1);
        let since = self.shared.with_state(|st| {
            st.events[event.id].waiters.insert(self.pid);
            st.attribution.then_some(st.now)
        });
        self.suspend();
        if let Some(since) = since {
            bump(&stats.blocked_ps, self.now().saturating_sub(since).as_ps());
        }
    }

    /// Switches back to the scheduler until this process is dispatched
    /// again.
    fn suspend(&self) {
        // SAFETY: the simulator owns the boxed coroutine for as long as
        // its body, which owns this context, can run.
        unsafe { (*self.co).suspend() }
    }

    /// Appends a record to the simulator's trace (no-op when tracing is
    /// disabled). `label` classifies the record; `detail` carries values.
    pub fn emit_trace(&mut self, label: &str, detail: impl Into<String>) {
        if !self.shared.tracing() {
            return;
        }
        let pid = self.pid;
        let detail = detail.into();
        self.shared
            .with_state(|st| st.record_text(Some(pid), label, &detail));
    }
}

impl fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcCtx").field("pid", &self.pid).finish()
    }
}
