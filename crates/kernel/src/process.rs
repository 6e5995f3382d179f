//! Process identity and the per-process execution context.

use std::fmt;
use std::sync::Arc;

use crate::event::Event;
use crate::handoff::DirectHandoff;
use crate::parallel::Effect;
use crate::state::{Shared, TimedAction};
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
    pub(crate) shared: Arc<Shared>,
    pub(crate) baton: Arc<DirectHandoff>,
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
        self.shared.with_state(|st| st.now)
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
        if self.shared.par_active_fast() {
            self.shared.par.append(
                self.pid,
                Effect::Schedule {
                    delay,
                    action: TimedAction::WakeProc(self.pid),
                },
            );
        } else {
            self.shared
                .with_state(|st| st.schedule(delay, TimedAction::WakeProc(self.pid)));
        }
        self.baton.yield_to_scheduler();
    }

    /// Suspends this process until `event` is notified.
    ///
    /// User processes following the paper's specification methodology never
    /// call this directly — channels do — but testbench components may.
    pub fn wait_event(&mut self, event: &Event) {
        if self.shared.par_active_fast() {
            self.shared
                .par
                .append(self.pid, Effect::WaitEvent { ev: event.id });
        } else {
            self.shared.with_state(|st| {
                st.events[event.id].waiters.insert(self.pid);
            });
        }
        self.baton.yield_to_scheduler();
    }

    /// Appends a record to the simulator's trace (no-op when tracing is
    /// disabled). `label` classifies the record; `detail` carries values.
    pub fn emit_trace(&mut self, label: &str, detail: impl Into<String>) {
        if !self.shared.tracing_fast() {
            return;
        }
        let pid = self.pid;
        let detail = detail.into();
        if self.shared.par_active_fast() {
            self.shared.par.append(
                pid,
                Effect::TraceText {
                    label: label.to_string(),
                    detail,
                },
            );
        } else {
            self.shared
                .with_state(|st| st.record_text(Some(pid), label, &detail));
        }
    }

    /// Waits, inside a parallel evaluate round, until every runnable
    /// process with a lower pid has yielded for this delta. Outside a
    /// parallel round (the default `jobs = 1` kernel) this is a single
    /// atomic load and returns immediately.
    ///
    /// Order-sensitive primitives — rendezvous channels, [`crate::SimMutex`],
    /// [`crate::SimSemaphore`], and the estimator's sequential-resource
    /// arbitration in `scperf-core` — call this before touching state
    /// that other processes can observe within the same delta, so those
    /// interactions happen in canonical ascending-pid order and the
    /// parallel kernel stays bit-identical to the sequential one (see
    /// `docs/PARALLELISM.md`).
    pub fn par_fence(&self) {
        if self.shared.par_active_fast() {
            self.shared.par.fence(self.pid);
        }
    }
}

impl fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcCtx").field("pid", &self.pid).finish()
    }
}
