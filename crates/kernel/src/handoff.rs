//! Direct-handoff scheduling: the run-baton that lets exactly one of
//! {scheduler, some process} run at any instant.
//!
//! Every process activation in the cooperative kernel is a round trip:
//! the scheduler hands execution to one process thread and blocks until
//! the process yields it back. That invariant is what makes the kernel's
//! cooperative semantics identical to SystemC's coroutine-based processes
//! even though each process lives on its own OS thread. The paper's
//! strict-timed methodology assumes the kernel's own overhead is
//! negligible next to segment estimation, so the protocol is cut down to
//! the minimum the OS allows:
//!
//! * one shared [`AtomicU8`] encodes who holds the baton
//!   (`WAITING`/`RUNNING`/`DONE`/`KILL`),
//! * the handing-over side flips the state with a release store and
//!   issues exactly one [`Thread::unpark`] on the other side's thread,
//! * the blocked side **spins briefly** (bounded, with
//!   [`std::hint::spin_loop`]) re-checking the state before falling back
//!   to [`std::thread::park`] — short activations (a FIFO write between
//!   two waits) complete without any sleeping syscall at all.
//!
//! There is no mutex on the hot path. The only locks left are cold:
//! the panic-message slot written once at process termination. This
//! module also hosts the kill-unwind machinery simulator teardown uses.
//!
//! # Safety argument for the unsynchronized cells
//!
//! `sched_thread` and `yield_stamp` live in [`UnsafeCell`]s, synchronized
//! by the baton protocol itself rather than by a lock:
//!
//! * the *scheduler* writes `sched_thread` only while it holds the baton
//!   (every process is `WAITING`, `DONE`, or not yet started — none of
//!   them read the cell in those states), and the write
//!   happens-before the process's next read via the release store of
//!   `RUNNING` / acquire load in the process's park loop;
//! * the *process* reads `sched_thread` and writes `yield_stamp` only
//!   while **it** holds the baton (state is `RUNNING`, the scheduler is
//!   blocked in [`DirectHandoff::dispatch`]), and its writes
//!   happen-before the scheduler's reads via the release store of
//!   `WAITING`/`DONE` / acquire load in the scheduler's park loop.
//!
//! Exactly one side holds the baton at any instant — that is the
//! kernel's core invariant — so the cells are never accessed
//! concurrently.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Once, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use scperf_sync::Mutex;

/// Where a process thread stands, as observed by the scheduler when the
/// baton comes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RunState {
    /// Parked: waiting for the scheduler to hand over the baton.
    Waiting,
    /// The process function returned or panicked; the thread is exiting.
    /// Carries the panic message if it panicked.
    Done(Option<String>),
}

/// Baton states packed into one atomic byte.
const WAITING: u8 = 0;
const RUNNING: u8 = 1;
const DONE: u8 = 2;
const KILL: u8 = 3;

/// Bounded spin iterations before parking. Short enough that a core is
/// never burned for more than a few hundred nanoseconds when the other
/// side is genuinely busy; long enough that a prompt handoff (the common
/// case in fine-grained models) never reaches the parking syscall.
const SPIN_LIMIT: u32 = 128;

/// The effective spin budget for this host. On a single-CPU machine the
/// peer thread *cannot* make progress while we spin — every `pause`
/// iteration only delays the context switch that must happen anyway (and
/// `pause` costs ~140 cycles on modern x86), so the budget drops to zero
/// and both sides park immediately.
fn spin_limit() -> u32 {
    static LIMIT: OnceLock<u32> = OnceLock::new();
    *LIMIT.get_or_init(|| match thread::available_parallelism() {
        Ok(n) if n.get() > 1 => SPIN_LIMIT,
        _ => 0,
    })
}

/// The park/unpark direct-handoff protocol for one process.
pub(crate) struct DirectHandoff {
    state: AtomicU8,
    /// The process's OS thread, set once right after spawn.
    proc_thread: OnceLock<Thread>,
    /// The scheduler's OS thread, (re)registered at the start of every
    /// `run_until` call. See the module-level safety argument.
    sched_thread: UnsafeCell<Option<Thread>>,
    /// Host-clock stamp taken by the process just before it returns the
    /// baton; the scheduler turns it into the resume-latency metric.
    yield_stamp: UnsafeCell<Option<Instant>>,
    /// Panic message from a terminated process (cold path).
    panic_msg: Mutex<Option<String>>,
}

// SAFETY: the `UnsafeCell`s are synchronized by the baton protocol — see
// the module-level safety argument.
unsafe impl Sync for DirectHandoff {}

impl DirectHandoff {
    pub(crate) fn new() -> DirectHandoff {
        DirectHandoff {
            state: AtomicU8::new(WAITING),
            proc_thread: OnceLock::new(),
            sched_thread: UnsafeCell::new(None),
            yield_stamp: UnsafeCell::new(None),
            panic_msg: Mutex::new(None),
        }
    }

    /// Registers the process's OS thread (scheduler side, once, right
    /// after the thread is spawned).
    pub(crate) fn set_proc_thread(&self, t: Thread) {
        let _ = self.proc_thread.set(t);
    }

    /// Registers the scheduler's OS thread. Must only be called while
    /// the scheduler holds the baton (e.g. at the start of a run).
    pub(crate) fn set_scheduler(&self, t: &Thread) {
        // SAFETY: no process reads the cell unless it holds the baton;
        // the caller holds it. See the module-level safety argument.
        unsafe { *self.sched_thread.get() = Some(t.clone()) };
    }

    /// Scheduler side: hand the baton to the process and block until it
    /// comes back. Returns the state observed when the baton returned
    /// plus the process→scheduler resume latency, if measurable.
    pub(crate) fn dispatch(&self) -> (RunState, Option<Duration>) {
        debug_assert_eq!(self.state.load(Ordering::Acquire), WAITING);
        self.state.store(RUNNING, Ordering::Release);
        self.proc_thread
            .get()
            .expect("process thread registered before dispatch")
            .unpark();
        let limit = spin_limit();
        let mut spins = 0;
        let observed = loop {
            match self.state.load(Ordering::Acquire) {
                RUNNING => {
                    if spins < limit {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        thread::park();
                    }
                }
                s => break s,
            }
        };
        // SAFETY: the process stored its stamp before releasing the
        // baton; we hold it now. See the module-level safety argument.
        let latency = unsafe { (*self.yield_stamp.get()).take() }.map(|t0| t0.elapsed());
        let state = match observed {
            WAITING => RunState::Waiting,
            DONE => RunState::Done(self.panic_msg.lock().take()),
            s => unreachable!("dispatch observed unexpected handoff state {s}"),
        };
        (state, latency)
    }

    /// Process side: give the baton back to the scheduler and block
    /// until it is handed over again.
    ///
    /// # Panics
    ///
    /// Unwinds with [`KillToken`] when the simulator is shutting down.
    pub(crate) fn yield_to_scheduler(&self) {
        let sched = self.release_to_scheduler(WAITING);
        sched.unpark();
        let limit = spin_limit();
        let mut spins = 0;
        loop {
            match self.state.load(Ordering::Acquire) {
                RUNNING => return,
                KILL => kill_unwind(),
                _ => {
                    if spins < limit {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        thread::park();
                    }
                }
            }
        }
    }

    /// Process side: initial park before the body has ever run. Returns
    /// `false` when the thread was killed before ever being dispatched.
    pub(crate) fn wait_first_dispatch(&self) -> bool {
        loop {
            match self.state.load(Ordering::Acquire) {
                RUNNING => return true,
                KILL => return false,
                _ => thread::park(),
            }
        }
    }

    /// Process side: report termination (normal or panicked) and release
    /// the baton forever.
    pub(crate) fn finish(&self, panic_msg: Option<String>) {
        *self.panic_msg.lock() = panic_msg;
        let sched = self.release_to_scheduler(DONE);
        sched.unpark();
    }

    /// Scheduler side: order the thread to unwind. Harmless if the
    /// thread already finished.
    pub(crate) fn kill(&self) {
        let mut s = self.state.load(Ordering::Acquire);
        while s != DONE {
            match self
                .state
                .compare_exchange_weak(s, KILL, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(cur) => s = cur,
            }
        }
        if let Some(t) = self.proc_thread.get() {
            t.unpark();
        }
    }

    /// Stamps the yield time, clones the scheduler handle and publishes
    /// `next_state` with release ordering. Must only be called by the
    /// process while it holds the baton.
    fn release_to_scheduler(&self, next_state: u8) -> Thread {
        // SAFETY: we hold the baton (state is RUNNING); the scheduler is
        // blocked and touches neither cell. See the module-level safety
        // argument.
        let sched = unsafe {
            *self.yield_stamp.get() = Some(Instant::now());
            (*self.sched_thread.get())
                .clone()
                .expect("scheduler thread registered before first dispatch")
        };
        self.state.store(next_state, Ordering::Release);
        sched
    }
}

impl std::fmt::Debug for DirectHandoff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectHandoff")
            .field("state", &self.state.load(Ordering::Relaxed))
            .finish()
    }
}

/// Panic payload used to unwind a process thread during simulator teardown.
/// Never escapes the crate: the thread wrapper catches it.
pub(crate) struct KillToken;

thread_local! {
    static SUPPRESS_PANIC_HOOK: Cell<bool> = const { Cell::new(false) };
}

static HOOK_INIT: Once = Once::new();

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for our internal kill-unwind, while delegating
/// every genuine panic to the previously installed hook.
pub(crate) fn install_silent_kill_hook() {
    HOOK_INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SUPPRESS_PANIC_HOOK.with(Cell::get) {
                return;
            }
            prev(info);
        }));
    });
}

/// Unwinds the calling process thread with a [`KillToken`], suppressing
/// the default panic report. Any lock guards are released by the unwind.
fn kill_unwind() -> ! {
    SUPPRESS_PANIC_HOOK.with(|c| c.set(true));
    std::panic::panic_any(KillToken);
}

/// Runs after `catch_unwind` on the process thread to re-enable panic
/// reporting for any later panic on this thread.
pub(crate) fn clear_panic_suppression() {
    SUPPRESS_PANIC_HOOK.with(|c| c.set(false));
}

/// Extracts a printable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn round_trip() {
        let baton = Arc::new(DirectHandoff::new());
        let b2 = Arc::clone(&baton);
        let t = thread::spawn(move || {
            assert!(b2.wait_first_dispatch());
            b2.yield_to_scheduler();
            b2.finish(None);
        });
        baton.set_proc_thread(t.thread().clone());
        baton.set_scheduler(&thread::current());
        assert_eq!(baton.dispatch().0, RunState::Waiting);
        assert_eq!(baton.dispatch().0, RunState::Done(None));
        t.join().unwrap();
    }

    #[test]
    fn kill_before_first_dispatch() {
        let baton = Arc::new(DirectHandoff::new());
        let b2 = Arc::clone(&baton);
        let t = thread::spawn(move || b2.wait_first_dispatch());
        baton.set_proc_thread(t.thread().clone());
        baton.kill();
        assert!(!t.join().unwrap());
    }

    #[test]
    fn reports_resume_latency() {
        let baton = Arc::new(DirectHandoff::new());
        let b2 = Arc::clone(&baton);
        let t = thread::spawn(move || {
            assert!(b2.wait_first_dispatch());
            b2.finish(None);
        });
        baton.set_proc_thread(t.thread().clone());
        baton.set_scheduler(&thread::current());
        let (state, latency) = baton.dispatch();
        assert_eq!(state, RunState::Done(None));
        assert!(
            latency.is_some(),
            "direct handoff must stamp resume latency"
        );
        t.join().unwrap();
    }

    #[test]
    fn many_rapid_round_trips() {
        // Hammer the spin/park boundary: enough round trips that both
        // the spin fast path and the park slow path are exercised.
        let baton = Arc::new(DirectHandoff::new());
        let b2 = Arc::clone(&baton);
        let t = thread::spawn(move || {
            assert!(b2.wait_first_dispatch());
            for i in 0..10_000 {
                if i % 97 == 0 {
                    // Occasionally linger so the scheduler side
                    // exhausts its spin budget and parks.
                    std::thread::yield_now();
                }
                b2.yield_to_scheduler();
            }
            b2.finish(None);
        });
        baton.set_proc_thread(t.thread().clone());
        baton.set_scheduler(&thread::current());
        for _ in 0..10_000 {
            assert_eq!(baton.dispatch().0, RunState::Waiting);
        }
        assert_eq!(baton.dispatch().0, RunState::Done(None));
        t.join().unwrap();
    }

    #[test]
    fn panic_message_extracts_strings() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("bang"));
        assert_eq!(panic_message(payload.as_ref()), "bang");
        let payload: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
