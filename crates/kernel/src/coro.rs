//! Stackful coroutines: every process of a simulation runs on its own
//! stack, on the thread that calls [`crate::Simulator::run`].
//!
//! SystemC runs `SC_THREAD`s as user-level coroutines (QuickThreads), and
//! so does this kernel. A process activation is two context switches:
//! scheduler → process at dispatch, process → scheduler at its next wait.
//! [`switch`] pushes the callee-saved registers onto the stack it leaves,
//! stores the stack pointer, loads the other side's and pops its
//! registers. No OS thread, lock or syscall takes part, so exactly one of
//! {scheduler, some process} runs at any instant by construction.
//!
//! * **Stacks.** Each process gets [`STACK_BYTES`] (2 MiB, what `std`
//!   gives a spawned thread), mapped lazily with a `PROT_NONE` guard page
//!   below it. Rust's stack probes make an overflow fault on the guard,
//!   which kills the program with `SIGSEGV`. A finished process returns
//!   its stack to a per-thread free list of at most [`KEEP`] stacks; the
//!   rest, and the whole list at thread exit, are unmapped.
//! * **One thread.** A suspended body may hold a thread-local's address
//!   in a register across its switch, so a coroutine that has run must
//!   only ever be resumed on the thread it ran on. A `Coroutine` is
//!   `!Send` (it holds raw pointers), and so is the
//!   [`crate::Simulator`] that owns it: moving one to another thread
//!   does not compile.
//! * **Teardown.** A suspended coroutine is resumed with [`KILL`]: its
//!   pending wait unwinds with [`KillToken`], dropping the body's state,
//!   and the entry frame catches the unwind like any panic.
//! * **Process-local slot.** One thread-local word that the scheduler
//!   saves and restores around every dispatch, so each process reads back
//!   what it stored ([`process_slot`]), plus a hook called with it at
//!   each switch ([`set_switch_hook`]). The estimator keeps each
//!   process's charging state behind the slot and swaps its per-op
//!   counters into a thread-local in the hook.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "scperf-kernel switches process coroutines with x86_64 Linux code; \
     the only supported target is x86_64-unknown-linux-gnu"
);

use std::arch::naked_asm;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Once, OnceLock};
use std::{io, mem, ptr};

/// Bytes of stack each process gets.
const STACK_BYTES: usize = 2 << 20;
/// The `PROT_NONE` page below each stack.
const GUARD_BYTES: usize = 4096;
/// Stacks one thread keeps mapped for reuse.
const KEEP: usize = 16;

// What a switch carries: scheduler → process ...
const RUN: usize = 0;
const KILL: usize = 1;
// ... and process → scheduler.
const WAITING: usize = 2;
const DONE: usize = 3;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_STACK: i32 = 0x2_0000;
const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

thread_local! {
    /// Mapped stacks of finished processes; unmapped at thread exit.
    static FREE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    /// See [`process_slot`].
    static SLOT: Cell<*mut ()> = const { Cell::new(ptr::null_mut()) };
    /// Set while a [`KillToken`] unwinds, so the panic hook stays quiet.
    static SUPPRESS_PANIC_HOOK: Cell<bool> = const { Cell::new(false) };
}

/// The running process's local slot: one pointer-sized word that the
/// scheduler saves and restores around every dispatch, so each process
/// reads back what it stored and code outside any process reads the
/// thread's own value. A process starts with null. The kernel never
/// dereferences it. Not intended for direct use: `scperf-core` keeps
/// each process's charging state behind it.
#[doc(hidden)]
#[inline]
pub fn process_slot() -> *mut () {
    SLOT.with(Cell::get)
}

/// Stores `value` in the running process's local slot (see
/// [`process_slot`]).
///
/// # Safety
///
/// The switch hook and every other reader of the slot on this thread
/// dereference it: `value` must be null or what they expect, alive until
/// it is replaced.
#[doc(hidden)]
#[inline]
pub unsafe fn set_process_slot(value: *mut ()) {
    SLOT.with(|s| s.set(value));
}

static SWITCH_HOOK: OnceLock<fn(*mut ())> = OnceLock::new();

/// Registers `hook`, which the scheduler calls with a process's
/// non-null [`process_slot`] value right after switching into the
/// process and right before switching back out of it. The first
/// registration wins. Not intended for direct use: `scperf-core` swaps
/// each process's charging counters in and out with it.
#[doc(hidden)]
pub fn set_switch_hook(hook: fn(*mut ())) {
    let _ = SWITCH_HOOK.set(hook);
}

/// Calls the switch hook with `slot`, unless either is missing.
fn switch_hook(slot: *mut ()) {
    if let (Some(hook), false) = (SWITCH_HOOK.get(), slot.is_null()) {
        hook(slot);
    }
}

/// One mapped process stack: [`GUARD_BYTES`] of `PROT_NONE` below
/// [`STACK_BYTES`] of read-write memory.
struct Stack {
    base: *mut u8,
}

impl Stack {
    /// A stack from this thread's free list, or a fresh mapping.
    fn take() -> Stack {
        FREE.try_with(|f| f.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_else(Stack::map)
    }

    fn map() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: a new anonymous private mapping at an address the OS
        // picks; no existing memory is touched.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "cannot map a process stack: {}",
            io::Error::last_os_error()
        );
        let stack = Stack { base };
        // SAFETY: the lowest page of the mapping just made.
        let guarded = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) } == 0;
        assert!(
            guarded,
            "cannot protect a process stack's guard page: {}",
            io::Error::last_os_error()
        );
        stack
    }

    /// Returns the stack to this thread's free list, or unmaps it when
    /// the list is full (or already gone at thread exit).
    fn recycle(self) {
        let mut spare = Some(self);
        let _ = FREE.try_with(|f| {
            let mut free = f.borrow_mut();
            if free.len() < KEEP {
                free.extend(spare.take());
            }
        });
    }

    /// One past the highest usable byte; page-aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(GUARD_BYTES + STACK_BYTES)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` starts a mapping of exactly this length, and
        // nothing runs on it any more.
        unsafe { munmap(self.base, GUARD_BYTES + STACK_BYTES) };
    }
}

/// Where a process stands when control comes back to the scheduler.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RunState {
    /// Suspended in a wait until the next dispatch.
    Waiting,
    /// The body returned, panicked or was killed; carries the panic
    /// message if it panicked.
    Done(Option<String>),
}

/// One process: its body until the first dispatch, then its stack until
/// the body ends.
pub(crate) struct Coroutine {
    body: Cell<Option<Box<dyn FnOnce()>>>,
    stack: Cell<Option<Stack>>,
    /// The coroutine's stack pointer while it is suspended.
    sp: Cell<*mut u8>,
    /// The resumer's stack pointer while the coroutine runs.
    caller_sp: Cell<*mut u8>,
    /// This process's [`process_slot`] value while it is not running.
    slot: Cell<*mut ()>,
    panic: Cell<Option<String>>,
}

impl Coroutine {
    /// A coroutine with no body yet; its address must stay fixed (it is
    /// boxed) because the body and its `ProcCtx` point back to it.
    pub(crate) fn new() -> Coroutine {
        Coroutine {
            body: Cell::new(None),
            stack: Cell::new(None),
            sp: Cell::new(ptr::null_mut()),
            caller_sp: Cell::new(ptr::null_mut()),
            slot: Cell::new(ptr::null_mut()),
            panic: Cell::new(None),
        }
    }

    pub(crate) fn set_body(&self, body: Box<dyn FnOnce()>) {
        self.body.set(Some(body));
    }

    /// Scheduler side: runs the process until its next wait or its end.
    /// The first call gives it a stack.
    pub(crate) fn resume(&self) -> RunState {
        let stack = self.stack.take().unwrap_or_else(|| {
            let stack = Stack::take();
            // SAFETY: the frame lies at the top of a writable stack that
            // nothing runs on.
            self.sp.set(unsafe { initial_frame(stack.top(), self) });
            stack
        });
        self.stack.set(Some(stack));
        self.switch_in(RUN)
    }

    /// Scheduler side, at teardown: drops a body that never ran, and
    /// unwinds a suspended one if `unwind`, else leaks its stack.
    pub(crate) fn kill(&self, unwind: bool) {
        drop(self.body.take());
        match self.stack.take() {
            Some(stack) if unwind => {
                self.stack.set(Some(stack));
                while self.switch_in(KILL) == RunState::Waiting {}
            }
            Some(stack) => mem::forget(stack),
            None => {}
        }
    }

    /// Switches into the suspended coroutine with `msg`, making its
    /// process slot current, and back when it suspends or ends.
    fn switch_in(&self, msg: usize) -> RunState {
        let outer = SLOT.replace(self.slot.get());
        switch_hook(self.slot.get());
        // SAFETY: `sp` holds the frame the coroutine saved when it last
        // switched out (or `initial_frame`'s), and it switches back to
        // `caller_sp` on this thread.
        let reply = unsafe { switch(self.caller_sp.as_ptr(), self.sp.get(), msg) };
        let slot = SLOT.replace(outer);
        switch_hook(slot);
        self.slot.set(slot);
        if reply == WAITING {
            return RunState::Waiting;
        }
        if let Some(stack) = self.stack.take() {
            stack.recycle();
        }
        RunState::Done(self.panic.take())
    }

    /// Process side: switches back to the scheduler until the next
    /// dispatch.
    ///
    /// # Panics
    ///
    /// Unwinds with [`KillToken`] when the simulator tears the process
    /// down.
    pub(crate) fn suspend(&self) {
        // SAFETY: called on this coroutine's own stack while it runs, so
        // `caller_sp` holds the frame its resumer saved.
        if unsafe { switch(self.sp.as_ptr(), self.caller_sp.get(), WAITING) } == KILL {
            kill_unwind();
        }
    }
}

/// Lays out the frame the first [`switch`] into a coroutine pops: six
/// callee-saved registers (`rbx` = [`entry`], `r12` = `co`, the rest 0)
/// and [`trampoline`] as the return address. After the `ret` the stack
/// pointer is `top - 16`, 16-byte aligned as a `call` expects.
///
/// # Safety
///
/// `top` must be 16-byte aligned with 72 writable bytes below it.
unsafe fn initial_frame(top: *mut u8, co: *const Coroutine) -> *mut u8 {
    let words: [usize; 9] = [
        0,                                // r15
        0,                                // r14
        0,                                // r13
        co as usize,                      // r12
        entry as *const () as usize,      // rbx
        0,                                // rbp
        trampoline as *const () as usize, // return address
        0,
        0,
    ];
    // SAFETY: the caller guarantees the 72 bytes below `top`.
    unsafe {
        let sp = top.sub(words.len() * 8).cast::<usize>();
        ptr::copy_nonoverlapping(words.as_ptr(), sp, words.len());
        sp.cast()
    }
}

/// Saves the callee-saved registers on the current stack, stores the
/// stack pointer through `save`, loads `to` and pops the registers saved
/// there; returns `msg` on the other side. The x87 and SSE control words
/// are not switched: all sides share the thread's rounding mode.
///
/// # Safety
///
/// `save` must be writable, and `to` must be a stack pointer that a
/// `switch` on this thread stored (or [`initial_frame`] returned) and
/// that nothing has resumed since.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8, msg: usize) -> usize {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rax, rdx",
        "ret",
    )
}

/// The bottom frame of every coroutine: calls `entry(co)`. Its unwind
/// info marks the return address undefined, so a backtrace taken inside
/// a process ends here instead of walking off the stack.
///
/// # Safety
///
/// Never called: only entered by the first [`switch`] into a frame laid
/// out by [`initial_frame`].
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call rbx",
        "ud2",
        ".cfi_endproc",
    )
}

/// Runs the body, catching its panic, then switches out for good.
///
/// # Safety
///
/// Called by [`trampoline`] only, on the coroutine's own stack, with the
/// coroutine `co` that owns it.
unsafe extern "C" fn entry(co: *const Coroutine) -> ! {
    // SAFETY: the simulator owns the boxed coroutine for as long as its
    // stack can run.
    let co = unsafe { &*co };
    run_body(co);
    // SAFETY: nothing on this stack is live any more, and the scheduler
    // never switches back to a finished coroutine.
    unsafe { switch(co.sp.as_ptr(), co.caller_sp.get(), DONE) };
    std::process::abort()
}

fn run_body(co: &Coroutine) {
    let Some(body) = co.body.take() else { return };
    let result = catch_unwind(AssertUnwindSafe(body));
    SUPPRESS_PANIC_HOOK.with(|c| c.set(false));
    if let Err(payload) = result {
        if !payload.is::<KillToken>() {
            co.panic.set(Some(panic_message(payload.as_ref())));
        }
    }
}

/// Panic payload that unwinds a process at simulator teardown. Never
/// escapes the crate: the coroutine entry catches it.
struct KillToken;

static HOOK_INIT: Once = Once::new();

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for the kill unwind, while delegating every
/// genuine panic to the previously installed hook.
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

/// Unwinds the running process with a [`KillToken`], suppressing the
/// default panic report. Any lock guards are released by the unwind.
fn kill_unwind() -> ! {
    SUPPRESS_PANIC_HOOK.with(|c| c.set(true));
    std::panic::panic_any(KillToken);
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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
