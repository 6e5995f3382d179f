//! # scperf-kernel — a SystemC-like discrete-event simulation kernel
//!
//! This crate is the simulation substrate for the `scperf` reproduction of
//! *Posadas et al., "System-Level Performance Analysis in SystemC", DATE
//! 2004*. Rust has no SystemC, so the kernel reimplements the subset of
//! SystemC semantics the paper's methodology relies on:
//!
//! * 64-bit simulated [`Time`] with picosecond resolution,
//! * cooperative processes ([`Simulator::spawn`], the analogue of
//!   `SC_THREAD`) that run atomically between waits,
//! * the delta-cycle scheduler with distinct **evaluate**, **update**,
//!   **delta-notification** and **timed-notification** phases,
//! * [`Event`]s with immediate / delta / timed notification,
//! * the predefined channels of the single-source methodology:
//!   [`Fifo`] (`sc_fifo`), [`Signal`] (`sc_signal`) and [`Rendezvous`]
//!   (CSP),
//! * deterministic execution: runnable processes within a delta execute in
//!   spawn order, so the same model always produces the same trace.
//!
//! Each process runs on its own OS thread, but a run-baton guarantees that
//! exactly one of {scheduler, one process} executes at any instant; this is
//! behaviourally identical to SystemC's coroutines while letting process
//! bodies be ordinary Rust closures with blocking channel calls.
//!
//! # Examples
//!
//! A two-process producer/consumer with a timed producer:
//!
//! ```
//! use scperf_kernel::{Simulator, Time};
//!
//! let mut sim = Simulator::new();
//! let ch = sim.fifo::<i64>("samples", 8);
//! let (tx, rx) = (ch.clone(), ch);
//!
//! sim.spawn("producer", move |ctx| {
//!     for i in 0..16 {
//!         tx.write(ctx, i * i);
//!         ctx.wait(Time::us(1));
//!     }
//! });
//! sim.spawn("consumer", move |ctx| {
//!     let mut acc = 0;
//!     for _ in 0..16 {
//!         acc += rx.read(ctx);
//!     }
//!     ctx.emit_trace("done", acc.to_string());
//! });
//! let summary = sim.run()?;
//! assert_eq!(summary.end_time, Time::us(16));
//! # Ok::<(), scperf_kernel::SimError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod config;
mod event;
mod handoff;
mod parallel;
mod process;
mod sim;
mod state;
mod time;
pub mod trace;
pub mod vcd;
mod wheel;

pub use channel::{Fifo, Rendezvous, Signal, SimMutex, SimSemaphore};
pub use config::{SimOptions, TraceMode};
pub use event::Event;
pub use process::{ProcCtx, ProcId};
pub use sim::{SimError, SimSummary, Simulator, StopReason};
pub use state::{ChannelSchedStats, ProcSchedStats, SchedSnapshot};
pub use time::{Time, TimeFromFloatError};
pub use trace::TraceRecord;
