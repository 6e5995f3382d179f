//! The blessed single-import surface of the workspace.
//!
//! `use scperf::prelude::*;` brings in everything a typical model,
//! example or benchmark needs — the [`SimConfig`]/[`Session`] front
//! door, the annotated [`G`] types and macros, platform declaration,
//! channels, reporting, and handles to the specialised sub-crates
//! (`hls`, `workloads`, `obs`, `dse`, `iss`, `serve`) — without
//! reaching into individual crates.
//!
//! This module is the *public API contract* of the workspace: the
//! `api_snapshot` test asserts its exact export list against
//! `tests/prelude_api.snapshot`, so additions and removals are
//! deliberate, reviewed events rather than accidents.
//!
//! ```
//! use scperf::prelude::*;
//!
//! let mut platform = Platform::new();
//! let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
//! let mut session = SimConfig::new().platform(platform).build();
//! session.spawn("worker", cpu, |_ctx| {
//!     let mut acc = g_i64(0);
//!     for i in 0..8 {
//!         acc = acc + g_i64(i);
//!     }
//! });
//! let summary = session.run()?;
//! assert!(summary.end_time > Time::ZERO);
//! # Ok::<(), SimError>(())
//! ```

// --- The session front door: configuration, lifecycle, record/replay.
pub use scperf_core::{Recorder, Replay, Session, SimConfig};

// --- Session pooling (serving hot path).
pub use scperf_core::{
    InstanceLimits, LimitExceeded, PoolExhausted, PoolStats, PooledSession, SessionPool, Snapshot,
};

// --- Annotated value types and control-flow macros (§3 of the paper).
pub use scperf_core::{g_call, g_for, g_if, g_twin, g_while};
pub use scperf_core::{
    g_f32, g_f64, g_i16, g_i32, g_i64, g_u16, g_u32, g_u64, g_u8, g_usize, GArr, G,
};

// --- In-run memoization (estimator hot path): a `g_twin!` region is a
// function generic over the value `Domain`.
pub use scperf_core::{Domain, MemoMode, SegmentSite};

// --- Platform declaration and the estimation model.
pub use scperf_core::{CostTable, Mode, PerfModel, Platform, Resource, ResourceId, ResourceKind};

// --- Channels and waits (segment boundaries, §2).
pub use scperf_core::{timed_wait, timed_wait_labeled, PFifo, PRendezvous, PSignal};

// --- HW estimation helpers (§3).
pub use scperf_core::weighted_hw_cycles;

// --- Reporting and capture points (§4).
pub use scperf_core::{
    CaptureEvent, CaptureList, CapturePoint, ProcessGraph, ProcessReport, Report, ResourceReport,
    SegmentReport,
};

// --- Analysis passes on top of the estimates (§6).
pub use scperf_core::{determinism, rate};

// --- Kernel: simulation time, lifecycle, process context, options.
pub use scperf_kernel::{
    ProcCtx, ProcId, SimError, SimOptions, SimSummary, Simulator, StopReason, Time, TraceMode,
    TraceRecord,
};

// --- Observability results surfaced by `Session`.
pub use scperf_obs::{MetricsSnapshot, TraceSink, TraceTable};

// --- Sub-crate handles for the specialised layers.
pub use scperf_dse as dse;
pub use scperf_hls as hls;
pub use scperf_iss as iss;
pub use scperf_obs as obs;
pub use scperf_serve as serve;
pub use scperf_workloads as workloads;
