//! # scperf-serve — a concurrent simulation service
//!
//! Long-running scenario evaluation for the performance-estimation
//! stack: clients submit *scenarios* — a workload mapping plus
//! platform/resource parameters, a frame count and output options —
//! as JSON lines over stdin/stdout or TCP, and receive simulation
//! summaries (end time, cost, checksum, optional per-process report
//! and metrics) as JSON lines back.
//!
//! The service turns the one-shot simulation API
//! ([`scperf_core::SimConfig`] → [`scperf_core::Session`]) into shared
//! infrastructure:
//!
//! * requests execute on a bounded [`WorkerPool`](scperf_dse::WorkerPool)
//!   with admission control — saturation rejects immediately with
//!   `queue_full` + `retry_after_ms` instead of queueing unboundedly;
//! * segment-cost traces are memoized across requests through the
//!   [`SegmentCostCache`](scperf_dse::SegmentCostCache), keyed by each
//!   stage's resource kind, cost table and frame count, so a request
//!   that repeats those replays bit-identically at a fraction of the
//!   host cost, whatever its clock, RTOS overhead and `hw_k`;
//! * per-request deadlines cancel runs mid-simulation;
//! * batches fan out over the pool and reassemble deterministically —
//!   the same batch renders bitwise-identical responses on one worker
//!   or eight;
//! * shutdown is graceful: accepted work drains before the process
//!   exits;
//! * hostile input cannot panic a worker: every parameter the
//!   estimation stack would assert on (NaN or negative costs,
//!   time-area weights outside `[0, 1]`, non-positive clocks) is
//!   rejected at the protocol boundary with a typed error naming the
//!   field, and a request line is read to at most
//!   [`MAX_LINE_BYTES`](protocol::MAX_LINE_BYTES).
//!
//! ```text
//! → {"id":"r1","mapping":["cpu0","cpu0","hw","cpu1","cpu0"],"nframes":4}
//! ← {"id":"r1","status":"ok","end_time_ps":...,"cost":4.5,"checksum":...}
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod json;
pub mod protocol;
pub mod render;
pub mod service;
pub mod stdio;
pub mod tcp;

pub use engine::Outcome;
pub use protocol::{ErrorCode, PlatformParams, Request, RequestError, Scenario};
pub use service::{Disposition, Responder, Service, ServiceConfig};
pub use tcp::{StopHandle, TcpServer};
