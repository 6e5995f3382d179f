//! # scperf-obs — unified low-overhead observability
//!
//! The paper's core promise (§4) is *visibility*: per-process and
//! per-resource execution times "generated automatically" from an
//! unmodified description. This crate is the workspace's observability
//! substrate, designed so that visibility never distorts what it
//! measures:
//!
//! * **Structured tracing** ([`TraceEvent`], [`Interner`]) — the hot
//!   path records interned symbol ids and a compact [`Payload`] into a
//!   preallocated segment/ring buffer ([`MemorySink`]) behind the
//!   pluggable [`TraceSink`] trait. No `String` per field; numeric
//!   payloads never touch the heap.
//! * **Metrics** ([`MetricsSnapshot`]) — counters and gauges for kernel
//!   and estimator internals (delta cycles, context switches, channel
//!   access counts, segments closed, …), snapshotable at any sim time.
//! * **Profiling** ([`profile`], [`span!`]) — host-time span guards
//!   answering "where does wall-clock go" (scheduling vs. estimation
//!   vs. channel ops), the Figure-4 overhead question for our own
//!   kernel.
//! * **Latency distributions** ([`stats`], [`histogram`]) — the
//!   bounded, mergeable [`LogHistogram`] (fixed ~11 KB footprint, <1%
//!   relative quantile error) and the percentile summary it exports.
//! * **Exporters** ([`chrome`], [`json`], [`prom`]) — Chrome
//!   `trace_event` JSON loadable in Perfetto / `chrome://tracing` with
//!   one track per process or resource, metric counter tracks, a tiny
//!   JSON writer for machine-readable metric dumps (`BENCH_obs.json`),
//!   and Prometheus text exposition for live telemetry.
//!
//! The crate is dependency-free and usable by every layer of the
//! workspace (kernel, estimator, benches).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
mod event;
pub mod histogram;
mod intern;
pub mod json;
mod metrics;
pub mod profile;
pub mod prom;
mod sink;
pub mod stats;
mod value;

pub use event::{TraceEvent, TraceTable, NO_PROCESS};
pub use histogram::LogHistogram;
pub use intern::{Interner, Sym};
pub use metrics::{MetricValue, MetricsSnapshot};
pub use sink::{MemorySink, TraceSink};
pub use stats::LatencySummary;
pub use value::Payload;
