//! # scperf — system-level performance analysis in a SystemC-like kernel
//!
//! A from-scratch Rust reproduction of *Posadas, Herrera, Sánchez, Villar,
//! Blasco: "System-Level Performance Analysis in SystemC" (DATE 2004)*:
//! dynamic timing estimation of system-level models during simulation,
//! turning an untimed delta-cycle simulation into a strict-timed one with
//! no change to the model's structure.
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`kernel`] | `scperf-kernel` | SystemC-like discrete-event simulation kernel |
//! | [`core`] | `scperf-core` | the paper's estimation library (annotated types, segments, platform model, back-annotation, capture points) |
//! | [`iss`] | `scperf-iss` | cycle-accurate reference RISC ISS + `minic` compiler + calibration |
//! | [`hls`] | `scperf-hls` | behavioral-synthesis scheduling baseline (ASAP/ALAP/list, area model) |
//! | [`workloads`] | `scperf-workloads` | the paper's benchmarks, each one generic source in two meanings plus `minic`, incl. the GSM-like vocoder |
//! | [`obs`] | `scperf-obs` | observability layer: compact tracing, metrics snapshots, host-time profiling, Chrome-trace export |
//! | [`dse`] | `scperf-dse` | parallel design-space exploration: mapping sweeps, segment-cost memoization, Pareto frontiers |
//! | [`serve`] | `scperf-serve` | concurrent simulation service: JSON-lines scenario evaluation over stdio/TCP with batching, deadlines, backpressure |
//!
//! The experiment harness (`scperf-bench`) regenerates every table and
//! figure of the paper's evaluation; see the repository README and
//! EXPERIMENTS.md.
//!
//! Downstream code imports from [`prelude`] — the blessed, snapshot-
//! tested surface — rather than reaching into individual crates:
//!
//! # Example
//!
//! ```
//! use scperf::prelude::*;
//!
//! let mut platform = Platform::new();
//! let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
//!
//! let mut session = SimConfig::new().platform(platform).build();
//! session.spawn("worker", cpu, |_ctx| {
//!     let mut acc = g_i32(0);
//!     for i in 0..100 {
//!         acc = acc + G::raw(i);
//!     }
//!     assert_eq!(acc.get(), 4950);
//! });
//! let summary = session.run()?;
//! assert!(summary.end_time > Time::ZERO); // the model became timed
//! # Ok::<(), SimError>(())
//! ```

#![warn(missing_docs)]

pub mod prelude;

pub use scperf_core as core;
pub use scperf_dse as dse;
pub use scperf_hls as hls;
pub use scperf_iss as iss;
pub use scperf_kernel as kernel;
pub use scperf_obs as obs;
pub use scperf_serve as serve;
pub use scperf_workloads as workloads;

/// Compiles every Rust fragment of the repository README as a doctest,
/// so the documented examples can never drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
