//! # scperf-dse — parallel design-space exploration
//!
//! The paper's introduction motivates the whole estimation methodology
//! with design-space exploration: "design flows based on these SLDLs
//! need new estimation techniques in order to allow a fast and accurate
//! design space exploration (DSE)". This crate is that use case, built
//! on the strict-timed estimator of `scperf-core`:
//!
//! * [`point`] — the mapping space: every assignment of the five vocoder
//!   processes onto {cpu0, cpu1, hw} (3⁵ = 243 design points), each
//!   priced with a once-per-resource cost proxy.
//! * [`cache`] — a segment-cost memoization cache shared across
//!   evaluations: a stage's per-segment cycle trace depends only on its
//!   own (code, input data, resource cost model), not on where the other
//!   stages are mapped, so a trace recorded once is replayed — bit-exact
//!   — in every later point that maps the stage to a compatible
//!   resource.
//! * [`pool`] — a scoped thread pool on `std::thread` + `scperf-sync`
//!   (the workspace builds offline; no rayon): workers claim point
//!   indices from one atomic counter. `jobs = 1` bypasses the pool
//!   entirely and is the sequential oracle.
//! * [`mod@pareto`] — frontier extraction with a sort-and-sweep pruning pass
//!   that matches the naive O(n²) domination definition exactly.
//! * [`mod@sweep`] — the orchestrator: fans the 243 points over the pool,
//!   collects results ordered by point index (deterministic and
//!   bitwise-identical for any worker count), and snapshots cache and
//!   pool metrics through `scperf-obs`. Its [`elaborate_cached`] is the
//!   one cached vocoder evaluation, shared with `scperf-serve`.
//!
//! ```
//! use scperf_core::CostTable;
//! use scperf_dse::sweep::{sweep, SweepConfig};
//!
//! let cfg = SweepConfig {
//!     table: CostTable::risc_sw(),
//!     nframes: 1,
//!     jobs: 2,
//!     use_cache: true,
//!     ..SweepConfig::default()
//! };
//! # let cfg = SweepConfig { limit: Some(6), ..cfg };
//! let result = sweep(&cfg);
//! assert!(!result.frontier.is_empty());
//! assert!(result.cache.hits + result.cache.misses > 0);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod pareto;
pub mod point;
pub mod pool;
pub mod sweep;

pub use cache::{CacheStats, SegmentCostCache, DEFAULT_CACHE_CAPACITY};
pub use pareto::{pareto, pareto_naive};
pub use point::{
    all_mappings, build_platform, build_platform_with, platform_cost, resolve_mapping, DesignPoint,
    Target, CLOCK, HW_K, RTOS_CYCLES,
};
pub use pool::{run_indexed, PoolStats, WorkerPool};
pub use sweep::{
    elaborate_cached, evaluate, format_summary, sweep, CachedRun, ProgStats, SweepConfig,
    SweepResult,
};
