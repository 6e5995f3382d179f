//! The redesigned front door: a [`SimConfig`] builder describing *one
//! simulation* — kernel options, platform, mode, recording — and the
//! [`Session`] handle that owns that simulation's whole lifecycle.
//!
//! Historically every consumer hand-assembled a
//! [`Simulator`], a [`PerfModel`], trace sinks and replay plumbing
//! through scattered constructors. A `SimConfig` collects all of it in
//! one declarative value:
//!
//! ```
//! use scperf_core::{g_i64, CostTable, Mode, Platform, SimConfig};
//! use scperf_kernel::Time;
//!
//! let mut platform = Platform::new();
//! let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
//!
//! let mut session = SimConfig::new()
//!     .platform(platform)
//!     .mode(Mode::StrictTimed)
//!     .build();
//! session.spawn("worker", cpu, |_ctx| {
//!     let mut acc = g_i64(0);
//!     for i in 0..10 {
//!         acc = acc + g_i64(i);
//!     }
//! });
//! let summary = session.run()?;
//! assert!(summary.end_time > Time::ZERO);
//! let report = session.report();
//! assert!(report.process("worker").unwrap().total_cycles > 0.0);
//! # Ok::<(), scperf_kernel::SimError>(())
//! ```
//!
//! The session is the unit a simulation *service* schedules: the
//! `scperf-serve` crate builds one `SimConfig` per accepted request,
//! runs the session on a pooled worker (stepping it to enforce the
//! request's deadline) and turns the summary, report and metrics into
//! the response.

use std::sync::Arc;

use scperf_kernel::{
    ProcCtx, ProcId, SimError, SimOptions, SimSummary, Simulator, Time, TraceMode,
};
use scperf_obs::{MetricsSnapshot, TraceSink, TraceTable};

use crate::capture::{CaptureList, CapturePoint};
use crate::estimator::Mode;
use crate::model::{PFifo, PRendezvous, PSignal, PerfModel};
use crate::prog::ProgramSet;
use crate::recorder::{Recorder, Replay};
use crate::report::Report;
use crate::resource::{Platform, ResourceId};
use crate::site::MemoMode;

/// Declarative configuration of one simulation: the kernel half
/// (evaluate-phase jobs, trace sink) plus the estimation half (platform,
/// mode, recording options). [`SimConfig::build`] turns it into a
/// [`Session`].
///
/// Defaults: empty platform, [`Mode::StrictTimed`], `jobs = 1`, no
/// tracing, no recording.
#[derive(Debug)]
pub struct SimConfig {
    options: SimOptions,
    platform: Platform,
    mode: Mode,
    record_instantaneous: bool,
    record_dfgs: bool,
    record_costs: bool,
    site_memo: MemoMode,
    run_limit: Option<Time>,
    attribution: bool,
    tracing_mode: TraceMode,
    programs: Option<Arc<ProgramSet>>,
}

/// The plain (clonable) configuration knobs a built [`Session`] keeps,
/// so [`Session::reset`] can restore them on a pooled slot and a
/// [`crate::Snapshot`] can fork sessions with the same configuration.
/// Custom trace sinks ([`SimConfig::trace_sink`]) are the one knob that
/// cannot be retained: a reset drops the installed sink.
#[derive(Debug, Clone)]
pub(crate) struct SessionKnobs {
    pub(crate) mode: Mode,
    pub(crate) attribution: bool,
    pub(crate) site_memo: MemoMode,
    pub(crate) record_costs: bool,
    pub(crate) record_instantaneous: bool,
    pub(crate) record_dfgs: bool,
    pub(crate) tracing: TraceMode,
    pub(crate) jobs: usize,
    pub(crate) run_limit: Option<Time>,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::new()
    }
}

impl SimConfig {
    /// The default configuration (see the type-level docs).
    pub fn new() -> SimConfig {
        SimConfig {
            options: SimOptions::new(),
            platform: Platform::new(),
            mode: Mode::StrictTimed,
            record_instantaneous: false,
            record_dfgs: false,
            record_costs: false,
            site_memo: MemoMode::default(),
            run_limit: None,
            attribution: false,
            tracing_mode: TraceMode::Off,
            programs: None,
        }
    }

    /// Warm-starts segment-site memoization from a previously harvested
    /// [`ProgramSet`] (see [`Session::programs`]): named `g_loop!` /
    /// `g_site!` regions replay their compiled cost programs on *first*
    /// execution instead of recording live. The set's
    /// [`table_fingerprint`](crate::table_fingerprint) is validated
    /// against each process's cost table when the process starts; on
    /// mismatch the warm set is dropped for that process (counted in
    /// `est.prog.rejects`) and recording proceeds live.
    pub fn program_set(mut self, set: Arc<ProgramSet>) -> SimConfig {
        self.programs = Some(set);
        self
    }

    /// Enables utilization & contention attribution: kernel scheduling
    /// accounting (`kernel.sched.*`, per-channel depth/blocked time)
    /// plus estimator resource-arbitration accounting (`est.res.*`, the
    /// [`crate::UtilizationReport`] section of [`Session::report`]).
    /// Measurement-only — simulated results are bit-identical whether
    /// attribution is on or off. Off by default.
    pub fn attribution(mut self, enable: bool) -> SimConfig {
        self.attribution = enable;
        self
    }

    /// Sets the platform (resources + cost tables) the model maps onto.
    pub fn platform(mut self, platform: Platform) -> SimConfig {
        self.platform = platform;
        self
    }

    /// Sets the estimation mode (default [`Mode::StrictTimed`]).
    pub fn mode(mut self, mode: Mode) -> SimConfig {
        self.mode = mode;
        self
    }

    /// Selects the kernel trace recording mode (replaces
    /// `Simulator::enable_tracing` / `enable_tracing_ring`).
    pub fn tracing(mut self, mode: TraceMode) -> SimConfig {
        self.tracing_mode = mode;
        self.options = self.options.tracing(mode);
        self
    }

    /// Installs a custom kernel [`TraceSink`] (replaces
    /// `Simulator::set_trace_sink` wiring at elaboration time).
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> SimConfig {
        self.options = self.options.trace_sink(sink);
        self
    }

    /// Records one `(time, cycles)` sample per segment execution (the
    /// paper's "instantaneous estimated parameters").
    pub fn record_instantaneous(mut self) -> SimConfig {
        self.record_instantaneous = true;
        self
    }

    /// Records the dataflow graph of each hardware segment's first
    /// execution, for export to the HLS scheduler.
    pub fn record_dfgs(mut self) -> SimConfig {
        self.record_dfgs = true;
        self
    }

    /// Attaches a segment-cost [`Recorder`] to the session at build
    /// time; fetch it afterwards with [`Session::recorder`]. The replay
    /// source side of the pair is per-process:
    /// [`Session::spawn_replaying`].
    pub fn record_costs(mut self) -> SimConfig {
        self.record_costs = true;
        self
    }

    /// Sets the parallelism of the kernel's evaluate phase (forwarded to
    /// [`SimOptions::jobs`]); `1` (the default) is the plain sequential
    /// kernel. Results are bit-identical for any value — see
    /// `docs/PARALLELISM.md` for the determinism contract.
    pub fn jobs(mut self, jobs: usize) -> SimConfig {
        self.options = self.options.jobs(jobs);
        self
    }

    /// Sets the segment-site memoization policy (default
    /// [`MemoMode::Replay`]); see [`crate::g_loop!`] for what a site is
    /// and when memoization engages.
    pub fn site_memo(mut self, mode: MemoMode) -> SimConfig {
        self.site_memo = mode;
        self
    }

    /// Caps simulation time: [`Session::run`] stops at `limit` (with
    /// [`scperf_kernel::StopReason::TimeLimit`]) instead of running to
    /// event exhaustion.
    pub fn run_limit(mut self, limit: Time) -> SimConfig {
        self.run_limit = Some(limit);
        self
    }

    /// Builds the [`Session`]: simulator plus estimation model, wired
    /// per this configuration.
    pub fn build(self) -> Session {
        let sim = Simulator::with_options(self.options.attribution(self.attribution));
        let model = PerfModel::new(self.platform, self.mode);
        model.attribution(self.attribution);
        if self.record_instantaneous {
            model.record_instantaneous();
        }
        if self.record_dfgs {
            model.record_dfgs();
        }
        model.site_memo(self.site_memo);
        if let Some(set) = self.programs {
            model.warm_programs(set);
        }
        let recorder = self.record_costs.then(|| model.recorder());
        let knobs = SessionKnobs {
            mode: self.mode,
            attribution: self.attribution,
            site_memo: self.site_memo,
            record_costs: self.record_costs,
            record_instantaneous: self.record_instantaneous,
            record_dfgs: self.record_dfgs,
            tracing: self.tracing_mode,
            jobs: sim.jobs(),
            run_limit: self.run_limit,
        };
        Session {
            sim,
            model,
            recorder,
            run_limit: self.run_limit,
            knobs,
        }
    }
}

/// One simulation's lifecycle, owned end to end: elaboration (spawning
/// processes, creating channels), execution, and result extraction
/// (summary, report, metrics, captured traces).
///
/// Built by [`SimConfig::build`]. The underlying [`Simulator`] and
/// [`PerfModel`] remain reachable ([`Session::sim`],
/// [`Session::model`]) for testbench-level pieces such as raw kernel
/// channels and events.
#[derive(Debug)]
pub struct Session {
    sim: Simulator,
    model: PerfModel,
    recorder: Option<Recorder>,
    run_limit: Option<Time>,
    knobs: SessionKnobs,
}

impl Session {
    /// Spawns an analyzed process mapped to `resource`
    /// (see [`PerfModel::spawn`]).
    pub fn spawn<F>(&mut self, name: impl Into<String>, resource: ResourceId, body: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + Send + 'static,
    {
        self.model.spawn(&mut self.sim, name, resource, body)
    }

    /// Spawns a process that replays a recorded segment-cost trace
    /// instead of estimating live (see [`PerfModel::spawn_replaying`]).
    pub fn spawn_replaying<F>(
        &mut self,
        name: impl Into<String>,
        resource: ResourceId,
        replay: Replay,
        body: F,
    ) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + Send + 'static,
    {
        self.model
            .spawn_replaying(&mut self.sim, name, resource, replay, body)
    }

    /// Spawns an un-analyzed (environment/testbench) process directly on
    /// the kernel: no resource mapping, no charging.
    pub fn spawn_untimed<F>(&mut self, name: impl Into<String>, body: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + Send + 'static,
    {
        self.sim.spawn(name, body)
    }

    /// Creates an instrumented FIFO channel (both endpoints are segment
    /// boundaries for analyzed processes).
    pub fn fifo<T: Send + std::fmt::Debug + 'static>(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
    ) -> PFifo<T> {
        self.model.fifo(&mut self.sim, name, capacity)
    }

    /// Creates an instrumented signal.
    pub fn signal<T>(&mut self, name: impl Into<String>, initial: T) -> PSignal<T>
    where
        T: Send + Clone + PartialEq + std::fmt::Debug + 'static,
    {
        self.model.signal(&mut self.sim, name, initial)
    }

    /// Creates an instrumented rendezvous channel.
    pub fn rendezvous<T: Send + std::fmt::Debug + 'static>(
        &mut self,
        name: impl Into<String>,
    ) -> PRendezvous<T> {
        self.model.rendezvous(&mut self.sim, name)
    }

    /// Registers a capture point (§4 of the paper).
    pub fn capture_point(&mut self, name: impl Into<String>) -> CapturePoint {
        self.model.capture_point(name)
    }

    /// The session's segment-cost [`Recorder`]. Attaches one on first
    /// call if [`SimConfig::record_costs`] was not set (recording only
    /// captures segments executed *after* the recorder is attached, so
    /// call this before [`Session::run`]).
    pub fn recorder(&mut self) -> Recorder {
        self.recorder
            .get_or_insert_with(|| self.model.recorder())
            .clone()
    }

    /// Runs the simulation to event exhaustion, or to the configured
    /// [`SimConfig::run_limit`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessPanic`] if any process body panics.
    pub fn run(&mut self) -> Result<SimSummary, SimError> {
        match self.run_limit {
            Some(limit) => self.sim.run_until(limit),
            None => self.sim.run(),
        }
    }

    /// Runs until no events remain or simulation time would exceed
    /// `limit`; can be called repeatedly with growing limits to *step*
    /// a simulation (the mechanism `scperf-serve` uses to check request
    /// deadlines mid-run).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessPanic`] if any process body panics.
    pub fn run_until(&mut self, limit: Time) -> Result<SimSummary, SimError> {
        self.sim.run_until(limit)
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Builds the performance report (call after [`Session::run`]).
    /// When attribution is on ([`SimConfig::attribution`]) the report
    /// carries a [`crate::UtilizationReport`]: per-resource busy% and
    /// contention%, per-process arbitration waits, and the kernel's
    /// per-channel queue-depth/blocked-time accounting.
    pub fn report(&self) -> Report {
        let mut report = self.model.report();
        report.utilization = self.model.utilization_report(self.sim.now()).map(|mut u| {
            u.channels = self
                .sim
                .sched_stats()
                .channels
                .into_iter()
                .map(|c| crate::ChannelUtilization {
                    name: c.name,
                    max_depth: c.max_depth,
                    blocks: c.blocks,
                    blocked: c.blocked,
                })
                .collect();
            u
        });
        report
    }

    /// The recorded capture lists (call after [`Session::run`]).
    pub fn captures(&self) -> Vec<CaptureList> {
        self.model.captures()
    }

    /// The cost programs harvested from this session's processes (call
    /// after [`Session::run`]): every named `g_loop!` / `g_site!` region
    /// that compiled, keyed by stable site hash and caller/branch key.
    /// Serialize with [`ProgramSet::to_bytes`] and feed the bytes into a
    /// later [`SimConfig::program_set`] to warm-start another process —
    /// or another machine, the encoding is platform-independent.
    pub fn programs(&self) -> ProgramSet {
        self.model.programs()
    }

    /// One merged metrics snapshot: kernel counters (deltas, context
    /// switches, channel accesses, handoff latency) plus estimator
    /// counters (segments, annotated ops, busy/RTOS time).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.sim.metrics();
        m.merge(self.model.metrics_snapshot());
        m
    }

    /// Takes the recorded kernel trace as a detached
    /// [`TraceTable`]; tracing stays enabled with a fresh buffer.
    pub fn take_events(&mut self) -> TraceTable {
        self.sim.take_events()
    }

    /// Returns the session to its just-built state so a pooled slot can
    /// be reused without rebuilding: process threads are joined, kernel
    /// queues and the timer wheel are rebuilt, estimator records and
    /// capture lists are cleared, and simulation time is back at zero.
    /// Configuration (mode, jobs, recording flags,
    /// attribution, run limit, tracing mode) is retained; a custom
    /// trace sink installed via [`SimConfig::trace_sink`] is the one
    /// thing that cannot be restored and is dropped. Elaborate the next
    /// scenario (spawn processes, create channels) and run again — a
    /// reset session produces bit-identical results to a freshly built
    /// one.
    pub fn reset(&mut self) {
        let platform = self.model.platform();
        self.reset_with_platform(platform);
    }

    /// [`Session::reset`] that also stamps a new [`Platform`] into the
    /// slot — the reuse path when the next scenario's resource
    /// parameters (clock, cost tables, `k`, RTOS overhead) differ from
    /// the previous one's.
    pub fn reset_with_platform(&mut self, platform: Platform) {
        self.sim.reset();
        match self.knobs.tracing {
            TraceMode::Off => {}
            TraceMode::Unbounded => self.sim.enable_tracing(),
            TraceMode::Ring(n) => self.sim.enable_tracing_ring(n),
        }
        self.model.reset_estimator(platform);
    }

    /// Captures a forkable image of this session after a recorded
    /// warmup run: the platform, the configuration knobs and every
    /// process's recorded segment-cost trace. Repeated requests for the
    /// same scenario shape then [`crate::Snapshot::fork`] (or
    /// [`crate::Snapshot::fork_into`] a pooled slot) and elaborate with
    /// the captured [`Replay`]s, skipping live estimation entirely.
    ///
    /// The session must have run with recording enabled
    /// ([`SimConfig::record_costs`], or [`Session::recorder`] called
    /// before the run) — otherwise the captured traces are empty and
    /// replaying them panics at the first segment boundary.
    pub fn snapshot(&mut self) -> crate::pool::Snapshot {
        crate::pool::Snapshot::capture(self)
    }

    /// The retained configuration knobs (for snapshot/fork).
    pub(crate) fn knobs(&self) -> &SessionKnobs {
        &self.knobs
    }

    /// The underlying kernel simulator, for testbench-level pieces
    /// (raw channels, events, custom stepping).
    pub fn sim(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The underlying estimation model (reports, DFGs, Chrome traces).
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// Simulator and model together — the shape workload elaboration
    /// helpers such as `scperf_workloads::vocoder::pipeline::build`
    /// take.
    pub fn parts_mut(&mut self) -> (&mut Simulator, &PerfModel) {
        (&mut self.sim, &self.model)
    }

    /// Decomposes the session into its parts.
    pub fn into_parts(self) -> (Simulator, PerfModel) {
        (self.sim, self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTable;
    use crate::gval::g_i64;

    fn one_cpu() -> (Platform, ResourceId) {
        let mut p = Platform::new();
        let cpu = p.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 50.0);
        (p, cpu)
    }

    #[test]
    fn session_runs_and_reports() {
        let (platform, cpu) = one_cpu();
        let mut session = SimConfig::new().platform(platform).build();
        let ch = session.fifo::<i64>("out", 2);
        let tx = ch.clone();
        session.spawn("worker", cpu, move |ctx| {
            let mut acc = g_i64(0);
            for i in 0..5 {
                acc = acc + g_i64(i);
            }
            tx.write(ctx, acc.get());
        });
        session.spawn_untimed("sink", move |ctx| {
            assert_eq!(ch.read(ctx), 10);
        });
        let summary = session.run().unwrap();
        assert!(summary.end_time > Time::ZERO);
        assert!(session.report().process("worker").unwrap().total_cycles > 0.0);
        let metrics = session.metrics();
        assert!(metrics.counter("kernel.delta_cycles").is_some());
        assert_eq!(metrics.counter("est.processes"), Some(1));
    }

    #[test]
    fn recorded_dfgs_are_sealed_before_reporting() {
        let mut platform = Platform::new();
        let hw = platform.parallel("hw", Time::ns(10), CostTable::asic_hw(), 0.5);
        let mut session = SimConfig::new().platform(platform).record_dfgs().build();
        session.spawn("w", hw, |_ctx| {
            let mut acc = g_i64(0);
            for i in 0..16 {
                acc = acc + g_i64(i) * g_i64(2);
            }
            std::hint::black_box(acc.get());
        });
        session.run().unwrap();
        let dfgs = session.model().dfgs("w");
        assert!(!dfgs.is_empty(), "hw process records a graph");
        // The graphs were sealed when their segments were taken:
        // rendering reports and querying timings must not trigger a
        // single critical-path rescan on this thread.
        let before = crate::hw::dfg_time_computations();
        let report = session.report();
        assert!(report.process("w").unwrap().total_cycles > 0.0);
        for (_, dfg) in &dfgs {
            assert!(dfg.critical_path() <= dfg.sequential_cycles());
        }
        assert_eq!(
            crate::hw::dfg_time_computations(),
            before,
            "report/query path recomputed a sealed DFG"
        );
    }

    #[test]
    fn run_limit_caps_the_run() {
        let (platform, cpu) = one_cpu();
        let mut session = SimConfig::new()
            .platform(platform)
            .run_limit(Time::ns(7))
            .build();
        session.spawn("p", cpu, |ctx| {
            crate::model::timed_wait(ctx, Time::us(1));
        });
        let summary = session.run().unwrap();
        assert_eq!(summary.end_time, Time::ns(7));
        assert_eq!(summary.reason, scperf_kernel::StopReason::TimeLimit);
    }

    #[test]
    fn record_and_replay_round_trip_is_bit_identical() {
        let (platform, cpu) = one_cpu();
        let mut session = SimConfig::new()
            .platform(platform.clone())
            .record_costs()
            .build();
        session.spawn("w", cpu, |_ctx| {
            let mut acc = g_i64(0);
            for i in 0..32 {
                acc = acc + g_i64(i) * g_i64(3);
            }
        });
        let live = session.run().unwrap();
        let replay = session.recorder().replay("w").unwrap();
        assert!(!replay.is_empty());

        let mut session = SimConfig::new().platform(platform).build();
        session.spawn_replaying("w", cpu, replay, |_ctx| {
            // Plain body: no annotation, same channel/wait sequence.
        });
        let replayed = session.run().unwrap();
        assert_eq!(replayed.end_time, live.end_time);
    }

    #[test]
    fn estimate_only_mode_stays_untimed() {
        let (platform, cpu) = one_cpu();
        let mut session = SimConfig::new()
            .platform(platform)
            .mode(Mode::EstimateOnly)
            .build();
        session.spawn("w", cpu, |_ctx| {
            let mut acc = g_i64(0);
            for i in 0..4 {
                acc = acc + g_i64(i);
            }
        });
        let summary = session.run().unwrap();
        assert_eq!(summary.end_time, Time::ZERO);
        assert!(session.report().process("w").unwrap().total_cycles > 0.0);
    }

    #[test]
    fn attribution_surfaces_utilization_and_stays_bit_identical() {
        let run = |attr: bool| {
            let (platform, cpu) = one_cpu();
            let mut session = SimConfig::new()
                .platform(platform)
                .attribution(attr)
                .build();
            let ch = session.fifo::<i64>("link", 1);
            let tx = ch.clone();
            // Two workers sharing cpu0: the second queues behind the
            // first at every segment boundary.
            session.spawn("wa", cpu, move |ctx| {
                for i in 0..6 {
                    let mut acc = g_i64(0);
                    for j in 0..8 {
                        acc = acc + g_i64(i * j);
                    }
                    tx.write(ctx, acc.get());
                }
            });
            session.spawn("wb", cpu, move |ctx| {
                for _ in 0..6 {
                    let _ = ch.read(ctx);
                }
            });
            let summary = session.run().unwrap();
            (summary, session.report())
        };
        let (s_on, r_on) = run(true);
        let (s_off, r_off) = run(false);
        assert_eq!(s_on, s_off, "attribution must not change the schedule");
        assert_eq!(r_off.utilization, None);

        // Everything except the utilization section matches the
        // attribution-off report bit for bit.
        let mut stripped = r_on.clone();
        stripped.utilization = None;
        assert_eq!(stripped, r_off);

        let u = r_on.utilization.expect("attribution report present");
        assert_eq!(u.total_time, s_on.end_time);
        let bottleneck = u.bottleneck().expect("sequential resource");
        assert_eq!(bottleneck.name, "cpu0");
        assert!(bottleneck.busy_pct > 0.0);
        assert!(
            bottleneck.contention_pct > 0.0,
            "two processes on one cpu must contend: {bottleneck:?}"
        );
        assert!(u.processes.iter().any(|p| p.wait > Time::ZERO));
        let link = u.channels.iter().find(|c| c.name == "link").unwrap();
        assert_eq!(link.max_depth, 1);

        // The metrics surface gains est.res.* counters only when on.
        let (platform, cpu) = one_cpu();
        let mut session = SimConfig::new()
            .platform(platform)
            .attribution(true)
            .build();
        session.spawn("w", cpu, |_ctx| {
            let _ = g_i64(1) + g_i64(2);
        });
        session.run().unwrap();
        let m = session.metrics();
        assert!(m.counter("est.res.cpu0.busy_ns").is_some());
        assert!(m.counter("est.res.cpu0.contention_ns").is_some());
        assert!(m.counter("kernel.sched.w.activations").is_some());
    }

    #[test]
    fn tracing_mode_threads_through_to_the_kernel() {
        let (platform, cpu) = one_cpu();
        let mut session = SimConfig::new()
            .platform(platform)
            .tracing(TraceMode::Unbounded)
            .build();
        session.spawn("w", cpu, |ctx| {
            ctx.emit_trace("mark", "1");
        });
        session.run().unwrap();
        let table = session.take_events();
        assert!(!table.events.is_empty());
    }
}
