//! The front door: a [`SimConfig`] describing *one simulation* — kernel
//! options, platform, mode, recording — and the [`Session`] it builds,
//! which owns that simulation's whole lifecycle.
//!
//! Every analyzed simulation is configured once, by a `SimConfig`, and
//! built as a `Session`; the kernel's and the estimator's settings are
//! both fixed at the build. Elaboration helpers written against a
//! simulator and its model get both from [`Session::parts_mut`].
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
use crate::estimator::{EstSettings, Mode};
use crate::model::{PFifo, PRendezvous, PSignal, PerfModel};
use crate::prog::ProgramSet;
use crate::recorder::{Recorder, Replay};
use crate::report::Report;
use crate::resource::{Platform, ResourceId};
use crate::site::MemoMode;

/// Declarative configuration of one simulation: the kernel half
/// (attribution, trace sink) plus the estimation half (platform, mode,
/// recording options). [`SimConfig::build`] turns it into a
/// [`Session`].
///
/// Defaults: empty platform, [`Mode::StrictTimed`], no tracing, no
/// recording.
#[derive(Debug)]
pub struct SimConfig {
    options: SimOptions,
    platform: Platform,
    est: EstSettings,
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
            est: EstSettings::default(),
        }
    }

    /// Has no effect. Cost programs no longer leave the run that
    /// compiled them, so there is no warm set to start from; kept so
    /// existing builder chains still compile.
    pub fn program_set(self, _set: Arc<ProgramSet>) -> SimConfig {
        self
    }

    /// Enables utilization & contention attribution: kernel scheduling
    /// accounting (`kernel.sched.*`, per-channel depth/blocked time)
    /// plus estimator resource-arbitration accounting (`est.res.*`, the
    /// [`crate::UtilizationReport`] section of [`Session::report`]).
    /// Measurement-only — simulated results are bit-identical whether
    /// attribution is on or off. Off by default.
    pub fn attribution(mut self, enable: bool) -> SimConfig {
        self.est.attribution = enable;
        self
    }

    /// Sets the platform (resources + cost tables) the model maps onto.
    pub fn platform(mut self, platform: Platform) -> SimConfig {
        self.platform = platform;
        self
    }

    /// Sets the estimation mode (default [`Mode::StrictTimed`]).
    pub fn mode(mut self, mode: Mode) -> SimConfig {
        self.est.mode = mode;
        self
    }

    /// Selects the kernel trace recording mode.
    pub fn tracing(mut self, mode: TraceMode) -> SimConfig {
        self.options = self.options.tracing(mode);
        self
    }

    /// Installs a custom kernel [`TraceSink`].
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> SimConfig {
        self.options = self.options.trace_sink(sink);
        self
    }

    /// Records one `(time, cycles)` sample per segment execution (the
    /// paper's "instantaneous estimated parameters").
    pub fn record_instantaneous(mut self) -> SimConfig {
        self.est.record_instantaneous = true;
        self
    }

    /// Records the dataflow graph of each hardware segment's first
    /// execution, for export to the HLS scheduler.
    pub fn record_dfgs(mut self) -> SimConfig {
        self.est.record_dfgs = true;
        self
    }

    /// Has no effect. The parallel evaluate phase it used to size was
    /// removed; it gave bit-identical results, so every session now runs
    /// on the one sequential scheduler. Kept so existing builder chains
    /// still compile.
    pub fn jobs(self, _jobs: usize) -> SimConfig {
        self
    }

    /// Sets the segment-site memoization policy (default
    /// [`MemoMode::Replay`]); see [`crate::g_twin!`] for what a region is
    /// and when memoization engages.
    pub fn site_memo(mut self, mode: MemoMode) -> SimConfig {
        self.est.memo = mode;
        self
    }

    /// Builds the [`Session`]: simulator plus estimation model, wired
    /// per this configuration.
    pub fn build(self) -> Session {
        Session {
            sim: Simulator::with_options(self.options.attribution(self.est.attribution)),
            model: PerfModel::new(self.platform, self.est),
        }
    }
}

/// One simulation's lifecycle, owned end to end: elaboration (spawning
/// processes, creating channels), execution, and result extraction
/// (summary, report, metrics, captured traces).
///
/// Built by [`SimConfig::build`]. A session is single-use: it is
/// elaborated once, run (stepped or not) and dropped; the next scenario
/// gets a new session ([`Session::reset_with_platform`] builds one with
/// the same configuration). The underlying [`Simulator`] and
/// [`PerfModel`] remain reachable ([`Session::sim`],
/// [`Session::model`]) for testbench-level pieces such as raw kernel
/// channels and events.
///
/// A session is `!Send`: it is built, run and dropped on one thread, and
/// its process bodies may share `Rc<RefCell<_>>` state. Moving one to
/// another thread does not compile:
///
/// ```compile_fail
/// let session = scperf_core::SimConfig::new().build();
/// std::thread::spawn(move || session.now());
/// ```
#[derive(Debug)]
pub struct Session {
    sim: Simulator,
    model: PerfModel,
}

impl Session {
    /// Spawns an analyzed process mapped to `resource`
    /// (see [`PerfModel::spawn`]).
    pub fn spawn<F>(&mut self, name: impl Into<String>, resource: ResourceId, body: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + 'static,
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
        F: FnOnce(&mut ProcCtx) + 'static,
    {
        self.model
            .spawn_replaying(&mut self.sim, name, resource, replay, body)
    }

    /// Spawns an un-analyzed (environment/testbench) process directly on
    /// the kernel: no resource mapping, no charging.
    pub fn spawn_untimed<F>(&mut self, name: impl Into<String>, body: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + 'static,
    {
        self.sim.spawn(name, body)
    }

    /// Creates an instrumented FIFO channel (both endpoints are segment
    /// boundaries for analyzed processes).
    pub fn fifo<T: std::fmt::Debug + 'static>(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
    ) -> PFifo<T> {
        self.model.fifo(&mut self.sim, name, capacity)
    }

    /// Creates an instrumented signal.
    pub fn signal<T>(&mut self, name: impl Into<String>, initial: T) -> PSignal<T>
    where
        T: Clone + PartialEq + std::fmt::Debug + 'static,
    {
        self.model.signal(&mut self.sim, name, initial)
    }

    /// Creates an instrumented rendezvous channel.
    pub fn rendezvous<T: std::fmt::Debug + 'static>(
        &mut self,
        name: impl Into<String>,
    ) -> PRendezvous<T> {
        self.model.rendezvous(&mut self.sim, name)
    }

    /// Registers a capture point (§4 of the paper).
    pub fn capture_point(&mut self, name: impl Into<String>) -> CapturePoint {
        self.model.capture_point(name)
    }

    /// Attaches a segment-cost [`Recorder`]: from now on every segment
    /// execution's estimated cycles are captured per process, in
    /// execution order (one `Vec::push` per segment boundary). Only
    /// segments executed after the attach are captured, so call this
    /// before [`Session::run`]. After the run the recorder hands each
    /// process's trace back as a [`Replay`] for
    /// [`Session::spawn_replaying`] — the memoization that lets a
    /// design-space exploration or a simulation service skip
    /// re-estimating segments whose annotation cannot differ between
    /// runs.
    pub fn recorder(&self) -> Recorder {
        Recorder::attach(&self.model.est)
    }

    /// Runs the simulation to event exhaustion; [`Session::run_until`]
    /// caps a run instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessPanic`] if any process body panics.
    pub fn run(&mut self) -> Result<SimSummary, SimError> {
        self.sim.run()
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
        let inner = self.model.est.borrow();
        let mut report = Report::build(&inner);
        if inner.settings.attribution {
            let mut u = Report::build_utilization(&inner, self.sim.now());
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
            report.utilization = Some(u);
        }
        report
    }

    /// The recorded capture lists (call after [`Session::run`]).
    pub fn captures(&self) -> Vec<CaptureList> {
        self.model.captures()
    }

    /// Always the empty [`ProgramSet`]: cost programs end with the run
    /// that compiled them. Kept so existing callers still compile.
    pub fn programs(&self) -> ProgramSet {
        ProgramSet
    }

    /// One merged metrics snapshot: kernel counters (deltas, context
    /// switches, channel accesses) plus estimator counters (segments,
    /// annotated ops, busy/RTOS time).
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

    /// Replaces this session with a freshly built one on `platform`, with
    /// the settings this session was built with. Sessions are
    /// single-use, so this is the one rebuild path: nothing is reset in
    /// place.
    ///
    /// The kernel's trace mode carries over; a custom sink from
    /// [`SimConfig::trace_sink`] cannot and is dropped. A recorder is a
    /// handle, not a setting: attach one to the new session with
    /// [`Session::recorder`]. Handles taken from the old session (a
    /// [`Recorder`], channels) stay bound to it.
    pub fn reset_with_platform(&mut self, platform: Platform) {
        let est = self.model.est.borrow().settings;
        *self = SimConfig {
            options: SimOptions::new().tracing(self.sim.trace_mode()),
            platform,
            est,
        }
        .build();
    }

    /// Captures the segment-cost traces this session recorded, one per
    /// process; [`crate::Snapshot::replay`] hands one back for
    /// [`Session::spawn_replaying`].
    ///
    /// The session must have run with a [`Session::recorder`] attached
    /// before the run — otherwise the captured traces are empty and
    /// replaying them panics at the first segment boundary.
    pub fn snapshot(&mut self) -> crate::pool::Snapshot {
        crate::pool::Snapshot::capture(self)
    }

    /// The underlying kernel simulator, for testbench-level pieces
    /// (raw channels, events, custom stepping).
    pub fn sim(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The underlying estimation model (DFGs, Chrome traces, hot-path
    /// counters).
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// Simulator and model together — the shape workload elaboration
    /// helpers such as `scperf_workloads::vocoder::pipeline::build`
    /// take.
    pub fn parts_mut(&mut self) -> (&mut Simulator, &PerfModel) {
        (&mut self.sim, &self.model)
    }
}

#[cfg(test)]
mod tests {
    use std::any::TypeId;

    use super::*;
    use crate::cost::CostTable;
    use crate::domain::{Annotated, Domain};
    use crate::gval::{g_i64, G};

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
    fn bodies_share_single_thread_state() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (platform, cpu) = one_cpu();
        let mut session = SimConfig::new().platform(platform).build();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, n) in [("long", 40), ("short", 10)] {
            let log = Rc::clone(&log);
            session.spawn(name, cpu, move |ctx| {
                let mut acc = g_i64(0);
                for i in 0..n {
                    acc = acc + g_i64(i);
                }
                crate::model::timed_wait(ctx, Time::ZERO);
                log.borrow_mut().push((name, ctx.now()));
            });
        }
        session.run().unwrap();
        // Both segments end at time zero on one CPU: "long" (spawned
        // first) holds it, and "short" runs after it.
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].0, log[1].0), ("long", "short"));
        assert!(Time::ZERO < log[0].1 && log[0].1 < log[1].1, "{log:?}");
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
    fn run_until_caps_the_run() {
        let (platform, cpu) = one_cpu();
        let mut session = SimConfig::new().platform(platform).build();
        session.spawn("p", cpu, |ctx| {
            crate::model::timed_wait(ctx, Time::us(1));
        });
        let summary = session.run_until(Time::ns(7)).unwrap();
        assert_eq!(summary.end_time, Time::ns(7));
        assert_eq!(summary.reason, scperf_kernel::StopReason::TimeLimit);
    }

    #[test]
    fn record_and_replay_round_trip_is_bit_identical() {
        let (platform, cpu) = one_cpu();
        let mut session = SimConfig::new().platform(platform.clone()).build();
        let recorder = session.recorder();
        session.spawn("w", cpu, |_ctx| {
            let mut acc = g_i64(0);
            for i in 0..32 {
                acc = acc + g_i64(i) * g_i64(3);
            }
        });
        let live = session.run().unwrap();
        let replay = recorder.replay("w").unwrap();
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

    /// A twin region that reports which instantiation ran: 1 for the
    /// annotated one, 0 for the native one.
    fn which_ran<D: Domain>(i: G<i64, D>) -> u64 {
        let _ = D::init(i.get()) + D::init(1_i64);
        u64::from(TypeId::of::<D>() == TypeId::of::<Annotated>())
    }

    #[test]
    fn reset_with_platform_carries_every_setting_over() {
        use std::cell::Cell;
        use std::rc::Rc;

        // Every setting away from its default.
        let settings = |platform: Platform| {
            SimConfig::new()
                .platform(platform)
                .mode(Mode::EstimateOnly)
                .attribution(true)
                .tracing(TraceMode::Ring(4))
                .record_instantaneous()
                .record_dfgs()
                .site_memo(MemoMode::Verify)
        };
        let mut platform = Platform::new();
        let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 50.0);
        let hw = platform.parallel("hw", Time::ns(10), CostTable::asic_hw(), 0.5);

        // What each setting shows: the mode, attribution and
        // `record_instantaneous` in the report, the ring in the kernel
        // events, `record_dfgs` in the DFGs, and the memo policy in
        // which twin block ran (Verify re-runs the annotated one). The
        // recorder is attached after the build, through the session, as
        // a cached run does.
        let scenario = |session: &mut Session| {
            let recorder = session.recorder();
            let annotated = Rc::new(Cell::new(0));
            let probe = Rc::clone(&annotated);
            session.spawn("w", cpu, move |_ctx| {
                for i in 0..3 {
                    let ran = crate::g_twin!((0) which_ran(G::raw(i)));
                    probe.set(probe.get() + ran);
                }
            });
            session.spawn("h", hw, |_ctx| {
                let _ = g_i64(3) * g_i64(4) + g_i64(5);
            });
            session.spawn_untimed("clock", |ctx| {
                for i in 0..32 {
                    ctx.emit_trace("tick", i.to_string());
                }
                ctx.wait(Time::us(1));
            });
            let summary = session.run().unwrap();
            let table = session.take_events();
            (
                summary,
                session.report(),
                table.events,
                table.dropped,
                session.model().dfgs("h"),
                recorder.replays(),
                annotated.get(),
            )
        };

        let expected = scenario(&mut settings(platform.clone()).build());
        assert_eq!(expected.0.end_time, Time::us(1), "estimate-only is untimed");
        assert!(expected.1.utilization.is_some());
        assert!(expected.3 > 0, "the ring dropped events");
        assert!(expected.5.iter().all(|(_, r)| !r.is_empty()));
        assert_eq!(expected.6, 3, "verify charges every repeat live");

        // First life on another platform, with an unrelated scenario
        // and a recorder of its own.
        let (other, other_cpu) = one_cpu();
        let mut session = settings(other).build();
        session.recorder();
        session.spawn("other", other_cpu, |_ctx| {
            let _ = g_i64(5) * g_i64(7);
        });
        session.run().unwrap();
        session.reset_with_platform(platform);
        assert_eq!(scenario(&mut session), expected);
    }
}
