//! [`PerfModel`]: the estimation half of a [`crate::Session`], tying the
//! estimation library to a kernel [`Simulator`].
//!
//! The paper's library is "included within a usual simulation" without
//! changing the source. The Rust equivalent: build your processes and
//! channels through a session instead of directly through the
//! `Simulator`, write the process bodies against the annotated
//! [`crate::G`] types, and the same model runs untimed
//! ([`Mode::EstimateOnly`]) or strict-timed ([`Mode::StrictTimed`]) — no
//! other change.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use scperf_kernel::{Fifo, ProcCtx, ProcId, Rendezvous, Signal, Simulator, Time};

use crate::capture::{CaptureList, CapturePoint};
use crate::estimator::{end_segment, EstHotStats, EstInner, EstSettings, Mode, NODE_WAIT};
use crate::hw::Dfg;
use crate::prog::{ProgStore, ProgramSet};
use crate::recorder::Replay;
use crate::resource::{Platform, ResourceId};
use crate::tls;

/// The performance-analysis model: a [`Platform`], an architectural mapping
/// and the estimation state, layered over a kernel [`Simulator`].
///
/// A model is one half of a [`crate::Session`]: [`crate::SimConfig::build`]
/// builds it with its settings fixed, and [`crate::Session::parts_mut`]
/// hands it, with the simulator, to elaboration helpers written against
/// `(sim, model)`.
///
/// # Examples
///
/// ```
/// use scperf_core::{g_i64, CostTable, Mode, PerfModel, Platform, SimConfig};
/// use scperf_kernel::{Simulator, Time};
///
/// /// An elaboration helper: spawns a worker that writes one sum.
/// fn elaborate(sim: &mut Simulator, model: &PerfModel, cpu: scperf_core::ResourceId) {
///     let ch = model.fifo::<i64>(sim, "out", 4);
///     let tx = ch.clone();
///     model.spawn(sim, "worker", cpu, move |ctx| {
///         let mut acc = g_i64(0);
///         for i in 0..10 {
///             acc = acc + g_i64(i);
///         }
///         tx.write(ctx, acc.get());
///     });
///     sim.spawn("sink", move |ctx| {
///         assert_eq!(ch.read(ctx), 45);
///     });
/// }
///
/// let mut platform = Platform::new();
/// let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 50.0);
///
/// let mut session = SimConfig::new()
///     .platform(platform)
///     .mode(Mode::StrictTimed)
///     .build();
/// let (sim, model) = session.parts_mut();
/// elaborate(sim, model, cpu);
/// session.run()?;
/// let report = session.report();
/// assert!(report.processes[0].total_cycles > 0.0);
/// # Ok::<(), scperf_kernel::SimError>(())
/// ```
///
/// There is no public constructor: outside this crate a model comes
/// only from a [`crate::SimConfig`].
///
/// ```compile_fail,E0624
/// use scperf_core::{Mode, PerfModel, Platform};
///
/// let model = PerfModel::new(Platform::new(), Mode::StrictTimed);
/// ```
///
/// The estimation state is single-threaded, like the simulation it
/// annotates: a model is `!Send`, so moving one to another thread does
/// not compile.
///
/// ```compile_fail,E0277
/// fn assert_send<T: Send>() {}
/// assert_send::<scperf_core::PerfModel>();
/// ```
pub struct PerfModel {
    pub(crate) est: Rc<RefCell<EstInner>>,
}

impl PerfModel {
    /// Creates a model for `platform` with its settings fixed.
    pub(crate) fn new(platform: Platform, settings: EstSettings) -> PerfModel {
        PerfModel {
            est: Rc::new(RefCell::new(EstInner::new(platform, settings))),
        }
    }

    /// The model's mode.
    pub fn mode(&self) -> Mode {
        self.est.borrow().settings.mode
    }

    /// Has no effect. Cost programs no longer leave the run that
    /// compiled them, so there is no warm set to hand to processes;
    /// kept so existing callers still compile.
    pub fn warm_programs(&self, _set: Arc<ProgramSet>) {}

    /// A clone of the model's platform (resources + cost tables).
    pub fn platform(&self) -> crate::resource::Platform {
        self.est.borrow().platform.clone()
    }

    /// Snapshot of the hot-path counters: fast-path charges, site-cache
    /// hits/misses and DFG arena reuses. Cheap (one borrow, four loads).
    pub fn hot_stats(&self) -> EstHotStats {
        let inner = self.est.borrow();
        EstHotStats {
            fast_charges: inner.fast_charges,
            site_hits: inner.site_hits,
            site_misses: inner.site_misses,
            dfg_arena_reuse: inner.dfg_arena_reuse,
            prog_rejects: 0,
        }
    }

    /// Spawns a process mapped to `resource` (the architectural-mapping
    /// annotation of §2). The body runs with the estimation context
    /// installed, so `G`-typed operations are charged automatically and
    /// channel accesses become segment boundaries.
    pub fn spawn<F>(
        &self,
        sim: &mut Simulator,
        name: impl Into<String>,
        resource: ResourceId,
        body: F,
    ) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + 'static,
    {
        self.spawn_inner(sim, name.into(), resource, None, body)
    }

    /// Spawns a process mapped to `resource` that **replays** a
    /// previously recorded per-segment cycle trace instead of estimating
    /// live (see [`crate::Session::recorder`]).
    ///
    /// The body should execute the *plain* (un-annotated) form of the
    /// workload: operator charging is disabled, and every segment
    /// boundary pops the next entry of `replay` as the segment's cycles.
    /// Back-annotation, resource arbitration and RTOS accounting behave
    /// exactly as in a live run, so the strict-timed schedule is
    /// bit-identical — provided the body performs the same sequence of
    /// channel accesses and waits as the recorded run. See
    /// [`crate::Replay`] for the soundness conditions.
    ///
    /// # Panics
    ///
    /// The spawned process panics (surfacing as
    /// [`scperf_kernel::SimError::ProcessPanic`]) if it reaches more
    /// segment boundaries than `replay` holds.
    pub fn spawn_replaying<F>(
        &self,
        sim: &mut Simulator,
        name: impl Into<String>,
        resource: ResourceId,
        replay: Replay,
        body: F,
    ) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + 'static,
    {
        self.spawn_inner(sim, name.into(), resource, Some(replay), body)
    }

    fn spawn_inner<F>(
        &self,
        sim: &mut Simulator,
        name: String,
        resource: ResourceId,
        replay: Option<Replay>,
        body: F,
    ) -> ProcId
    where
        F: FnOnce(&mut ProcCtx) + 'static,
    {
        let est = Rc::clone(&self.est);
        let reg_name = name.clone();
        let pid = sim.spawn(name, move |ctx| {
            let (kind, costs, k, rtos_cycles, memo, record_dfgs) = {
                let inner = est.borrow();
                let r = inner.platform.resource(resource);
                (
                    r.kind,
                    tls::dense_costs(&r.costs),
                    r.k,
                    r.rtos_cycles,
                    inner.settings.memo,
                    inner.settings.record_dfgs,
                )
            };
            let record_dfgs =
                replay.is_none() && record_dfgs && kind == crate::resource::ResourceKind::Parallel;
            tls::install(tls::ThreadCtx {
                est: Rc::clone(&est),
                pid: ctx.pid().index(),
                resource,
                kind,
                costs,
                k,
                rtos_cycles,
                dfg: record_dfgs.then(Dfg::default),
                current_node: crate::estimator::NODE_ENTRY,
                replay: replay.map(|r| {
                    let (trace, detail) = r.into_cursor_parts();
                    tls::ReplayCursor {
                        trace,
                        detail,
                        next: 0,
                    }
                }),
                memo,
                progs: ProgStore::default(),
                dfg_spare: Vec::new(),
                cp_scratch: Vec::new(),
            });
            let _uninstall = tls::UninstallOnDrop;
            body(ctx);
            // The process-exit statement is a node (§2): flush the final
            // segment and back-annotate it.
            end_segment(ctx, crate::estimator::NODE_EXIT);
        });
        self.est
            .borrow_mut()
            .register_process(pid.index(), reg_name, resource);
        pid
    }

    /// Creates an instrumented FIFO channel: both endpoints are segment
    /// boundaries for analyzed processes.
    pub fn fifo<T: std::fmt::Debug + 'static>(
        &self,
        sim: &mut Simulator,
        name: impl Into<String>,
        capacity: usize,
    ) -> PFifo<T> {
        let name = name.into();
        let read_node = self.est.borrow_mut().register_node(format!("{name}.read"));
        let write_node = self.est.borrow_mut().register_node(format!("{name}.write"));
        PFifo {
            inner: sim.fifo(name, capacity),
            read_node,
            write_node,
        }
    }

    /// Creates an instrumented signal.
    pub fn signal<T>(&self, sim: &mut Simulator, name: impl Into<String>, initial: T) -> PSignal<T>
    where
        T: Clone + PartialEq + std::fmt::Debug + 'static,
    {
        let name = name.into();
        let write_node = self.est.borrow_mut().register_node(format!("{name}.write"));
        PSignal {
            inner: sim.signal(name, initial),
            write_node,
        }
    }

    /// Creates an instrumented rendezvous channel.
    pub fn rendezvous<T: std::fmt::Debug + 'static>(
        &self,
        sim: &mut Simulator,
        name: impl Into<String>,
    ) -> PRendezvous<T> {
        let name = name.into();
        let read_node = self.est.borrow_mut().register_node(format!("{name}.read"));
        let write_node = self.est.borrow_mut().register_node(format!("{name}.write"));
        PRendezvous {
            inner: sim.rendezvous(name),
            read_node,
            write_node,
        }
    }

    /// Registers a capture point (§4). The returned handle is cheap to
    /// clone into process bodies.
    pub fn capture_point(&self, name: impl Into<String>) -> CapturePoint {
        let mut inner = self.est.borrow_mut();
        inner.captures.push(CaptureList {
            name: name.into(),
            events: Vec::new(),
        });
        CapturePoint {
            est: Rc::clone(&self.est),
            index: inner.captures.len() - 1,
        }
    }

    /// The recorded capture lists (clone; call after `sim.run()`).
    pub fn captures(&self) -> Vec<CaptureList> {
        self.est.borrow().captures.clone()
    }

    /// Snapshots the estimator's internals as metrics: segments closed,
    /// annotated operation totals (overall and per class), estimated
    /// cycles/time and per-resource busy/RTOS time.
    /// [`crate::Session::metrics`] merges it with the kernel's.
    pub(crate) fn metrics_snapshot(&self) -> scperf_obs::MetricsSnapshot {
        let inner = self.est.borrow();
        let mut m = scperf_obs::MetricsSnapshot::new();
        m.set_counter("est.processes", inner.procs.len() as u64);
        let mut segments = 0_u64;
        let mut ops = crate::cost::OpCounts::new();
        let mut cycles = 0.0;
        let mut time = Time::ZERO;
        let mut rtos = Time::ZERO;
        for rec in inner.procs.values() {
            segments += rec.segment_executions;
            ops.merge(&rec.counts);
            cycles += rec.total_cycles;
            time += rec.total_time;
            rtos += rec.rtos_time;
        }
        m.set_counter("est.segments_closed", segments);
        m.set_counter("est.annotated_ops", ops.total());
        for op in crate::cost::ALL_OPS {
            let n = ops.get(op);
            if n > 0 {
                m.set_counter(format!("est.ops.{op:?}"), n);
            }
        }
        m.set_gauge("est.total_cycles", cycles);
        m.set_gauge("est.total_time_ns", time.as_ns_f64());
        m.set_gauge("est.rtos_time_ns", rtos.as_ns_f64());
        m.set_counter("est.charge.fast", inner.fast_charges);
        m.set_counter("est.site_cache.hit", inner.site_hits);
        m.set_counter("est.site_cache.miss", inner.site_misses);
        m.set_counter("est.dfg.arena_reuse", inner.dfg_arena_reuse);
        // Cost-program namespace: hits/misses mirror the site cache (a
        // replayed region IS a compiled-program apply).
        m.set_counter("est.prog.hits", inner.site_hits);
        m.set_counter("est.prog.misses", inner.site_misses);
        for (id, r) in inner.platform.iter() {
            m.set_gauge(
                format!("resource.{}.busy_ns", r.name),
                inner.busy_total[id.index()].as_ns_f64(),
            );
            m.set_gauge(
                format!("resource.{}.rtos_ns", r.name),
                inner.rtos_total[id.index()].as_ns_f64(),
            );
            if inner.settings.attribution {
                // Counter (integer ns) variants so multi-run folds sum.
                m.set_counter(
                    format!("est.res.{}.busy_ns", r.name),
                    inner.busy_total[id.index()].as_ps() / 1_000,
                );
                m.set_counter(
                    format!("est.res.{}.contention_ns", r.name),
                    inner.contention_total[id.index()].as_ps() / 1_000,
                );
                m.set_counter(
                    format!("est.res.{}.waits", r.name),
                    inner.arbitration_waits[id.index()],
                );
            }
        }
        m
    }

    /// Builds a Chrome `trace_event` document from the recorded
    /// instantaneous samples: one track per process, one complete span
    /// per segment execution, positioned at the segment's strict-timed
    /// simulation interval. Requires
    /// [`crate::SimConfig::record_instantaneous`]; load the written JSON
    /// in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> scperf_obs::chrome::ChromeTrace {
        let inner = self.est.borrow();
        let mut t = scperf_obs::chrome::ChromeTrace::new();
        // Own process group so a merge with the kernel trace (pid 1)
        // cannot put estimator spans on a kernel instant track.
        t.set_pid(2);
        t.process_name("estimation (segment spans)");
        let node = |n: u32| {
            inner
                .nodes
                .get(n as usize)
                .cloned()
                .unwrap_or_else(|| format!("node{n}"))
        };
        for (track, rec) in inner.procs.values().enumerate() {
            let tid = track as u64 + 1;
            let res = inner.platform.resource(rec.resource);
            t.thread_name(tid, format!("{} @ {}", rec.name, res.name));
            for s in &rec.instantaneous {
                let name = format!("{}→{}", node(s.segment.0), node(s.segment.1));
                t.complete(
                    tid,
                    name,
                    s.at.as_ps() as f64 / 1e6,
                    s.dur.as_ps() as f64 / 1e6,
                )
                .arg("cycles", s.cycles);
            }
        }
        t
    }

    /// The label of a node id (used with
    /// [`crate::ProcessReport::instantaneous_csv`]).
    pub fn node_label(&self, node: u32) -> String {
        let inner = self.est.borrow();
        inner
            .nodes
            .get(node as usize)
            .cloned()
            .unwrap_or_else(|| format!("node{node}"))
    }

    /// The recorded DFG of a hardware segment, identified by process name
    /// and `(from, to)` node labels. Requires
    /// [`crate::SimConfig::record_dfgs`].
    pub fn dfg(&self, process: &str, from: &str, to: &str) -> Option<Dfg> {
        let inner = self.est.borrow();
        let from = inner.nodes.iter().position(|n| n == from)? as u32;
        let to = inner.nodes.iter().position(|n| n == to)? as u32;
        inner
            .procs
            .values()
            .find(|p| p.name == process)?
            .dfgs
            .get(&(from, to))
            .cloned()
    }

    /// All recorded DFGs of a process, keyed by `(from, to)` node labels.
    pub fn dfgs(&self, process: &str) -> Vec<((String, String), Dfg)> {
        let inner = self.est.borrow();
        let Some(rec) = inner.procs.values().find(|p| p.name == process) else {
            return Vec::new();
        };
        rec.dfgs
            .iter()
            .map(|(&(f, t), dfg)| {
                (
                    (
                        inner.nodes[f as usize].clone(),
                        inner.nodes[t as usize].clone(),
                    ),
                    dfg.clone(),
                )
            })
            .collect()
    }
}

impl std::fmt::Debug for PerfModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.est.borrow();
        f.debug_struct("PerfModel")
            .field("mode", &inner.settings.mode)
            .field("resources", &inner.platform.len())
            .field("processes", &inner.procs.len())
            .finish()
    }
}

/// A timed wait that is also a segment boundary (§2: timing `wait`
/// statements are nodes). For analyzed processes the preceding segment is
/// back-annotated first, then the explicit `delay` elapses; for
/// un-instrumented processes this is a plain `ctx.wait(delay)`.
pub fn timed_wait(ctx: &mut ProcCtx, delay: Time) {
    end_segment(ctx, NODE_WAIT);
    ctx.wait(delay);
}

/// Like [`timed_wait`] but with a distinct node label, so different wait
/// sites appear as different nodes in the process graph.
pub fn timed_wait_labeled(ctx: &mut ProcCtx, delay: Time, label: &str) {
    let node = match tls::with(|t| Rc::clone(&t.est)) {
        Some(est) => est.borrow_mut().register_node(format!("wait:{label}")),
        None => NODE_WAIT,
    };
    end_segment(ctx, node);
    ctx.wait(delay);
}

/// An instrumented FIFO: a [`Fifo`] whose endpoints are segment boundaries.
#[derive(Debug)]
pub struct PFifo<T> {
    inner: Fifo<T>,
    read_node: u32,
    write_node: u32,
}

impl<T> Clone for PFifo<T> {
    fn clone(&self) -> PFifo<T> {
        PFifo {
            inner: self.inner.clone(),
            read_node: self.read_node,
            write_node: self.write_node,
        }
    }
}

impl<T: std::fmt::Debug + 'static> PFifo<T> {
    /// Blocking read; ends the current segment first.
    pub fn read(&self, ctx: &mut ProcCtx) -> T {
        end_segment(ctx, self.read_node);
        self.inner.read(ctx)
    }

    /// Blocking write; ends the current segment first.
    pub fn write(&self, ctx: &mut ProcCtx, value: T) {
        end_segment(ctx, self.write_node);
        self.inner.write(ctx, value);
    }

    /// The underlying kernel channel.
    pub fn raw(&self) -> &Fifo<T> {
        &self.inner
    }
}

/// An instrumented signal. Writes are segment boundaries; reads are not
/// (reading a signal is a plain expression, not a synchronization point
/// under SR semantics, and never blocks).
#[derive(Debug)]
pub struct PSignal<T> {
    inner: Signal<T>,
    write_node: u32,
}

impl<T> Clone for PSignal<T> {
    fn clone(&self) -> PSignal<T> {
        PSignal {
            inner: self.inner.clone(),
            write_node: self.write_node,
        }
    }
}

impl<T: Clone + PartialEq + std::fmt::Debug + 'static> PSignal<T> {
    /// Reads the committed value (never blocks, not a segment boundary).
    pub fn read(&self) -> T {
        self.inner.read()
    }

    /// Writes the signal; ends the current segment first.
    pub fn write(&self, ctx: &mut ProcCtx, value: T) {
        end_segment(ctx, self.write_node);
        self.inner.write(ctx, value);
    }

    /// The underlying kernel signal.
    pub fn raw(&self) -> &Signal<T> {
        &self.inner
    }
}

/// An instrumented rendezvous channel.
#[derive(Debug)]
pub struct PRendezvous<T> {
    inner: Rendezvous<T>,
    read_node: u32,
    write_node: u32,
}

impl<T> Clone for PRendezvous<T> {
    fn clone(&self) -> PRendezvous<T> {
        PRendezvous {
            inner: self.inner.clone(),
            read_node: self.read_node,
            write_node: self.write_node,
        }
    }
}

impl<T: std::fmt::Debug + 'static> PRendezvous<T> {
    /// Blocking read; ends the current segment first.
    pub fn read(&self, ctx: &mut ProcCtx) -> T {
        end_segment(ctx, self.read_node);
        self.inner.read(ctx)
    }

    /// Blocking write; ends the current segment first.
    pub fn write(&self, ctx: &mut ProcCtx, value: T) {
        end_segment(ctx, self.write_node);
        self.inner.write(ctx, value);
    }

    /// The underlying kernel channel.
    pub fn raw(&self) -> &Rendezvous<T> {
        &self.inner
    }
}
