//! The estimator: segment bookkeeping, the resource-arbitration protocol
//! and strict-timed back-annotation (§4 of the paper).

use std::collections::BTreeMap;
use std::rc::Rc;

use scperf_kernel::{ProcCtx, Time};

use crate::cost::OpCounts;
use crate::hw::{weighted_hw_cycles, Dfg};
use crate::resource::{Platform, ResourceId, ResourceKind};
use crate::site::MemoMode;

/// How the library integrates with the simulation (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Collect estimates while leaving the simulation untimed: processes
    /// still execute in delta-cycle order. Useful for measuring the pure
    /// library overhead and as the reference run of the determinism check.
    EstimateOnly,
    /// Strict-timed simulation: every segment's estimated time is
    /// back-annotated (the process sleeps for it), sequential resources
    /// serialize their processes, and RTOS overhead is charged. This is the
    /// paper's headline mode.
    StrictTimed,
}

/// Node id of the implicit process-entry node.
pub const NODE_ENTRY: u32 = 0;
/// Node id of the implicit process-exit node.
pub const NODE_EXIT: u32 = 1;
/// Node id shared by unlabeled `timed_wait` statements.
pub const NODE_WAIT: u32 = 2;

/// Statistics of one segment (one `(from, to)` node pair of one process).
#[derive(Debug, Clone, PartialEq)]
pub struct SegStats {
    /// Executions of this segment.
    pub count: u64,
    /// Total estimated cycles over all executions.
    pub total_cycles: f64,
    /// Minimum cycles of a single execution.
    pub min_cycles: f64,
    /// Maximum cycles of a single execution.
    pub max_cycles: f64,
    /// Total estimated time over all executions.
    pub total_time: Time,
    /// Merged operation counts.
    pub counts: OpCounts,
    /// HW segments: last recorded T_min (critical path) in cycles.
    pub last_t_min: f64,
    /// HW segments: last recorded T_max (single-ALU) in cycles.
    pub last_t_max: f64,
}

impl SegStats {
    fn new() -> SegStats {
        SegStats {
            count: 0,
            total_cycles: 0.0,
            min_cycles: f64::INFINITY,
            max_cycles: 0.0,
            total_time: Time::ZERO,
            counts: OpCounts::new(),
            last_t_min: 0.0,
            last_t_max: 0.0,
        }
    }
}

/// An instantaneous per-segment sample (when recording is enabled):
/// the paper's "instantaneous estimated parameters for each process".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstSample {
    /// Simulation time at which the segment ended.
    pub at: Time,
    /// Segment (from, to) node pair.
    pub segment: (u32, u32),
    /// Estimated cycles of this single execution.
    pub cycles: f64,
    /// Estimated wall time of this execution including RTOS overhead
    /// (the interval the process occupies on the strict-timed axis,
    /// starting at `at`).
    pub dur: Time,
}

#[derive(Debug)]
pub(crate) struct ProcRecord {
    pub(crate) name: String,
    pub(crate) resource: ResourceId,
    pub(crate) segments: BTreeMap<(u32, u32), SegStats>,
    pub(crate) total_cycles: f64,
    pub(crate) total_time: Time,
    pub(crate) rtos_time: Time,
    pub(crate) counts: OpCounts,
    pub(crate) segment_executions: u64,
    pub(crate) instantaneous: Vec<InstSample>,
    /// First recorded DFG per segment (parallel resources with DFG
    /// recording enabled).
    pub(crate) dfgs: BTreeMap<(u32, u32), Dfg>,
    /// Per-execution cycle trace in segment-execution order, recorded
    /// when [`EstInner::record_segment_costs`] is on. Feeds the replay
    /// path ([`crate::PerfModel::spawn_replaying`]).
    pub(crate) cost_trace: Vec<f64>,
    /// Per-execution op counts and HW extremes, parallel to
    /// [`ProcRecord::cost_trace`]. Replaying them makes a replayed
    /// run's report bit-identical to the live run's.
    pub(crate) detail_trace: Vec<crate::recorder::SegDetail>,
    /// Attribution: simulated time this process spent waiting behind
    /// its sequential resource (the §4 arbitration loop).
    pub(crate) resource_wait: Time,
    /// Attribution: number of arbitration waits with non-zero duration.
    pub(crate) resource_waits: u64,
}

/// The estimator's settings, fixed when [`crate::SimConfig::build`]
/// builds the model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EstSettings {
    pub(crate) mode: Mode,
    /// Keep one [`InstSample`] per segment execution.
    pub(crate) record_instantaneous: bool,
    /// Keep the DFG of each hardware segment's first execution.
    pub(crate) record_dfgs: bool,
    /// Resource-contention accounting — measurement-only, never changes
    /// back-annotation results.
    pub(crate) attribution: bool,
    /// Segment-site memoization policy handed to spawned processes.
    pub(crate) memo: MemoMode,
}

impl Default for EstSettings {
    fn default() -> EstSettings {
        EstSettings {
            mode: Mode::StrictTimed,
            record_instantaneous: false,
            record_dfgs: false,
            attribution: false,
            memo: MemoMode::default(),
        }
    }
}

/// One [`crate::PerfModel`]'s estimator state, shared as
/// `Rc<RefCell<EstInner>>` with its processes, recorders and capture
/// points; a simulation runs on one thread, so no lock guards it.
pub(crate) struct EstInner {
    pub(crate) platform: Platform,
    /// Node label registry; ids 0..=2 are the implicit entry/exit/wait.
    pub(crate) nodes: Vec<String>,
    /// Per-process records, indexed by kernel pid.
    pub(crate) procs: BTreeMap<usize, ProcRecord>,
    /// Per-resource time the resource is occupied until (sequential only).
    pub(crate) busy_until: Vec<Time>,
    /// Accumulated busy time per resource.
    pub(crate) busy_total: Vec<Time>,
    /// Accumulated RTOS time per resource.
    pub(crate) rtos_total: Vec<Time>,
    /// The settings the model was built with.
    pub(crate) settings: EstSettings,
    /// Record every segment execution's cycles into
    /// [`ProcRecord::cost_trace`] (cheap: one `Vec::push` per segment);
    /// switched on by attaching a [`crate::Recorder`].
    pub(crate) record_segment_costs: bool,
    /// Operations charged through the flat fast path (`est.charge.fast`).
    pub(crate) fast_charges: u64,
    /// Site-memo regions replayed from cache (`est.site_cache.hit`).
    pub(crate) site_hits: u64,
    /// Site-memo regions recorded on first execution
    /// (`est.site_cache.miss`).
    pub(crate) site_misses: u64,
    /// Segments whose DFG node buffer was recycled from the arena
    /// (`est.dfg.arena_reuse`).
    pub(crate) dfg_arena_reuse: u64,
    pub(crate) captures: Vec<crate::capture::CaptureList>,
    /// Attribution: accumulated arbitration-wait time per resource
    /// (time processes spent blocked behind the sequential resource).
    pub(crate) contention_total: Vec<Time>,
    /// Attribution: number of non-zero arbitration waits per resource.
    pub(crate) arbitration_waits: Vec<u64>,
}

/// Snapshot of the estimator hot-path counters (see
/// [`crate::PerfModel::hot_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstHotStats {
    /// Operations charged through the flat thread-local fast path.
    pub fast_charges: u64,
    /// Segment-site regions satisfied by replaying a compiled program.
    pub site_hits: u64,
    /// Segment-site regions that recorded a fresh program.
    pub site_misses: u64,
    /// Segments whose DFG node buffer was recycled instead of allocated.
    pub dfg_arena_reuse: u64,
    /// Always 0. It counted shared program sets rejected for a
    /// cost-table mismatch; no set is shared across runs any more.
    pub prog_rejects: u64,
}

impl EstInner {
    pub(crate) fn new(platform: Platform, settings: EstSettings) -> EstInner {
        let n = platform.len();
        EstInner {
            platform,
            settings,
            nodes: vec!["entry".into(), "exit".into(), "wait".into()],
            procs: BTreeMap::new(),
            busy_until: vec![Time::ZERO; n],
            busy_total: vec![Time::ZERO; n],
            rtos_total: vec![Time::ZERO; n],
            record_segment_costs: false,
            fast_charges: 0,
            site_hits: 0,
            site_misses: 0,
            dfg_arena_reuse: 0,
            captures: Vec::new(),
            contention_total: vec![Time::ZERO; n],
            arbitration_waits: vec![0; n],
        }
    }

    pub(crate) fn register_node(&mut self, label: impl Into<String>) -> u32 {
        let label = label.into();
        if let Some(i) = self.nodes.iter().position(|n| *n == label) {
            return i as u32;
        }
        self.nodes.push(label);
        (self.nodes.len() - 1) as u32
    }

    pub(crate) fn register_process(&mut self, pid: usize, name: String, resource: ResourceId) {
        assert!(
            resource.index() < self.platform.len(),
            "resource id out of range for this platform"
        );
        self.procs.insert(
            pid,
            ProcRecord {
                name,
                resource,
                segments: BTreeMap::new(),
                total_cycles: 0.0,
                total_time: Time::ZERO,
                rtos_time: Time::ZERO,
                counts: OpCounts::new(),
                segment_executions: 0,
                instantaneous: Vec::new(),
                dfgs: BTreeMap::new(),
                cost_trace: Vec::new(),
                detail_trace: Vec::new(),
                resource_wait: Time::ZERO,
                resource_waits: 0,
            },
        );
    }
}

/// Ends the current segment at `node` and performs the §4 back-annotation
/// protocol. Called by the channel wrappers, `timed_wait` and process exit.
///
/// Returns the estimated segment time (zero for environment resources and
/// unmapped processes).
pub(crate) fn end_segment(ctx: &mut ProcCtx, node: u32) -> Time {
    let _span = scperf_obs::profile::span("est.end_segment");
    // Phase 1: drain the thread-local accumulator (or, in replay mode,
    // pop the next recorded segment cost).
    let Some((est, pid, resource, kind, k, rtos_cycles, from, take, replayed)) =
        crate::tls::with(|t| {
            let take = t.take_segment();
            let from = t.current_node;
            t.current_node = node;
            let replayed = t.pop_replay();
            (
                Rc::clone(&t.est),
                t.pid,
                t.resource,
                t.kind,
                t.k,
                t.rtos_cycles,
                from,
                take,
                replayed,
            )
        })
    else {
        return Time::ZERO; // un-instrumented process
    };
    let crate::tls::SegmentTake {
        acc,
        max_ready,
        counts,
        dfg,
        site_hits,
        site_misses,
        arena_reuse,
    } = take;
    let fast_ops = counts.total();

    if kind == ResourceKind::Environment {
        return Time::ZERO;
    }

    // Phase 2: compute the segment's annotated cycle count. A replayed
    // segment reuses the recorded value, which is bit-identical to what
    // live estimation of the same (code, data, cost table) produces.
    // Recorder-captured traces also carry the op counts and HW
    // extremes, so the replayed report matches the live one bit for bit
    // (bare cycle vectors replay timing only). A HW segment's cycles
    // depend on the running resource's `k`, so they are rebuilt from
    // the recorded extremes: a trace replays under any `k`.
    let (cycles, t_min, t_max, counts) = match replayed {
        Some((_, Some(d))) if kind == ResourceKind::Parallel => (
            weighted_hw_cycles(d.t_min, d.t_max, k),
            d.t_min,
            d.t_max,
            d.counts,
        ),
        Some((cycles, Some(d))) => (cycles, d.t_min, d.t_max, d.counts),
        Some((cycles, None)) => (cycles, 0.0, 0.0, counts),
        None => match kind {
            ResourceKind::Sequential => (acc, 0.0, 0.0, counts),
            ResourceKind::Parallel => (
                weighted_hw_cycles(max_ready, acc, k),
                max_ready,
                acc,
                counts,
            ),
            ResourceKind::Environment => unreachable!(),
        },
    };

    // Phase 3: record statistics and convert to time.
    let now = ctx.now();
    let (seg_time, rtos_time, mode, spare_dfg) = {
        let mut inner = est.borrow_mut();
        let res = inner.platform.resource(resource);
        let seg_time = res.cycles_to_time(cycles);
        let rtos_time = if kind == ResourceKind::Sequential {
            res.cycles_to_time(rtos_cycles)
        } else {
            Time::ZERO
        };
        let EstSettings {
            mode,
            record_instantaneous: record_inst,
            record_dfgs,
            ..
        } = inner.settings;
        let record_costs = inner.record_segment_costs;
        let rec = inner
            .procs
            .get_mut(&pid)
            .expect("process registered with the estimator");
        let seg = rec
            .segments
            .entry((from, node))
            .or_insert_with(SegStats::new);
        seg.count += 1;
        seg.total_cycles += cycles;
        seg.min_cycles = seg.min_cycles.min(cycles);
        seg.max_cycles = seg.max_cycles.max(cycles);
        seg.total_time += seg_time;
        seg.counts.merge(&counts);
        seg.last_t_min = t_min;
        seg.last_t_max = t_max;
        if record_costs {
            rec.cost_trace.push(cycles);
            rec.detail_trace.push(crate::recorder::SegDetail {
                counts,
                t_min,
                t_max,
            });
        }
        rec.total_cycles += cycles;
        rec.total_time += seg_time;
        rec.rtos_time += rtos_time;
        rec.counts.merge(&counts);
        rec.segment_executions += 1;
        if record_inst {
            rec.instantaneous.push(InstSample {
                at: now,
                segment: (from, node),
                cycles,
                dur: seg_time + rtos_time,
            });
        }
        let mut spare_dfg = None;
        if let Some(dfg) = dfg {
            use std::collections::btree_map::Entry;
            match (record_dfgs, rec.dfgs.entry((from, node))) {
                (true, Entry::Vacant(slot)) => {
                    slot.insert(dfg);
                }
                // Repeat execution (or recording switched off): the graph
                // is not kept — recycle its buffer into the thread arena.
                _ => spare_dfg = Some(dfg),
            }
        }
        inner.rtos_total[resource.index()] += rtos_time;
        // Hot-path counters, folded in with the segment statistics (zero
        // cost on the charge path itself).
        inner.fast_charges += fast_ops;
        inner.site_hits += site_hits;
        inner.site_misses += site_misses;
        inner.dfg_arena_reuse += arena_reuse;
        (seg_time, rtos_time, mode, spare_dfg)
    };
    if let Some(dfg) = spare_dfg {
        crate::tls::recycle_dfg(dfg);
    }

    // Phase 4: back-annotation (§4).
    let total = seg_time + rtos_time;
    match (mode, kind) {
        (Mode::EstimateOnly, _) => {
            // Untimed run: account busy time but do not sleep.
            est.borrow_mut().busy_total[resource.index()] += total;
        }
        (Mode::StrictTimed, ResourceKind::Parallel) => {
            // Parallel resources: the process resumes at
            // max(previous segment end, waking event) — which is exactly
            // `now` here, since host execution is instantaneous — and then
            // sleeps the estimated time.
            est.borrow_mut().busy_total[resource.index()] += total;
            if !total.is_zero() {
                ctx.wait(total);
            }
        }
        (Mode::StrictTimed, ResourceKind::Sequential) => {
            // Sequential resources: wait until the processor is observed
            // free *at the current time* (re-checking after every wait,
            // because another process can take the resource meanwhile —
            // the arbitration loop of §4), then occupy it.
            loop {
                let now = ctx.now();
                let free_at = est.borrow().busy_until[resource.index()];
                if free_at <= now {
                    break;
                }
                ctx.wait(free_at - now);
            }
            {
                let mut inner = est.borrow_mut();
                let resumed = ctx.now();
                let until = resumed + total;
                inner.busy_until[resource.index()] = until;
                inner.busy_total[resource.index()] += total;
                // Attribution: the time between reaching the arbitration
                // point (Phase-3 `now`) and acquiring the resource is the
                // contention charged to this resource. Measured from
                // values already in hand — no extra kernel calls, so the
                // simulated schedule is bit-identical either way.
                if inner.settings.attribution {
                    let waited = resumed.saturating_sub(now);
                    if !waited.is_zero() {
                        let idx = resource.index();
                        inner.contention_total[idx] += waited;
                        inner.arbitration_waits[idx] += 1;
                        if let Some(rec) = inner.procs.get_mut(&pid) {
                            rec.resource_wait += waited;
                            rec.resource_waits += 1;
                        }
                    }
                }
            }
            if !total.is_zero() {
                ctx.wait(total);
            }
        }
        (Mode::StrictTimed, ResourceKind::Environment) => unreachable!(),
    }
    total
}
