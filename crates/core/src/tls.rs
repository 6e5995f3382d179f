//! Per-process estimation context.
//!
//! The paper's library works by *implicitly* intercepting every overloaded
//! operator executed by the running process. The kernel runs every
//! process as a coroutine on the thread that calls `Simulator::run`, so a
//! thread-local is the running process's state only if it follows the
//! process across switches. [`crate::PerfModel::spawn`] installs the
//! process's context before the body runs, the annotated [`crate::G`]
//! types charge into it, and the channel wrappers drain it at every
//! segment boundary. The kernel keeps one word per process that it saves
//! and restores around every dispatch (`scperf_kernel::process_slot`),
//! and calls a hook with it at each switch: the context lives behind
//! that word, and the hook swaps the process's fast slots in and out of
//! the thread-local [`FAST`]. A body that suspends in the middle of a
//! segment (a raw `ctx.wait`) therefore keeps its accumulators.
//!
//! # The two-tier layout
//!
//! Charging is the most-executed code in the whole system (§3: *every*
//! elementary operation charges), so the context is split in two:
//!
//! * [`FastSlots`] — a flat thread-local of [`Cell`]s holding exactly the
//!   state mutated per operation: a one-byte state discriminant, the
//!   running accumulators (`acc`, `max_ready`), the dense cost table
//!   (pre-ceiled for parallel resources) and the per-op counters.
//!   [`charge`] reads the discriminant once and performs branch-predictable
//!   arithmetic on the cells — no `RefCell` borrow, no `Option` unwrap,
//!   no pointer chase. Outside an analyzed process the discriminant is
//!   [`S_ABSENT`] and the whole call is a single flag test.
//! * [`ThreadCtx`] — the full context behind a `RefCell`, touched only
//!   at segment boundaries (`take_segment`), when a memoizing twin
//!   region looks up, records or verifies its cost program, and by DFG
//!   recording.
//!
//! `install` seeds the fast slots from the `ThreadCtx`; `take_segment`
//! drains them at every segment boundary; `uninstall` restores what the
//! thread-local held before `install`.
//!
//! The alternative, keeping the fast slots behind the process word and
//! chasing that pointer on every charge, was measured slower on annotated
//! workloads: a store through the pointer may alias the word itself, so
//! the compiler reloads everything per operation.

use std::cell::{Cell, RefCell};
use std::ptr;
use std::rc::Rc;
use std::sync::Arc;

use crate::cost::{CostTable, Op, OpCounts, OP_COUNT};
use crate::estimator::EstInner;
use crate::hw::{Dfg, DfgNode, NO_NODE};
use crate::prog::ProgStore;
use crate::resource::{ResourceId, ResourceKind};
use crate::site::MemoMode;

/// Fast-slot state: no context installed — charging is a no-op.
pub(crate) const S_ABSENT: u8 = 0;
/// Fast-slot state: context installed but charging is disabled
/// (environment resource or trace replay).
pub(crate) const S_PASSIVE: u8 = 1;
/// Fast-slot state: live sequential charging (`acc += cost`).
pub(crate) const S_SEQ: u8 = 2;
/// Fast-slot state: live parallel charging (ceiled latency, ready times).
pub(crate) const S_PAR: u8 = 3;
/// Fast-slot state: parallel charging with DFG recording (outlined path —
/// the node push needs the `RefCell` context).
pub(crate) const S_PAR_DFG: u8 = 4;

/// Effective memo mode: off (mirrors `MemoMode::Off as u8`).
pub(crate) const MEMO_OFF: u8 = MemoMode::Off as u8;
/// Effective memo mode: replay recorded deltas.
pub(crate) const MEMO_REPLAY: u8 = MemoMode::Replay as u8;

/// The flat per-op fast path: every field a [`Cell`], mutated without any
/// `RefCell` borrow. [`FAST`] holds the running process's; each switched-
/// out process parks its own beside its [`ThreadCtx`].
pub(crate) struct FastSlots {
    /// One of the `S_*` discriminants.
    pub(crate) state: Cell<u8>,
    /// Effective site-memoization mode (a `MemoMode` as `u8`); `0` = off.
    pub(crate) memo: Cell<u8>,
    /// Bumped at every segment boundary; a recording twin region uses it
    /// to detect a boundary firing inside the region.
    pub(crate) seg_gen: Cell<u32>,
    /// Sequential: accumulated fractional cycles. Parallel: accumulated
    /// single-ALU cycles (`T_max`).
    pub(crate) acc: Cell<f64>,
    /// Parallel: critical-path frontier (`T_min`).
    pub(crate) max_ready: Cell<f64>,
    /// Dense cost snapshot; pre-ceiled (`ceil().max(0.0)`) for parallel
    /// states so the hot path does no rounding.
    pub(crate) costs: [Cell<f64>; OP_COUNT],
    /// Per-op execution counters for the running segment.
    pub(crate) counts: [Cell<u64>; OP_COUNT],
    /// Twin regions satisfied from (or verified against) a compiled
    /// program this segment.
    pub(crate) site_hits: Cell<u64>,
    /// Twin regions that recorded a program (first execution) this
    /// segment.
    pub(crate) site_misses: Cell<u64>,
}

impl FastSlots {
    const fn new() -> FastSlots {
        FastSlots {
            state: Cell::new(S_ABSENT),
            memo: Cell::new(0),
            seg_gen: Cell::new(0),
            acc: Cell::new(0.0),
            max_ready: Cell::new(0.0),
            costs: [const { Cell::new(0.0) }; OP_COUNT],
            counts: [const { Cell::new(0) }; OP_COUNT],
            site_hits: Cell::new(0),
            site_misses: Cell::new(0),
        }
    }

    /// Exchanges every slot with `other`'s.
    fn swap(&self, other: &FastSlots) {
        self.state.swap(&other.state);
        self.memo.swap(&other.memo);
        self.seg_gen.swap(&other.seg_gen);
        self.acc.swap(&other.acc);
        self.max_ready.swap(&other.max_ready);
        for (a, b) in self.costs.iter().zip(&other.costs) {
            a.swap(b);
        }
        for (a, b) in self.counts.iter().zip(&other.counts) {
            a.swap(b);
        }
        self.site_hits.swap(&other.site_hits);
        self.site_misses.swap(&other.site_misses);
    }
}

thread_local! {
    pub(crate) static FAST: FastSlots = const { FastSlots::new() };
}

/// One process's context, behind the kernel's process slot from
/// `install` to `uninstall`. While the process runs, `parked` holds what
/// [`FAST`] held before; while it is switched out, `parked` holds the
/// process's own fast slots.
struct Slots {
    parked: FastSlots,
    ctx: RefCell<ThreadCtx>,
}

/// The kernel's switch hook: swaps the process's parked fast slots with
/// the thread's, on the way in and on the way out.
fn swap_parked(slot: *mut ()) {
    // SAFETY: the kernel passes a non-null process slot, which `install`
    // set to a live `Slots` block.
    let slots = unsafe { &*slot.cast::<Slots>() };
    FAST.with(|f| f.swap(&slots.parked));
}

/// The running process's slots; `None` outside an analyzed process.
#[inline]
fn slots<'a>() -> Option<&'a Slots> {
    // SAFETY: the slot holds null or the block `install` leaked, which
    // stays valid until `uninstall` clears the slot. Callers use the
    // reference only within one call that does not uninstall.
    unsafe { scperf_kernel::process_slot().cast::<Slots>().as_ref() }
}

/// Cursor over a previously recorded per-segment cycle trace.
///
/// When installed, the process is in *replay* mode: operator charging is
/// a no-op and every segment boundary pops the next recorded cycle count
/// instead of recomputing it. Sound whenever the process's charging is
/// deterministic in (code, input data, cost table) — which the
/// single-source methodology guarantees for data-independent workloads —
/// because the popped value is bit-identical to what live estimation
/// would produce.
pub(crate) struct ReplayCursor {
    /// Recorded cycle counts, one per `end_segment` in execution order.
    pub(crate) trace: Arc<Vec<f64>>,
    /// Per-segment op counts and HW extremes, parallel to `trace`;
    /// `None` for bare cycle vectors (timing-only replay).
    pub(crate) detail: Option<Arc<Vec<crate::recorder::SegDetail>>>,
    /// Index of the next segment to replay.
    pub(crate) next: usize,
}

/// The running segment's accumulated state for one process.
pub(crate) struct ThreadCtx {
    pub(crate) est: Rc<RefCell<EstInner>>,
    pub(crate) pid: usize,
    pub(crate) resource: ResourceId,
    pub(crate) kind: ResourceKind,
    /// Snapshot of the resource's cost table (dense, for fast access).
    pub(crate) costs: [f64; OP_COUNT],
    pub(crate) k: f64,
    pub(crate) rtos_cycles: f64,
    /// Optional full dataflow-graph recording (for HLS export).
    pub(crate) dfg: Option<Dfg>,
    /// Node at which the current segment started.
    pub(crate) current_node: u32,
    /// Replay mode: pop recorded segment costs instead of charging.
    pub(crate) replay: Option<ReplayCursor>,
    /// Requested site-memoization mode; the effective mode additionally
    /// requires a sequential resource, live estimation and an
    /// integer-valued cost table (see [`CostTable::is_integral`]).
    pub(crate) memo: MemoMode,
    /// Compiled cost programs for memoized regions, keyed by
    /// `(site id, caller key)`; they end with the process.
    pub(crate) progs: ProgStore,
    /// Recycled DFG node buffer (arena reuse across segments).
    pub(crate) dfg_spare: Vec<DfgNode>,
    /// Scratch finish-time buffer for sealing DFG critical paths.
    pub(crate) cp_scratch: Vec<u64>,
}

/// Everything one finished segment drained out of the fast slots.
pub(crate) struct SegmentTake {
    /// Accumulated cycles (sequential) / single-ALU cycles (parallel).
    pub(crate) acc: f64,
    /// Critical-path frontier (parallel).
    pub(crate) max_ready: f64,
    /// Per-op counts.
    pub(crate) counts: OpCounts,
    /// The sealed DFG, when recording was on.
    pub(crate) dfg: Option<Dfg>,
    /// Site-memo cache hits this segment.
    pub(crate) site_hits: u64,
    /// Site-memo cache misses (recordings) this segment.
    pub(crate) site_misses: u64,
    /// 1 when this segment's DFG node buffer was recycled from the arena.
    pub(crate) arena_reuse: u64,
}

/// Installs the context for the running process and arms its fast slots.
pub(crate) fn install(ctx: ThreadCtx) {
    let state = if ctx.replay.is_some() || ctx.kind == ResourceKind::Environment {
        S_PASSIVE
    } else {
        match ctx.kind {
            ResourceKind::Sequential => S_SEQ,
            ResourceKind::Parallel => {
                if ctx.dfg.is_some() {
                    S_PAR_DFG
                } else {
                    S_PAR
                }
            }
            ResourceKind::Environment => unreachable!(),
        }
    };
    // Memoized delta replay is bit-exact only when every cost is an
    // integer-valued f64 (all partial sums are then exact); otherwise the
    // twin regions silently run their annotated instantiation live.
    let memo = if state == S_SEQ && integral(&ctx.costs) {
        ctx.memo as u8
    } else {
        MemoMode::Off as u8
    };
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| scperf_kernel::set_switch_hook(swap_parked));
    debug_assert!(
        scperf_kernel::process_slot().is_null(),
        "estimation context installed twice"
    );
    let parked = FastSlots::new();
    FAST.with(|f| {
        f.swap(&parked);
        let par = matches!(state, S_PAR | S_PAR_DFG);
        for i in 0..OP_COUNT {
            let c = ctx.costs[i];
            f.costs[i].set(if par { c.ceil().max(0.0) } else { c });
        }
        f.memo.set(memo);
        f.state.set(state);
    });
    let slots = Box::new(Slots {
        parked,
        ctx: RefCell::new(ctx),
    });
    // SAFETY: the slot's readers (`slots`, `swap_parked`, `uninstall`)
    // expect this block, which lives until `uninstall` frees it.
    unsafe { scperf_kernel::set_process_slot(Box::into_raw(slots).cast()) };
}

fn integral(costs: &[f64; OP_COUNT]) -> bool {
    costs.iter().all(|c| c.is_finite() && c.fract() == 0.0)
}

/// Removes the running process's context (at process-body exit) and
/// restores the fast slots `install` parked. Charges after the last
/// segment boundary are discarded.
pub(crate) fn uninstall() -> Option<ThreadCtx> {
    let p = scperf_kernel::process_slot().cast::<Slots>();
    if p.is_null() {
        return None;
    }
    // SAFETY: null is always a valid slot value. `p` came from
    // `Box::into_raw` in `install`; with the slot cleared this is its
    // only owner.
    let slots = unsafe {
        scperf_kernel::set_process_slot(ptr::null_mut());
        Box::from_raw(p)
    };
    FAST.with(|f| f.swap(&slots.parked));
    Some(slots.ctx.into_inner())
}

/// Uninstalls the running process's context when dropped, so a body
/// that unwinds (a panic, or the kernel's teardown) frees it too.
pub(crate) struct UninstallOnDrop;

impl Drop for UninstallOnDrop {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Runs `f` with the installed context, if any. Returns `None` when the
/// caller is not an analyzed process (plain kernel processes, unit
/// tests, environment code outside `PerfModel::spawn`).
#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> Option<R> {
    slots().map(|s| f(&mut s.ctx.borrow_mut()))
}

/// Charges one operation with up to two data dependences through the flat
/// fast path, returning the `(ready_time, dfg_node)` of the produced
/// value.
///
/// * Sequential resources accumulate the raw fractional cost (§3: "total
///   time is obtained by adding the partial times").
/// * Parallel resources add the pre-ceiled latency (§3: "a multiple of
///   the clock period") and track both the dataflow critical path
///   (`T_min`) and the single-ALU sum (`T_max`).
/// * Absent, environment and replaying contexts cost one flag test.
///
/// The test-only `reference` module spells the same arithmetic out per
/// operation; a property test holds the two bit-identical.
#[inline]
pub(crate) fn charge(op: Op, a_ready: f64, a_node: u32, b_ready: f64, b_node: u32) -> (f64, u32) {
    // One small closure per state keeps every `with` inlinable at each
    // of the many call sites.
    let state = FAST.with(|f| f.state.get());
    if state <= S_PASSIVE {
        return (0.0, NO_NODE);
    }
    if state == S_SEQ {
        FAST.with(move |f| {
            let i = op.index();
            f.acc.set(f.acc.get() + f.costs[i].get());
            f.counts[i].set(f.counts[i].get() + 1);
        });
        return (0.0, NO_NODE);
    }
    if state == S_PAR {
        return (
            FAST.with(move |f| charge_par(f, op, a_ready, b_ready)),
            NO_NODE,
        );
    }
    FAST.with(move |f| charge_dfg(f, op, a_ready, a_node, b_ready, b_node))
}

/// Parallel-resource arithmetic shared by the [`S_PAR`] and [`S_PAR_DFG`]
/// states. `costs` holds pre-ceiled latencies.
#[inline]
fn charge_par(f: &FastSlots, op: Op, a_ready: f64, b_ready: f64) -> f64 {
    let i = op.index();
    let lat = f.costs[i].get();
    let start = a_ready.max(b_ready);
    let ready = start + lat;
    f.acc.set(f.acc.get() + lat);
    if ready > f.max_ready.get() {
        f.max_ready.set(ready);
    }
    f.counts[i].set(f.counts[i].get() + 1);
    ready
}

/// Outlined [`S_PAR_DFG`] state: parallel arithmetic plus the DFG node
/// push, which needs the `RefCell` context.
#[cold]
#[inline(never)]
fn charge_dfg(
    f: &FastSlots,
    op: Op,
    a_ready: f64,
    a_node: u32,
    b_ready: f64,
    b_node: u32,
) -> (f64, u32) {
    let ready = charge_par(f, op, a_ready, b_ready);
    let lat = f.costs[op.index()].get() as u64;
    let node = with(|c| match c.dfg.as_mut() {
        Some(dfg) => dfg.push(op, lat, a_node, b_node),
        None => NO_NODE,
    })
    .unwrap_or(NO_NODE);
    (ready, node)
}

impl ThreadCtx {
    /// Replay mode: pops the next recorded segment cost, or `None` when
    /// the context estimates live.
    ///
    /// # Panics
    ///
    /// Panics when the recorded trace is exhausted — the replayed process
    /// executed more segments than the recording, i.e. the cached trace
    /// belongs to a different workload configuration (stale cache key).
    pub(crate) fn pop_replay(&mut self) -> Option<(f64, Option<crate::recorder::SegDetail>)> {
        let cursor = self.replay.as_mut()?;
        let v = cursor.trace.get(cursor.next).copied().unwrap_or_else(|| {
            panic!(
                "segment replay trace exhausted after {} segments: \
                 the recorded trace does not match this process \
                 (stale or mismatched segment-cost cache entry)",
                cursor.next
            )
        });
        let detail = cursor
            .detail
            .as_ref()
            .and_then(|d| d.get(cursor.next).copied());
        cursor.next += 1;
        Some((v, detail))
    }

    /// Drains the finished segment out of the fast slots, resets them
    /// for the next segment, seals the recorded DFG (caching its
    /// critical-path/sequential times) and hands the next segment a
    /// recycled node buffer from the arena.
    pub(crate) fn take_segment(&mut self) -> SegmentTake {
        let mut counts = OpCounts::new();
        let (acc, max_ready, site_hits, site_misses) = FAST.with(|f| {
            for (i, c) in f.counts.iter().enumerate() {
                counts.add_index(i, c.replace(0));
            }
            f.seg_gen.set(f.seg_gen.get().wrapping_add(1));
            (
                f.acc.replace(0.0),
                f.max_ready.replace(0.0),
                f.site_hits.replace(0),
                f.site_misses.replace(0),
            )
        });
        let mut arena_reuse = 0;
        let dfg = match self.dfg.as_mut() {
            Some(d) => {
                let spare = std::mem::take(&mut self.dfg_spare);
                if spare.capacity() > 0 {
                    arena_reuse = 1;
                }
                let mut taken = std::mem::replace(d, Dfg::from_buffer(spare));
                taken.seal(&mut self.cp_scratch);
                Some(taken)
            }
            None => None,
        };
        SegmentTake {
            acc,
            max_ready,
            counts,
            dfg,
            site_hits,
            site_misses,
            arena_reuse,
        }
    }
}

/// Returns a no-longer-needed DFG's node buffer to the installed
/// context's arena, to be reused by an upcoming segment. No-op outside
/// an analyzed process or for zero-capacity buffers.
pub(crate) fn recycle_dfg(dfg: Dfg) {
    let buf = dfg.into_buffer();
    if buf.capacity() == 0 {
        return;
    }
    let _ = with(|c| {
        if c.dfg_spare.capacity() < buf.capacity() {
            c.dfg_spare = buf;
        }
    });
}

/// Charges a standalone operation with no tracked operands (used by the
/// control-flow macros). Public because the `g_if!`/`g_while!`/`g_call!`
/// macros expand to calls to it; not intended for direct use.
#[doc(hidden)]
#[inline]
pub fn charge_op(op: Op) {
    let _ = charge(op, 0.0, NO_NODE, 0.0, NO_NODE);
}

/// Charges a conditional-branch evaluation (`if` / loop condition).
#[inline]
pub fn charge_branch() {
    charge_op(Op::Branch);
}

/// Charges a function-call overhead.
#[inline]
pub fn charge_call() {
    charge_op(Op::Call);
}

/// Builds a snapshot of the table as a dense array.
pub(crate) fn dense_costs(table: &CostTable) -> [f64; OP_COUNT] {
    *table.as_dense()
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers letting unit tests exercise charging without a simulator.
    use super::*;
    use crate::resource::Platform;
    use scperf_kernel::Time;

    /// A context bound to a throwaway estimator, not yet installed.
    pub(crate) fn test_ctx(
        kind: ResourceKind,
        table: &CostTable,
        record_dfg: bool,
        memo: MemoMode,
    ) -> ThreadCtx {
        let mut platform = Platform::new();
        let resource = match kind {
            ResourceKind::Sequential => {
                platform.sequential("cpu", Time::ns(10), table.clone(), 0.0)
            }
            ResourceKind::Parallel => platform.parallel("hw", Time::ns(10), table.clone(), 0.0),
            ResourceKind::Environment => platform.environment("env"),
        };
        ThreadCtx {
            est: Rc::new(RefCell::new(EstInner::new(
                platform,
                crate::Mode::EstimateOnly,
            ))),
            pid: 0,
            resource,
            kind,
            costs: dense_costs(table),
            k: 0.0,
            rtos_cycles: 0.0,
            dfg: record_dfg.then(Dfg::default),
            current_node: 0,
            replay: None,
            memo,
            progs: ProgStore::default(),
            dfg_spare: Vec::new(),
            cp_scratch: Vec::new(),
        }
    }

    /// What a test run leaves behind: the segment charged after the last
    /// in-run `take_segment`, plus the context's program store.
    pub(crate) struct TestRun {
        pub(crate) acc: f64,
        pub(crate) max_ready: f64,
        pub(crate) counts: OpCounts,
        pub(crate) dfg: Option<Dfg>,
        pub(crate) site_hits: u64,
        pub(crate) site_misses: u64,
        pub(crate) progs: ProgStore,
    }

    /// Installs a [`test_ctx`], runs `f` and returns what it charged.
    pub(crate) fn with_test_ctx(
        kind: ResourceKind,
        table: CostTable,
        record_dfg: bool,
        f: impl FnOnce(),
    ) -> TestRun {
        with_test_ctx_memo(kind, table, record_dfg, MemoMode::Off, f)
    }

    /// [`with_test_ctx`] with an explicit memo mode.
    pub(crate) fn with_test_ctx_memo(
        kind: ResourceKind,
        table: CostTable,
        record_dfg: bool,
        memo: MemoMode,
        f: impl FnOnce(),
    ) -> TestRun {
        install(test_ctx(kind, &table, record_dfg, memo));
        f();
        let take = with(ThreadCtx::take_segment).expect("context present");
        let ctx = uninstall().expect("context present");
        TestRun {
            acc: take.acc,
            max_ready: take.max_ready,
            counts: take.counts,
            dfg: take.dfg,
            site_hits: take.site_hits,
            site_misses: take.site_misses,
            progs: ctx.progs,
        }
    }
}

#[cfg(test)]
mod reference {
    //! The per-operation charging arithmetic of §3, spelled out one
    //! operation at a time with no fast slots and no pre-ceiled table:
    //! the oracle the fast path is property-tested against.
    use crate::cost::{Op, OP_COUNT};
    use crate::resource::ResourceKind;

    /// What one segment accumulates.
    #[derive(Debug, Default)]
    pub(super) struct Totals {
        /// Sequential: raw sum of the (fractional) costs. Parallel: sum of
        /// the ceiled latencies — the single-ALU time `T_max`.
        pub(super) acc: f64,
        /// Parallel: the dataflow critical path `T_min`.
        pub(super) max_ready: f64,
        pub(super) counts: [u64; OP_COUNT],
    }

    impl Totals {
        /// Charges `op` whose operands become ready at `a_ready` and
        /// `b_ready`; returns the time its result is ready.
        pub(super) fn charge(
            &mut self,
            kind: ResourceKind,
            costs: &[f64; OP_COUNT],
            op: Op,
            a_ready: f64,
            b_ready: f64,
        ) -> f64 {
            let cost = costs[op.index()];
            match kind {
                ResourceKind::Environment => 0.0,
                ResourceKind::Sequential => {
                    self.counts[op.index()] += 1;
                    self.acc += cost;
                    0.0
                }
                ResourceKind::Parallel => {
                    self.counts[op.index()] += 1;
                    // A hardware operation takes a whole number of clock
                    // cycles and starts when both operands are ready.
                    let latency = cost.ceil().max(0.0);
                    let ready = a_ready.max(b_ready) + latency;
                    self.acc += latency;
                    if ready > self.max_ready {
                        self.max_ready = ready;
                    }
                    ready
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{test_ctx, with_test_ctx};
    use super::*;
    use crate::cost::ALL_OPS;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn sequential_charging_accumulates_raw_costs() {
        let table = CostTable::from_pairs([(Op::Add, 1.5), (Op::Mul, 3.0)]);
        let ctx = with_test_ctx(ResourceKind::Sequential, table, false, || {
            charge_op(Op::Add);
            charge_op(Op::Add);
            charge_op(Op::Mul);
        });
        assert_eq!(ctx.acc, 6.0);
        assert_eq!(ctx.counts.get(Op::Add), 2);
        assert_eq!(ctx.max_ready, 0.0);
    }

    #[test]
    fn parallel_charging_rounds_to_cycles() {
        let table = CostTable::from_pairs([(Op::Branch, 2.4)]);
        let ctx = with_test_ctx(ResourceKind::Parallel, table, false, || {
            charge_branch();
        });
        assert_eq!(ctx.acc, 3.0); // ceil(2.4)
        assert_eq!(ctx.max_ready, 3.0);
    }

    #[test]
    fn environment_charges_nothing() {
        let table = CostTable::risc_sw();
        let ctx = with_test_ctx(ResourceKind::Environment, table, false, || {
            charge_op(Op::Div);
        });
        assert_eq!(ctx.acc, 0.0);
        assert_eq!(ctx.counts.total(), 0);
    }

    #[test]
    fn charging_without_context_is_a_noop() {
        // Must not panic outside an analyzed process.
        charge_op(Op::Add);
        charge_branch();
        charge_call();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fast path reproduces the reference arithmetic bit for bit:
        /// random quarter-cycle cost tables, random op streams whose
        /// operands come from earlier results, both resource kinds and,
        /// for hardware, with and without DFG recording.
        #[test]
        fn fast_path_matches_reference_bit_for_bit(
            quarters in vec(0_u32..=64, OP_COUNT..=OP_COUNT),
            stream in vec((0_usize..OP_COUNT, 0_usize..64, 0_usize..64), 0..200),
            parallel in any::<bool>(),
            record_dfg in any::<bool>(),
        ) {
            let kind = if parallel {
                ResourceKind::Parallel
            } else {
                ResourceKind::Sequential
            };
            let table = CostTable::from_pairs(
                ALL_OPS.iter().zip(&quarters).map(|(&op, &q)| (op, f64::from(q) / 4.0)),
            );
            let costs = dense_costs(&table);
            // Operand source 0 is a constant (ready at 0); n > 0 names the
            // result of an earlier operation in the stream.
            let operand = |results: &[(f64, u32)], src: usize| match src {
                0 => (0.0, NO_NODE),
                _ if results.is_empty() => (0.0, NO_NODE),
                n => results[(n - 1) % results.len()],
            };
            let mut oracle = reference::Totals::default();
            let mut oracle_results: Vec<(f64, u32)> = Vec::new();
            for &(op, a, b) in &stream {
                let (a_ready, _) = operand(&oracle_results, a);
                let (b_ready, _) = operand(&oracle_results, b);
                let ready = oracle.charge(kind, &costs, ALL_OPS[op], a_ready, b_ready);
                oracle_results.push((ready, NO_NODE));
            }
            let take = with_test_ctx(kind, table, parallel && record_dfg, || {
                let mut results: Vec<(f64, u32)> = Vec::new();
                for &(op, a, b) in &stream {
                    let (a_ready, a_node) = operand(&results, a);
                    let (b_ready, b_node) = operand(&results, b);
                    results.push(charge(ALL_OPS[op], a_ready, a_node, b_ready, b_node));
                }
            });
            prop_assert_eq!(take.acc.to_bits(), oracle.acc.to_bits());
            prop_assert_eq!(take.max_ready.to_bits(), oracle.max_ready.to_bits());
            prop_assert_eq!(take.counts.as_dense(), &oracle.counts);
        }
    }

    #[test]
    fn replaying_context_ignores_charges_and_pops_trace() {
        let table = CostTable::from_pairs([(Op::Add, 2.0)]);
        let mut ctx = test_ctx(ResourceKind::Sequential, &table, false, MemoMode::Off);
        ctx.replay = Some(ReplayCursor {
            trace: Arc::new(vec![7.5, 3.25]),
            detail: None,
            next: 0,
        });
        install(ctx);
        assert_eq!(charge(Op::Add, 0.0, NO_NODE, 0.0, NO_NODE), (0.0, NO_NODE));
        let (take, popped) =
            with(|c| (c.take_segment(), [c.pop_replay(), c.pop_replay()])).expect("installed");
        uninstall();
        assert_eq!(take.acc, 0.0, "replay must not accumulate");
        assert_eq!(take.counts.total(), 0);
        assert_eq!(popped, [Some((7.5, None)), Some((3.25, None))]);
    }

    #[test]
    fn live_context_does_not_pop() {
        let table = CostTable::from_pairs([(Op::Add, 2.0)]);
        let mut ctx = test_ctx(ResourceKind::Sequential, &table, false, MemoMode::Off);
        assert_eq!(ctx.pop_replay(), None);
    }

    #[test]
    fn take_segment_resets_state() {
        let table = CostTable::from_pairs([(Op::Add, 2.0)]);
        let rest = with_test_ctx(ResourceKind::Sequential, table, false, || {
            charge_op(Op::Add);
            let take = with(ThreadCtx::take_segment).expect("installed");
            assert_eq!(take.acc, 2.0);
            assert_eq!(take.counts.get(Op::Add), 1);
            // Slots were reset: a new segment starts from zero.
            charge_op(Op::Add);
            charge_op(Op::Add);
            let take = with(ThreadCtx::take_segment).expect("installed");
            assert_eq!(take.acc, 4.0);
            assert_eq!(take.counts.get(Op::Add), 2);
        });
        assert_eq!(rest.acc, 0.0);
        assert_eq!(rest.counts.total(), 0);
    }
}
