//! Per-process estimation context.
//!
//! The paper's library works by *implicitly* intercepting every overloaded
//! operator executed by the running process. Because this kernel runs each
//! simulated process on its own OS thread, a `thread_local!` slot is the
//! exact analogue: [`crate::PerfModel::spawn`] installs the context before
//! the process body runs, the annotated [`crate::G`] types charge into it,
//! and the channel wrappers drain it at every segment boundary.
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
//!   arithmetic on the cells — no `RefCell` borrow, no `Option` unwrap.
//!   On an un-instrumented thread the discriminant is [`S_ABSENT`] and the
//!   whole call is a single flag test.
//! * [`ThreadCtx`] — the full context behind a `RefCell<Option<…>>`,
//!   touched only at segment boundaries (`take_segment`), at site-memo
//!   region edges, and by DFG recording.
//!
//! `install` seeds the fast slots from the `ThreadCtx`; `take_segment`
//! drains them at every segment boundary; `uninstall` disarms them.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::cost::{CostTable, Op, OpCounts, OP_COUNT};
use crate::estimator::EstimatorShared;
use crate::hw::{Dfg, DfgNode, NO_NODE};
use crate::prog::{fingerprint_costs, ProgStore, RecEvent};
use crate::resource::{ResourceId, ResourceKind};
use crate::site::MemoMode;

/// Fast-slot state: no context installed — charging is a no-op.
pub(crate) const S_ABSENT: u8 = 0;
/// Fast-slot state: context installed but charging is disabled
/// (environment resource, trace replay, or inside a replayed site region).
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
/// Effective memo mode: replay + live re-charge with bit-equality asserts.
pub(crate) const MEMO_VERIFY: u8 = MemoMode::Verify as u8;

/// The flat per-op fast path: every field a [`Cell`], mutated without any
/// `RefCell` borrow. One instance per thread; meaningful only while a
/// [`ThreadCtx`] is installed.
pub(crate) struct FastSlots {
    /// One of the `S_*` discriminants.
    pub(crate) state: Cell<u8>,
    /// Effective site-memoization mode (a `MemoMode` as `u8`); `0` = off.
    pub(crate) memo: Cell<u8>,
    /// Bumped at every segment boundary; site regions use it to detect a
    /// boundary firing inside the region.
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
    /// Site-memo regions satisfied from the cache this segment.
    pub(crate) site_hits: Cell<u64>,
    /// Site-memo regions recorded (first execution) this segment.
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
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
    pub(crate) static FAST: FastSlots = const { FastSlots::new() };
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

/// The running segment's accumulated state for one process thread.
pub(crate) struct ThreadCtx {
    pub(crate) est: Arc<EstimatorShared>,
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
    /// `(site id, caller key)`, plus the optional warm set shared across
    /// processes/sessions.
    pub(crate) progs: ProgStore,
    /// Nested-region events logged while an enclosing site records
    /// (drained by the recording guard's drop).
    pub(crate) rec_events: Vec<RecEvent>,
    /// Number of site regions currently recording on this thread.
    pub(crate) rec_depth: u32,
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

/// Installs the context for this process thread and arms the fast slots.
pub(crate) fn install(mut ctx: ThreadCtx) {
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
    // site regions silently stay live.
    let memo = if state == S_SEQ && integral(&ctx.costs) {
        ctx.memo as u8
    } else {
        MemoMode::Off as u8
    };
    // A warm program set recorded under a different cost table must not
    // replay: drop it (counted in `est.prog.rejects`) so every region
    // records afresh against the installed table.
    if let Some(warm) = ctx.progs.warm.as_ref() {
        if memo == MEMO_OFF || warm.table_fp() != fingerprint_costs(&ctx.costs) {
            ctx.progs.warm = None;
            ctx.progs.rejects += 1;
        }
    }
    FAST.with(|f| {
        debug_assert_eq!(
            f.state.get(),
            S_ABSENT,
            "estimation context installed twice"
        );
        let par = matches!(state, S_PAR | S_PAR_DFG);
        for i in 0..OP_COUNT {
            let c = ctx.costs[i];
            f.costs[i].set(if par { c.ceil().max(0.0) } else { c });
            f.counts[i].set(0);
        }
        f.acc.set(0.0);
        f.max_ready.set(0.0);
        f.site_hits.set(0);
        f.site_misses.set(0);
        f.memo.set(memo);
        f.state.set(state);
    });
    CTX.with(|slot| {
        let mut slot = slot.borrow_mut();
        debug_assert!(slot.is_none(), "estimation context installed twice");
        *slot = Some(ctx);
    });
}

fn integral(costs: &[f64; OP_COUNT]) -> bool {
    costs.iter().all(|c| c.is_finite() && c.fract() == 0.0)
}

/// Removes the context (at process-body exit) and disarms the fast
/// slots; `install` re-seeds them. Charges after the last segment
/// boundary are discarded.
pub(crate) fn uninstall() -> Option<ThreadCtx> {
    let ctx = CTX.with(|slot| slot.borrow_mut().take())?;
    FAST.with(|f| {
        f.memo.set(MemoMode::Off as u8);
        f.state.set(S_ABSENT);
    });
    Some(ctx)
}

/// Runs `f` with the installed context, if any. Returns `None` when the
/// calling thread is not an analyzed process (plain kernel processes,
/// unit tests, environment code outside `PerfModel::spawn`).
#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> Option<R> {
    CTX.with(|slot| slot.borrow_mut().as_mut().map(f))
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
    FAST.with(|f| {
        let state = f.state.get();
        if state <= S_PASSIVE {
            return (0.0, NO_NODE);
        }
        if state == S_SEQ {
            let i = op.index();
            f.acc.set(f.acc.get() + f.costs[i].get());
            f.counts[i].set(f.counts[i].get() + 1);
            return (0.0, NO_NODE);
        }
        if state == S_PAR {
            return (charge_par(f, op, a_ready, b_ready), NO_NODE);
        }
        charge_dfg(f, op, a_ready, a_node, b_ready, b_node)
    })
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
/// context's arena, to be reused by an upcoming segment. No-op on
/// un-instrumented threads or for zero-capacity buffers.
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
            est: EstimatorShared::new(platform, crate::Mode::EstimateOnly),
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
            progs: ProgStore::new(),
            rec_events: Vec::new(),
            rec_depth: 0,
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
        // Must not panic on an un-instrumented thread.
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
