//! Property tests for the estimator hot path: the flat-TLS fast path,
//! segment-site memoization and verify mode are bit-identical to live
//! estimation across random integral cost tables, hardware `k` values
//! and both resource kinds; fractional tables never replay; and
//! data-dependent keys miss separately.

use std::collections::HashSet;

use proptest::collection::vec;
use proptest::prelude::*;
use scperf_core::{
    g_if, g_loop, g_site, timed_wait, CostTable, EstHotStats, MemoMode, Platform, Report,
    ResourceKind, SimConfig, ALL_OPS, G, OP_COUNT,
};
use scperf_kernel::Time;

/// Builds a cost table from one drawn cost per op (integral when every
/// entry is a whole number).
fn table_from(costs: &[u32], fractional_op: Option<usize>) -> CostTable {
    CostTable::from_pairs(ALL_OPS.iter().enumerate().map(|(i, &op)| {
        let mut c = costs[i] as f64;
        if fractional_op == Some(i) {
            c += 0.5;
        }
        (op, c)
    }))
}

/// Runs one session: a single process executing `segments` copies of a
/// straight-line `g_loop!` region separated by timed waits. Returns the
/// report and the hot-path counters.
fn run_loops(
    kind: ResourceKind,
    table: CostTable,
    k: f64,
    memo: MemoMode,
    trips: usize,
    segments: usize,
) -> (Report, EstHotStats) {
    let mut platform = Platform::new();
    let r = match kind {
        ResourceKind::Sequential => platform.sequential("r0", Time::ns(10), table, 25.0),
        ResourceKind::Parallel => platform.parallel("r0", Time::ns(10), table, k),
        ResourceKind::Environment => unreachable!("not benchmarked"),
    };
    let mut session = SimConfig::new().platform(platform).site_memo(memo).build();
    session.spawn("w", r, move |ctx| {
        for _ in 0..segments {
            let mut acc = G::raw(0_i64);
            g_loop!(i in 0..trips => {
                acc.assign(acc + G::raw(i as i64) * G::raw(3));
            });
            std::hint::black_box(acc.get());
            timed_wait(ctx, Time::ns(50));
        }
    });
    session.run().expect("session runs");
    (session.report(), session.model().hot_stats())
}

/// Runs one session over `values`, charging through a site keyed by the
/// sign of each value, whose body branches on that same sign — correct
/// keyed memoization of data-dependent control flow.
fn run_keyed(memo: MemoMode, values: Vec<i32>) -> (Report, EstHotStats) {
    let mut platform = Platform::new();
    let r = platform.sequential("r0", Time::ns(10), CostTable::risc_sw(), 25.0);
    let mut session = SimConfig::new().platform(platform).site_memo(memo).build();
    session.spawn("w", r, move |_ctx| {
        let mut acc = G::raw(0_i32);
        for &v in &values {
            g_site!(((v >= 0) as u64) {
                let x = G::raw(v);
                g_if!((x >= 0) {
                    acc.assign(acc + x * G::raw(2));
                } else {
                    acc.assign(acc - x);
                });
            });
        }
        std::hint::black_box(acc.get());
    });
    session.run().expect("session runs");
    (session.report(), session.model().hot_stats())
}

/// Runs two processes contending for one sequential resource through a
/// FIFO, with attribution toggled. Returns the summary and report.
fn run_contended(
    attribution: bool,
    table: CostTable,
    trips: usize,
    frames: usize,
) -> (scperf_kernel::SimSummary, Report) {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", Time::ns(10), table, 25.0);
    let mut session = SimConfig::new()
        .platform(platform)
        .attribution(attribution)
        .build();
    let ch = session.fifo::<i64>("link", 2);
    let tx = ch.clone();
    session.spawn("prod", cpu, move |ctx| {
        for f in 0..frames {
            let mut acc = G::raw(0_i64);
            g_loop!(i in 0..trips => {
                acc.assign(acc + G::raw((f + i) as i64));
            });
            tx.write(ctx, acc.get());
        }
    });
    session.spawn("cons", cpu, move |ctx| {
        let mut sum = G::raw(0_i64);
        for _ in 0..frames {
            let v = ch.read(ctx);
            sum.assign(sum + G::raw(v));
        }
        std::hint::black_box(sum.get());
    });
    let summary = session.run().expect("session runs");
    (summary, session.report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Live, memoized and verify estimation agree bit-for-bit on random
    /// integral tables, both resource kinds and random k.
    #[test]
    fn all_charging_modes_agree_on_integral_tables(
        costs in vec(0_u32..=15, OP_COUNT..=OP_COUNT),
        k100 in 0_u32..=100,
        trips in 1_usize..40,
        parallel in any::<bool>(),
    ) {
        let kind = if parallel {
            ResourceKind::Parallel
        } else {
            ResourceKind::Sequential
        };
        let table = table_from(&costs, None);
        let k = k100 as f64 / 100.0;
        let (live, live_hot) = run_loops(kind, table.clone(), k, MemoMode::Off, trips, 3);
        let (memoized, memo_hot) =
            run_loops(kind, table.clone(), k, MemoMode::Replay, trips, 3);
        let (verified, _) = run_loops(kind, table, k, MemoMode::Verify, trips, 3);
        prop_assert_eq!(&memoized, &live, "replay diverged from live");
        prop_assert_eq!(&verified, &live, "verify diverged from live");
        prop_assert_eq!(live_hot.site_hits, 0);
        if parallel {
            // Parallel resources never memoize (ceiled max/acc tracking
            // is not delta-replayable).
            prop_assert_eq!(memo_hot.site_hits, 0);
        } else {
            // `g_loop!` is one whole-loop region: 3 segment executions,
            // one recording miss on the first, the other two replay the
            // compiled program (the trip count is folded into the key,
            // and it is the same in every segment here).
            prop_assert_eq!(memo_hot.site_misses, 1);
            prop_assert_eq!(memo_hot.site_hits, 2);
        }
    }

    /// A single fractional cost disables replay for the whole table —
    /// float accumulation order must stay exactly the live order.
    #[test]
    fn fractional_tables_never_replay(
        costs in vec(0_u32..=15, OP_COUNT..=OP_COUNT),
        frac_op in 0_usize..OP_COUNT,
        trips in 1_usize..20,
    ) {
        let table = table_from(&costs, Some(frac_op));
        let (live, _) = run_loops(
            ResourceKind::Sequential, table.clone(), 0.0, MemoMode::Off, trips, 2,
        );
        let (memoized, hot) = run_loops(
            ResourceKind::Sequential, table, 0.0, MemoMode::Replay, trips, 2,
        );
        prop_assert_eq!(&memoized, &live);
        prop_assert_eq!(hot.site_hits, 0, "fractional table must stay live");
        prop_assert_eq!(hot.site_misses, 0);
    }

    /// Attribution accounting is measurement-only: a contended
    /// two-process model produces a bit-identical summary and report
    /// (modulo the utilization section itself) whether attribution is
    /// on or off, and the utilization section names the shared
    /// sequential resource with real contention.
    #[test]
    fn attribution_on_and_off_are_bit_identical(
        costs in vec(0_u32..=15, OP_COUNT..=OP_COUNT),
        trips in 1_usize..32,
        frames in 1_usize..8,
    ) {
        let table = table_from(&costs, None);
        let (s_on, r_on) = run_contended(true, table.clone(), trips, frames);
        let (s_off, r_off) = run_contended(false, table, trips, frames);
        prop_assert_eq!(s_on, s_off, "attribution changed the schedule");
        prop_assert!(r_off.utilization.is_none());
        let mut stripped = r_on.clone();
        stripped.utilization = None;
        prop_assert_eq!(&stripped, &r_off, "attribution changed the report");
        let u = r_on.utilization.expect("utilization section present");
        prop_assert_eq!(u.total_time, s_on.end_time);
        let bottleneck = u.bottleneck().expect("cpu0 is sequential");
        prop_assert_eq!(&bottleneck.name, "cpu0");
    }

    /// Data-dependent control flow, keyed correctly: each distinct key
    /// misses once, everything else hits, and the report still matches
    /// live estimation bit-for-bit.
    #[test]
    fn data_dependent_keys_miss_separately(values in vec(-100_i32..=100, 1..60)) {
        let distinct: HashSet<bool> = values.iter().map(|&v| v >= 0).collect();
        let (live, _) = run_keyed(MemoMode::Off, values.clone());
        let (memoized, hot) = run_keyed(MemoMode::Replay, values.clone());
        let (verified, _) = run_keyed(MemoMode::Verify, values.clone());
        prop_assert_eq!(&memoized, &live);
        prop_assert_eq!(&verified, &live);
        prop_assert_eq!(hot.site_misses, distinct.len() as u64);
        prop_assert_eq!(hot.site_hits, (values.len() - distinct.len()) as u64);
    }
}
