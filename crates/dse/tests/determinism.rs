//! Parallel-determinism properties of the sweep engine: worker count
//! and cache state must never change a single result bit.

use proptest::collection::vec;
use proptest::prelude::*;
use scperf_core::{CostTable, Report, SimConfig};
use scperf_dse::point::build_platform_with;
use scperf_dse::sweep::{elaborate_cached, evaluate, sweep, SweepConfig};
use scperf_dse::{all_mappings, pareto, pareto_naive, SegmentCostCache, Target};
use scperf_kernel::{SimSummary, Time};

/// A platform tuple as drawn: clock in ps, RTOS overhead in tenths of a
/// cycle, HW `k` in hundredths.
type Tuple = (u64, u32, u32);

/// Runs `mapping` for `nframes` at platform tuple `t` in a fresh
/// session, through `cache` when given. Returns what a run must
/// reproduce bit for bit, and how many stages replayed a trace.
fn run_at(
    mapping: [Target; 5],
    nframes: usize,
    (clock_ps, rtos_tenths, k_pct): Tuple,
    cache: Option<&SegmentCostCache>,
) -> ((SimSummary, i32, Report), usize) {
    let (platform, ids) = build_platform_with(
        &CostTable::risc_sw(),
        Time::ps(clock_ps),
        f64::from(rtos_tenths) / 10.0,
        f64::from(k_pct) / 100.0,
    );
    let mut session = SimConfig::new().platform(platform).build();
    let run = elaborate_cached(&mut session, ids, mapping, nframes, cache);
    let summary = session.run().expect("mapping simulates");
    run.publish();
    let checksum = run.handles.output.lock().expect("sink finished");
    ((summary, checksum, session.report()), run.replayed_stages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random mapping subsets evaluated under jobs ∈ {1, 2, 8}, cache on
    /// and off, all produce identical point lists and Pareto frontiers.
    /// jobs = 1 without cache is the sequential oracle.
    #[test]
    fn sweep_is_deterministic_across_jobs_and_cache(
        picks in vec(0_usize..243, 6..=10),
    ) {
        let limit = *picks.iter().max().unwrap() + 1;
        let base = SweepConfig {
            table: CostTable::risc_sw(),
            nframes: 1,
            jobs: 1,
            kernel_jobs: 1,
            use_cache: false,
            limit: Some(limit.min(14)),
            ..SweepConfig::default()
        };
        let oracle = sweep(&base);
        for (jobs, use_cache) in [(2, true), (8, true), (2, false)] {
            let got = sweep(&SweepConfig { jobs, use_cache, ..base.clone() });
            prop_assert_eq!(&got.points, &oracle.points,
                "points differ at jobs={} cache={}", jobs, use_cache);
            prop_assert_eq!(&got.frontier, &oracle.frontier,
                "frontier differs at jobs={} cache={}", jobs, use_cache);
        }
    }

    /// Individual points: replayed-from-cache evaluation is bit-identical
    /// to live evaluation for arbitrary mappings.
    #[test]
    fn cached_points_are_bit_identical(indices in vec(0_usize..243, 3..=5)) {
        let mappings = all_mappings();
        let table = CostTable::risc_sw();
        let cache = SegmentCostCache::new();
        for &i in &indices {
            let live = evaluate(&table, mappings[i], 1, None);
            let first = evaluate(&table, mappings[i], 1, Some(&cache));
            let replayed = evaluate(&table, mappings[i], 1, Some(&cache));
            prop_assert_eq!(&first, &live);
            prop_assert_eq!(&replayed, &live);
        }
        let stats = cache.stats();
        prop_assert!(stats.hits > 0, "repeat evaluations must hit the cache");
    }

    /// The pruned Pareto sweep matches the naive O(n²) oracle on random
    /// synthetic point clouds.
    #[test]
    fn pareto_sweep_matches_naive_oracle(
        coords in vec((0_u64..12, 0_u32..6), 0..40),
    ) {
        let points: Vec<_> = coords
            .iter()
            .map(|&(lat, cost)| scperf_dse::DesignPoint {
                mapping: [Target::Cpu0; 5],
                latency: Time::ns(lat),
                cost: cost as f64 / 2.0,
                checksum: 0,
            })
            .collect();
        prop_assert_eq!(pareto(&points), pareto_naive(&points));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A trace is keyed by stage, resource kind, cost table and frame
    /// count only. Every such trace is first recorded at one drawn
    /// platform tuple; then random mappings, HW stages included, run at
    /// other drawn clocks, RTOS overheads and `k`. Each such cached run
    /// replays all five stages and equals the uncached live run at its
    /// own tuple bit for bit: summary, checksum and full report.
    #[test]
    fn traces_replay_bit_identically_under_any_platform_tuple(
        recorded in (1_000_u64..=50_000, 0_u32..=4_000, 0_u32..=100),
        scenarios in vec(
            (vec(0_usize..3, 5..=5), 1_usize..=2, (1_000_u64..=50_000, 0_u32..=4_000, 0_u32..=100)),
            2..=6,
        ),
    ) {
        let cache = SegmentCostCache::new();
        for nframes in 1..=2 {
            for target in [Target::Cpu0, Target::Hw] {
                let (_, replayed) = run_at([target; 5], nframes, recorded, Some(&cache));
                prop_assert_eq!(replayed, 0);
            }
        }
        for (picks, nframes, tuple) in scenarios {
            let mapping: [Target; 5] = std::array::from_fn(|i| Target::ALL[picks[i]]);
            let (cached, replayed) = run_at(mapping, nframes, tuple, Some(&cache));
            let (live, _) = run_at(mapping, nframes, tuple, None);
            prop_assert_eq!(replayed, 5, "{:?} at {:?}", mapping, tuple);
            prop_assert_eq!(&cached, &live, "{:?} x{} at {:?}", mapping, nframes, tuple);
        }
    }
}

/// The full 243-point sweep, parallel + cached vs sequential oracle.
/// Expensive in debug builds, so ignored by default; CI and the verify
/// harness run it release via `cargo test --release -- --ignored`.
#[test]
#[ignore = "full 243-point sweep; run with --release -- --ignored"]
fn full_sweep_matches_sequential_oracle() {
    let base = SweepConfig {
        table: CostTable::risc_sw(),
        nframes: 1,
        jobs: 1,
        use_cache: false,
        limit: None,
        ..SweepConfig::default()
    };
    let oracle = sweep(&base);
    assert_eq!(oracle.points.len(), 243);
    let parallel = sweep(&SweepConfig {
        jobs: 8,
        use_cache: true,
        ..base
    });
    assert_eq!(parallel.points, oracle.points);
    assert_eq!(parallel.frontier, oracle.frontier);
    let stats = parallel.cache.hit_rate();
    assert!(
        stats > 0.9,
        "243 points × 5 stages should mostly hit: {stats}"
    );
}
