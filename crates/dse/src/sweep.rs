//! The sweep orchestrator: evaluate every mapping, in parallel, with
//! memoized segment costs, and extract the Pareto frontier.

use std::sync::atomic::{AtomicU64, Ordering};

use scperf_core::{table_fingerprint, CostTable, SimConfig};
use scperf_obs::MetricsSnapshot;
use scperf_workloads::vocoder::pipeline::{self, StageTrace, STAGE_NAMES};

use crate::cache::{CacheStats, SegmentCostCache};
use crate::pareto::pareto;
use crate::point::{
    all_mappings, build_platform, platform_cost, resolve_mapping, DesignPoint, Target,
};
use crate::pool::{run_indexed, PoolStats};

/// Configuration of one design-space sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Software cost table shared by cpu0/cpu1 (the accelerator always
    /// uses [`CostTable::asic_hw`]).
    pub table: CostTable,
    /// Frames pushed through the vocoder per point.
    pub nframes: usize,
    /// Worker threads; `1` is the sequential oracle (no pool, no
    /// spawned threads).
    pub jobs: usize,
    /// Evaluate-phase parallelism *inside* each point's simulation
    /// (forwarded to `SimConfig::jobs`); `1` is the sequential kernel.
    /// Composes with `jobs`: the sweep fans points over its pool while
    /// each simulation spreads wide delta cycles over its own workers.
    /// Results are bit-identical for any value — the contract is
    /// documented in `docs/PARALLELISM.md`.
    pub kernel_jobs: usize,
    /// Whether to memoize segment-cost traces across points.
    pub use_cache: bool,
    /// Evaluate only the first `limit` mappings (in canonical point
    /// order) instead of all 243 — for tests and doc examples. `None`
    /// sweeps everything.
    pub limit: Option<usize>,
    /// Has no effect. The legacy `RefCell` charging path it used to
    /// select was removed; it gave bit-identical estimates, so every
    /// sweep now charges through the one thread-local fast path. Kept so
    /// existing struct literals still compile.
    pub legacy_charging: bool,
    /// A serialized program blob ([`SweepResult::programs_out`] from an
    /// earlier sweep, possibly another process) to warm-start the
    /// segment-site cost programs from. Ignored when `use_cache` is
    /// off; a malformed blob is skipped (the sweep then records live,
    /// which is always bit-identical).
    pub programs_in: Option<Vec<u8>>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            table: CostTable::risc_sw(),
            nframes: 1,
            jobs: 1,
            kernel_jobs: 1,
            use_cache: true,
            limit: None,
            legacy_charging: false,
            programs_in: None,
        }
    }
}

/// Aggregated segment-site cost-program accounting of one sweep (summed
/// over every evaluated point's estimator; all zeros when the cache is
/// off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgStats {
    /// Site regions satisfied by replaying a compiled program.
    pub hits: u64,
    /// Site regions that recorded a fresh program.
    pub misses: u64,
    /// Local misses satisfied by compiling a shared warm-set program.
    pub warm_hits: u64,
    /// Warm sets rejected for a cost-table fingerprint mismatch.
    pub rejects: u64,
    /// Programs imported from [`SweepConfig::programs_in`].
    pub imported: u64,
}

/// Thread-safe accumulator behind [`ProgStats`].
#[derive(Debug, Default)]
struct ProgCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    warm_hits: AtomicU64,
    rejects: AtomicU64,
}

impl ProgCounters {
    fn absorb(&self, h: &scperf_core::EstHotStats) {
        self.hits.fetch_add(h.site_hits, Ordering::Relaxed);
        self.misses.fetch_add(h.site_misses, Ordering::Relaxed);
        self.warm_hits
            .fetch_add(h.prog_warm_hits, Ordering::Relaxed);
        self.rejects.fetch_add(h.prog_rejects, Ordering::Relaxed);
    }

    fn snapshot(&self, imported: u64) -> ProgStats {
        ProgStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            imported,
        }
    }
}

/// Everything a sweep produces.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One point per evaluated mapping, in canonical point order
    /// ([`all_mappings`]) — identical for every worker count.
    pub points: Vec<DesignPoint>,
    /// The Pareto frontier over (latency, cost).
    pub frontier: Vec<DesignPoint>,
    /// Segment-cost cache accounting (all zeros when the cache is off).
    pub cache: CacheStats,
    /// Segment-site cost-program accounting.
    pub prog: ProgStats,
    /// The compiled program sets harvested across the sweep, serialized
    /// for [`SweepConfig::programs_in`] of a later sweep — empty when
    /// the cache is off. Stable across processes and machines.
    pub programs_out: Vec<u8>,
    /// Worker/steal counters from the pool.
    pub pool: PoolStats,
}

impl SweepResult {
    /// The sweep's observability counters (`dse.points`,
    /// `dse.pool.workers`, `dse.pool.steals`, `dse.cache.*`).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.set_counter("dse.points", self.points.len() as u64);
        m.set_counter("dse.frontier", self.frontier.len() as u64);
        m.set_counter("dse.pool.workers", self.pool.workers as u64);
        m.set_counter("dse.pool.steals", self.pool.steals);
        m.set_counter("dse.cache.hits", self.cache.hits);
        m.set_counter("dse.cache.misses", self.cache.misses);
        m.set_counter("dse.cache.entries", self.cache.entries as u64);
        m.set_gauge("dse.cache.hit_rate", self.cache.hit_rate());
        m.set_counter("est.cache.evictions", self.cache.evictions);
        m.set_counter("est.prog.hits", self.prog.hits);
        m.set_counter("est.prog.misses", self.prog.misses);
        m.set_counter("est.prog.warm_hits", self.prog.warm_hits);
        m.set_counter("est.prog.rejects", self.prog.rejects);
        m.set_counter("est.prog.published", self.cache.programs as u64);
        m
    }
}

/// Simulates one mapping strict-timed and returns its design point.
///
/// With a cache, each stage first looks up a recorded per-segment cycle
/// trace for `(stage, resource fingerprint, nframes)`; hit stages run in
/// replay mode (plain implementations, recorded cycles — bit-identical
/// timing, none of the annotation overhead), miss stages run annotated
/// with trace recording on and publish their traces afterwards.
pub fn evaluate(
    table: &CostTable,
    mapping: [Target; 5],
    nframes: usize,
    cache: Option<&SegmentCostCache>,
) -> DesignPoint {
    evaluate_with(table, mapping, nframes, cache, 1, None)
}

fn evaluate_with(
    table: &CostTable,
    mapping: [Target; 5],
    nframes: usize,
    cache: Option<&SegmentCostCache>,
    kernel_jobs: usize,
    prog: Option<&ProgCounters>,
) -> DesignPoint {
    let (platform, ids) = build_platform(table);
    let vm = resolve_mapping(mapping, ids);
    let stage_resources = [vm.lsp, vm.lpc_int, vm.acb, vm.icb, vm.post];

    let mut replays: [StageTrace; 5] = [None, None, None, None, None];
    let mut fingerprints = [0_u64; 5];
    if let Some(cache) = cache {
        for (stage, &rid) in stage_resources.iter().enumerate() {
            let fp = SegmentCostCache::fingerprint(platform.resource(rid), nframes);
            fingerprints[stage] = fp;
            replays[stage] = cache.get(stage, fp);
        }
    }
    let missing: Vec<usize> = (0..5).filter(|&s| replays[s].is_none()).collect();

    let mut config = SimConfig::new().platform(platform).jobs(kernel_jobs);
    // Warm-start the segment-site cost programs from the shared set for
    // the SW cost table (memoization only engages on sequential
    // resources, and cpu0/cpu1 share `table`).
    if let Some(cache) = cache {
        if let Some(set) = cache.programs(table_fingerprint(table)) {
            config = config.program_set(set);
        }
    }
    let mut session = config.build();
    let recorder = (cache.is_some() && !missing.is_empty()).then(|| session.recorder());
    let (sim, model) = session.parts_mut();
    let handles = pipeline::build_hybrid(sim, model, vm, nframes, replays);
    let summary = session.run().expect("mapping simulates");

    if let (Some(cache), Some(recorder)) = (cache, recorder) {
        for &stage in &missing {
            let trace = recorder
                .replay(STAGE_NAMES[stage])
                .expect("trace recorded for live stage");
            cache.insert(stage, fingerprints[stage], trace);
        }
    }
    if let Some(cache) = cache {
        cache.publish_programs(&session.programs());
    }
    if let Some(prog) = prog {
        prog.absorb(&session.model().hot_stats());
    }

    let checksum = handles.output.lock().expect("sink finished");
    DesignPoint {
        mapping,
        latency: summary.end_time,
        cost: platform_cost(&mapping),
        checksum,
    }
}

/// Explores the mapping space per `config`: fans the points over the
/// work-stealing pool, collects them in canonical order and extracts the
/// Pareto frontier.
///
/// Determinism guarantee: for a fixed `config` modulo `jobs` and
/// `use_cache`, the returned points and frontier are bitwise identical —
/// replayed traces reproduce live estimation exactly, and results are
/// ordered by point index, not completion order.
pub fn sweep(config: &SweepConfig) -> SweepResult {
    let mut mappings = all_mappings();
    if let Some(limit) = config.limit {
        mappings.truncate(limit);
    }
    let cache = config.use_cache.then(SegmentCostCache::new);
    let imported = match (&cache, &config.programs_in) {
        (Some(cache), Some(blob)) => cache.import_programs(blob).unwrap_or(0) as u64,
        _ => 0,
    };
    let prog_counters = ProgCounters::default();
    let (points, pool) = run_indexed(config.jobs, mappings.len(), |i| {
        let _span = scperf_obs::profile::span("dse.evaluate");
        evaluate_with(
            &config.table,
            mappings[i],
            config.nframes,
            cache.as_ref(),
            config.kernel_jobs,
            Some(&prog_counters),
        )
    });

    // Every point — live or replayed — must have produced the same
    // decoded output; a mismatch means a stale or mis-keyed cache entry.
    if let Some(first) = points.first() {
        for p in &points {
            assert_eq!(
                p.checksum,
                first.checksum,
                "mapping {} produced different data",
                p.mapping_label()
            );
        }
    }

    let frontier = pareto(&points);
    let empty = CacheStats {
        hits: 0,
        misses: 0,
        entries: 0,
        evictions: 0,
        programs: 0,
    };
    SweepResult {
        frontier,
        cache: cache.as_ref().map(|c| c.stats()).unwrap_or(empty),
        prog: prog_counters.snapshot(imported),
        programs_out: cache.map(|c| c.export_programs()).unwrap_or_default(),
        pool,
        points,
    }
}

/// Renders the exploration summary: fastest mappings, the all-SW
/// baseline and the Pareto frontier.
pub fn format_summary(result: &SweepResult, nframes: usize) -> String {
    use std::fmt::Write;
    let points = &result.points;
    let mut sorted: Vec<&DesignPoint> = points.iter().collect();
    sorted.sort_by(|a, b| a.latency.cmp(&b.latency).then(a.cost.total_cmp(&b.cost)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Design-space exploration: {} mappings of {{{}}} onto {{cpu0, cpu1, hw}}, {nframes} frames",
        points.len(),
        STAGE_NAMES.join(", ")
    );
    let _ = writeln!(out, "\nfastest 5 mappings:");
    for p in sorted.iter().take(5) {
        let _ = writeln!(
            out,
            "  {:<28} latency {:>14}  cost {:>4.1}",
            p.mapping_label(),
            p.latency.to_string(),
            p.cost
        );
    }
    if let Some(all_cpu0) = points
        .iter()
        .find(|p| p.mapping.iter().all(|&t| t == Target::Cpu0))
    {
        let _ = writeln!(out, "\nall-SW baseline:");
        let _ = writeln!(
            out,
            "  {:<28} latency {:>14}  cost {:>4.1}",
            all_cpu0.mapping_label(),
            all_cpu0.latency.to_string(),
            all_cpu0.cost
        );
    }
    let _ = writeln!(out, "\nPareto frontier (latency vs cost):");
    for p in &result.frontier {
        let _ = writeln!(
            out,
            "  {:<28} latency {:>14}  cost {:>4.1}",
            p.mapping_label(),
            p.latency.to_string(),
            p.cost
        );
    }
    let stats = &result.cache;
    if stats.hits + stats.misses > 0 {
        let _ = writeln!(
            out,
            "\nsegment-cost cache: {} hits / {} misses ({:.1}% hit rate), {} traces",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.entries
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scperf_kernel::Time;

    #[test]
    fn single_point_evaluates_and_prices_resources() {
        let table = CostTable::risc_sw();
        let p = evaluate(&table, [Target::Cpu0; 5], 2, None);
        assert!(p.latency > Time::ZERO);
        assert_eq!(p.cost, 1.0);
        let q = evaluate(
            &table,
            [
                Target::Cpu0,
                Target::Cpu1,
                Target::Hw,
                Target::Cpu0,
                Target::Cpu1,
            ],
            2,
            None,
        );
        assert_eq!(q.cost, 4.5);
        assert_eq!(q.mapping_label(), "cpu0/cpu1/hw/cpu0/cpu1");
        assert_eq!(p.checksum, q.checksum, "mapping must not change data");
    }

    #[test]
    fn offloading_the_acb_beats_all_sw() {
        let table = CostTable::risc_sw();
        let all_sw = evaluate(&table, [Target::Cpu0; 5], 2, None);
        let mut offloaded = [Target::Cpu0; 5];
        offloaded[2] = Target::Hw; // ACB search
        let point = evaluate(&table, offloaded, 2, None);
        assert!(point.latency < all_sw.latency);
    }

    #[test]
    fn cached_evaluation_is_bit_identical_to_live() {
        let table = CostTable::risc_sw();
        let cache = SegmentCostCache::new();
        let mappings = [[Target::Cpu0; 5], [Target::Cpu1; 5], {
            let mut m = [Target::Cpu0; 5];
            m[2] = Target::Hw;
            m
        }];
        for mapping in mappings {
            let live = evaluate(&table, mapping, 1, None);
            let cached = evaluate(&table, mapping, 1, Some(&cache));
            assert_eq!(cached, live, "first (recording) pass must match live");
            let replayed = evaluate(&table, mapping, 1, Some(&cache));
            assert_eq!(replayed, live, "replayed pass must match live");
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "second passes must hit");
        // cpu0 and cpu1 share a cost table, so the all-cpu1 point reuses
        // the all-cpu0 traces: 5 stage fingerprints for cpu runs + 1 for
        // the hw-mapped ACB stage.
        assert_eq!(stats.entries, 6);
    }

    #[test]
    fn small_sweep_is_deterministic_across_jobs_and_cache() {
        let base = SweepConfig {
            nframes: 1,
            jobs: 1,
            use_cache: false,
            limit: Some(12),
            ..SweepConfig::default()
        };
        let reference = sweep(&base);
        assert_eq!(reference.points.len(), 12);
        for (jobs, use_cache) in [(1, true), (3, false), (3, true), (8, true)] {
            let got = sweep(&SweepConfig {
                jobs,
                use_cache,
                ..base.clone()
            });
            assert_eq!(
                got.points, reference.points,
                "jobs={jobs} cache={use_cache}"
            );
            assert_eq!(got.frontier, reference.frontier);
        }
    }

    /// The PR 10 acceptance scenario: a sweep warm-started from a
    /// previous sweep's serialized program blob — the cross-process
    /// persistence path — produces a bit-identical Pareto frontier
    /// while replaying compiled programs instead of re-recording.
    #[test]
    fn warm_started_sweep_matches_cold_bit_for_bit() {
        let base = SweepConfig {
            nframes: 1,
            jobs: 2,
            use_cache: true,
            limit: Some(10),
            ..SweepConfig::default()
        };
        let cold = sweep(&base);
        assert!(cold.prog.hits > 0, "memoized sites must replay");
        assert!(cold.prog.misses > 0, "cold sweep records programs");
        assert!(!cold.programs_out.is_empty(), "programs serialize");
        assert!(cold.cache.programs > 0);

        let warm = sweep(&SweepConfig {
            programs_in: Some(cold.programs_out.clone()),
            ..base
        });
        assert_eq!(warm.points, cold.points, "warm sweep changed a point");
        assert_eq!(warm.frontier, cold.frontier, "frontier not bit-identical");
        assert!(warm.prog.imported > 0, "blob imports");
        assert!(warm.prog.warm_hits > 0, "warm programs must be used");
        assert!(warm.prog.hits > 0);
        assert!(
            warm.prog.misses < cold.prog.misses,
            "warm start must reduce recording"
        );
        assert_eq!(
            warm.metrics().counter("est.prog.hits"),
            Some(warm.prog.hits)
        );
    }
}
