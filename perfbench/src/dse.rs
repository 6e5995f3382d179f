//! dse_sweep: the full 243-point vocoder mapping sweep, run the way the
//! `dse` binary runs it — calibrated cost table, its default frame
//! count, `jobs` = nproc and a fresh `SegmentCostCache` per sweep — and
//! repeated for the measured seconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use scperf_bench::calibration::calibrate;
use scperf_core::{table_fingerprint, CostTable, SimConfig};
use scperf_dse::point::{build_platform, platform_cost, resolve_mapping};
use scperf_dse::{
    all_mappings, pareto, run_indexed, sweep, DesignPoint, SegmentCostCache, SweepConfig,
    SweepResult, Target,
};
use scperf_workloads::vocoder::pipeline::{self, StageTrace, STAGE_NAMES};

use crate::gen::{self, Digest};
use crate::host;
use crate::measure::{count_metrics, OpCounts, Results, RunCfg, Timed};
use crate::trace::{self, OpTrace, Trace};

/// Frames per design point: the `dse` binary's default.
const FRAMES: usize = 2;

fn points(tiny: bool) -> Option<usize> {
    tiny.then_some(9)
}

fn config(table: &CostTable, jobs: usize, use_cache: bool, tiny: bool) -> SweepConfig {
    SweepConfig {
        table: table.clone(),
        nframes: if tiny { 1 } else { FRAMES },
        jobs,
        kernel_jobs: 1,
        use_cache,
        limit: points(tiny),
        legacy_charging: false,
        programs_in: None,
    }
}

/// The oracle: one sequential, uncached sweep of the same points.
fn reference(table: &CostTable, tiny: bool) -> SweepResult {
    sweep(&config(table, 1, false, tiny))
}

fn digest_of(r: &SweepResult) -> Digest {
    let mut d = Digest::default();
    for p in r.points.iter().chain(&r.frontier) {
        d.mix(p.latency.as_ps());
        d.mix(p.cost.to_bits());
        d.mix(p.checksum as u64);
        for t in p.mapping {
            d.mix(t as u64);
        }
    }
    d
}

/// Whether a sweep reproduced the reference's latencies, checksums and
/// frontier exactly.
fn same(got: &[DesignPoint], frontier: &[DesignPoint], want: &SweepResult) -> bool {
    got == want.points.as_slice() && frontier == want.frontier.as_slice()
}

/// The untraced run.
pub fn run(cfg: &RunCfg) -> Results {
    let mut timed = Timed::default();
    let want = reference(&calibrate().table, cfg.tiny);
    timed.digest = digest_of(&want);
    cfg.progress(format_args!("reference sweep"));
    // Each round's set-up is the calibration a sweep needs.
    while timed.next_round(cfg) {
        let cal = timed.setup(calibrate);
        let sweep_cfg = config(&cal.table, host::nproc(), true, cfg.tiny);
        timed.measure(cfg, || {
            let got = sweep(&sweep_cfg);
            same(&got.points, &got.frontier, &want)
        });
    }
    timed.peak_rss_kib = host::peak_rss_kib();
    timed.into_results()
}

// ------------------------------------------------------------ traced run --

static NEXT_TRACK: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TRACK: u64 = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
}

/// `scperf_dse::evaluate` with a cache, spelled out through the same
/// public steps: session build, elaboration, the kernel run, trace and
/// program publishing, and teardown.
fn evaluate_traced(
    table: &CostTable,
    mapping: [Target; 5],
    nframes: usize,
    cache: &SegmentCostCache,
    op: &mut OpTrace,
) -> (DesignPoint, OpCounts) {
    op.enter("dse.evaluate");
    let (platform, ids) = build_platform(table);
    let vm = resolve_mapping(mapping, ids);
    let stage_resources = [vm.lsp, vm.lpc_int, vm.acb, vm.icb, vm.post];
    let mut replays: [StageTrace; 5] = [None, None, None, None, None];
    let mut fingerprints = [0_u64; 5];
    for (stage, &rid) in stage_resources.iter().enumerate() {
        let fp = SegmentCostCache::fingerprint(platform.resource(rid), nframes);
        fingerprints[stage] = fp;
        replays[stage] = cache.get(stage, fp);
    }
    let missing: Vec<usize> = (0..5).filter(|&s| replays[s].is_none()).collect();
    let mut config = SimConfig::new().platform(platform).jobs(1);
    if let Some(set) = cache.programs(table_fingerprint(table)) {
        config = config.program_set(set);
    }
    let mut session = op.span("session.build", || config.build());
    let recorder = (!missing.is_empty()).then(|| session.recorder());
    let handles = {
        let (sim, model) = session.parts_mut();
        op.span("workloads.elaborate", || {
            pipeline::build_hybrid(sim, model, vm, nframes, replays)
        })
    };
    let (summary, run_ns) = op.span_ns("kernel.run", || session.run());
    let summary = summary.expect("mapping simulates");
    op.span("dse.record", || {
        if let Some(recorder) = recorder {
            for &stage in &missing {
                let trace = recorder
                    .replay(STAGE_NAMES[stage])
                    .expect("trace recorded for live stage");
                cache.insert(stage, fingerprints[stage], trace);
            }
        }
        cache.publish_programs(&session.programs());
    });
    let hot = session.model().hot_stats();
    let checksum = handles.output.lock().expect("sink finished");
    // Counter reads are the benchmark's own work: their span names no
    // product layer, so the time lands in `unattributed`.
    let metrics = op.span("trace.counters", || session.metrics());
    op.span("session.teardown", || drop(session));
    op.exit();
    let mut counts = OpCounts {
        stages: 5,
        replayed: (5 - missing.len()) as u64,
        ..OpCounts::default()
    };
    counts.add_session(&metrics, &hot, summary.activations, run_ns);
    let point = DesignPoint {
        mapping,
        latency: summary.end_time,
        cost: platform_cost(&mapping),
        checksum,
    };
    (point, counts)
}

/// The traced run: untraced `sweep` calls for the sweep's own counters
/// and the `trace.overhead_pct` base, then traced sweeps that visit the
/// points in a seeded order over the same work-stealing pool.
pub fn run_traced(cfg: &RunCfg) -> (Results, Trace) {
    let mut r = Results::default();
    let cal = calibrate();
    let want = reference(&cal.table, cfg.tiny);
    r.digest = digest_of(&want).value();
    cfg.progress(format_args!("reference sweep"));
    let jobs = host::nproc();
    let (mut attempted, mut ok) = (0, 0);

    // Untraced sweeps.
    let sweep_cfg = config(&cal.table, jobs, true, cfg.tiny);
    let mut untraced_ms = Vec::new();
    let (mut hits, mut misses, mut wasted, mut steals) = (0.0, 0.0, 0.0, 0.0);
    let until = cfg.until(0.5);
    while Instant::now() < until || untraced_ms.is_empty() {
        let t = Instant::now();
        let got = sweep(&sweep_cfg);
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        ok += u64::from(same(&got.points, &got.frontier, &want));
        hits += got.cache.hits as f64;
        misses += got.cache.misses as f64;
        wasted += got.cache.misses.saturating_sub(got.cache.entries as u64) as f64;
        steals += got.pool.steals as f64;
    }
    let sweeps = untraced_ms.len() as f64;
    let n = untraced_ms.len() as u64;
    cfg.progress(format_args!("untraced phase: {n} sweeps"));
    r.set("dse.cache.hit_ratio", hits / (hits + misses).max(1.0), n);
    r.set("dse.cache.wasted_misses", wasted / sweeps, n);
    r.set("dse.pool.steals", steals / sweeps, n);

    // Traced sweeps.
    let mut mappings = all_mappings();
    if let Some(limit) = points(cfg.tiny) {
        mappings.truncate(limit);
    }
    let nframes = sweep_cfg.nframes;
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut counts: Vec<OpCounts> = Vec::new();
    let mut traced_ms = Vec::new();
    let until = cfg.until(0.5);
    let mut sweep_no = 0_u64;
    while Instant::now() < until || traced_ms.is_empty() {
        let order = gen::block_order(cfg.seed, 50, sweep_no, mappings.len());
        let base = sweep_no * (mappings.len() as u64 + 1);
        let t = Instant::now();
        let cache = SegmentCostCache::new();
        let (results, _) = run_indexed(jobs, mappings.len(), |i| {
            let idx = order[i];
            let track = TRACK.with(|t| *t);
            let mut op = OpTrace::begin(epoch, base + idx as u64, track, "op.point");
            let (point, k) = evaluate_traced(&cal.table, mappings[idx], nframes, &cache, &mut op);
            let mut op = op.finish();
            op.kind = if k.replayed == k.stages {
                "replay"
            } else {
                "live"
            };
            (idx, point, k, op)
        });
        let mut got: Vec<Option<DesignPoint>> = vec![None; mappings.len()];
        let first = counts.len();
        for (idx, point, k, op) in results {
            got[idx] = Some(point);
            counts.push(k);
            trace.push(op);
        }
        let got: Vec<DesignPoint> = got.into_iter().map(|p| p.expect("every point")).collect();
        let mut op = OpTrace::begin(epoch, base + mappings.len() as u64, 0, "op.pareto");
        let frontier = op.span("dse.pareto", || pareto(&got));
        let mut op = op.finish();
        op.kind = "pareto";
        trace.push(op);
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        ok += u64::from(same(&got, &frontier, &want));
        sweep_no += 1;
        // The plain-kernel base of the points that charged, outside the
        // sweep's wall time.
        for k in counts[first..].iter_mut().filter(|k| k.charges > 0) {
            k.plain_ns = crate::tables::plain_vocoder_ns(nframes);
        }
    }

    cfg.progress(format_args!("traced phase: {sweep_no} sweeps"));

    count_metrics(&mut r, &counts, trace.total_wall());
    let n = counts.len() as u64;
    r.set(
        "dse.evaluate_live_ms",
        trace.mean_us("dse.evaluate", Some("live")) / 1e3,
        n,
    );
    r.set(
        "dse.evaluate_replay_ms",
        trace.mean_us("dse.evaluate", Some("replay")) / 1e3,
        n,
    );
    r.set(
        "trace.overhead_pct",
        trace::overhead_pct(&traced_ms, &untraced_ms),
        traced_ms.len() as u64,
    );
    r.attempted = attempted;
    r.failed = attempted - ok;
    (r, trace)
}
