//! Scenario execution: one validated request → one simulation run.
//!
//! The engine is the bridge between the protocol and the simulation
//! stack: it builds the requested platform, runs the vocoder pipeline
//! through [`scperf_dse::elaborate_cached`] in a pooled [`Session`] —
//! reusing segment-cost traces from a shared [`SegmentCostCache`]
//! (recording on miss, replaying bit-identically on hit) — and, when
//! the request carries a deadline, steps the simulation in growing
//! simulated-time chunks so an expired wall-clock budget cancels the
//! run *mid-simulation* instead of after it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use scperf_core::{
    CostTable, EstHotStats, InstanceLimits, Report, Session, SessionPool, SimConfig,
};
use scperf_dse::point::{build_platform_with, platform_cost};
use scperf_dse::SegmentCostCache;
use scperf_kernel::{SimSummary, StopReason, Time, TraceMode};
use scperf_obs::MetricsSnapshot;

use crate::protocol::{ErrorCode, RequestError, Scenario};

/// Everything one successful scenario run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Kernel summary (end time, deltas, activations).
    pub summary: SimSummary,
    /// Platform cost proxy of the mapping.
    pub cost: f64,
    /// Decoded-output checksum (mapping- and replay-invariant).
    pub checksum: i32,
    /// Stages that replayed a cached trace instead of running annotated.
    pub replayed_stages: usize,
    /// Per-process report, when the request asked for one.
    pub report: Option<Report>,
    /// Kernel + estimator metrics, when the request asked for them.
    pub metrics: Option<MetricsSnapshot>,
    /// The same kernel + estimator metrics, always collected — the
    /// service folds these into its live telemetry (counters sum
    /// across runs, so totals accumulate service-wide).
    pub sim_metrics: MetricsSnapshot,
    /// Estimator hot-path counters for this run (fast charges, site
    /// cache hits/misses, DFG arena reuses).
    pub hot: EstHotStats,
    /// Host time spent simulating.
    pub elapsed: Duration,
}

/// A key over everything that defines a scenario's simulation — the
/// per-stage mapping, the frame count and the exact platform parameter
/// bits — and nothing that doesn't (deadline and output options vary
/// freely). The service itself keys nothing by it: the segment-cost
/// cache keys each stage's trace by what that trace depends on.
pub fn shape_key(sc: &Scenario) -> u64 {
    // FNV-1a over the shape-defining fields.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for t in sc.mapping {
        mix(t as u64);
    }
    mix(sc.nframes as u64);
    mix(sc.params.clock_ns.to_bits());
    mix(sc.params.rtos_cycles.to_bits());
    mix(sc.params.hw_k.to_bits());
    h
}

/// The session factory for a serve-side [`SessionPool`]: every session
/// shares the service's fixed knobs (attribution always on, the
/// flight-recorder ring when armed). [`execute_pooled`] rebuilds it on
/// the scenario's platform ([`Session::reset_with_platform`]), so one
/// homogeneous factory serves every parameter set.
pub fn pool_factory(flight: usize) -> impl Fn() -> Session + Send + Sync + 'static {
    move || {
        let mut config = SimConfig::new().attribution(true);
        if flight > 0 {
            config = config.tracing(TraceMode::Ring(flight));
        }
        config.build()
    }
}

/// First simulated-time chunk of a deadline-stepped run; doubled on
/// every resume. Small enough that the first host-clock check happens
/// almost immediately, large enough that a full run costs only a few
/// dozen resumes.
const FIRST_CHUNK: Time = Time::us(1);

/// Runs one scenario to completion (or deadline) in a freshly built
/// session: [`execute_pooled`] over a one-slot pool of its own. This is
/// the reference run the pooled path is tested against.
///
/// Attribution ([`SimConfig::attribution`]) is always on: it is
/// measurement-only (simulated results are bit-identical either way —
/// the `matches_the_dse_evaluator_bit_for_bit` test pins this against
/// the attribution-free sweep evaluator) and it feeds the per-resource
/// contention counters the service's telemetry reports.
///
/// `flight` > 0 arms the flight recorder: the kernel keeps roughly the
/// last `flight` trace events in its ring sink, and they are dumped to
/// stderr when the run is cancelled by its deadline or dies in a
/// panic — the post-mortem for a run that never got to answer.
///
/// # Errors
///
/// [`ErrorCode::DeadlineExceeded`] when `deadline` passes before the
/// simulation finishes, [`ErrorCode::Sim`] when the simulation itself
/// fails (including a caught worker panic).
pub fn execute(
    sc: &Scenario,
    cache: Option<&SegmentCostCache>,
    deadline: Option<Instant>,
    flight: usize,
) -> Result<Outcome, RequestError> {
    let limits = InstanceLimits {
        max_sessions: 1,
        ..InstanceLimits::default()
    };
    let pool = SessionPool::new(limits, pool_factory(flight));
    execute_pooled(sc, &pool, cache, deadline, flight)
}

/// Runs one scenario in a slot acquired from `pool`, through the shared
/// trace cache ([`scperf_dse::elaborate_cached`]): stages with a cached
/// trace replay it, the others charge live and their traces are stored
/// for the next request. The elaborated scenario is checked against the
/// pool's [`InstanceLimits`] before it runs.
///
/// # Errors
///
/// [`ErrorCode::PoolExhausted`] when every slot is live (callers should
/// attach a `retry_after_ms` hint), plus everything [`execute`] can
/// return.
pub fn execute_pooled(
    sc: &Scenario,
    pool: &SessionPool,
    cache: Option<&SegmentCostCache>,
    deadline: Option<Instant>,
    flight: usize,
) -> Result<Outcome, RequestError> {
    let started = Instant::now();
    if let Some(dl) = deadline {
        if started >= dl {
            return Err(RequestError {
                code: ErrorCode::DeadlineExceeded,
                field: None,
                message: "deadline expired while queued".into(),
            });
        }
    }

    let mut slot = pool.acquire().map_err(|e| RequestError {
        code: ErrorCode::PoolExhausted,
        field: None,
        message: e.to_string(),
    })?;
    // The sweep's platform, on the software cost table, at the
    // requested clock, RTOS overhead and `k`.
    let (platform, ids) = build_platform_with(
        &CostTable::risc_sw(),
        Time::from_ns_f64(sc.params.clock_ns),
        sc.params.rtos_cycles,
        sc.params.hw_k,
    );
    slot.reset_with_platform(platform);
    let run = scperf_dse::elaborate_cached(&mut slot, ids, sc.mapping, sc.nframes, cache);
    slot.enforce_limits().map_err(|e| RequestError {
        code: ErrorCode::Sim,
        field: None,
        message: e.to_string(),
    })?;

    let summary = simulate(&mut slot, deadline, flight)?;
    run.publish();
    let checksum = run.handles.output.lock().ok_or_else(|| RequestError {
        code: ErrorCode::Sim,
        field: None,
        message: "pipeline finished without producing output".into(),
    })?;
    let sim_metrics = slot.metrics();
    Ok(Outcome {
        summary,
        cost: platform_cost(&sc.mapping),
        checksum,
        replayed_stages: run.replayed_stages,
        report: sc.want_report.then(|| slot.report()),
        metrics: sc.want_metrics.then(|| sim_metrics.clone()),
        sim_metrics,
        hot: slot.model().hot_stats(),
        elapsed: started.elapsed(),
    })
}

/// Runs the elaborated session under the panic shield, dumping the
/// flight recorder on a deadline cancel or a caught panic.
fn simulate(
    session: &mut Session,
    deadline: Option<Instant>,
    flight: usize,
) -> Result<SimSummary, RequestError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| run_with_deadline(session, deadline)));
    match outcome {
        Ok(Ok(summary)) => Ok(summary),
        Ok(Err(err)) => {
            if flight > 0 {
                dump_flight(session, &err.message);
            }
            Err(err)
        }
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            if flight > 0 {
                dump_flight(session, &format!("worker panicked: {what}"));
            }
            Err(RequestError {
                code: ErrorCode::Sim,
                field: None,
                message: format!("worker panicked mid-run: {what}"),
            })
        }
    }
}

/// Dumps the flight-recorder ring — the last trace events the kernel
/// kept — to stderr, tagged so operators can grep the post-mortem out
/// of the service log.
fn dump_flight(session: &mut Session, why: &str) {
    let table = session.take_events();
    eprintln!(
        "[flight] {why}; last {} trace events ({} earlier events dropped by the ring):",
        table.events.len(),
        table.dropped
    );
    for ev in &table.events {
        let chan = table.resolve(ev.chan);
        eprintln!(
            "[flight]   t={}ps delta={} proc={} {}{}{} {:?}",
            ev.time_ps,
            ev.delta,
            table.process_name(ev),
            table.resolve(ev.label),
            if chan.is_empty() { "" } else { " " },
            chan,
            ev.payload,
        );
    }
}

/// Runs the session to completion; with a deadline, steps it in
/// growing simulated-time chunks and checks the host clock between
/// chunks, abandoning the run the moment the budget is spent. Chunk
/// growth is planned by [`next_step`]: exponential while the budget is
/// comfortable, clamped as the deadline approaches.
fn run_with_deadline(
    session: &mut Session,
    deadline: Option<Instant>,
) -> Result<SimSummary, RequestError> {
    let sim_error = |e: scperf_kernel::SimError| RequestError {
        code: ErrorCode::Sim,
        field: None,
        message: format!("simulation failed: {e:?}"),
    };
    let Some(dl) = deadline else {
        return session.run().map_err(sim_error);
    };
    let started = Instant::now();
    let mut step = FIRST_CHUNK;
    let mut limit = FIRST_CHUNK;
    loop {
        let summary = session.run_until(limit).map_err(sim_error)?;
        if summary.reason != StopReason::TimeLimit {
            return Ok(summary);
        }
        let now = Instant::now();
        if now >= dl {
            // Abandoning the session here is safe: dropping the
            // simulator, on this thread, unwinds its suspended processes.
            return Err(RequestError {
                code: ErrorCode::DeadlineExceeded,
                field: None,
                message: format!(
                    "deadline expired mid-run at simulated time {}",
                    summary.end_time
                ),
            });
        }
        step = next_step(step, summary.end_time, now - started, dl - now);
        limit = summary.end_time + step;
    }
}

/// Plans the simulated-time length of the next deadline-stepped chunk.
///
/// Doubling alone (the previous behaviour) is wrong near expiry: each
/// chunk's host cost roughly matches the *sum of all chunks before it*,
/// so a deadline landing just after a chunk starts was overshot by a
/// whole chunk — about the entire budget again. The fix clamps the
/// doubled step to the simulated time the run is expected to cover in
/// *half* the remaining wall-clock budget, using the sim-per-host rate
/// observed so far; the host-clock poll after the chunk then lands
/// well before the deadline, and the later chunks shrink geometrically
/// towards it. [`FIRST_CHUNK`] stays the floor so progress never
/// stalls, and the doubling cap keeps the resume count logarithmic
/// when the budget is generous.
fn next_step(prev: Time, sim_done: Time, host_spent: Duration, host_left: Duration) -> Time {
    let doubled = prev + prev;
    let spent = host_spent.as_secs_f64();
    if sim_done.is_zero() || spent <= 0.0 {
        return doubled;
    }
    // Simulated picoseconds covered per host second so far.
    let rate = sim_done.as_ps() as f64 / spent;
    let budget = Time::from_ps_f64(rate * host_left.as_secs_f64() * 0.5);
    doubled.min(budget).max(FIRST_CHUNK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PlatformParams;
    use scperf_dse::point::Target;

    fn scenario(mapping: [Target; 5], nframes: usize) -> Scenario {
        Scenario {
            mapping,
            nframes,
            params: PlatformParams::default(),
            deadline_ms: None,
            want_report: false,
            want_metrics: false,
            want_timing: false,
        }
    }

    #[test]
    fn matches_the_dse_evaluator_bit_for_bit() {
        // Same defaults, same workload: the serving path and the sweep
        // path must agree exactly.
        let mapping = [
            Target::Cpu0,
            Target::Cpu1,
            Target::Hw,
            Target::Cpu0,
            Target::Cpu0,
        ];
        let reference = scperf_dse::evaluate(&CostTable::risc_sw(), mapping, 2, None);
        let got = execute(&scenario(mapping, 2), None, None, 0).expect("runs");
        assert_eq!(got.summary.end_time, reference.latency);
        assert_eq!(got.cost, reference.cost);
        assert_eq!(got.checksum, reference.checksum);
    }

    #[test]
    fn cache_hits_replay_bit_identically() {
        let cache = SegmentCostCache::new();
        let sc = scenario([Target::Cpu0; 5], 1);
        let live = execute(&sc, Some(&cache), None, 0).expect("records");
        assert_eq!(live.replayed_stages, 0);
        assert!(live.hot.fast_charges > 0, "live run charges via fast path");
        assert!(live.hot.site_hits > 0, "vocoder loops hit their sites");
        let replayed = execute(&sc, Some(&cache), None, 0).expect("replays");
        assert_eq!(replayed.replayed_stages, 5);
        assert_eq!(replayed.summary.end_time, live.summary.end_time);
        assert_eq!(replayed.checksum, live.checksum);
        assert_eq!(replayed.hot.fast_charges, 0, "trace replay charges nothing");
    }

    #[test]
    fn novel_parameter_tuples_replay_cached_traces() {
        // A trace is keyed by stage, resource kind, cost table and frame
        // count only: a request with a new clock, RTOS overhead and `k`
        // replays every stage, and still matches its own uncached run
        // bit for bit, report included.
        let cache = SegmentCostCache::new();
        let mapping = [
            Target::Cpu0,
            Target::Hw,
            Target::Hw,
            Target::Cpu1,
            Target::Cpu0,
        ];
        let mut sc = scenario(mapping, 1);
        sc.want_report = true;
        let first = execute(&sc, Some(&cache), None, 0).expect("records");
        assert_eq!(first.replayed_stages, 0);
        sc.params.clock_ns = 7.5;
        sc.params.rtos_cycles = 40.0;
        sc.params.hw_k = 0.9;
        let replayed = execute(&sc, Some(&cache), None, 0).expect("replays");
        assert_eq!(
            replayed.replayed_stages, 5,
            "a new tuple reuses every trace"
        );
        let reference = execute(&sc, None, None, 0).expect("runs");
        assert_eq!(replayed.summary, reference.summary);
        assert_eq!(replayed.checksum, reference.checksum);
        assert_eq!(replayed.report, reference.report);
        assert_ne!(replayed.summary.end_time, first.summary.end_time);
    }

    #[test]
    fn trace_keys_are_collision_free_over_every_reachable_key() {
        // Every key a request or a sweep can reach: both resource kinds
        // over the tables in use, at every legal frame count. No
        // request-controlled float is part of the key.
        use crate::protocol::MAX_NFRAMES;
        use scperf_core::{Platform, ResourceKind};
        let tables = [
            CostTable::risc_sw(),
            CostTable::asic_hw(),
            scperf_workloads::calibration::calibrate().table,
        ];
        let mut seen = std::collections::HashMap::new();
        for table in tables {
            for kind in [ResourceKind::Sequential, ResourceKind::Parallel] {
                let mut p = Platform::new();
                let id = match kind {
                    ResourceKind::Sequential => p.sequential("r", Time::ns(10), table.clone(), 0.0),
                    _ => p.parallel("r", Time::ns(10), table.clone(), 0.5),
                };
                for nframes in 1..=MAX_NFRAMES as usize {
                    let key = (kind, table.as_dense().map(f64::to_bits), nframes);
                    let fp = SegmentCostCache::fingerprint(p.resource(id), nframes);
                    if let Some(other) = seen.insert(fp, key) {
                        panic!("fingerprint {fp:#x} collides: {other:?} vs {key:?}");
                    }
                }
            }
        }
        assert_eq!(seen.len(), 3 * 2 * MAX_NFRAMES as usize);
    }

    #[test]
    fn custom_parameters_change_the_estimate() {
        let sc = scenario([Target::Cpu0; 5], 1);
        let base = execute(&sc, None, None, 0).expect("runs");
        let mut slow = sc.clone();
        slow.params.clock_ns = 20.0;
        let slowed = execute(&slow, None, None, 0).expect("runs");
        assert!(slowed.summary.end_time > base.summary.end_time);
        assert_eq!(slowed.checksum, base.checksum, "data must not change");
    }

    #[test]
    fn an_already_expired_deadline_is_caught_before_running() {
        let sc = scenario([Target::Cpu0; 5], 1);
        let err = execute(&sc, None, Some(Instant::now()), 0).unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert!(err.message.contains("queued"));
    }

    #[test]
    fn a_deadline_expires_mid_run() {
        // Big enough that the run takes well over a millisecond.
        let sc = scenario([Target::Cpu0; 5], 64);
        let dl = Instant::now() + Duration::from_millis(1);
        let err = execute(&sc, None, Some(dl), 0).unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert!(
            err.message.contains("mid-run"),
            "expected a mid-run expiry, got: {}",
            err.message
        );
    }

    #[test]
    fn report_and_metrics_are_opt_in() {
        let mut sc = scenario([Target::Cpu0; 5], 1);
        let bare = execute(&sc, None, None, 0).expect("runs");
        assert!(bare.report.is_none() && bare.metrics.is_none());
        sc.want_report = true;
        sc.want_metrics = true;
        let full = execute(&sc, None, None, 0).expect("runs");
        let report = full.report.expect("report requested");
        assert_eq!(report.processes.len(), 5);
        let metrics = full.metrics.expect("metrics requested");
        assert!(metrics.counter("kernel.delta_cycles").is_some());
    }

    #[test]
    fn all_cpu0_mapping_names_cpu0_as_the_bottleneck() {
        // Known mapping, known answer: five pipeline stages serialized
        // on one sequential processor make cpu0 the top utilization
        // entry, with real arbitration contention behind it.
        let mut sc = scenario([Target::Cpu0; 5], 2);
        sc.want_report = true;
        let out = execute(&sc, None, None, 0).expect("runs");
        let report = out.report.expect("report requested");
        let u = report.utilization.expect("attribution is always on");
        assert_eq!(u.total_time, out.summary.end_time);
        let bottleneck = u.bottleneck().expect("cpu0 is sequential");
        assert_eq!(bottleneck.name, "cpu0");
        assert!(
            bottleneck.busy_pct > 0.0,
            "cpu0 must report busy time: {bottleneck:?}"
        );
        assert!(
            bottleneck.contention_pct > 0.0,
            "five stages on one cpu must contend: {bottleneck:?}"
        );
        assert!(bottleneck.waits > 0);
        // And per-run telemetry carries the matching series.
        assert!(out.sim_metrics.counter("est.res.cpu0.busy_ns").unwrap() > 0);
        assert!(
            out.sim_metrics
                .counter("est.res.cpu0.contention_ns")
                .unwrap()
                > 0
        );
        assert!(out
            .sim_metrics
            .iter()
            .any(|(name, _)| name.starts_with("kernel.sched.")));
    }

    #[test]
    fn flight_recorder_does_not_change_results() {
        let sc = scenario([Target::Cpu0; 5], 1);
        let plain = execute(&sc, None, None, 0).expect("runs");
        let armed = execute(&sc, None, None, 256).expect("runs");
        assert_eq!(armed.summary.end_time, plain.summary.end_time);
        assert_eq!(armed.checksum, plain.checksum);
    }

    #[test]
    fn chunk_planner_doubles_while_the_budget_is_comfortable() {
        // No observed rate yet (nothing simulated): pure doubling.
        let step = next_step(
            Time::us(4),
            Time::ps(0),
            Duration::from_millis(5),
            Duration::from_millis(5),
        );
        assert_eq!(step, Time::us(8));
        // Generous budget: 1ms simulated per 1ms host, 10s left — the
        // rate clamp sits far above the doubled step.
        let step = next_step(
            Time::us(4),
            Time::ms(1),
            Duration::from_millis(1),
            Duration::from_secs(10),
        );
        assert_eq!(step, Time::us(8));
    }

    #[test]
    fn chunk_planner_clamps_near_the_deadline() {
        // 1ms simulated in 100ms host → 10ns simulated per host µs.
        // With 10ms of budget left, half the budget covers 50µs of
        // simulated time — far below the doubled 2ms step.
        let step = next_step(
            Time::ms(1),
            Time::ms(1),
            Duration::from_millis(100),
            Duration::from_millis(10),
        );
        assert_eq!(step, Time::us(50));
        assert!(step < Time::ms(2), "the clamp must beat doubling");
    }

    #[test]
    fn chunk_planner_never_shrinks_below_the_floor() {
        // Budget practically gone: the rate clamp asks for 5000ps, but
        // the floor keeps the simulation progressing.
        let step = next_step(
            Time::ms(1),
            Time::ms(1),
            Duration::from_millis(100),
            Duration::from_micros(1),
        );
        assert_eq!(step, FIRST_CHUNK);
    }

    #[test]
    fn a_mid_run_deadline_cancels_promptly() {
        // Regression for the unclamped doubling: chunks grew without
        // regard to the remaining budget, so a deadline landing just
        // after a chunk started was overshot by the whole chunk —
        // roughly the entire budget again, and unboundedly worse as
        // chunks grew. With the clamp the host-clock polls bracket the
        // deadline tightly; the bound here is deliberately loose for
        // noisy CI hosts but fails the old gross overshoot.
        let sc = scenario([Target::Cpu0; 5], 512);
        let budget = Duration::from_millis(10);
        let started = Instant::now();
        let err = execute(&sc, None, Some(started + budget), 0).unwrap_err();
        let overshoot = started.elapsed().saturating_sub(budget);
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert!(
            overshoot < Duration::from_millis(250),
            "cancel overshot the deadline by {overshoot:?}"
        );
    }

    #[test]
    fn pooled_runs_match_the_unpooled_engine_bit_for_bit() {
        let pool = SessionPool::new(InstanceLimits::default(), pool_factory(0));
        let cache = SegmentCostCache::new();
        let sc = scenario(
            [
                Target::Cpu0,
                Target::Cpu1,
                Target::Hw,
                Target::Cpu0,
                Target::Cpu1,
            ],
            2,
        );
        let reference = execute(&sc, None, None, 0).expect("runs");
        let first = execute_pooled(&sc, &pool, Some(&cache), None, 0).expect("records");
        assert_eq!(first.summary, reference.summary);
        assert_eq!(first.checksum, reference.checksum);
        assert_eq!(
            first.replayed_stages, 0,
            "a cold cache runs fully annotated"
        );
        let second = execute_pooled(&sc, &pool, Some(&cache), None, 0).expect("replays");
        assert_eq!(second.summary, reference.summary);
        assert_eq!(second.checksum, reference.checksum);
        assert_eq!(second.replayed_stages, 5, "a repeat replays every stage");
        assert_eq!(second.hot.fast_charges, 0, "replayed runs charge nothing");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.forks), (0, 0));
        assert_eq!(stats.misses, 2, "every acquisition counts as a miss");
        assert_eq!(stats.live, 0, "both sessions were dropped on release");
    }

    #[test]
    fn evicted_traces_re_record_bit_identically() {
        // The trace cache is the only per-scenario state serve keeps,
        // and it is bounded in recorded segments: a stage trace holds
        // 2·nframes+1 of them, so the 5 traces of a 4-frame run take 45
        // of a 50-segment budget and evict every earlier frame count,
        // which then records again and must still match the uncached
        // reference bit for bit. (Clock, RTOS overhead and `k` are not
        // part of a trace's key, so only the frame count forces a miss
        // here.)
        const BUDGET: usize = 50;
        let pool = SessionPool::new(InstanceLimits::default(), pool_factory(0));
        let cache = SegmentCostCache::with_capacity(BUDGET);
        let tuples: Vec<Scenario> = (0..4)
            .map(|i| {
                let mut sc = scenario(
                    [
                        Target::Cpu0,
                        Target::Cpu1,
                        Target::Hw,
                        Target::Cpu0,
                        Target::Cpu1,
                    ],
                    1 + i,
                );
                sc.params.clock_ns = 10.0 + i as f64;
                sc.params.hw_k = 0.2 * i as f64;
                sc
            })
            .collect();
        for sc in tuples.iter().chain(&tuples[..2]) {
            let reference = execute(sc, None, None, 0).expect("runs");
            let got = execute_pooled(sc, &pool, Some(&cache), None, 0).expect("runs");
            assert_eq!(got.summary, reference.summary, "nframes {}", sc.nframes);
            assert_eq!(got.checksum, reference.checksum);
            assert_eq!(
                got.replayed_stages, 0,
                "every frame count is novel or evicted"
            );
            let stats = cache.stats();
            assert!(stats.segments <= BUDGET, "{stats:?}");
            if sc.nframes == 4 {
                assert_eq!((stats.entries, stats.segments), (5, 45), "{stats:?}");
            }
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn an_exhausted_pool_is_a_typed_retryable_error() {
        let pool = SessionPool::new(
            InstanceLimits {
                max_sessions: 1,
                ..InstanceLimits::default()
            },
            pool_factory(0),
        );
        let held = pool.acquire().expect("the only slot");
        let sc = scenario([Target::Cpu0; 5], 1);
        let err = execute_pooled(&sc, &pool, None, None, 0).unwrap_err();
        assert_eq!(err.code, ErrorCode::PoolExhausted);
        assert_eq!(pool.stats().exhausted, 1);
        drop(held);
        execute_pooled(&sc, &pool, None, None, 0).expect("the slot came back");
    }

    #[test]
    fn a_deadline_cancel_dumps_the_flight_recorder() {
        // Only observable effect here is the error itself (the dump
        // goes to stderr), but the path must not panic or alter the
        // error classification.
        let sc = scenario([Target::Cpu0; 5], 64);
        let dl = Instant::now() + Duration::from_millis(1);
        let err = execute(&sc, None, Some(dl), 64).unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
    }
}
