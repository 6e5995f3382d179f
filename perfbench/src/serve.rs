//! serve_repeat and serve_novel: an in-process [`Service`] with
//! `ServiceConfig::default()` (2 workers, session pool and trace cache
//! on) under a closed loop of one client per CPU the run may use, each
//! sending its next request only after its reply arrives.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use scperf_core::{table_fingerprint, CostTable, InstanceLimits, Platform, Session, SessionPool};
use scperf_dse::point::{platform_cost, resolve_mapping};
use scperf_dse::SegmentCostCache;
use scperf_kernel::Time;
use scperf_obs::MetricsSnapshot;
use scperf_serve::json::{self, Json};
use scperf_serve::{engine, render, Outcome, Request, Responder, Scenario, Service, ServiceConfig};
use scperf_workloads::vocoder::pipeline::{self, StageTrace, STAGE_NAMES};

use crate::gen::{self, Digest, SimRequest};
use crate::host;
use crate::measure::{count_metrics, OpCounts, Results, RunCfg, Timed, Window, ROUNDS};
use crate::stats;
use crate::trace::{self, OpTrace, Trace};

/// Requests in one serve_novel round. A round runs on a fresh service,
/// so the number of distinct shapes the pool retains — and with it the
/// peak resident set — is fixed by this count, not by how many requests
/// fit in the measured seconds.
fn novel_round(tiny: bool) -> u64 {
    if tiny {
        12
    } else {
        2 * gen::NOVEL_BLOCK
    }
}

/// What a reply must carry, from the unpooled, uncached engine.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expected {
    end_time_ps: u64,
    checksum: i64,
    cost_bits: u64,
}

impl Expected {
    fn mix_into(&self, d: &mut Digest) {
        d.mix(self.end_time_ps);
        d.mix(self.checksum as u64);
        d.mix(self.cost_bits);
    }
}

/// Parses a request line the way the service does.
fn scenario_of(line: &str) -> Scenario {
    let v = json::parse(line).expect("generated lines are JSON");
    match Request::from_json(&v).expect("generated lines are valid requests") {
        Request::Sim { scenario, .. } => scenario,
        other => panic!("generated a non-sim request: {other:?}"),
    }
}

/// The oracle: the same scenario through `engine::execute` with no
/// pool and no cache.
fn oracle(line: &str) -> Expected {
    let out = engine::execute(&scenario_of(line), None, None, 0).expect("oracle run");
    Expected {
        end_time_ps: out.summary.end_time.as_ps(),
        checksum: i64::from(out.checksum),
        cost_bits: out.cost.to_bits(),
    }
}

/// Oracles for many lines, on every CPU; lines that carry the same
/// scenario shape share one oracle run.
fn oracles(lines: &[String]) -> Vec<Expected> {
    let shapes: Vec<u64> = lines
        .iter()
        .map(|l| engine::shape_key(&scenario_of(l)))
        .collect();
    let mut first: HashMap<u64, usize> = HashMap::new();
    let distinct: Vec<String> = lines
        .iter()
        .zip(&shapes)
        .filter(|&(_, &shape)| {
            let n = first.len();
            *first.entry(shape).or_insert(n) == n
        })
        .map(|(l, _)| l.clone())
        .collect();
    let want = oracles_of(&distinct);
    shapes.iter().map(|s| want[first[s]]).collect()
}

fn oracles_of(lines: &[String]) -> Vec<Expected> {
    let next = AtomicU64::new(0);
    let mut out = vec![None; lines.len()];
    let parts: Vec<Vec<(usize, Expected)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..host::nproc())
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= lines.len() {
                            return mine;
                        }
                        mine.push((i, oracle(&lines[i])));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle worker"))
            .collect()
    });
    for (i, e) in parts.into_iter().flatten() {
        out[i] = Some(e);
    }
    out.into_iter()
        .map(|e| e.expect("every line has an oracle"))
        .collect()
}

/// Whether `reply` is an ok reply carrying exactly `want`.
fn matches(reply: &str, want: &Expected) -> bool {
    let Ok(v) = json::parse(reply) else {
        return false;
    };
    v.get("status").and_then(Json::as_str) == Some("ok")
        && v.get("end_time_ps").and_then(Json::as_u64) == Some(want.end_time_ps)
        && v.get("checksum").and_then(Json::as_f64) == Some(want.checksum as f64)
        && v.get("cost").and_then(Json::as_f64).map(f64::to_bits) == Some(want.cost_bits)
}

/// What one closed-loop stream measured.
#[derive(Debug, Default)]
struct LoopStats {
    lat_ms: Vec<f64>,
    attempted: u64,
    ok: u64,
}

/// Drives `svc` with one closed-loop client per CPU the process may
/// run on, so load never takes more threads than there are CPUs. Request `i` is
/// `lines[key(i)]`, whose reply must equal `expected[key(i)]`; the loop
/// ends at `deadline` or when `key` runs out. Latency runs from the
/// `handle_line` call to the response callback.
fn closed_loop(
    svc: &Service,
    lines: &[String],
    expected: &[Expected],
    key: &(dyn Fn(u64) -> Option<usize> + Sync),
    deadline: Option<Instant>,
) -> LoopStats {
    let next = AtomicU64::new(0);
    let per_client: Vec<LoopStats> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..host::nproc())
            .map(|_| {
                s.spawn(|| {
                    let (tx, rx) = mpsc::channel::<(Instant, String)>();
                    let responder = Responder::new(move |line| {
                        let _ = tx.send((Instant::now(), line.to_string()));
                    });
                    let mut st = LoopStats::default();
                    loop {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            return st;
                        }
                        let Some(k) = key(next.fetch_add(1, Ordering::Relaxed)) else {
                            return st;
                        };
                        let sent = Instant::now();
                        svc.handle_line(&lines[k], &responder);
                        let (at, reply) = rx.recv().expect("the service answers every line");
                        st.lat_ms.push((at - sent).as_secs_f64() * 1e3);
                        st.attempted += 1;
                        st.ok += u64::from(matches(&reply, &expected[k]));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let mut all = LoopStats::default();
    for c in per_client {
        all.lat_ms.extend(c.lat_ms);
        all.attempted += c.attempted;
        all.ok += c.ok;
    }
    all
}

/// The request lines of one workload phase plus their oracles.
struct Stream {
    lines: Vec<String>,
    expected: Vec<Expected>,
}

impl Stream {
    fn new(requests: &[SimRequest], prefix: &str) -> Stream {
        let lines: Vec<String> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| r.line(&format!("{prefix}{i}")))
            .collect();
        let expected = oracles(&lines);
        Stream { lines, expected }
    }
}

/// Warm-pass requests: serve_repeat warms every shape once;
/// serve_novel warms all-cpu0, all-cpu1 and all-hw platforms at one and
/// two frames, on tuples outside its measured streams.
fn warm_requests(repeat: bool, cfg: &RunCfg) -> Vec<SimRequest> {
    if repeat {
        let shapes = gen::repeat_shapes(cfg.tiny);
        (0..shapes.len() as u64)
            .map(|i| gen::repeat_request(cfg.seed, &shapes, i))
            .collect()
    } else {
        use scperf_dse::Target::{Cpu0, Cpu1, Hw};
        let mut out = Vec::new();
        for (j, t) in [Cpu0, Cpu1, Hw].into_iter().enumerate() {
            for f in [1, 2] {
                let mut r = gen::novel_tuple(gen::WARM_STREAM, (2 * j + f) as u64, cfg.tiny);
                r.mapping = [t; 5];
                r.nframes = f;
                out.push(r);
            }
        }
        out
    }
}

/// Starts a service and runs the warm pass, timed as one `setup_s`
/// sample. Warm replies are checked too.
fn start_service(warm: &Stream, timed: &mut Timed) -> Service {
    let (svc, st) = timed.setup(|| {
        let svc = Service::new(ServiceConfig::default());
        let st = closed_loop(
            &svc,
            &warm.lines,
            &warm.expected,
            &|i| (i < warm.lines.len() as u64).then_some(i as usize),
            None,
        );
        (svc, st)
    });
    timed.attempted += st.attempted;
    timed.ok += st.ok;
    svc
}

/// Maps request `i` of a closed loop to its line; `None` ends the loop.
type Key<'a> = Box<dyn Fn(u64) -> Option<usize> + Sync + 'a>;

/// The measured request stream and the key that maps request `i` to
/// its line. serve_repeat cycles through the shape set in seeded blocks
/// without end; serve_novel is one stream of distinct tuples in seeded
/// order, replayed whole on every round's fresh service, so each service
/// sees only shapes it has never seen and the stream's oracles are
/// computed once.
fn measured_stream(cfg: &RunCfg, repeat: bool) -> (Stream, Key<'static>) {
    if repeat {
        let shapes = gen::repeat_shapes(cfg.tiny);
        let reqs: Vec<SimRequest> = shapes
            .iter()
            .map(|&(mapping, nframes)| SimRequest {
                mapping,
                nframes,
                params: None,
            })
            .collect();
        let seed = cfg.seed;
        let key = move |i: u64| {
            let r = gen::repeat_request(seed, &shapes, i);
            shapes.iter().position(|&s| s == (r.mapping, r.nframes))
        };
        (Stream::new(&reqs, "s"), Box::new(key))
    } else {
        let n = novel_round(cfg.tiny);
        let reqs: Vec<SimRequest> = (0..n).map(|j| gen::novel_tuple(0, j, cfg.tiny)).collect();
        let (seed, block) = (cfg.seed, n.min(gen::NOVEL_BLOCK));
        let key = move |i: u64| (i < n).then(|| gen::novel_order(seed, i, block) as usize);
        (Stream::new(&reqs, "n"), Box::new(key))
    }
}

/// One round's closed loop: serve_repeat's runs for its slice of the
/// measured seconds, serve_novel's for the whole stream.
fn round_loop(cfg: &RunCfg, repeat: bool, svc: &Service, stream: &Stream, key: &Key) -> LoopStats {
    let deadline = repeat.then(|| cfg.until(1.0 / ROUNDS as f64));
    closed_loop(svc, &stream.lines, &stream.expected, key, deadline)
}

/// The untraced run: end-to-end metrics only. Every round starts a
/// fresh service (one `setup_s` sample); serve_repeat runs five rounds,
/// serve_novel as many as the measured seconds take.
pub fn run(cfg: &RunCfg, repeat: bool) -> Results {
    let mut timed = Timed::default();
    let warm = Stream::new(&warm_requests(repeat, cfg), "w");
    let (stream, key) = measured_stream(cfg, repeat);
    for e in &stream.expected {
        e.mix_into(&mut timed.digest);
    }
    cfg.progress(format_args!("oracles"));
    let mut rounds = 0;
    while if repeat {
        timed.next_round(cfg)
    } else {
        rounds == 0 || (timed.measured_s() < cfg.seconds && !cfg.overdue())
    } {
        let svc = start_service(&warm, &mut timed);
        let w = Window::start();
        let st = round_loop(cfg, repeat, &svc, &stream, &key);
        let n = st.lat_ms.len();
        timed.add_round(st.lat_ms, w.stop());
        timed.attempted += st.attempted;
        timed.ok += st.ok;
        rounds += 1;
        cfg.progress(format_args!("round {rounds}: {n} requests"));
    }
    timed.peak_rss_kib = host::peak_rss_kib();
    timed.into_results()
}

// ------------------------------------------------------------ traced run --

/// The service's platform for a scenario: two sequential processors on
/// the software cost table plus one accelerator, as `engine` builds it.
fn build_platform(sc: &Scenario) -> (Platform, [scperf_core::ResourceId; 3]) {
    let clock = Time::from_ns_f64(sc.params.clock_ns);
    let table = CostTable::risc_sw();
    let mut platform = Platform::new();
    let cpu0 = platform.sequential("cpu0", clock, table.clone(), sc.params.rtos_cycles);
    let cpu1 = platform.sequential("cpu1", clock, table, sc.params.rtos_cycles);
    let hw = platform.parallel("hw", clock, CostTable::asic_hw(), sc.params.hw_k);
    (platform, [cpu0, cpu1, hw])
}

/// `engine::execute_pooled`, spelled out through the same public steps
/// so each layer gets its own span: pool acquire (with the snapshot
/// fork), elaboration, the kernel run, snapshot publish on a miss, the
/// metrics fold and the slot's teardown.
fn execute_traced(
    sc: &Scenario,
    pool: &SessionPool,
    cache: &SegmentCostCache,
    op: &mut OpTrace,
) -> (Outcome, OpCounts) {
    let started = Instant::now();
    let shape = engine::shape_key(sc);
    let mut slot = op
        .span("pool.acquire", || pool.acquire_for_shape(shape))
        .expect("a free slot: requests run one at a time");
    let (platform, ids) = build_platform(sc);
    let vm = resolve_mapping(sc.mapping, ids);
    let stage_resources = [vm.lsp, vm.lpc_int, vm.acb, vm.icb, vm.post];
    let snapshot = slot.forked_snapshot().cloned();
    let mut replays: [StageTrace; 5] = [None, None, None, None, None];
    let mut fingerprints = [0_u64; 5];
    let mut missing: Vec<usize> = Vec::new();
    match &snapshot {
        Some(snap) => {
            for (stage, replay) in replays.iter_mut().enumerate() {
                *replay = snap.replay(STAGE_NAMES[stage]);
            }
        }
        None => {
            slot.reset_with_platform(platform.clone());
            if let Some(set) = cache.programs(table_fingerprint(&CostTable::risc_sw())) {
                slot.model().warm_programs(set);
            }
            for (stage, &rid) in stage_resources.iter().enumerate() {
                let fp = SegmentCostCache::fingerprint(platform.resource(rid), sc.nframes);
                fingerprints[stage] = fp;
                replays[stage] = cache.get(stage, fp);
            }
            missing = (0..5).filter(|&s| replays[s].is_none()).collect();
        }
    }
    let replayed_stages = replays.iter().filter(|r| r.is_some()).count();
    let recorder = snapshot.is_none().then(|| slot.recorder());
    let handles = {
        let (sim, model) = slot.parts_mut();
        op.span("workloads.elaborate", || {
            pipeline::build_hybrid(sim, model, vm, sc.nframes, replays)
        })
    };
    slot.enforce_limits()
        .expect("the vocoder fits the pool limits");
    let (summary, run_ns) = op.span_ns("kernel.run", || slot.run());
    let summary = summary.expect("scenario simulates");
    if let Some(recorder) = recorder {
        op.span("pool.publish", || {
            for &stage in &missing {
                let trace = recorder
                    .replay(STAGE_NAMES[stage])
                    .expect("trace recorded for live stage");
                cache.insert(stage, fingerprints[stage], trace);
            }
            cache.publish_programs(&slot.programs());
            pool.publish_snapshot(shape, Session::snapshot(&mut slot));
        });
    }
    let checksum = handles.output.lock().expect("pipeline produced output");
    let sim_metrics = op.span("obs.fold", || slot.metrics());
    let hot = slot.model().hot_stats();
    op.span("session.teardown", || drop(slot));
    let mut counts = OpCounts {
        stages: 5,
        replayed: replayed_stages as u64,
        ..OpCounts::default()
    };
    counts.add_session(&sim_metrics, &hot, summary.activations, run_ns);
    let outcome = Outcome {
        summary,
        cost: platform_cost(&sc.mapping),
        checksum,
        replayed_stages,
        report: None,
        metrics: None,
        sim_metrics,
        hot,
        elapsed: started.elapsed(),
    };
    (outcome, counts)
}

/// The request stream of one single-threaded traced-run phase: the
/// shape cycle for serve_repeat, a fresh novel stream for serve_novel.
fn phase_request(cfg: &RunCfg, repeat: bool, stream: u64, i: u64) -> SimRequest {
    if repeat {
        gen::repeat_request(cfg.seed, &gen::repeat_shapes(cfg.tiny), i)
    } else {
        gen::novel_tuple(
            stream,
            gen::novel_order(cfg.seed, i, gen::NOVEL_BLOCK),
            cfg.tiny,
        )
    }
}

/// The traced run. Three phases, each on the same seed:
///
/// 1. **service** — one untraced closed-loop round on a real
///    [`Service`], read back through `Service::metrics` for queue wait,
///    refusals, pool hits, cache evictions and retained memory;
/// 2. **untraced** — requests one at a time through the real
///    `engine::execute_pooled`, the base of `trace.overhead_pct`;
/// 3. **traced** — the same loop with every public step spanned.
pub fn run_traced(cfg: &RunCfg, repeat: bool) -> (Results, Trace) {
    let mut r = Results::default();
    let mut digest = Digest::default();
    let mut attempted = 0;
    let mut ok = 0;

    // Phase 1: the service.
    let warm = Stream::new(&warm_requests(repeat, cfg), "w");
    let mut warm_tally = Timed::default();
    let rss_before = host::rss_kib();
    let svc = start_service(&warm, &mut warm_tally);
    let (stream, key) = measured_stream(cfg, repeat);
    for e in &stream.expected {
        e.mix_into(&mut digest);
    }
    let st = round_loop(cfg, repeat, &svc, &stream, &key);
    let rss_after = host::rss_kib();
    attempted += warm_tally.attempted + st.attempted;
    ok += warm_tally.ok + st.ok;
    let m = svc.metrics();
    drop(svc);
    cfg.progress(format_args!("service phase: {} requests", st.attempted));
    let c = |name: &str| m.counter(name).unwrap_or(0) as f64;
    let g = |name: &str| m.gauge(name).unwrap_or(0.0);
    let (hits, misses) = (c("pool.hits"), c("pool.misses"));
    let completed = c("serve.completed").max(1.0);
    r.set(
        "serve.queue_wait_us",
        g("serve.queue_wait.p50_us"),
        completed as u64,
    );
    r.set("serve.rejected", c("serve.rejected"), completed as u64);
    r.set(
        "pool.hit_ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as u64,
    );
    r.set(
        "cache.evictions_per_req",
        c("serve.cache.evictions") / completed,
        completed as u64,
    );
    r.set(
        "pool.retained_kb_per_shape",
        rss_after.saturating_sub(rss_before) as f64 / misses.max(1.0),
        misses as u64,
    );

    // Phases 2 and 3 share one pool and trace cache, warmed like the
    // service's.
    let pool = SessionPool::new(
        InstanceLimits {
            max_sessions: ServiceConfig::default().workers + 1,
            ..InstanceLimits::default()
        },
        engine::pool_factory(0),
    );
    let cache = SegmentCostCache::new();
    let mut fold = MetricsSnapshot::new();
    for line in &warm.lines {
        let sc = scenario_of(line);
        engine::execute_pooled(&sc, &pool, Some(&cache), None, 0).expect("warm run");
    }
    let mut replies: Vec<(String, String)> = Vec::new();

    // Phase 2: untraced, one request at a time.
    let mut untraced_ms = Vec::new();
    let mut execute_us = Vec::new();
    let until = cfg.until(0.3);
    let mut i = 0;
    while Instant::now() < until || i == 0 {
        let line = phase_request(cfg, repeat, 1, i).line(&format!("u{i}"));
        let t0 = Instant::now();
        let v = json::parse(&line).expect("JSON");
        let Request::Sim { id, scenario } = Request::from_json(&v).expect("valid") else {
            unreachable!("sim lines only")
        };
        let e0 = Instant::now();
        let out =
            engine::execute_pooled(&scenario, &pool, Some(&cache), None, 0).expect("pooled run");
        execute_us.push(e0.elapsed().as_secs_f64() * 1e6);
        let reply = render::ok_sim(&id, &scenario, &out);
        fold.merge(out.sim_metrics);
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        replies.push((line, reply));
        i += 1;
    }
    r.set(
        "serve.execute_us",
        stats::mean(&execute_us),
        execute_us.len() as u64,
    );
    cfg.progress(format_args!("untraced phase: {i} requests"));

    // Phase 3: traced.
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut counts = Vec::new();
    let until = cfg.until(0.3);
    let mut i = 0;
    while Instant::now() < until || i == 0 {
        let q = phase_request(cfg, repeat, 2, i);
        let line = q.line(&format!("t{i}"));
        let mut op = OpTrace::begin(epoch, i, 0, "op.request");
        let (id, scenario) = op.span("serve.parse", || {
            let v = json::parse(&line).expect("JSON");
            match Request::from_json(&v).expect("valid") {
                Request::Sim { id, scenario } => (id, scenario),
                _ => unreachable!("sim lines only"),
            }
        });
        op.enter("serve.execute");
        let (out, mut k) = execute_traced(&scenario, &pool, &cache, &mut op);
        op.exit();
        let reply = op.span("serve.render", || render::ok_sim(&id, &scenario, &out));
        op.span("obs.fold", || fold.merge(out.sim_metrics));
        let mut op = op.finish();
        op.kind = if k.replayed == k.stages {
            "replay"
        } else {
            "live"
        };
        trace.push(op);
        if k.charges > 0 {
            k.plain_ns = crate::tables::plain_vocoder_ns(q.nframes);
        }
        counts.push(k);
        replies.push((line, reply));
        i += 1;
    }

    cfg.progress(format_args!("traced phase: {i} requests"));

    // Check every single-threaded reply against its oracle.
    let lines: Vec<String> = replies.iter().map(|(l, _)| l.clone()).collect();
    let want = oracles(&lines);
    for ((_, reply), e) in replies.iter().zip(&want) {
        attempted += 1;
        ok += u64::from(matches(reply, e));
    }
    cfg.progress(format_args!("oracles"));

    count_metrics(&mut r, &counts, trace.total_wall());
    let n = counts.len() as u64;
    r.set(
        "trace.overhead_pct",
        trace::overhead_pct(&trace.op_ms(), &untraced_ms),
        n,
    );
    r.attempted = attempted;
    r.failed = attempted - ok;
    r.digest = digest.value();
    (r, trace)
}
