//! Throughput and latency of the `scperf-serve` simulation service,
//! measured at 1/4/8 workers. Writes `BENCH_serve.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scperf-bench --release --bin serve_bench -- [--quick]
//! ```
//!
//! Four measurements:
//!
//! * **compute** — a stream of distinct sim requests pushed through the
//!   stdio path at each worker count: end-to-end seconds, requests/s
//!   and the service's own p50/p90/p99 latency. Simulation is
//!   CPU-bound, so this scales with *host cores*, not worker count —
//!   the committed numbers come from a run pinned to one CPU
//!   (`taskset -c 0`; `host_cpus` is recorded, see the JSON) and are
//!   expected to stay flat there.
//! * **determinism** — the same mixed batch rendered by a 1-worker and
//!   an 8-worker service must produce *bitwise identical* response
//!   payloads. Asserted, not just reported.
//! * **sustained** — repeat-shape traffic through the default service
//!   (pooled slots, every stage replayed from the trace cache) against
//!   the same scenario through `engine::execute` without a cache (a
//!   fresh session with live estimation per request, nothing reused).
//!   The requests/s ratio, `reuse_speedup`, is asserted ≥ 2× and the
//!   per-request heap allocation counts are reported alongside.
//! * **slow_clients** — the concurrency measurement that does not
//!   depend on core count: TCP clients that handshake (ping/pong),
//!   think for a fixed delay while holding the connection, then send a
//!   (cache-warmed, cheap) request. A connection pins one pool worker
//!   for its whole lifetime, so 1 worker serializes the clients'
//!   think times while 8 workers overlap them; the wall-clock ratio is
//!   the service's genuine I/O-concurrency speedup and must be ≥ 3×.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scperf_bench::microbench::host_cpus;
use scperf_obs::json::JsonWriter;
use scperf_serve::{engine, json, Request, Responder, Service, ServiceConfig, TcpServer};

/// Counts every heap allocation so the sustained-load arm can report
/// allocations per request for the service and for fresh sessions —
/// reuse's other dividend besides wall clock.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates entirely to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WORKER_COUNTS: [usize; 3] = [1, 4, 8];
const MAPPINGS: [&str; 4] = [
    r#""cpu0","cpu0","cpu0","cpu0","cpu0""#,
    r#""cpu0","cpu1","hw","cpu0","cpu1""#,
    r#""hw","hw","hw","hw","hw""#,
    r#""cpu1","cpu1","cpu0","hw","cpu0""#,
];

fn service(workers: usize) -> Service {
    Service::new(ServiceConfig {
        workers,
        queue_capacity: 256,
        retry_after_ms: 50,
        ..ServiceConfig::default()
    })
}

fn sim_line(id: &str, mapping: &str, nframes: usize) -> String {
    format!(r#"{{"id":"{id}","mapping":[{mapping}],"nframes":{nframes}}}"#)
}

struct ComputeRun {
    workers: usize,
    seconds: f64,
    throughput_rps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
}

/// Pushes `requests` sim requests through a `workers`-wide service and
/// waits for every response.
fn compute_run(workers: usize, requests: usize, nframes: usize) -> ComputeRun {
    let svc = service(workers);
    let (responder, lines) = Responder::collector();
    let start = Instant::now();
    for i in 0..requests {
        let line = sim_line(&format!("c{i}"), MAPPINGS[i % MAPPINGS.len()], nframes);
        svc.handle_line(&line, &responder);
    }
    svc.drain();
    let seconds = start.elapsed().as_secs_f64();
    let got = lines.lock().clone();
    assert_eq!(got.len(), requests, "every request must be answered");
    for l in &got {
        assert!(l.contains(r#""status":"ok""#), "unexpected response: {l}");
    }
    let m = svc.metrics();
    let gauge = |name: &str| m.gauge(name).unwrap_or(0.0);
    ComputeRun {
        workers,
        seconds,
        throughput_rps: requests as f64 / seconds,
        p50_us: gauge("serve.latency.p50_us"),
        p90_us: gauge("serve.latency.p90_us"),
        p99_us: gauge("serve.latency.p99_us"),
    }
}

/// The same mixed batch on a 1-worker and an 8-worker service; returns
/// the (asserted-identical) payloads' length for the report.
fn determinism_check() -> usize {
    let batch = format!(
        r#"{{"id":"b","op":"batch","scenarios":[{}]}}"#,
        [
            format!(r#"{{"mapping":[{}],"nframes":2}}"#, MAPPINGS[0]),
            format!(
                r#"{{"mapping":[{}],"nframes":2,"report":true}}"#,
                MAPPINGS[1]
            ),
            format!(r#"{{"mapping":[{}],"nframes":1,"hw_k":0.25}}"#, MAPPINGS[2]),
            format!(
                r#"{{"mapping":[{}],"nframes":3,"clock_ns":20}}"#,
                MAPPINGS[3]
            ),
        ]
        .join(",")
    );
    let mut outputs = Vec::new();
    for workers in [1, 8] {
        let svc = service(workers);
        let (responder, lines) = Responder::collector();
        svc.handle_line(&batch, &responder);
        svc.drain();
        let got = lines.lock().clone();
        assert_eq!(got.len(), 1);
        outputs.push(got[0].clone());
    }
    assert_eq!(
        outputs[0], outputs[1],
        "batch payloads differ between 1 and 8 workers"
    );
    outputs[0].len()
}

struct SustainedRun {
    workers: usize,
    service_rps: f64,
    fresh_rps: f64,
    reuse_speedup: f64,
    service_allocs_per_req: u64,
    fresh_allocs_per_req: u64,
}

/// The service side of the sustained arm: `requests` repeat-shape sim
/// requests through a default `workers`-wide service, after one warmup
/// request that records every stage's trace — so every measured request
/// runs in a pooled slot and replays all five stages.
fn service_arm(workers: usize, requests: usize, nframes: usize) -> (f64, u64) {
    let svc = service(workers);
    let (responder, lines) = Responder::collector();
    svc.handle_line(&sim_line("warm", MAPPINGS[1], nframes), &responder);
    while lines.lock().is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    for i in 0..requests {
        svc.handle_line(
            &sim_line(&format!("u{i}"), MAPPINGS[1], nframes),
            &responder,
        );
    }
    svc.drain();
    let seconds = start.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let got = lines.lock().clone();
    assert_eq!(got.len(), requests + 1, "every request must be answered");
    for l in &got {
        assert!(l.contains(r#""status":"ok""#), "unexpected response: {l}");
    }
    (requests as f64 / seconds, allocs / requests as u64)
}

/// The baseline side: the same scenario `requests` times through
/// `engine::execute` with no cache — a fresh session with live
/// estimation per request.
fn fresh_arm(requests: usize, nframes: usize) -> (f64, u64) {
    let line = sim_line("fresh", MAPPINGS[1], nframes);
    let request = json::parse(&line).expect("the line is JSON");
    let Ok(Request::Sim { scenario, .. }) = Request::from_json(&request) else {
        panic!("not a valid sim request: {line}");
    };
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..requests {
        let out = engine::execute(&scenario, None, None, 0).expect("fresh run");
        std::hint::black_box(out);
    }
    let seconds = start.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    (requests as f64 / seconds, allocs / requests as u64)
}

/// The service against fresh sessions at one worker count, same
/// repeat-shape traffic.
fn sustained_run(workers: usize, requests: usize, nframes: usize) -> SustainedRun {
    let (fresh_rps, fresh_allocs_per_req) = fresh_arm(requests, nframes);
    let (service_rps, service_allocs_per_req) = service_arm(workers, requests, nframes);
    SustainedRun {
        workers,
        service_rps,
        fresh_rps,
        reuse_speedup: service_rps / fresh_rps,
        service_allocs_per_req,
        fresh_allocs_per_req,
    }
}

struct SlowClientRun {
    workers: usize,
    seconds: f64,
    throughput_rps: f64,
}

/// `clients` TCP clients each handshake with a ping (so a worker is
/// committed to the connection), think for `delay`, then send one
/// cheap (cache-warmed) request.
fn slow_client_run(workers: usize, clients: usize, delay: Duration) -> SlowClientRun {
    let svc = Arc::new(service(workers));
    // Warm the segment-cost cache so the request itself is cheap and
    // the measurement isolates connection concurrency.
    let (responder, lines) = Responder::collector();
    svc.handle_line(&sim_line("warm", MAPPINGS[0], 1), &responder);
    while lines.lock().is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }

    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            std::thread::spawn(move || {
                let conn = TcpStream::connect(addr).expect("connect");
                let mut writer = conn.try_clone().expect("clone");
                let mut reader = BufReader::new(conn);
                // Handshake: the pong proves a pool worker is now
                // serving this connection...
                writeln!(writer, r#"{{"op":"ping","id":"hi"}}"#).unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                assert!(reply.contains("pong"), "reply: {reply}");
                // ...which the client then pins through its think time
                // before sending the actual request.
                std::thread::sleep(delay);
                writeln!(writer, "{}", sim_line(&format!("s{i}"), MAPPINGS[0], 1)).unwrap();
                reply.clear();
                reader.read_line(&mut reply).unwrap();
                assert!(reply.contains(r#""status":"ok""#), "reply: {reply}");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let seconds = start.elapsed().as_secs_f64();
    stop.stop();
    server_thread.join().expect("server thread");
    SlowClientRun {
        workers,
        seconds,
        throughput_rps: clients as f64 / seconds,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let host_cpus = host_cpus();
    let requests = if quick { 8 } else { 24 };
    let nframes = 2;
    let clients = 8;
    let delay = Duration::from_millis(if quick { 100 } else { 250 });

    println!("serve_bench on {host_cpus} host cpu(s)");
    println!(
        "\ncompute: {requests} requests, nframes={nframes} (CPU-bound; scales with host cores)"
    );
    let compute: Vec<ComputeRun> = WORKER_COUNTS
        .iter()
        .map(|&w| {
            let r = compute_run(w, requests, nframes);
            println!(
                "  {w} worker(s): {:>6.2}s  {:>6.2} req/s  p50 {:>8.0}us  p99 {:>8.0}us",
                r.seconds, r.throughput_rps, r.p50_us, r.p99_us
            );
            r
        })
        .collect();

    println!("\ndeterminism: same batch at 1 vs 8 workers...");
    let payload_len = determinism_check();
    println!("  payloads bitwise identical ({payload_len} bytes)");

    println!(
        "\nsustained: {requests} repeat-shape requests, nframes={nframes}, the service \
         (pooled slots, cached traces) vs fresh sessions with live estimation"
    );
    let sustained: Vec<SustainedRun> = [1, WORKER_COUNTS[2]]
        .iter()
        .map(|&w| {
            let r = sustained_run(w, requests, nframes);
            println!(
                "  {w} worker(s): service {:>7.2} req/s ({} allocs/req)  fresh {:>7.2} req/s \
                 ({} allocs/req)  speedup {:.2}x",
                r.service_rps,
                r.service_allocs_per_req,
                r.fresh_rps,
                r.fresh_allocs_per_req,
                r.reuse_speedup
            );
            r
        })
        .collect();
    // Reuse is the service's reason to hold a pool and a trace cache:
    // repeat-shape traffic must run at least 2x faster than building a
    // session and estimating live per request. The 1-worker arm is the
    // cleanest measurement (no scheduler noise).
    assert!(
        sustained[0].reuse_speedup >= 2.0,
        "repeat-shape traffic through the service must be at least 2x fresh \
         sessions with live estimation (got {:.2}x)",
        sustained[0].reuse_speedup
    );

    println!(
        "\nslow_clients: {clients} clients, {}ms think time on an open connection (I/O-bound; scales with workers)",
        delay.as_millis()
    );
    let slow: Vec<SlowClientRun> = [1, WORKER_COUNTS[2]]
        .iter()
        .map(|&w| {
            let r = slow_client_run(w, clients, delay);
            println!(
                "  {w} worker(s): {:>6.2}s  {:>6.2} req/s",
                r.seconds, r.throughput_rps
            );
            r
        })
        .collect();
    let speedup = slow[0].seconds / slow[1].seconds;
    println!("  8-worker vs 1-worker speedup: {speedup:.2}x");
    assert!(
        speedup >= 3.0,
        "8 workers must overlap slow clients at least 3x faster than 1 \
         (got {speedup:.2}x)"
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("host_cpus");
    w.value_u64(host_cpus as u64);
    w.key("quick");
    w.value_bool(quick);
    w.key("compute");
    w.begin_object();
    w.key("requests");
    w.value_u64(requests as u64);
    w.key("nframes");
    w.value_u64(nframes as u64);
    w.key("note");
    w.value_str("CPU-bound: scales with host cores, not workers; flat on a 1-cpu host");
    w.key("per_workers");
    w.begin_array();
    for r in &compute {
        w.begin_object();
        w.key("workers");
        w.value_u64(r.workers as u64);
        w.key("seconds");
        w.value_f64(r.seconds);
        w.key("throughput_rps");
        w.value_f64(r.throughput_rps);
        w.key("p50_us");
        w.value_f64(r.p50_us);
        w.key("p90_us");
        w.value_f64(r.p90_us);
        w.key("p99_us");
        w.value_f64(r.p99_us);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.key("determinism");
    w.begin_object();
    w.key("payloads_identical");
    w.value_bool(true);
    w.key("payload_bytes");
    w.value_u64(payload_len as u64);
    w.end_object();
    w.key("sustained");
    w.begin_object();
    w.key("requests");
    w.value_u64(requests as u64);
    w.key("nframes");
    w.value_u64(nframes as u64);
    w.key("note");
    w.value_str(
        "repeat-shape traffic: the default service (pooled slots, every stage replayed \
         from the trace cache) vs engine::execute without a cache (a fresh session with \
         live estimation per request)",
    );
    w.key("per_workers");
    w.begin_array();
    for r in &sustained {
        w.begin_object();
        w.key("workers");
        w.value_u64(r.workers as u64);
        w.key("service_rps");
        w.value_f64(r.service_rps);
        w.key("fresh_rps");
        w.value_f64(r.fresh_rps);
        w.key("reuse_speedup");
        w.value_f64(r.reuse_speedup);
        w.key("service_allocs_per_req");
        w.value_u64(r.service_allocs_per_req);
        w.key("fresh_allocs_per_req");
        w.value_u64(r.fresh_allocs_per_req);
        w.end_object();
    }
    w.end_array();
    w.key("meets_2x");
    w.value_bool(sustained[0].reuse_speedup >= 2.0);
    w.end_object();
    // Scale-invariant ratios for bench_compare / the CI bench gate.
    w.key("benches");
    w.begin_array();
    for r in &sustained {
        w.begin_object();
        w.key("name");
        w.value_str(&format!("serve_sustained_w{}", r.workers));
        w.key("reuse_speedup");
        w.value_f64(r.reuse_speedup);
        w.end_object();
    }
    w.end_array();
    w.key("slow_clients");
    w.begin_object();
    w.key("clients");
    w.value_u64(clients as u64);
    w.key("client_delay_ms");
    w.value_u64(delay.as_millis() as u64);
    w.key("per_workers");
    w.begin_array();
    for r in &slow {
        w.begin_object();
        w.key("workers");
        w.value_u64(r.workers as u64);
        w.key("seconds");
        w.value_f64(r.seconds);
        w.key("throughput_rps");
        w.value_f64(r.throughput_rps);
        w.end_object();
    }
    w.end_array();
    w.key("speedup_8_vs_1");
    w.value_f64(speedup);
    w.key("meets_3x");
    w.value_bool(speedup >= 3.0);
    w.end_object();
    w.end_object();

    let dir = std::env::var("SCPERF_OBS_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_serve.json");
    std::fs::write(&path, w.finish()).expect("write BENCH_serve.json");
    println!("\nbench results -> {path}");
}
