//! Service-level behaviour: backpressure, deadlines, graceful drain,
//! determinism across worker counts, and both frontends end to end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use scperf_serve::json::{parse, Json};
use scperf_serve::{Disposition, Responder, Service, ServiceConfig, TcpServer};

fn service(workers: usize, queue: usize) -> Service {
    Service::new(ServiceConfig {
        workers,
        queue_capacity: queue,
        retry_after_ms: 25,
        ..ServiceConfig::default()
    })
}

fn sim_line(id: &str, mapping: &str, nframes: usize, extra: &str) -> String {
    format!(r#"{{"id":"{id}","mapping":[{mapping}],"nframes":{nframes}{extra}}}"#)
}

const ALL_CPU0: &str = r#""cpu0","cpu0","cpu0","cpu0","cpu0""#;
const MIXED: &str = r#""cpu0","cpu1","hw","cpu0","cpu1""#;

fn wait_for_lines(lines: &Arc<scperf_sync::Mutex<Vec<String>>>, n: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        {
            let got = lines.lock();
            if got.len() >= n {
                return got.clone();
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {n} responses"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn field<'j>(v: &'j Json, key: &str) -> &'j Json {
    v.get(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {v:?}"))
}

#[test]
fn requests_complete_and_responses_carry_ids() {
    let svc = service(2, 8);
    let (responder, lines) = Responder::collector();
    for i in 0..3 {
        let d = svc.handle_line(&sim_line(&format!("r{i}"), ALL_CPU0, 1, ""), &responder);
        assert_eq!(d, Disposition::Continue);
    }
    let got = wait_for_lines(&lines, 3);
    let mut ids: Vec<String> = got
        .iter()
        .map(|l| {
            let v = parse(l).expect("valid response JSON");
            assert_eq!(field(&v, "status").as_str(), Some("ok"));
            assert!(field(&v, "end_time_ps").as_u64().unwrap() > 0);
            field(&v, "id").as_str().unwrap().to_string()
        })
        .collect();
    ids.sort();
    assert_eq!(ids, ["r0", "r1", "r2"]);
    svc.drain();
}

#[test]
fn queue_saturation_rejects_with_retry_after() {
    // One worker, queue of one: the second concurrent request must be
    // rejected while the first still runs.
    let svc = service(1, 1);
    let (responder, lines) = Responder::collector();
    svc.handle_line(&sim_line("slow", ALL_CPU0, 64, ""), &responder);
    let mut rejected = 0;
    for i in 0..8 {
        svc.handle_line(&sim_line(&format!("r{i}"), ALL_CPU0, 1, ""), &responder);
        let got = lines.lock().clone();
        rejected = got.iter().filter(|l| l.contains("\"queue_full\"")).count();
        if rejected > 0 {
            break;
        }
    }
    assert!(rejected > 0, "no request was rejected at capacity 1");
    let got = lines.lock().clone();
    let reject = got
        .iter()
        .find(|l| l.contains("\"queue_full\""))
        .expect("rejection present");
    let v = parse(reject).unwrap();
    assert_eq!(field(&v, "status").as_str(), Some("error"));
    assert_eq!(field(&v, "retry_after_ms").as_u64(), Some(25));
    svc.drain();
    let m = svc.metrics();
    assert!(m.counter("serve.rejected").unwrap() > 0);
}

#[test]
fn deadlines_expire_mid_run_and_in_queue() {
    let svc = service(1, 8);
    let (responder, lines) = Responder::collector();
    // Long scenario (a live 4096-frame run takes ~600 ms in a release
    // build, 128 frames only ~20 ms), 25ms budget: a worker picks it up
    // well within the budget even on a loaded host, and it expires
    // mid-run.
    svc.handle_line(
        &sim_line("dl", ALL_CPU0, 4096, r#","deadline_ms":25"#),
        &responder,
    );
    // Queued behind it with a budget shorter than the head-of-line
    // run: expires before it even starts.
    svc.handle_line(
        &sim_line("q", ALL_CPU0, 128, r#","deadline_ms":1"#),
        &responder,
    );
    let got = wait_for_lines(&lines, 2);
    let by_id = |id: &str| {
        let line = got
            .iter()
            .find(|l| parse(l).unwrap().get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}"));
        parse(line).unwrap()
    };
    let dl = by_id("dl");
    assert_eq!(field(&dl, "code").as_str(), Some("deadline_exceeded"));
    assert!(field(&dl, "message").as_str().unwrap().contains("mid-run"));
    let q = by_id("q");
    assert_eq!(field(&q, "code").as_str(), Some("deadline_exceeded"));
    svc.drain();
    assert_eq!(svc.metrics().counter("serve.deadline_exceeded"), Some(2));
}

#[test]
fn drain_finishes_every_accepted_request() {
    let svc = service(2, 16);
    let (responder, lines) = Responder::collector();
    for i in 0..6 {
        svc.handle_line(&sim_line(&format!("r{i}"), MIXED, 2, ""), &responder);
    }
    // Drain immediately: all six must still be answered, successfully.
    svc.drain();
    let got = lines.lock().clone();
    assert_eq!(got.len(), 6);
    for l in &got {
        assert_eq!(field(&parse(l).unwrap(), "status").as_str(), Some("ok"));
    }
    // And new work is refused while draining.
    svc.handle_line(&sim_line("late", ALL_CPU0, 1, ""), &responder);
    let last = lines.lock().last().cloned().unwrap();
    assert!(last.contains("\"shutting_down\""), "got: {last}");
}

#[test]
fn batches_are_bitwise_identical_across_worker_counts() {
    // The same batch — mixed mappings, parameters, one invalid entry —
    // must render the same bytes from a 1-worker and an 8-worker
    // service: results are index-ordered and payloads carry no host
    // timing.
    let batch = r#"{"id":"b","op":"batch","scenarios":[
        {"mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":2},
        {"mapping":["cpu0","cpu1","hw","cpu0","cpu1"],"nframes":2},
        {"mapping":["hw","hw","hw","hw","hw"],"nframes":1,"hw_k":0.25},
        {"mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":0},
        {"mapping":["cpu1","cpu1","cpu1","cpu1","cpu1"],"nframes":3,"clock_ns":20,"report":true}
    ]}"#
    .replace('\n', "");
    let mut outputs = Vec::new();
    for workers in [1, 8] {
        let svc = service(workers, 16);
        let (responder, lines) = Responder::collector();
        assert_eq!(svc.handle_line(&batch, &responder), Disposition::Continue);
        let got = wait_for_lines(&lines, 1);
        outputs.push(got[0].clone());
        svc.drain();
    }
    assert_eq!(
        outputs[0], outputs[1],
        "batch responses differ between 1 and 8 workers"
    );
    let v = parse(&outputs[0]).unwrap();
    let results = field(&v, "results").as_arr().unwrap();
    assert_eq!(results.len(), 5);
    assert_eq!(field(&results[3], "status").as_str(), Some("error"));
    assert_eq!(field(&results[3], "field").as_str(), Some("nframes"));
    assert_eq!(field(&results[4], "status").as_str(), Some("ok"));
    assert!(results[4].get("report").is_some());
}

#[test]
fn repeated_scenarios_replay_cached_traces_without_changing_results() {
    let svc = service(1, 8);
    let (responder, lines) = Responder::collector();
    for i in 0..4 {
        let line = sim_line(&format!("r{i}"), MIXED, 2, r#","timing":true"#);
        svc.handle_line(&line, &responder);
    }
    svc.drain();
    let got = lines.lock().clone();
    let times: Vec<u64> = got
        .iter()
        .map(|l| field(&parse(l).unwrap(), "end_time_ps").as_u64().unwrap())
        .collect();
    assert!(times.windows(2).all(|w| w[0] == w[1]), "times: {times:?}");
    let replayed: Vec<u64> = got
        .iter()
        .map(|l| {
            field(&parse(l).unwrap(), "replayed_stages")
                .as_u64()
                .unwrap()
        })
        .collect();
    // One worker runs the requests in order: the first records every
    // stage, the repeats replay every stage from the trace cache.
    assert_eq!(replayed, [0, 5, 5, 5], "{got:?}");
    let m = svc.metrics();
    assert_eq!(m.counter("serve.cache.hits"), Some(15), "{m}");
    assert_eq!(m.counter("pool.misses"), Some(4), "one per request: {m}");
    assert_eq!(m.counter("pool.hits"), Some(0), "{m}");
    assert_eq!(m.counter("pool.exhausted"), Some(0), "{m}");
    assert!(m.counter("serve.latency.count").is_some());
}

#[test]
fn stdio_frontend_round_trips_and_shuts_down() {
    let svc = service(2, 8);
    let input = format!(
        "{}\n{}\nnot json\n{}\n",
        r#"{"op":"ping"}"#,
        sim_line("s1", MIXED, 1, ""),
        r#"{"op":"shutdown","id":"bye"}"#
    );
    let (responder, lines) = Responder::collector();
    scperf_serve::stdio::serve_reader(&svc, BufReader::new(input.as_bytes()), &responder);
    // serve_reader returns only after the drain: every line answered.
    let got = lines.lock().clone();
    assert_eq!(got.len(), 4);
    assert!(got.iter().any(|l| l.contains("\"pong\"")));
    assert!(got.iter().any(|l| l.contains("\"parse_error\"")));
    assert!(got.iter().any(|l| l.contains("\"s1\"")));
    assert!(got.iter().any(|l| l.contains("\"draining\":true")));
}

/// Eight MiB of request bytes before the first newline: far past the
/// frontends' one-MiB line bound.
fn oversized_line() -> Vec<u8> {
    vec![b'x'; 8 << 20]
}

#[test]
fn stdio_frontend_rejects_an_oversized_line_and_keeps_serving() {
    let svc = service(1, 8);
    let mut input = oversized_line();
    input.extend_from_slice(b"\n{\"op\":\"ping\",\"id\":\"after\"}\n");
    let (responder, lines) = Responder::collector();
    scperf_serve::stdio::serve_reader(&svc, BufReader::new(input.as_slice()), &responder);
    let got = lines.lock().clone();
    assert_eq!(got.len(), 2, "{got:?}");
    let err = parse(&got[0]).unwrap();
    assert_eq!(field(&err, "code").as_str(), Some("invalid_request"));
    assert!(got[0].contains("exceeds"), "{}", got[0]);
    assert!(got[1].contains("\"pong\"") && got[1].contains("\"after\""));
}

#[test]
fn tcp_frontend_closes_a_connection_that_sends_an_oversized_line() {
    let svc = Arc::new(service(2, 8));
    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let server_thread = thread::spawn(move || server.run());

    let conn = TcpStream::connect(addr).expect("connect");
    // A server that kept the connection open would block the reader
    // below forever; time out instead, and fail on the reply count.
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut tx = conn.try_clone().unwrap();
    // The server hangs up mid-send, so the writer's errors are expected.
    let writer = thread::spawn(move || {
        let _ = tx.write_all(&oversized_line());
        let _ = tx.write_all(b"\n{\"op\":\"ping\"}\n");
    });
    let mut replies = Vec::new();
    for line in BufReader::new(conn).lines() {
        match line {
            Ok(line) => replies.push(line),
            Err(_) => break,
        }
    }
    writer.join().unwrap();
    assert_eq!(replies.len(), 1, "the connection must close: {replies:?}");
    let err = parse(&replies[0]).unwrap();
    assert_eq!(field(&err, "code").as_str(), Some("invalid_request"));

    // The service itself is unharmed.
    let mut conn = TcpStream::connect(addr).expect("connect");
    writeln!(conn, r#"{{"op":"ping"}}"#).unwrap();
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"pong\""), "{reply}");
    stop.stop();
    server_thread.join().expect("server thread");
}

/// A request line that is not UTF-8, then a ping.
const NON_UTF8_THEN_PING: &[u8] =
    b"{\"op\":\"ping\",\"id\":\"\xff\xfe\"}\n{\"op\":\"ping\",\"id\":\"after\"}\n";

#[test]
fn stdio_frontend_answers_a_non_utf8_line_and_keeps_serving() {
    let svc = service(1, 8);
    let (responder, lines) = Responder::collector();
    scperf_serve::stdio::serve_reader(&svc, BufReader::new(NON_UTF8_THEN_PING), &responder);
    let got = lines.lock().clone();
    assert_eq!(got.len(), 2, "{got:?}");
    let err = parse(&got[0]).unwrap();
    assert_eq!(field(&err, "code").as_str(), Some("parse_error"));
    assert!(got[1].contains("\"pong\"") && got[1].contains("\"after\""));
}

#[test]
fn tcp_frontend_answers_a_non_utf8_line_and_keeps_serving() {
    let svc = Arc::new(service(1, 8));
    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let server_thread = thread::spawn(move || server.run());

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(NON_UTF8_THEN_PING).unwrap();
    let mut reader = BufReader::new(conn);
    let mut replies = Vec::new();
    for _ in 0..2 {
        let mut reply = String::new();
        if reader.read_line(&mut reply).unwrap_or(0) == 0 {
            break;
        }
        replies.push(reply);
    }
    assert_eq!(replies.len(), 2, "{replies:?}");
    let err = parse(replies[0].trim()).unwrap();
    assert_eq!(field(&err, "code").as_str(), Some("parse_error"));
    assert!(replies[1].contains("\"pong\"") && replies[1].contains("\"after\""));
    drop(reader);
    stop.stop();
    server_thread.join().expect("server thread");
}

#[test]
fn tcp_frontend_serves_concurrent_connections() {
    let svc = Arc::new(service(2, 8));
    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let request_on = |mapping: &'static str, id: &'static str| {
        std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect");
            writeln!(conn, "{}", sim_line(id, mapping, 1, "")).unwrap();
            let mut reply = String::new();
            BufReader::new(conn).read_line(&mut reply).unwrap();
            reply
        })
    };
    let a = request_on(ALL_CPU0, "a");
    let b = request_on(MIXED, "b");
    let ra = parse(&a.join().unwrap()).unwrap();
    let rb = parse(&b.join().unwrap()).unwrap();
    assert_eq!(field(&ra, "status").as_str(), Some("ok"));
    assert_eq!(field(&rb, "status").as_str(), Some("ok"));
    assert_eq!(field(&ra, "id").as_str(), Some("a"));

    // Stats over TCP reflects the served requests.
    let mut conn = TcpStream::connect(addr).expect("connect");
    writeln!(conn, r#"{{"op":"stats"}}"#).unwrap();
    let mut reply = String::new();
    BufReader::new(conn.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    let v = parse(&reply).unwrap();
    let metrics = field(&v, "metrics");
    assert!(field(metrics, "serve.completed").as_u64().unwrap() >= 2);
    // The estimator hot-path counters accumulate across served runs.
    assert!(field(metrics, "est.charge.fast").as_u64().unwrap() > 0);
    assert!(field(metrics, "est.site_cache.hit").as_u64().unwrap() > 0);

    stop.stop();
    server_thread.join().expect("server thread");
}

#[test]
fn stats_report_in_run_programs_and_trace_reuse_across_tuples() {
    // A second request with a new clock, RTOS overhead and `k` replays
    // every stage trace the first one recorded. Cost programs stay in
    // the run that compiled them: the stats reply counts in-run site
    // hits and misses and carries no program-sharing series.
    let svc = service(1, 8);
    let (responder, lines) = Responder::collector();
    svc.handle_line(&sim_line("first", MIXED, 1, ""), &responder);
    wait_for_lines(&lines, 1);
    let retuned = r#","clock_ns":7.5,"rtos_cycles":40,"hw_k":0.9,"timing":true"#;
    svc.handle_line(&sim_line("second", MIXED, 1, retuned), &responder);
    wait_for_lines(&lines, 2);
    svc.handle_line(r#"{"op":"stats","id":"st"}"#, &responder);
    let got = wait_for_lines(&lines, 3);
    let reply = got
        .iter()
        .find(|l| l.contains("\"stats\""))
        .expect("stats reply");
    let v = parse(reply).unwrap();
    let m = field(&v, "metrics");
    assert!(field(m, "est.prog.hits").as_u64().unwrap() > 0);
    assert!(field(m, "est.prog.misses").as_u64().unwrap() > 0);
    for gone in [
        "est.prog.warm_hits",
        "est.prog.rejects",
        "est.prog.published",
    ] {
        assert!(m.get(gone).is_none(), "{gone} is still reported: {m:?}");
    }
    assert_eq!(field(m, "serve.cache.hits").as_u64(), Some(5));
    let second = got.iter().find(|l| l.contains("\"second\"")).unwrap();
    let sv = parse(second).unwrap();
    assert_eq!(field(&sv, "status").as_str(), Some("ok"));
    assert_eq!(field(&sv, "replayed_stages").as_u64(), Some(5), "{second}");
    svc.drain();
}

/// Minimal structural validation of Prometheus text exposition: every
/// line is either a `# TYPE <name> <kind>` comment or a
/// `<name>[{labels}] <float>` sample.
fn assert_valid_exposition(body: &str) {
    assert!(!body.is_empty(), "empty exposition");
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad family name: {line}"
            );
            assert!(
                ["counter", "gauge", "summary"].contains(&kind),
                "bad family kind: {line}"
            );
        } else {
            let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| {
                panic!("sample line without value: {line}");
            });
            assert!(!name.is_empty(), "empty sample name: {line}");
            assert!(
                value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
                "unparseable sample value: {line}"
            );
        }
    }
}

#[test]
fn telemetry_op_exposes_prometheus_text_with_attribution_series() {
    let svc = service(2, 8);
    let (responder, lines) = Responder::collector();
    svc.handle_line(&sim_line("r1", ALL_CPU0, 2, ""), &responder);
    svc.handle_line(&sim_line("r2", MIXED, 2, ""), &responder);
    wait_for_lines(&lines, 2);
    svc.handle_line(r#"{"op":"telemetry","id":"t"}"#, &responder);
    let got = wait_for_lines(&lines, 3);
    let reply = got
        .iter()
        .find(|l| l.contains("\"telemetry\""))
        .expect("telemetry reply");
    let v = parse(reply).unwrap();
    assert_eq!(field(&v, "status").as_str(), Some("ok"));
    assert_eq!(field(&v, "id").as_str(), Some("t"));
    assert_eq!(
        field(&v, "content_type").as_str(),
        Some("text/plain; version=0.0.4")
    );
    let body = field(&v, "body").as_str().expect("body is a string");
    assert_valid_exposition(body);
    // The acceptance triple: kernel scheduling accounting, estimator
    // per-resource contention, and a serve latency quantile series.
    assert!(
        body.lines().any(|l| l.starts_with("kernel_sched_")),
        "no kernel.sched.* series in:\n{body}"
    );
    assert!(
        body.contains("# TYPE est_res_cpu0_busy_ns counter"),
        "no est.res.* series in:\n{body}"
    );
    assert!(
        body.contains("est_res_cpu0_contention_ns"),
        "no contention series in:\n{body}"
    );
    assert!(
        body.contains("# TYPE serve_latency_us summary")
            && body.contains("serve_latency_us{quantile=\"0.99\"}"),
        "no serve latency quantile series in:\n{body}"
    );
    // Folded kernel counters are present and non-zero.
    let deltas: f64 = body
        .lines()
        .find_map(|l| l.strip_prefix("kernel_delta_cycles "))
        .expect("kernel_delta_cycles sample")
        .parse()
        .unwrap();
    assert!(deltas > 0.0);
    svc.drain();
}

#[test]
fn multi_worker_runs_fold_into_one_telemetry_snapshot() {
    // MetricsSnapshot::merge semantics end to end: every run of the
    // same scenario simulates identically, whether its stages charge
    // live or replay cached traces, so the 4-worker service's folded
    // kernel and resource counters must be exactly 4x a single run's —
    // counters sum across workers, they don't race or overwrite.
    let config = |workers| ServiceConfig {
        workers,
        queue_capacity: 16,
        ..ServiceConfig::default()
    };
    let one = Service::new(config(1));
    let (responder, lines) = Responder::collector();
    one.handle_line(&sim_line("solo", ALL_CPU0, 2, ""), &responder);
    one.drain();
    assert_eq!(wait_for_lines(&lines, 1).len(), 1);
    let single_deltas = one.telemetry().counter("kernel.delta_cycles").unwrap();
    assert!(single_deltas > 0);

    let many = Service::new(config(4));
    let (responder, lines) = Responder::collector();
    for i in 0..4 {
        many.handle_line(&sim_line(&format!("r{i}"), ALL_CPU0, 2, ""), &responder);
    }
    many.drain();
    assert_eq!(wait_for_lines(&lines, 4).len(), 4);
    let t = many.telemetry();
    assert_eq!(t.counter("kernel.delta_cycles"), Some(4 * single_deltas));
    assert_eq!(
        t.counter("est.res.cpu0.busy_ns"),
        one.telemetry()
            .counter("est.res.cpu0.busy_ns")
            .map(|v| 4 * v)
    );
    // Service-level series ride along un-doubled.
    assert_eq!(t.counter("serve.completed"), Some(4));
}

#[test]
fn stats_op_reports_uptime_and_per_op_counts_and_resets_via_stdio() {
    let svc = service(2, 8);
    let input = format!(
        "{}\n{}\n{}\n",
        r#"{"op":"ping"}"#,
        sim_line("s1", ALL_CPU0, 1, ""),
        r#"{"op":"stats","id":"st1"}"#
    );
    let (responder, lines) = Responder::collector();
    scperf_serve::stdio::serve_reader(&svc, BufReader::new(input.as_bytes()), &responder);
    // serve_reader returned, so the sim has drained; control ops are
    // still answered while draining.
    svc.handle_line(r#"{"op":"stats","id":"st2","reset":true}"#, &responder);
    svc.handle_line(r#"{"op":"stats","id":"st3"}"#, &responder);
    let got = lines.lock().clone();
    assert_eq!(got.len(), 5);
    let by_id = |id: &str| {
        let line = got
            .iter()
            .find(|l| parse(l).unwrap().get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}"));
        parse(line).unwrap()
    };
    // Stats answers inline in request order, so st1 saw the ping and
    // the sim admission even if the sim answer came later.
    let st1 = by_id("st1");
    assert!(field(&st1, "uptime_s").as_f64().unwrap() >= 0.0);
    assert!(st1.get("reset").is_none());
    let m1 = field(&st1, "metrics");
    assert_eq!(field(m1, "serve.op.ping").as_u64(), Some(1));
    assert_eq!(field(m1, "serve.op.sim").as_u64(), Some(1));
    assert_eq!(field(m1, "serve.op.stats").as_u64(), Some(1));
    // The read-and-reset reply carries the pre-reset state, sim run
    // included...
    let st2 = by_id("st2");
    assert_eq!(field(&st2, "reset").as_bool(), Some(true));
    let m2 = field(&st2, "metrics");
    assert_eq!(field(m2, "serve.op.stats").as_u64(), Some(2));
    assert_eq!(field(m2, "serve.completed").as_u64(), Some(1));
    assert_eq!(field(m2, "serve.latency.count").as_u64(), Some(1));
    // ...and the next stats sees zeroed history (only itself).
    let st3 = by_id("st3");
    let m3 = field(&st3, "metrics");
    assert_eq!(field(m3, "serve.op.stats").as_u64(), Some(1));
    assert_eq!(field(m3, "serve.op.ping").as_u64(), Some(0));
    assert_eq!(field(m3, "serve.op.sim").as_u64(), Some(0));
    assert_eq!(field(m3, "serve.completed").as_u64(), Some(0));
    assert!(m3.get("serve.latency.count").is_none());
}

#[test]
fn tcp_shutdown_op_stops_the_server() {
    let svc = Arc::new(service(1, 4));
    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let mut conn = TcpStream::connect(addr).expect("connect");
    writeln!(conn, r#"{{"op":"shutdown"}}"#).unwrap();
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"draining\":true"), "got: {reply}");
    // run() returns only after the drain completes.
    server_thread.join().expect("server thread");
    assert!(svc.is_draining());
}

/// A `Read` fed line-by-line from a client thread, so a stdio session
/// can react to responses before deciding what to send next. EOF when
/// the sender hangs up.
struct ChannelReader {
    rx: std::sync::mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl std::io::Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(b) => {
                    self.buf = b;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn a_queue_full_client_retries_after_the_hint_and_succeeds() {
    // One worker, capacity one: a slow request monopolizes the
    // service, the follow-up is rejected with `queue_full` and a
    // `retry_after_ms` hint, and honouring the hint eventually gets it
    // through — the full backpressure contract, over the real stdio
    // frontend.
    let svc = service(1, 1);
    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let (responder, lines) = Responder::collector();

    let client_lines = Arc::clone(&lines);
    let client = std::thread::spawn(move || {
        let send = |s: String| {
            let _ = tx.send(format!("{s}\n").into_bytes());
        };
        send(sim_line("slow", ALL_CPU0, 64, ""));
        send(sim_line("r1", MIXED, 1, ""));
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut seen = 0;
        let mut rejections = 0_u32;
        loop {
            assert!(Instant::now() < deadline, "r1 never completed");
            let got = client_lines.lock().clone();
            for line in &got[seen..] {
                let v = parse(line).unwrap();
                if v.get("id").and_then(Json::as_str) != Some("r1") {
                    continue;
                }
                if field(&v, "status").as_str() == Some("ok") {
                    send(r#"{"op":"shutdown","id":"bye"}"#.into());
                    return rejections;
                }
                assert_eq!(field(&v, "code").as_str(), Some("queue_full"));
                let hint = field(&v, "retry_after_ms").as_u64().unwrap();
                assert!(hint >= 1);
                rejections += 1;
                std::thread::sleep(Duration::from_millis(hint));
                send(sim_line("r1", MIXED, 1, ""));
            }
            seen = got.len();
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    let reader = ChannelReader {
        rx,
        buf: Vec::new(),
        pos: 0,
    };
    scperf_serve::stdio::serve_reader(&svc, BufReader::new(reader), &responder);
    let rejections = client.join().unwrap();
    assert!(rejections >= 1, "the first r1 must have been rejected");
    let got = lines.lock().clone();
    let oks = got
        .iter()
        .filter(|l| l.contains(r#""id":"r1""#) && l.contains(r#""status":"ok""#))
        .count();
    assert_eq!(oks, 1, "exactly one r1 success: {got:?}");
}

#[test]
fn an_exhausted_session_pool_rejects_with_a_retry_hint() {
    // The pool holds `workers + 1` slots. More threads than that running
    // requests inline through `handle_line_sync` contend for them: the
    // losers get `pool_exhausted` with a retry hint, and a retry after
    // the traffic clears succeeds.
    const CALLERS: usize = 6;
    let svc = service(1, 8);
    let start = Barrier::new(CALLERS);
    let got: Vec<String> = thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|i| {
                let (svc, start) = (&svc, &start);
                scope.spawn(move || {
                    start.wait();
                    let line = sim_line(&format!("r{i}"), ALL_CPU0, 64, "");
                    svc.handle_line_sync(&line).0.expect("a reply")
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller thread"))
            .collect()
    });
    let exhausted: Vec<&String> = got
        .iter()
        .filter(|l| l.contains(r#""code":"pool_exhausted""#))
        .collect();
    assert!(
        !exhausted.is_empty(),
        "{CALLERS} callers racing 2 slots must collide: {got:?}"
    );
    for line in &exhausted {
        let v = parse(line).unwrap();
        assert!(field(&v, "retry_after_ms").as_u64().unwrap() >= 1);
    }
    // A rejected slot was never poisoned: a retry runs clean and
    // matches the successful runs bit for bit.
    let (retry, _) = svc.handle_line_sync(&sim_line("again", ALL_CPU0, 64, ""));
    let v = parse(&retry.expect("a reply")).unwrap();
    assert_eq!(field(&v, "status").as_str(), Some("ok"), "{v:?}");
    let expect = got
        .iter()
        .find(|l| l.contains(r#""status":"ok""#))
        .map(|l| field(&parse(l).unwrap(), "end_time_ps").as_u64().unwrap())
        .expect("at least one caller got a slot");
    assert_eq!(field(&v, "end_time_ps").as_u64(), Some(expect));
    let m = svc.metrics();
    assert_eq!(
        m.counter("pool.exhausted"),
        Some(exhausted.len() as u64),
        "{m}"
    );
}

#[test]
fn retry_hints_derive_from_observed_run_durations() {
    // An implausible configured default proves the hint switches to
    // the observed p90 once any run has completed.
    let svc = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 777_777,
        ..ServiceConfig::default()
    });
    let (responder, lines) = Responder::collector();
    // Before any completion the default is all we have.
    svc.handle_line(&sim_line("s1", ALL_CPU0, 64, ""), &responder);
    svc.handle_line(&sim_line("rej1", MIXED, 1, ""), &responder);
    let got = wait_for_lines(&lines, 1);
    let early = got
        .iter()
        .find(|l| l.contains(r#""code":"queue_full""#))
        .expect("rej1 bounced");
    assert_eq!(
        field(&parse(early).unwrap(), "retry_after_ms").as_u64(),
        Some(777_777)
    );
    svc.drain();
    // s1 completed; hints now follow its observed duration.
    // (drain() only stops admission for *requests*; metrics and the
    // saturation math keep working, so probe via a fresh service call.)
    let m = svc.metrics();
    assert!(m.counter("serve.completed").unwrap() >= 1, "{m}");
    let p90_us = m.gauge("serve.run.p90_us").unwrap();
    let hinted = ((p90_us / 1e3).ceil() as u64).max(1);
    assert!(
        hinted < 777_777,
        "a real run duration must beat the sentinel: {m}"
    );
}

#[test]
fn types_shared_across_workers_stay_send_and_sync() {
    // Simulations are single-threaded (`Session`, `Simulator` and
    // `PerfModel` are `!Send`); what workers share must still cross
    // threads.
    fn send_sync<T: Send + Sync>() {}
    send_sync::<scperf_core::Replay>();
    send_sync::<scperf_core::SessionPool>();
    send_sync::<scperf_dse::SegmentCostCache>();
    send_sync::<Service>();
}
