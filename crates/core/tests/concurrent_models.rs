//! Coexistence audit for the estimator: concurrent models, nested
//! simulations and processes sharing one thread.
//!
//! The design-space-exploration engine runs one `Session` per worker
//! thread, many workers per process, and every process of a simulation
//! runs as a coroutine on the thread that calls `Session::run`. These
//! tests pin the invariants that make that safe:
//!
//! * all estimator state is per-session (`Rc<RefCell<EstInner>>`), not
//!   process-global, so concurrent sessions cannot observe each other;
//! * each process's estimation context follows it across context
//!   switches: a process suspended mid-segment, or running an inner
//!   simulation, keeps its own accumulators, and the worker thread
//!   driving `Session::run` keeps none;
//! * segment-cost replay ([`Session::spawn_replaying`]) reproduces a
//!   live run's strict-timed schedule bit-exactly.

use scperf_core::{charge_op, timed_wait, CostTable, Op, Platform, Replay, SimConfig};
use scperf_kernel::Time;

/// Charges exactly `n` unit-cost Adds into the running segment.
fn burn(n: u64) {
    for _ in 0..n {
        charge_op(Op::Add);
    }
}

/// A two-process strict-timed scenario parameterized by a seed so each
/// concurrent instance computes different numbers: a producer charges
/// work then writes frames to a FIFO; a consumer reads and charges more.
/// Returns (end_time, producer cycles, consumer cycles).
fn run_pipeline(seed: u64) -> (Time, f64, f64) {
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 25.0);
    let mut session = SimConfig::new().platform(platform).build();
    let fifo = session.fifo::<u64>("frames", 2);

    let tx = fifo.clone();
    session.spawn("producer", cpu, move |ctx| {
        for i in 0..4_u64 {
            burn(100 + seed % 7 + i);
            tx.write(ctx, i);
        }
    });
    session.spawn("consumer", cpu, move |ctx| {
        for _ in 0..4 {
            let v = fifo.read(ctx);
            burn(50 + v);
            timed_wait(ctx, Time::ns(30));
        }
    });

    let stats = session.run().unwrap();
    let report = session.report();
    (
        stats.end_time,
        report.process("producer").unwrap().total_cycles,
        report.process("consumer").unwrap().total_cycles,
    )
}

#[test]
fn concurrent_models_match_sequential_oracle() {
    // Sequential oracle first…
    let expected: Vec<_> = (0..6).map(run_pipeline).collect();

    // …then the same six scenarios on six concurrent worker threads.
    let got: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6_u64)
            .map(|seed| scope.spawn(move || run_pipeline(seed)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(got, expected, "concurrent simulations must not interact");
}

#[test]
fn nested_simulation_on_a_process_thread_is_isolated() {
    // A process body that itself constructs and runs an inner simulation
    // (as a DSE evaluation inside a larger harness might). The inner
    // model's processes run as coroutines on the outer process's stack,
    // so the outer process's estimation context must survive their
    // switches untouched.
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 0.0);
    let mut session = SimConfig::new().platform(platform).build();
    session.spawn("outer", cpu, |_ctx| {
        burn(10);
        let (inner_end, _, _) = run_pipeline(3);
        assert!(inner_end > Time::ZERO);
        burn(10);
    });
    let stats = session.run().unwrap();
    assert_eq!(stats.end_time, Time::ns(200), "20 cycles @ 10ns");
}

#[test]
fn raw_wait_mid_segment_keeps_each_process_accumulators() {
    // "a" suspends through a raw kernel wait, which is no segment
    // boundary, with 10 cycles charged; "b" runs a whole segment of 1000
    // cycles meanwhile. "a"'s segment must still come out as 10 + 10.
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu_a = platform.sequential("cpu_a", Time::ns(10), table.clone(), 0.0);
    let cpu_b = platform.sequential("cpu_b", Time::ns(10), table, 0.0);
    let mut session = SimConfig::new().platform(platform).build();
    session.spawn("a", cpu_a, |ctx| {
        burn(10);
        ctx.wait(Time::ns(1));
        burn(10);
    });
    session.spawn("b", cpu_b, |_ctx| burn(1000));
    session.run().unwrap();
    let report = session.report();
    assert_eq!(report.process("a").unwrap().total_cycles, 20.0);
    assert_eq!(report.process("b").unwrap().total_cycles, 1000.0);
}

/// Runs the pipeline once while recording per-segment cycle traces,
/// returning (end_time, per-process traces).
fn record_traces(seed: u64) -> (Time, Replay, Replay) {
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 25.0);
    let mut session = SimConfig::new().platform(platform).build();
    let recorder = session.recorder();
    let fifo = session.fifo::<u64>("frames", 2);

    let tx = fifo.clone();
    session.spawn("producer", cpu, move |ctx| {
        for i in 0..4_u64 {
            burn(100 + seed % 7 + i);
            tx.write(ctx, i);
        }
    });
    session.spawn("consumer", cpu, move |ctx| {
        for _ in 0..4 {
            let v = fifo.read(ctx);
            burn(50 + v);
            timed_wait(ctx, Time::ns(30));
        }
    });
    let stats = session.run().unwrap();
    (
        stats.end_time,
        recorder.replay("producer").unwrap(),
        recorder.replay("consumer").unwrap(),
    )
}

#[test]
fn replayed_run_matches_live_run_bit_exactly() {
    let seed = 5;
    let (live_end, prod_trace, cons_trace) = record_traces(seed);
    assert!(!prod_trace.is_empty() && !cons_trace.is_empty());

    // Replay: identical channel-access structure, but the bodies do NOT
    // charge anything — cycles come from the recorded traces.
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 25.0);
    let mut session = SimConfig::new().platform(platform).build();
    let fifo = session.fifo::<u64>("frames", 2);

    let tx = fifo.clone();
    session.spawn_replaying("producer", cpu, prod_trace.clone(), move |ctx| {
        for i in 0..4_u64 {
            // plain body: no charging at all
            tx.write(ctx, i);
        }
    });
    session.spawn_replaying("consumer", cpu, cons_trace, move |ctx| {
        for _ in 0..4 {
            let _ = fifo.read(ctx);
            timed_wait(ctx, Time::ns(30));
        }
    });

    let stats = session.run().unwrap();
    assert_eq!(stats.end_time, live_end, "replay must be bit-identical");
    let report = session.report();
    let live_total: f64 = prod_trace.cycles().iter().sum();
    assert_eq!(report.process("producer").unwrap().total_cycles, live_total);
}

#[test]
fn replay_with_charging_body_still_uses_trace() {
    // Even if the replayed body accidentally runs annotated code, the
    // charges are ignored and the trace wins — charging in replay mode
    // is a hard no-op.
    let table = CostTable::from_pairs([(Op::Add, 1.0)]);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), table, 0.0);
    let mut session = SimConfig::new().platform(platform).build();
    session.spawn_replaying("p", cpu, Replay::new(vec![40.0]), |_ctx| {
        burn(1_000_000); // ignored
    });
    let stats = session.run().unwrap();
    assert_eq!(stats.end_time, Time::ns(400), "40 cycles @ 10ns");
}
