//! Lost-wakeup regression tests for the scheduler↔process handoff.
//!
//! The kernel hands the run-baton over with a lock-free park/unpark
//! protocol. The classic failure mode of such protocols is a *lost
//! wakeup*: the scheduler unparks a process an instant before the process
//! parks, and the process then sleeps forever. Every test here drives a
//! blocking-channel pattern that would hang (and trip the harness
//! timeout) if a wakeup were lost.

use scperf_kernel::{Simulator, Time};

/// Consumer blocks on an empty FIFO; the producer only writes after a
/// timed wait, so every read requires a block → timed-wakeup → unblock
/// round trip through the handoff.
#[test]
fn fifo_read_wakes_blocked_consumer() {
    let mut sim = Simulator::new();
    let ch = sim.fifo::<u32>("ch", 1);
    let tx = ch.clone();
    sim.spawn("producer", move |ctx| {
        for i in 0..200u32 {
            ctx.wait(Time::ns(3));
            tx.write(ctx, i);
        }
    });
    let rx = ch;
    sim.spawn("consumer", move |ctx| {
        let mut sum = 0u64;
        for _ in 0..200 {
            sum += u64::from(rx.read(ctx));
        }
        assert_eq!(sum, 199 * 200 / 2);
    });
    let summary = sim.run().expect("no deadlock");
    assert_eq!(summary.end_time, Time::ns(600));
}

/// Producer blocks on a *full* FIFO; the consumer drains slowly, so every
/// write requires the symmetric blocked-writer wakeup.
#[test]
fn fifo_write_wakes_blocked_producer() {
    let mut sim = Simulator::new();
    let ch = sim.fifo::<u32>("narrow", 1);
    let tx = ch.clone();
    sim.spawn("producer", move |ctx| {
        for i in 0..100u32 {
            tx.write(ctx, i); // blocks while the slot is occupied
        }
    });
    let rx = ch;
    sim.spawn("consumer", move |ctx| {
        for expected in 0..100u32 {
            ctx.wait(Time::ns(5));
            assert_eq!(rx.read(ctx), expected);
        }
    });
    sim.run().expect("no deadlock");
}

/// `try_read` must never block, and a poller alternating `try_read` with
/// timed waits must still observe every item exactly once.
#[test]
fn try_read_polls_without_losing_items() {
    let mut sim = Simulator::new();
    let ch = sim.fifo::<u32>("polled", 2);
    let tx = ch.clone();
    sim.spawn("producer", move |ctx| {
        for i in 0..50u32 {
            ctx.wait(Time::ns(7));
            tx.write(ctx, i);
        }
    });
    let rx = ch;
    sim.spawn("poller", move |ctx| {
        let mut got = Vec::new();
        while got.len() < 50 {
            while let Some(v) = rx.try_read(ctx) {
                got.push(v);
            }
            if got.len() < 50 {
                ctx.wait(Time::ns(2));
            }
        }
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    });
    sim.run().expect("no deadlock");
}

/// Event delta- and delayed-notification both wake a waiting process; a
/// ping-pong over two events exercises back-to-back handoffs in the same
/// delta cycle.
#[test]
fn event_notification_wakes_waiter() {
    let mut sim = Simulator::new();
    let ping = sim.event("ping");
    let pong = sim.event("pong");
    let (p1, g1) = (ping.clone(), pong.clone());
    // The waiter spawns first: delta notification snapshots the waiter
    // set at notify time, so "b" must already be parked on `ping` when
    // "a" first notifies.
    sim.spawn("b", move |ctx| {
        for _ in 0..100 {
            ctx.wait_event(&p1);
            g1.notify_delayed(Time::ns(1));
        }
    });
    sim.spawn("a", move |ctx| {
        for _ in 0..100 {
            ping.notify_delta();
            ctx.wait_event(&pong);
        }
    });
    let summary = sim.run().expect("no deadlock");
    assert_eq!(summary.end_time, Time::ns(100));
}

/// A wait far beyond the time wheel's ~68.7 ms span lands in the overflow
/// map; it must still fire, in order, interleaved with near-term waits.
#[test]
fn far_future_wait_crosses_wheel_span() {
    let mut sim = Simulator::new();
    sim.enable_tracing();
    sim.spawn("near", |ctx| {
        for i in 0..4 {
            ctx.wait(Time::ms(10));
            ctx.emit_trace("tick", format!("near{i}"));
        }
    });
    sim.spawn("far", |ctx| {
        ctx.wait(Time::ms(100)); // > 2^36 ps wheel span → overflow path
        ctx.emit_trace("tick", "far");
    });
    let summary = sim.run().expect("runs");
    assert_eq!(summary.end_time, Time::ms(100));
    let order: Vec<String> = sim
        .take_trace()
        .into_iter()
        .filter(|r| r.label == "tick")
        .map(|r| r.detail)
        .collect();
    assert_eq!(order, vec!["near0", "near1", "near2", "near3", "far"]);
}

/// `run_until` may pause the simulation at an arbitrary wall between two
/// timed events; resuming must not drop or reorder pending wakeups.
#[test]
fn run_until_stepping_preserves_pending_wakeups() {
    let mut sim = Simulator::new();
    let ch = sim.fifo::<u32>("ch", 4);
    let tx = ch.clone();
    sim.spawn("producer", move |ctx| {
        for i in 0..10u32 {
            ctx.wait(Time::us(1));
            tx.write(ctx, i);
        }
    });
    let rx = ch;
    sim.spawn("consumer", move |ctx| {
        let mut sum = 0u32;
        for _ in 0..10 {
            sum += rx.read(ctx);
        }
        assert_eq!(sum, 45);
    });
    // Step through in awkward increments, including walls that land
    // between events and exactly on one.
    for limit_ns in [1_500, 3_000, 3_001, 9_999] {
        sim.run_until(Time::ns(limit_ns)).expect("step");
    }
    let summary = sim.run().expect("finish");
    assert_eq!(summary.end_time, Time::us(10));
}
