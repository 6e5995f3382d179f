//! Property tests for single-use sessions under the pool's admission
//! control: a freshly built session, a session rebuilt by
//! `reset_with_platform` after an unrelated run, and a pooled session
//! replaying recorded traces must be bit-identical — summary, report,
//! kernel trace and produced data — and a run that failed with a process
//! panic must free its admission slot for a session that runs
//! bit-identically to a fresh one.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use scperf_core::{
    g_i64, CostTable, InstanceLimits, Platform, Replay, ResourceId, Session, SessionPool, SimConfig,
};
use scperf_kernel::{SimError, Time, TraceMode};

fn platform() -> (Platform, ResourceId, ResourceId) {
    let mut p = Platform::new();
    let cpu = p.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 50.0);
    let hw = p.parallel("hw", Time::ns(10), CostTable::asic_hw(), 0.5);
    (p, cpu, hw)
}

fn config() -> SimConfig {
    SimConfig::new()
        .platform(platform().0)
        .tracing(TraceMode::Unbounded)
}

/// The two-stage pipeline under test: `gen` (annotated, on the CPU)
/// streams derived values into `xform` (annotated, on the accelerator),
/// and an untimed sink collects the results. A stage with a trace in
/// `replays` elaborates in replay mode with a *plain* body computing the
/// same values — the trace-cache fast path.
fn elaborate(
    session: &mut Session,
    cpu: ResourceId,
    hw: ResourceId,
    nitems: usize,
    seed: i64,
    replays: &[(String, Replay)],
) -> Rc<RefCell<Vec<i64>>> {
    let replay = |name: &str| {
        replays
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.clone())
    };
    let mid = session.fifo::<i64>("mid", 2);
    let out = session.fifo::<i64>("out", 2);
    let collected = Rc::new(RefCell::new(Vec::new()));

    let gen_value = move |i: usize| -> i64 {
        let mut acc = seed;
        for k in 0..4 {
            acc += (i + k) as i64 * 3;
        }
        acc
    };
    let tx = mid.clone();
    match replay("gen") {
        Some(replay) => {
            session.spawn_replaying("gen", cpu, replay, move |ctx| {
                for i in 0..nitems {
                    tx.write(ctx, gen_value(i));
                }
            });
        }
        None => {
            session.spawn("gen", cpu, move |ctx| {
                for i in 0..nitems {
                    let mut acc = g_i64(seed);
                    for k in 0..4 {
                        acc = acc + g_i64((i + k) as i64) * g_i64(3);
                    }
                    tx.write(ctx, acc.get());
                }
            });
        }
    }

    let rx = mid;
    let tx = out.clone();
    match replay("xform") {
        Some(replay) => {
            session.spawn_replaying("xform", hw, replay, move |ctx| {
                for _ in 0..nitems {
                    let v = rx.read(ctx);
                    tx.write(ctx, v * 2 - 1);
                }
            });
        }
        None => {
            session.spawn("xform", hw, move |ctx| {
                for _ in 0..nitems {
                    let v = rx.read(ctx);
                    let r = g_i64(v) * g_i64(2) - g_i64(1);
                    tx.write(ctx, r.get());
                }
            });
        }
    }

    let sink = Rc::clone(&collected);
    session.spawn_untimed("sink", move |ctx| {
        for _ in 0..nitems {
            let v = out.read(ctx);
            sink.borrow_mut().push(v);
        }
    });
    collected
}

/// Everything a run must reproduce bit for bit.
fn observe(
    session: &mut Session,
    collected: &RefCell<Vec<i64>>,
) -> impl PartialEq + std::fmt::Debug {
    let summary = session.run().expect("determinate pipeline");
    (
        summary,
        session.report(),
        session.take_events().events,
        collected.borrow().clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fresh vs rebuilt vs a pooled session replaying recorded traces:
    /// identical down to the trace, for random workload sizes and seeds.
    #[test]
    fn fresh_rebuilt_and_replaying_sessions_are_bit_identical(
        nitems in 1usize..12,
        seed in -50_i64..50,
    ) {
        let (platform, cpu, hw) = platform();

        let mut fresh = config().build();
        let data = elaborate(&mut fresh, cpu, hw, nitems, seed, &[]);
        let oracle = observe(&mut fresh, &data);

        // Rebuilt: run an unrelated scenario on another platform first.
        let mut other = Platform::new();
        let slow = other.sequential("slow", Time::ns(25), CostTable::risc_sw(), 0.0);
        let mut rebuilt = SimConfig::new()
            .platform(other)
            .tracing(TraceMode::Unbounded)
            .build();
        rebuilt.spawn("other", slow, |_ctx| {
            let _ = g_i64(5) * g_i64(7);
        });
        rebuilt.run().expect("warmup scenario");
        rebuilt.reset_with_platform(platform);
        let data = elaborate(&mut rebuilt, cpu, hw, nitems, seed, &[]);
        prop_assert_eq!(&observe(&mut rebuilt, &data), &oracle);

        // Replayed: one pooled session records live, the next one
        // replays the Recorder's traces.
        let pool = SessionPool::new(
            InstanceLimits { max_sessions: 1, ..InstanceLimits::default() },
            || config().build(),
        );
        let replays = {
            let mut slot = pool.acquire().expect("free slot");
            let recorder = slot.recorder();
            let data = elaborate(&mut slot, cpu, hw, nitems, seed, &[]);
            prop_assert_eq!(&observe(&mut slot, &data), &oracle);
            recorder.replays()
        };
        let mut slot = pool.acquire().expect("release freed the slot");
        let data = elaborate(&mut slot, cpu, hw, nitems, seed, &replays);
        prop_assert_eq!(&observe(&mut slot, &data), &oracle);
        prop_assert_eq!(pool.stats().misses, 2);
    }
}

#[test]
fn a_panicked_run_frees_its_admission_slot() {
    // A process panic fails the run with ProcessPanic while another
    // process is still blocked on a channel. Dropping the session must
    // free the pool's only slot, and the next acquisition must run
    // bit-identically to a fresh session.
    let (_, cpu, hw) = platform();
    let pool = SessionPool::new(
        InstanceLimits {
            max_sessions: 1,
            ..InstanceLimits::default()
        },
        || config().build(),
    );

    {
        let mut slot = pool.acquire().expect("free slot");
        let sim = slot.sim();
        let ch = sim.fifo::<u32>("ch", 1);
        let rx = ch.clone();
        sim.spawn("reader", move |ctx| {
            let _ = rx.read(ctx);
            let _ = rx.read(ctx); // never written: blocked at the panic
        });
        sim.spawn("bad", move |ctx| {
            ch.write(ctx, 1);
            ctx.wait(Time::ns(5));
            panic!("deliberate test panic");
        });
        match slot.run() {
            Err(SimError::ProcessPanic { process, .. }) => assert_eq!(process, "bad"),
            other => panic!("expected ProcessPanic, got {other:?}"),
        }
        assert!(
            pool.acquire().is_err(),
            "the failed run still holds the slot"
        );
    }
    assert_eq!(pool.stats().live, 0, "dropping the failed session freed it");

    let mut fresh = config().build();
    let data = elaborate(&mut fresh, cpu, hw, 6, 7, &[]);
    let oracle = observe(&mut fresh, &data);

    let mut slot = pool.acquire().expect("the slot was freed");
    let data = elaborate(&mut slot, cpu, hw, 6, 7, &[]);
    assert_eq!(observe(&mut slot, &data), oracle);
    let stats = pool.stats();
    assert_eq!((stats.misses, stats.exhausted), (2, 1));
}
