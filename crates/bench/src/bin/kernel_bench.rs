//! Kernel hot-path microbenchmarks: the scheduler↔process handoff, the
//! timed-notification queue and the parallel evaluate phase, reported as
//! absolute per-unit costs.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scperf-bench --release --bin kernel_bench -- [--reps N] [--quick]
//! ```
//!
//! Three sequential kernels, each reported as host nanoseconds per
//! process activation (median, min and stddev over `--reps` runs):
//!
//! * **pingpong** — two processes over a [`scperf_kernel::Rendezvous`];
//!   every transfer is a chain of scheduler↔process round trips, the
//!   purest handoff stressor.
//! * **fanout** — one notifier delta-firing a [`scperf_kernel::Event`]
//!   with many waiters; measures wakeup batching through the evaluate
//!   phase.
//! * **timer_storm** — many processes issuing dense `wait(time)` calls
//!   with colliding deadlines (plus a far-future tail beyond the time
//!   wheel's span); stresses the timed queue, not the handoff.
//!
//! Two further scenarios sweep the parallel evaluate phase
//! (`SimOptions::jobs`, see `docs/PARALLELISM.md`) at `jobs = 1` vs
//! `jobs = max(2, host cpus)`:
//!
//! * **par_pairs** — 8 independent FIFO producer/consumer pairs with
//!   per-activation busy work; every delta is 16 processes wide.
//! * **par_fanout** — an event broadcast to 32 computing waiters; the
//!   waking delta is 32 processes wide.
//!
//! Every repetition of a kernel must produce the *same* [`SimSummary`],
//! and both `jobs` values must agree — the bench asserts this — so the
//! costs and the parallel speedup are measured at identical simulated
//! behaviour. The two legs of each ratio (`jobs = 1` vs `n`, attribution
//! off vs on) run alternately. Results go to `BENCH_kernel.json`
//! together with the host's cpu count; the committed baseline is a run
//! pinned to one CPU (`taskset -c 0`).

use std::time::{Duration, Instant};

use scperf_bench::microbench::{host_cpus, interleave, min_secs, ns_per_unit, BenchArgs, Spread};
use scperf_kernel::{SimOptions, SimSummary, Simulator, Time};
use scperf_obs::json::JsonWriter;

/// Two processes rendezvous `iters` times. Each transfer blocks both
/// sides, so the activation count — and therefore the handoff count — is
/// proportional to `iters`. With `attribution` the kernel additionally
/// accounts per-process wait time and per-channel blocked time on every
/// one of those transfers — the worst case for the accounting.
fn pingpong(iters: u64, attribution: bool) -> (SimSummary, Duration) {
    let mut sim = SimOptions::new().attribution(attribution).build();
    let ch = sim.rendezvous::<u64>("pingpong");
    let tx = ch.clone();
    sim.spawn("ping", move |ctx| {
        for i in 0..iters {
            tx.write(ctx, i);
        }
    });
    let rx = ch;
    sim.spawn("pong", move |ctx| {
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(rx.read(ctx));
        }
        std::hint::black_box(acc);
    });
    let start = Instant::now();
    let summary = sim.run().expect("pingpong runs");
    (summary, start.elapsed())
}

/// One notifier delta-fires an event `rounds` times; `procs` waiters all
/// wake each round.
fn fanout(procs: usize, rounds: u64) -> (SimSummary, Duration) {
    let mut sim = Simulator::new();
    let ev = sim.event("broadcast");
    for p in 0..procs {
        let ev = ev.clone();
        sim.spawn(format!("waiter{p}"), move |ctx| {
            for _ in 0..rounds {
                ctx.wait_event(&ev);
            }
        });
    }
    sim.spawn("notifier", move |ctx| {
        for _ in 0..rounds {
            // The waiters are all parked by the time the notifier runs
            // (spawn order); the timed wait separates the rounds.
            ev.notify_delta();
            ctx.wait(Time::ns(1));
        }
    });
    let start = Instant::now();
    let summary = sim.run().expect("fanout runs");
    (summary, start.elapsed())
}

/// `procs` processes each issue `waits` timed waits with colliding
/// xorshift-derived deadlines, plus one far-future wait past the time
/// wheel's ~68.7 ms span to exercise the overflow path.
fn timer_storm(procs: usize, waits: u64) -> (SimSummary, Duration) {
    let mut sim = Simulator::new();
    for p in 0..procs {
        sim.spawn(format!("timer{p}"), move |ctx| {
            let mut x = p as u64 + 1;
            for _ in 0..waits {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // 0..=999 ps: dense, frequently colliding deadlines.
                ctx.wait(Time::ps(x % 1_000));
            }
            ctx.wait(Time::ms(80 + p as u64)); // overflow-map tail
        });
    }
    let start = Instant::now();
    let summary = sim.run().expect("timer storm runs");
    (summary, start.elapsed())
}

/// Busy-work standing in for a process body's computation: `rounds` of
/// xorshift on `x`. This is what the parallel evaluate phase can overlap
/// across workers.
fn spin(mut x: u64, rounds: u64) -> u64 {
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// `pairs` independent producer→FIFO→consumer pairs; every activation
/// burns `work` xorshift rounds. All pairs are runnable in the same
/// deltas, so the evaluate phase is `2 * pairs` wide — the shape the
/// parallel kernel (`SimOptions::jobs`) is built for.
fn par_pairs(jobs: usize, pairs: usize, iters: u64, work: u64) -> (SimSummary, Duration) {
    let mut sim = SimOptions::new().jobs(jobs).build();
    for p in 0..pairs {
        let ch = sim.fifo::<u64>(format!("ch{p}"), 4);
        let tx = ch.clone();
        sim.spawn(format!("prod{p}"), move |ctx| {
            for i in 0..iters {
                tx.write(ctx, spin(i + p as u64 + 1, work));
                ctx.wait(Time::ns(1));
            }
        });
        let rx = ch;
        sim.spawn(format!("cons{p}"), move |ctx| {
            let mut acc = 0u64;
            for _ in 0..iters {
                acc = acc.wrapping_add(spin(rx.read(ctx), work));
            }
            std::hint::black_box(acc);
        });
    }
    let start = Instant::now();
    let summary = sim.run().expect("par_pairs runs");
    (summary, start.elapsed())
}

/// Wide fanout with per-waiter computation: one notifier delta-fires an
/// event `rounds` times and `procs` waiters each burn `work` xorshift
/// rounds per wake. The waking delta is `procs` wide.
fn par_fanout(jobs: usize, procs: usize, rounds: u64, work: u64) -> (SimSummary, Duration) {
    let mut sim = SimOptions::new().jobs(jobs).build();
    let ev = sim.event("broadcast");
    for p in 0..procs {
        let ev = ev.clone();
        sim.spawn(format!("waiter{p}"), move |ctx| {
            let mut acc = p as u64 + 1;
            for _ in 0..rounds {
                ctx.wait_event(&ev);
                acc = spin(acc, work);
            }
            std::hint::black_box(acc);
        });
    }
    sim.spawn("notifier", move |ctx| {
        for _ in 0..rounds {
            ev.notify_delta();
            ctx.wait(Time::ns(1));
        }
    });
    let start = Instant::now();
    let summary = sim.run().expect("par_fanout runs");
    (summary, start.elapsed())
}

/// Asserts that every run simulated the same summary and returns it
/// together with the per-run wall times.
fn same_summary(name: &str, runs: Vec<(SimSummary, Duration)>) -> (SimSummary, Vec<Duration>) {
    let summary = runs[0].0;
    for (s, _) in &runs[1..] {
        assert_eq!(
            *s, summary,
            "{name}: repetitions disagree on simulated behaviour"
        );
    }
    (summary, runs.into_iter().map(|(_, t)| t).collect())
}

/// `reps` runs of `run`.
fn repeat(reps: usize, run: impl Fn() -> (SimSummary, Duration)) -> Vec<(SimSummary, Duration)> {
    (0..reps).map(|_| run()).collect()
}

struct BenchResult {
    name: &'static str,
    summary: SimSummary,
    times: Vec<Duration>,
    cost: Spread,
}

fn bench(name: &'static str, runs: Vec<(SimSummary, Duration)>) -> BenchResult {
    let (summary, times) = same_summary(name, runs);
    let cost = ns_per_unit(summary.activations, &times);
    println!(
        "{name:>12}: {:>8.1} ns/activation (min {:.1}, stddev {:.1}; {} activations)",
        cost.median, cost.min, cost.stddev, summary.activations,
    );
    BenchResult {
        name,
        summary,
        times,
        cost,
    }
}

struct ParResult {
    name: &'static str,
    summary: SimSummary,
    jobs1: Spread,
    jobs_n: Spread,
    /// Best-of-reps `jobs = 1` time over best-of-reps `jobs = n` time.
    speedup: f64,
}

/// Runs a jobs-parameterized scenario at `jobs = 1` and `jobs = n` and
/// asserts the determinism contract (`docs/PARALLELISM.md`): the
/// summaries must be bit-identical, so the speedup is a pure host-time
/// ratio at identical simulated behaviour. The two legs run alternately.
fn par_bench(
    name: &'static str,
    reps: usize,
    n: usize,
    run: impl Fn(usize) -> (SimSummary, Duration),
) -> ParResult {
    let (runs_1, runs_n) = interleave(reps, || run(1), || run(n));
    let (sum_1, t1) = same_summary(name, runs_1);
    let (sum_n, tn) = same_summary(name, runs_n);
    assert_eq!(
        sum_1, sum_n,
        "{name}: parallel evaluation changed simulated behaviour"
    );
    let r = ParResult {
        name,
        jobs1: ns_per_unit(sum_1.activations, &t1),
        jobs_n: ns_per_unit(sum_n.activations, &tn),
        speedup: min_secs(&t1) / min_secs(&tn),
        summary: sum_1,
    };
    println!(
        "{:>12}: jobs=1 {:>8.1} ns/activation  jobs={n} {:>8.1} ns/activation  \
         speedup {:>5.2}x ({} activations)",
        r.name, r.jobs1.median, r.jobs_n.median, r.speedup, r.summary.activations,
    );
    r
}

fn write_summary(w: &mut JsonWriter, name: &str, summary: &SimSummary) {
    w.key("name");
    w.value_str(name);
    w.key("activations");
    w.value_u64(summary.activations);
    w.key("deltas");
    w.value_u64(summary.deltas);
    w.key("end_time_ps");
    w.value_u64(summary.end_time.as_ps());
}

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.quick { 10 } else { 1 };
    let pingpong_iters = 200_000 / scale;
    let fanout_procs = 64;
    let fanout_rounds = 2_000 / scale;
    let storm_procs = 32;
    let storm_waits = 4_000 / scale;
    let cpus = host_cpus();
    let par_jobs = cpus.max(2);

    println!(
        "kernel hot-path microbench ({} reps{}, {cpus} host cpu(s))",
        args.reps,
        if args.quick { ", quick" } else { "" }
    );

    // Pingpong alternates with its attribution-on twin (see below), so
    // its cost runs double as the overhead's attribution-off leg.
    let (pingpong_runs, attribution_runs) = interleave(
        args.reps,
        || pingpong(pingpong_iters, false),
        || pingpong(pingpong_iters, true),
    );
    let results = [
        bench("pingpong", pingpong_runs),
        bench(
            "fanout",
            repeat(args.reps, || fanout(fanout_procs, fanout_rounds)),
        ),
        bench(
            "timer_storm",
            repeat(args.reps, || timer_storm(storm_procs, storm_waits)),
        ),
    ];

    // Parallel-evaluate scenarios (SimOptions::jobs): wide deltas with
    // real per-activation computation, jobs = 1 vs one job per host cpu
    // (at least 2). Both runs must be bit-identical in simulated
    // behaviour (asserted inside par_bench).
    let par_results = [
        par_bench("par_pairs", args.reps, par_jobs, |j| {
            par_pairs(j, 8, 2_000 / scale, 2_000)
        }),
        par_bench("par_fanout", args.reps, par_jobs, |j| {
            par_fanout(j, 32, 500 / scale, 4_000)
        }),
    ];

    // Attribution overhead: the scheduling-state accounting rides the
    // handoff-heaviest kernel (pingpong). The baseline is the
    // attribution-off measurement above, taken alternately with this
    // one; the summaries must stay bit-identical and the best-of-reps
    // host-time overhead ≤ 5%.
    let base = &results[0];
    let (attr_sum, attr_times) = same_summary("pingpong+attribution", attribution_runs);
    assert_eq!(
        attr_sum, base.summary,
        "pingpong: attribution changed simulated behaviour"
    );
    let (off, on) = (min_secs(&base.times), min_secs(&attr_times));
    let attr_overhead = on / off - 1.0;
    println!(
        " attribution: off {off:.4}s  on {on:.4}s  overhead {:+.2}%",
        attr_overhead * 100.0
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("reps");
    w.value_u64(args.reps as u64);
    w.key("quick");
    w.value_bool(args.quick);
    w.key("host_cpus");
    w.value_u64(cpus as u64);
    w.key("attribution");
    w.begin_object();
    w.key("bench");
    w.value_str("pingpong");
    w.key("off_seconds");
    w.value_f64(off);
    w.key("on_seconds");
    w.value_f64(on);
    w.key("overhead_pct");
    w.value_f64(attr_overhead * 100.0);
    w.key("summaries_identical");
    w.value_bool(true);
    w.end_object();
    w.key("benches");
    w.begin_array();
    for r in &results {
        w.begin_object();
        write_summary(&mut w, r.name, &r.summary);
        r.cost.write(&mut w, "ns_per_activation");
        w.key("summaries_identical");
        w.value_bool(true);
        w.end_object();
    }
    for r in &par_results {
        w.begin_object();
        write_summary(&mut w, r.name, &r.summary);
        w.key("jobs");
        w.value_u64(par_jobs as u64);
        r.jobs1.write(&mut w, "jobs1_ns_per_activation");
        r.jobs_n.write(&mut w, "jobs_n_ns_per_activation");
        w.key("speedup");
        w.value_f64(r.speedup);
        w.key("summaries_identical");
        w.value_bool(true);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    let dir = std::env::var("SCPERF_OBS_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_kernel.json");
    std::fs::write(&path, w.finish()).expect("write BENCH_kernel.json");
    println!("bench results -> {path}");

    if !args.quick {
        // Quick mode is a CI smoke run on loaded shared machines; the
        // overhead bound is only meaningful at full problem sizes.
        assert!(
            attr_overhead <= 0.05,
            "attribution accounting must cost <=5% on pingpong (got {:+.2}%)",
            attr_overhead * 100.0
        );
    }

    // The >=2x parallel-throughput bar only makes sense with enough
    // cores to spread the evaluate phase over (the determinism assert
    // above still ran).
    if !args.quick && cpus >= 4 {
        for r in &par_results {
            assert!(
                r.speedup >= 2.0,
                "{}: expected >=2x activation throughput at jobs={par_jobs} on a \
                 {cpus}-core host (got {:.2}x)",
                r.name,
                r.speedup
            );
        }
    } else {
        println!(
            " (parallel >=2x speedup bar skipped: {cpus} core(s), quick={})",
            args.quick
        );
    }
}
