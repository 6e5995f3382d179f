//! Estimator hot-path microbenchmarks: flat-TLS charging and
//! segment-site memoization, reported as absolute per-unit costs.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scperf-bench --release --bin estimator_bench -- [--reps N] [--quick]
//! ```
//!
//! Four benches, each reported as host nanoseconds per charged operation
//! (median, min and stddev over `--reps` runs):
//!
//! * **plain_thread** — annotated `G` arithmetic on a thread with *no*
//!   installed estimation context: the absent-context path must be
//!   almost free (a single thread-local flag test per op).
//! * **charge** — one process charging a tight stream of `Op::Add`s;
//!   the purest measure of the charging fast path.
//! * **fir** — the 64-tap/256-sample FIR workload, run live (no
//!   memoization) and memoized (segment sites replay).
//! * **vocoder** — the five-stage vocoder pipeline on one CPU, live and
//!   memoized.
//!
//! Every configuration must produce bit-identical simulated time and
//! checksums — the bench asserts this — so `memoized_speedup` is a
//! host-time ratio over the live path at identical estimates. Live and
//! memoized runs alternate, as do the attribution off and on runs; the
//! attribution overhead is the median of the per-pair ratios, over at
//! least 15 pairs in a full run. `--quick` shrinks only the charge and plain-thread
//! streams: fir and vocoder keep their sizes so that memoization
//! amortizes recording the same way in both modes. Results go to
//! `BENCH_estimator.json` together with the host's cpu count; the
//! committed baseline is a run pinned to one CPU (`taskset -c 0`).

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use scperf_bench::microbench::{
    host_cpus, interleave, min_secs, ns_per_unit, paired_overhead, BenchArgs, Spread,
};
use scperf_core::{charge_op, Annotated, CostTable, MemoMode, Op, Platform, SimConfig, G};
use scperf_kernel::Time;
use scperf_obs::json::JsonWriter;
use scperf_workloads::fir;
use scperf_workloads::vocoder::pipeline::{self, VocoderMapping};

/// How one session is configured: the fast path with memoization off,
/// or with segment-site replay (the default).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Config {
    Live,
    Memoized,
}

impl Config {
    fn apply(self, cfg: SimConfig) -> SimConfig {
        match self {
            Config::Live => cfg.site_memo(MemoMode::Off),
            Config::Memoized => cfg.site_memo(MemoMode::Replay),
        }
    }
}

/// One measured run: the simulated end time and checksum (for the
/// bit-identity assertions) plus the host time it took.
struct Run {
    end_time_ps: u64,
    checksum: i64,
    elapsed: Duration,
    site_hits: u64,
    fast_charges: u64,
}

fn sw_platform() -> (Platform, scperf_core::ResourceId) {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
    (platform, cpu)
}

/// A tight stream of `ops` additions through the charging entry point.
/// With `attribution` the arbitration point additionally accounts
/// per-resource busy and contention time on every segment flush.
fn charge_stream(config: Config, ops: u64, attribution: bool) -> Run {
    let (platform, cpu) = sw_platform();
    let mut session = config
        .apply(SimConfig::new().platform(platform).attribution(attribution))
        .build();
    session.spawn("charger", cpu, move |_ctx| {
        for _ in 0..ops {
            charge_op(Op::Add);
        }
    });
    let start = Instant::now();
    let summary = session.run().expect("charge stream runs");
    let hot = session.model().hot_stats();
    Run {
        end_time_ps: summary.end_time.as_ps(),
        checksum: 0,
        elapsed: start.elapsed(),
        site_hits: hot.site_hits,
        fast_charges: hot.fast_charges,
    }
}

/// Annotated arithmetic on a thread with no installed context: every
/// charge must reduce to one thread-local flag test.
fn plain_thread(ops: u64) -> Duration {
    std::thread::spawn(move || {
        let mut x = G::raw(1_i64);
        let one = G::raw(1_i64);
        let start = Instant::now();
        for _ in 0..ops {
            // An opaque operand keeps the loop from folding away, so
            // every op pays the absent-context flag test.
            x.assign(x + std::hint::black_box(one));
        }
        std::hint::black_box(x.get());
        start.elapsed()
    })
    .join()
    .expect("plain thread")
}

/// `iters` full FIR passes in one process.
fn fir_run(config: Config, iters: usize) -> Run {
    let (platform, cpu) = sw_platform();
    let mut session = config.apply(SimConfig::new().platform(platform)).build();
    let out = Rc::new(Cell::new(0_i64));
    let sink = Rc::clone(&out);
    session.spawn("fir", cpu, move |_ctx| {
        let mut acc = 0_i64;
        for _ in 0..iters {
            acc = acc.wrapping_add(fir::run::<Annotated>() as i64);
        }
        sink.set(acc);
    });
    let start = Instant::now();
    let summary = session.run().expect("fir runs");
    let hot = session.model().hot_stats();
    let checksum = out.get();
    Run {
        end_time_ps: summary.end_time.as_ps(),
        checksum,
        elapsed: start.elapsed(),
        site_hits: hot.site_hits,
        fast_charges: hot.fast_charges,
    }
}

/// The five-stage pipeline, all stages on one CPU, `nframes` frames.
fn vocoder_run(config: Config, nframes: usize) -> Run {
    let (platform, cpu) = sw_platform();
    let mut session = config.apply(SimConfig::new().platform(platform)).build();
    let handles = {
        let (sim, model) = session.parts_mut();
        pipeline::build(sim, model, VocoderMapping::all_on(cpu), nframes)
    };
    let start = Instant::now();
    let summary = session.run().expect("vocoder runs");
    let hot = session.model().hot_stats();
    let checksum = handles.output.lock().expect("pipeline finished") as i64;
    Run {
        end_time_ps: summary.end_time.as_ps(),
        checksum,
        elapsed: start.elapsed(),
        site_hits: hot.site_hits,
        fast_charges: hot.fast_charges,
    }
}

/// Asserts that every run produced the same estimate and data.
fn consistent(name: &str, runs: Vec<Run>) -> Vec<Run> {
    for r in &runs[1..] {
        assert_eq!(
            r.end_time_ps, runs[0].end_time_ps,
            "{name}: estimate varies"
        );
        assert_eq!(r.checksum, runs[0].checksum, "{name}: data varies");
    }
    runs
}

/// The host time of each run.
fn times(runs: &[Run]) -> Vec<Duration> {
    runs.iter().map(|r| r.elapsed).collect()
}

struct BenchResult {
    name: &'static str,
    live: Vec<Run>,
    memo: Vec<Run>,
    /// Operations one run charges (the live run's fast-path count).
    charges: u64,
}

impl BenchResult {
    fn cost(&self, runs: &[Run]) -> Spread {
        ns_per_unit(self.charges, &times(runs))
    }

    /// Best-of-reps live time over best-of-reps memoized time.
    fn memo_speedup(&self) -> f64 {
        min_secs(&times(&self.live)) / min_secs(&times(&self.memo))
    }
}

/// Measures both configurations alternately, asserting they agree bit
/// for bit.
fn bench(name: &'static str, reps: usize, run: impl Fn(Config) -> Run) -> BenchResult {
    let (live, memo) = interleave(reps, || run(Config::Live), || run(Config::Memoized));
    let (live, memo) = (consistent(name, live), consistent(name, memo));
    assert_eq!(
        live[0].end_time_ps, memo[0].end_time_ps,
        "{name}: memoization changed the estimate"
    );
    assert_eq!(live[0].checksum, memo[0].checksum, "{name}: data changed");
    let r = BenchResult {
        name,
        charges: live[0].fast_charges,
        live,
        memo,
    };
    let (live_cost, memo_cost) = (r.cost(&r.live), r.cost(&r.memo));
    println!(
        "{:>12}: live {:>7.2} ns/charge (min {:.2}, stddev {:.2})  \
         memoized {:>7.2} ns/charge ({:>5.2}x, {} site hits)",
        r.name,
        live_cost.median,
        live_cost.min,
        live_cost.stddev,
        memo_cost.median,
        r.memo_speedup(),
        r.memo[0].site_hits,
    );
    r
}

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.quick { 10 } else { 1 };
    let charge_ops = 4_000_000 / scale;
    let plain_ops = 20_000_000 / scale;
    let fir_iters = 20;
    let voc_frames = 20;
    let cpus = host_cpus();

    println!(
        "estimator hot-path microbench ({} reps{}, {cpus} host cpu(s))",
        args.reps,
        if args.quick { ", quick" } else { "" }
    );

    // The absent-context case first: it needs no session at all.
    let plain_times: Vec<Duration> = (0..args.reps).map(|_| plain_thread(plain_ops)).collect();
    let plain = ns_per_unit(plain_ops, &plain_times);
    println!(
        "{:>12}: {:>7.2} ns/op (min {:.2}, stddev {:.2}; no context installed)",
        "plain_thread", plain.median, plain.min, plain.stddev
    );

    let results = [
        bench("charge", args.reps, |c| charge_stream(c, charge_ops, false)),
        bench("fir", args.reps, |c| fir_run(c, fir_iters)),
        bench("vocoder", args.reps, |c| vocoder_run(c, voc_frames)),
    ];

    // Attribution overhead: busy/contention accounting on the memoized
    // charge stream, with attribution off and on alternately. The
    // estimate must stay bit-identical and the median of the per-pair
    // host-time overheads ≤ 5%.
    let (attr_off, attr_on) = interleave(
        args.overhead_pairs(),
        || charge_stream(Config::Memoized, charge_ops, false),
        || charge_stream(Config::Memoized, charge_ops, true),
    );
    let attr_on = consistent("charge+attribution", attr_on);
    assert_eq!(
        results[0].memo[0].end_time_ps, attr_on[0].end_time_ps,
        "charge: attribution changed the estimate"
    );
    let (off, on) = (min_secs(&times(&attr_off)), min_secs(&times(&attr_on)));
    let attr_overhead = paired_overhead(&times(&attr_off), &times(&attr_on));
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
    w.value_str("charge/memoized");
    w.key("off_seconds");
    w.value_f64(off);
    w.key("on_seconds");
    w.value_f64(on);
    w.key("overhead_pct");
    w.value_f64(attr_overhead * 100.0);
    w.key("estimates_identical");
    w.value_bool(true);
    w.end_object();
    w.key("benches");
    w.begin_array();
    w.begin_object();
    w.key("name");
    w.value_str("plain_thread");
    w.key("ops");
    w.value_u64(plain_ops);
    plain.write(&mut w, "ns_per_op");
    w.end_object();
    for r in &results {
        w.begin_object();
        w.key("name");
        w.value_str(r.name);
        w.key("end_time_ps");
        w.value_u64(r.live[0].end_time_ps);
        w.key("charges");
        w.value_u64(r.charges);
        r.cost(&r.live).write(&mut w, "live_ns_per_charge");
        r.cost(&r.memo).write(&mut w, "memoized_ns_per_charge");
        w.key("memoized_speedup");
        w.value_f64(r.memo_speedup());
        w.key("site_hits");
        w.value_u64(r.memo[0].site_hits);
        w.key("estimates_identical");
        w.value_bool(true);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    let dir = std::env::var("SCPERF_OBS_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_estimator.json");
    std::fs::write(&path, w.finish()).expect("write BENCH_estimator.json");
    println!("bench results -> {path}");

    // Workloads with memoizable sites must replay something.
    assert!(
        results[1].memo[0].site_hits > 0,
        "fir recorded no site hits"
    );
    assert!(
        results[2].memo[0].site_hits > 0,
        "vocoder recorded no site hits"
    );
    if !args.quick {
        // Quick mode is a CI smoke run on loaded shared machines; the
        // floors are only meaningful at full problem sizes.
        for r in &results[1..] {
            assert!(
                r.memo_speedup() >= 1.5,
                "{}: memoized estimation must be >=1.5x over live (got {:.2}x)",
                r.name,
                r.memo_speedup()
            );
        }
        assert!(
            attr_overhead <= 0.05,
            "attribution accounting must cost <=5% on the charge stream (got {:+.2}%)",
            attr_overhead * 100.0
        );
    }
}
