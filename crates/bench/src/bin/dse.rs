//! Exhaustive architectural-mapping exploration of the vocoder — the
//! design-space-exploration use case the paper's introduction motivates,
//! running on the parallel sweep engine of `scperf-dse`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scperf-bench --release --bin dse -- \
//!     [--frames N] [--jobs N] [--bench]
//! ```
//!
//! * `--frames N`   frames per design point (default 2)
//! * `--jobs N`     worker threads; 1 = sequential oracle (default:
//!   available parallelism)
//! * `--bench`      additionally run the sequential, uncached oracle,
//!   verify the parallel frontier is bitwise identical, and write
//!   speedup + cache stats to `BENCH_dse.json`

use std::time::Instant;

use scperf_bench::dse::sweep::{sweep, SweepConfig};
use scperf_obs::json::JsonWriter;

struct Args {
    frames: usize,
    jobs: usize,
    bench: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        frames: 2,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        bench: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&v| v > 0)
                .unwrap_or_else(|| panic!("{name} expects a positive integer"))
        };
        match arg.as_str() {
            "--frames" => args.frames = num("--frames"),
            "--jobs" => args.jobs = num("--jobs"),
            "--bench" => args.bench = true,
            // Positional frame count, kept for the pre-PR-2 interface.
            n if n.parse::<usize>().is_ok() => args.frames = n.parse().unwrap(),
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let cal = scperf_bench::calibration::calibrate();
    println!(
        "cost table calibrated (R^2 = {:.4}); exploring 243 mappings \
         ({} frames, {} jobs)...",
        cal.r_squared, args.frames, args.jobs
    );

    let config = SweepConfig {
        table: cal.table,
        nframes: args.frames,
        jobs: args.jobs,
        use_cache: true,
        limit: None,
        ..SweepConfig::default()
    };
    let start = Instant::now();
    let result = sweep(&config);
    let elapsed = start.elapsed();
    println!(
        "{}",
        scperf_bench::dse::sweep::format_summary(&result, args.frames)
    );
    println!(
        "swept {} points in {:.2?} ({:.1} points/s)",
        result.points.len(),
        elapsed,
        result.points.len() as f64 / elapsed.as_secs_f64()
    );
    println!(
        "segment-site memoization: {} hits, {} misses",
        result.prog.hits, result.prog.misses
    );
    if !config.table.is_integral() {
        println!(
            "  (calibrated table has fractional costs, so site memoization \
             stays off: replay is only bit-exact for integer-valued tables)"
        );
    }

    if args.bench {
        println!("\nrunning sequential, uncached oracle for comparison...");
        let oracle_config = SweepConfig {
            jobs: 1,
            use_cache: false,
            ..config
        };
        let oracle_start = Instant::now();
        let oracle = sweep(&oracle_config);
        let oracle_elapsed = oracle_start.elapsed();
        let identical = oracle.points == result.points && oracle.frontier == result.frontier;
        assert!(identical, "parallel sweep diverged from sequential oracle");
        let speedup = oracle_elapsed.as_secs_f64() / elapsed.as_secs_f64();
        println!(
            "oracle {oracle_elapsed:.2?}, tuned {elapsed:.2?} -> speedup {speedup:.2}x, \
             frontier identical: {identical}"
        );

        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("frames");
        w.value_u64(args.frames as u64);
        w.key("points");
        w.value_u64(result.points.len() as u64);
        w.key("jobs");
        w.value_u64(args.jobs as u64);
        w.key("cache");
        w.value_bool(config.use_cache);
        w.key("seq_no_cache_seconds");
        w.value_f64(oracle_elapsed.as_secs_f64());
        w.key("tuned_seconds");
        w.value_f64(elapsed.as_secs_f64());
        w.key("speedup");
        w.value_f64(speedup);
        w.key("frontier_identical");
        w.value_bool(identical);
        w.key("frontier_size");
        w.value_u64(result.frontier.len() as u64);
        w.key("cache_hits");
        w.value_u64(result.cache.hits);
        w.key("cache_misses");
        w.value_u64(result.cache.misses);
        w.key("cache_entries");
        w.value_u64(result.cache.entries as u64);
        w.key("cache_hit_rate");
        w.value_f64(result.cache.hit_rate());
        w.key("cache_evictions");
        w.value_u64(result.cache.evictions);
        w.key("prog_hits");
        w.value_u64(result.prog.hits);
        w.key("prog_misses");
        w.value_u64(result.prog.misses);
        w.key("pool_steals");
        w.value_u64(result.pool.steals);
        w.key("frontier");
        w.begin_array();
        for p in &result.frontier {
            w.begin_object();
            w.key("mapping");
            w.value_str(&p.mapping_label());
            w.key("latency_ns");
            w.value_f64(p.latency.as_ns_f64());
            w.key("cost");
            w.value_f64(p.cost);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let dir = std::env::var("SCPERF_OBS_DIR").unwrap_or_else(|_| ".".into());
        let path = format!("{dir}/BENCH_dse.json");
        std::fs::write(&path, w.finish()).expect("write BENCH_dse.json");
        println!("bench results -> {path}");
    }
}
