//! `perfbench` — the scperf workspace's outside-in benchmark.
//!
//! ```text
//! perfbench --workload <serve_repeat|serve_novel|dse_sweep|paper_tables|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//!           [--repeat N] [--trace-dir DIR]
//! ```
//!
//! One run measures one workload for `--seconds`, checks every output
//! against an oracle and prints a report whose last line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones from a separate traced run. `--workload all` runs all
//! four workloads, each in its own process; `--repeat N` runs one workload N times
//! on seeds `seed..seed+N` (each its own process) and prints every
//! metric's median, quartiles and relative spread. `--tiny` shrinks every size to
//! a smoke-test scale. The exit status is non-zero when any output
//! differed from its oracle. See `README.md` next to this crate.

mod dse;
mod gen;
mod host;
mod measure;
mod serve;
mod stats;
mod tables;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use scperf_obs::json::JsonWriter;
use scperf_serve::json::{self, Json};

use measure::{MetricDef, Results, RunCfg, END_TO_END, PER_LAYER};
use trace::Trace;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeRepeat,
    ServeNovel,
    DseSweep,
    PaperTables,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ServeRepeat,
        Workload::ServeNovel,
        Workload::DseSweep,
        Workload::PaperTables,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeRepeat => "serve_repeat",
            Workload::ServeNovel => "serve_novel",
            Workload::DseSweep => "dse_sweep",
            Workload::PaperTables => "paper_tables",
        }
    }

    /// Why the workload is in the benchmark, as `BENCHMARK.json` says.
    fn why(self) -> &'static str {
        match self {
            Workload::ServeRepeat => {
                "DSE front end revisiting design points: every request forks a pooled snapshot and replays, so pool, replay and kernel handoff dominate"
            }
            Workload::ServeNovel => {
                "every request is a new platform tuple: the pool misses, stages charge live, traces are recorded, snapshots published and the serve cache evicts"
            }
            Workload::DseSweep => {
                "the paper's motivating use: a 243-point mapping sweep where session build, thread spawn and handoff over replayed stages do most of the work"
            }
            Workload::PaperTables => {
                "the paper's one-shot path: strict-timed Table 1-4 estimates where live charging does most of the work; carries the ISS and HLS accuracy"
            }
        }
    }

    /// The workload's own name for a generic end-to-end metric: an
    /// operation is a request, a sweep or a pass.
    fn alias(self, metric: &str) -> Option<&'static str> {
        let serve = matches!(self, Workload::ServeRepeat | Workload::ServeNovel);
        Some(match (metric, self) {
            ("op_p50_ms", _) if serve => "req_p50_ms",
            ("op_p90_ms", _) if serve => "req_p90_ms",
            ("ops_per_s", _) if serve => "req_per_s",
            ("cpu_ms_per_op", _) if serve => "cpu_ms_per_req",
            ("op_p50_ms", Workload::DseSweep) => "sweep_ms",
            ("cpu_ms_per_op", Workload::DseSweep) => "cpu_ms_per_sweep",
            ("op_p50_ms", Workload::PaperTables) => "pass_ms",
            ("cpu_ms_per_op", Workload::PaperTables) => "cpu_ms_per_pass",
            _ => return None,
        })
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn run(self, cfg: &RunCfg) -> Results {
        match self {
            Workload::ServeRepeat => serve::run(cfg, true),
            Workload::ServeNovel => serve::run(cfg, false),
            Workload::DseSweep => dse::run(cfg),
            Workload::PaperTables => tables::run(cfg),
        }
    }

    fn run_traced(self, cfg: &RunCfg) -> (Results, Trace) {
        match self {
            Workload::ServeRepeat => serve::run_traced(cfg, true),
            Workload::ServeNovel => serve::run_traced(cfg, false),
            Workload::DseSweep => dse::run_traced(cfg),
            Workload::PaperTables => tables::run_traced(cfg),
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    repeat: Option<u64>,
    trace_dir: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <serve_repeat|serve_novel|dse_sweep|paper_tables|all> \
     [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--repeat N] [--trace-dir DIR]"
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        tiny: false,
        repeat: None,
        trace_dir: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => a.tiny = true,
            "--repeat" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                a.repeat = Some(n);
            }
            "--trace-dir" => a.trace_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else if let Some(w) = Workload::parse(&args.workload) {
        vec![w]
    } else {
        eprintln!(
            "perfbench: unknown workload {:?}\n{}",
            args.workload,
            usage()
        );
        return ExitCode::from(2);
    };
    if args.repeat.is_some() || workloads.len() > 1 {
        return orchestrate(&args, &workloads);
    }
    // One CPU per run: on a host whose hypervisor hands out fewer
    // physical cores than it promises, a run spread over every vCPU
    // draws CPU steal that swings wall time 2-3x between runs (see the
    // README's Finding 4).
    let pinned = host::pin_to_one_cpu();
    let cfg = RunCfg::new(args.seed, args.seconds, args.tiny, args.trace_dir.clone());
    if single(workloads[0], &cfg, args.trace, pinned) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run of one workload in this process, confined to CPU `pinned`;
/// returns whether every output matched its oracle.
fn single(w: Workload, cfg: &RunCfg, traced: bool, pinned: Option<usize>) -> bool {
    let host = host::Host::detect();
    println!(
        "perfbench {} seed={} seconds={} trace={} tiny={}",
        w.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(traced),
        cfg.tiny
    );
    println!(
        "host nproc={} online={} pinned_cpu={} cpu={:?} kernel={}",
        host.nproc,
        host.online,
        pinned.map_or("none".to_string(), |c| c.to_string()),
        host.cpu,
        host.kernel
    );
    println!("why: {}", w.why());
    let (mut r, defs): (Results, &[MetricDef]) = if traced {
        let (mut r, trace) = w.run_traced(cfg);
        layer_metrics(&mut r, &trace);
        print_shares(&trace);
        if let Some(path) = write_trace(w, cfg, &trace) {
            println!("chrome trace: {}", path.display());
        }
        cfg.progress(format_args!("layer metrics and chrome trace"));
        (r, PER_LAYER)
    } else {
        let mut r = w.run(cfg);
        let (sw, hw, nsw, nhw) = tables::accuracy(cfg.tiny);
        r.set("sw_err_max_pct", sw, nsw);
        r.set("hw_err_max_pct", hw, nhw);
        cfg.progress(format_args!("accuracy"));
        (r, END_TO_END)
    };
    for def in defs {
        r.values
            .entry(def.name)
            .or_insert(measure::Value { value: 0.0, n: 0 });
    }
    println!(
        "{:<28} {:>16} {:>6} {:>8}  as",
        "metric", "value", "unit", "n"
    );
    for def in defs {
        let v = r.values[def.name];
        println!(
            "{:<28} {:>16.6} {:>6} {:>8}  {}",
            def.name,
            v.value,
            def.unit,
            v.n,
            w.alias(def.name).unwrap_or("")
        );
    }
    println!("sim.digest {:#014x}", r.digest);
    let correct = r.failed == 0 && r.attempted > 0;
    println!(
        "ok: {}/{} operations matched their oracle",
        r.attempted - r.failed,
        r.attempted
    );
    println!("{}", result_line(&r, defs, correct));
    correct
}

/// The contract line: correctness, counts and every metric with its
/// unit.
fn result_line(r: &Results, defs: &[MetricDef], correct: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.value_bool(correct);
    w.key("attempted");
    w.value_u64(r.attempted);
    w.key("failed");
    w.value_u64(r.failed);
    w.key("metrics");
    w.begin_object();
    for def in defs {
        w.key(def.name);
        w.begin_object();
        w.key("value");
        w.value_f64(r.values[def.name].value);
        w.key("unit");
        w.value_str(def.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Span-derived layer metrics and shares.
fn layer_metrics(r: &mut Results, trace: &Trace) {
    let n = trace.ops.len() as u64;
    for (metric, span) in [
        ("serve.parse_us", "serve.parse"),
        ("serve.render_us", "serve.render"),
        ("obs.fold_us", "obs.fold"),
        ("pool.acquire_us", "pool.acquire"),
        ("pool.publish_us", "pool.publish"),
        ("session.build_us", "session.build"),
        ("session.teardown_us", "session.teardown"),
        ("workloads.elaborate_us", "workloads.elaborate"),
        ("kernel.run_us", "kernel.run"),
        ("est.report_us", "est.report"),
        ("est.hw_segment_us", "est.hw_segment"),
        ("dse.pareto_us", "dse.pareto"),
    ] {
        r.set(metric, trace.mean_us(span, None), n);
    }
    r.set(
        "trace.op_wall_us",
        trace.total_wall() as f64 / n.max(1) as f64 / 1e3,
        n,
    );
    for (_, metric, pct) in trace.layer_shares_pct() {
        r.set(metric, pct, n);
    }
}

fn print_shares(trace: &Trace) {
    let shares = trace.layer_shares_pct();
    let total: f64 = shares.iter().map(|(_, _, p)| p).sum();
    println!(
        "layer shares of {} operations ({:.3} ms wall in total):",
        trace.ops.len(),
        trace.total_wall() as f64 / 1e6
    );
    for (layer, _, pct) in &shares {
        println!("  {layer:<14} {pct:>8.3} %");
    }
    println!("  {:<14} {total:>8.3} %", "sum");
}

/// Writes the traced run's spans as a Chrome trace, by default into a
/// `traces` directory next to the executable (the build directory).
fn write_trace(w: Workload, cfg: &RunCfg, trace: &Trace) -> Option<PathBuf> {
    let dir = cfg.trace_dir.clone().or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("traces")))
    })?;
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}-seed{}.json", w.name(), cfg.seed));
    let title = format!("perfbench {} seed {}", w.name(), cfg.seed);
    match trace.chrome(&title).write_to(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            None
        }
    }
}

/// Runs workloads as child processes: every workload once, or one
/// workload `--repeat` times on consecutive seeds with a steadiness
/// summary.
fn orchestrate(args: &Args, workloads: &[Workload]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reps = args.repeat.unwrap_or(1);
    let mut all_ok = true;
    for &w in workloads {
        let mut runs: Vec<BTreeMap<String, f64>> = Vec::new();
        let mut units: BTreeMap<String, String> = BTreeMap::new();
        for k in 0..reps {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &(args.seed + k).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.tiny {
                cmd.arg("--tiny");
            }
            if let Some(dir) = &args.trace_dir {
                cmd.arg("--trace-dir").arg(dir);
            }
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: cannot run {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            if reps == 1 {
                print!("{stdout}");
            }
            let parsed = stdout.lines().last().and_then(|l| json::parse(l).ok());
            let Some(v) = parsed.filter(|_| out.status.success()) else {
                eprintln!(
                    "perfbench: {} seed {} failed ({}):\n{}",
                    w.name(),
                    args.seed + k,
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                );
                all_ok = false;
                continue;
            };
            let mut values = BTreeMap::new();
            if let Some(Json::Obj(metrics)) = v.get("metrics") {
                for (name, m) in metrics {
                    if let Some(value) = m.get("value").and_then(Json::as_f64) {
                        values.insert(name.clone(), value);
                    }
                    if let Some(unit) = m.get("unit").and_then(Json::as_str) {
                        units.insert(name.clone(), unit.to_string());
                    }
                }
            }
            runs.push(values);
        }
        if reps > 1 {
            print_steadiness(w, args, &runs, &units);
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per metric: median, quartiles and the spread (Q3 − Q1) / median over
/// the repeated runs.
fn print_steadiness(
    w: Workload,
    args: &Args,
    runs: &[BTreeMap<String, f64>],
    units: &BTreeMap<String, String>,
) {
    let host = host::Host::detect();
    println!(
        "steadiness {} runs={} seeds={}..{} seconds={} trace={}",
        w.name(),
        runs.len(),
        args.seed,
        args.seed + args.repeat.unwrap_or(1) - 1,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host online={} cpu={:?} kernel={} (each run pinned to one CPU)",
        host.online, host.cpu, host.kernel
    );
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "median", "q1", "q3", "spread", "unit"
    );
    for (name, unit) in units {
        let vals: Vec<f64> = runs.iter().filter_map(|r| r.get(name).copied()).collect();
        let (q1, med, q3) = stats::quartiles(&vals);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("{name:<28} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {unit:>6}");
    }
}
