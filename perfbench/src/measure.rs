//! The metric catalogue and the measurement plumbing every workload
//! shares: run settings, the untraced measurement, and the named result
//! set a run prints.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use scperf_core::EstHotStats;
use scperf_obs::MetricsSnapshot;

use crate::gen::Digest;
use crate::host;
use crate::stats;

/// One metric the benchmark emits: name, unit and what it measures.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured with tracing off. An *operation* is a
/// serve request, a 243-point sweep or a tables pass, depending on the
/// workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("op_p50_ms", "ms"),
    m("op_p90_ms", "ms"),
    m("ops_per_s", "1/s"),
    m("cpu_ms_per_op", "ms"),
    m("peak_rss_mb", "MiB"),
    m("ok_share", "ratio"),
    m("sw_err_max_pct", "%"),
    m("hw_err_max_pct", "%"),
];

/// Per-layer metrics, from the separate traced run. A layer a workload
/// does not reach reports 0. `sim.digest` is not among them: it is a
/// hash, not a measure, and every run prints it on its own line.
pub const PER_LAYER: &[MetricDef] = &[
    m("serve.parse_us", "us"),
    m("serve.execute_us", "us"),
    m("serve.render_us", "us"),
    m("serve.queue_wait_us", "us"),
    m("serve.rejected", "count"),
    m("obs.fold_us", "us"),
    m("pool.hit_ratio", "ratio"),
    m("pool.acquire_us", "us"),
    m("pool.publish_us", "us"),
    m("pool.retained_kb_per_shape", "KiB"),
    m("session.build_us", "us"),
    m("session.teardown_us", "us"),
    m("workloads.elaborate_us", "us"),
    m("kernel.run_us", "us"),
    m("kernel.activations", "1/op"),
    m("kernel.resume_ns", "ns"),
    m("kernel.handoff_wait_share", "ratio"),
    m("est.charges", "1/op"),
    m("est.ns_per_charge", "ns"),
    m("est.overhead_x", "x"),
    m("est.prog.hit_ratio", "ratio"),
    m("est.prog.rejects", "1/op"),
    m("est.report_us", "us"),
    m("est.hw_segment_us", "us"),
    m("replay.stage_share", "ratio"),
    m("dse.cache.hit_ratio", "ratio"),
    m("dse.cache.wasted_misses", "1/sweep"),
    m("dse.evaluate_live_ms", "ms"),
    m("dse.evaluate_replay_ms", "ms"),
    m("dse.pareto_us", "us"),
    m("dse.pool.steals", "1/sweep"),
    m("cache.evictions_per_req", "1/req"),
    m("trace.overhead_pct", "%"),
    m("trace.op_wall_us", "us"),
    m("share.serve_pct", "%"),
    m("share.obs_pct", "%"),
    m("share.pool_pct", "%"),
    m("share.session_pct", "%"),
    m("share.workloads_pct", "%"),
    m("share.kernel_pct", "%"),
    m("share.est_pct", "%"),
    m("share.dse_pct", "%"),
    m("share.unattributed_pct", "%"),
];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Shrink every size to a smoke-test scale.
    pub tiny: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_dir: Option<PathBuf>,
    /// When the run started.
    pub started: Instant,
}

impl RunCfg {
    /// Settings for a run that starts now.
    pub fn new(seed: u64, seconds: f64, tiny: bool, trace_dir: Option<PathBuf>) -> RunCfg {
        RunCfg {
            seed,
            seconds,
            tiny,
            trace_dir,
            started: Instant::now(),
        }
    }

    /// After this instant the run starts no further round or operation:
    /// twice its measured seconds after the run started, and at
    /// least 30 s. A quiet host ends every phase well before it. An
    /// oversubscribed host slows the work several-fold (a dse_sweep
    /// sweep took 3.3x longer with eight busy processes on a 2-vCPU
    /// host); the run then ends on fewer rounds instead of growing with
    /// the slowdown. Only the oracle work before and after the measured
    /// phases, 2-3 s on a quiet 2-vCPU host, is not bounded.
    pub fn deadline(&self) -> Instant {
        self.started + Duration::from_secs_f64((2.0 * self.seconds).max(30.0))
    }

    /// Whether the run is past its [`deadline`](Self::deadline).
    pub fn overdue(&self) -> bool {
        Instant::now() >= self.deadline()
    }

    /// The end of a phase that measures for `share` of the run's
    /// seconds from now, capped at the deadline.
    pub fn until(&self, share: f64) -> Instant {
        (Instant::now() + Duration::from_secs_f64(self.seconds * share)).min(self.deadline())
    }

    /// Logs a finished phase on standard error with the seconds since
    /// the run started, so a run stopped from outside shows how far it
    /// got. Standard output stays the report.
    pub fn progress(&self, what: std::fmt::Arguments) {
        eprintln!(
            "perfbench: {:9.3} s  {what}",
            self.started.elapsed().as_secs_f64()
        );
    }
}

/// A value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The measured value.
    pub value: f64,
    /// Samples it was computed from.
    pub n: u64,
}

/// The named results of one run.
#[derive(Debug, Default)]
pub struct Results {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, Value>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output did not match the oracle.
    pub failed: u64,
    /// `sim.digest` of the run.
    pub digest: u64,
}

impl Results {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        self.values.insert(name, Value { value, n });
    }
}

/// Counters read at the traced boundaries of one operation, summed over
/// the sessions it ran.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCounts {
    /// Kernel process activations.
    pub activations: u64,
    /// Kernel baton handoffs.
    pub resumes: u64,
    /// Host time those handoffs took to resume, ns.
    pub resume_nanos: u64,
    /// Estimator charges.
    pub charges: u64,
    /// `Session::run` time of the sessions that charged, ns.
    pub charged_run_ns: u64,
    /// Host time of the same models on the plain kernel, ns.
    pub plain_ns: u64,
    /// Cost-program hits.
    pub prog_hits: u64,
    /// Cost-program misses.
    pub prog_misses: u64,
    /// Warm program sets rejected on fingerprint.
    pub prog_rejects: u64,
    /// Pipeline stages run.
    pub stages: u64,
    /// Stages that replayed a recorded trace.
    pub replayed: u64,
}

impl OpCounts {
    /// Adds one finished session: its `Session::metrics`, estimator
    /// hot-path stats, activations and `Session::run` time.
    pub fn add_session(
        &mut self,
        metrics: &MetricsSnapshot,
        hot: &EstHotStats,
        activations: u64,
        run_ns: u64,
    ) {
        self.activations += activations;
        self.resumes += metrics.counter("kernel.handoff.resumes").unwrap_or(0);
        self.resume_nanos += metrics.counter("kernel.handoff.resume_nanos").unwrap_or(0);
        self.charges += hot.fast_charges;
        if hot.fast_charges > 0 {
            self.charged_run_ns += run_ns;
        }
        self.prog_hits += hot.site_hits;
        self.prog_misses += hot.site_misses;
        self.prog_rejects += hot.prog_rejects;
    }
}

/// Names the counter-derived per-layer metrics of a traced run whose
/// operations took `wall_ns` in total.
pub fn count_metrics(r: &mut Results, counts: &[OpCounts], wall_ns: u64) {
    let n = counts.len() as u64;
    let ops = n.max(1) as f64;
    let sum = |f: fn(&OpCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (charges, run, plain) = (
        sum(|k| k.charges),
        sum(|k| k.charged_run_ns),
        sum(|k| k.plain_ns),
    );
    let (hits, misses) = (sum(|k| k.prog_hits), sum(|k| k.prog_misses));
    r.set("kernel.activations", sum(|k| k.activations) / ops, n);
    r.set(
        "kernel.resume_ns",
        ratio(sum(|k| k.resume_nanos), sum(|k| k.resumes)),
        n,
    );
    r.set(
        "kernel.handoff_wait_share",
        ratio(sum(|k| k.resume_nanos), wall_ns as f64),
        n,
    );
    r.set("est.charges", charges / ops, n);
    r.set("est.ns_per_charge", ratio(run - plain, charges), n);
    r.set("est.overhead_x", ratio(run, plain), n);
    r.set("est.prog.hit_ratio", ratio(hits, hits + misses), n);
    r.set("est.prog.rejects", sum(|k| k.prog_rejects) / ops, n);
    r.set(
        "replay.stage_share",
        ratio(sum(|k| k.replayed), sum(|k| k.stages)),
        n,
    );
}

/// Wall clock and process CPU time over a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    wall: Instant,
    cpu: f64,
}

impl Window {
    /// Opens a window now.
    pub fn start() -> Window {
        Window {
            wall: Instant::now(),
            cpu: host::process_cpu_s(),
        }
    }

    /// `(wall seconds, CPU seconds)` since the window opened.
    pub fn stop(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            host::process_cpu_s() - self.cpu,
        )
    }
}

/// Rounds of an untraced run that measure for a share of its seconds
/// (serve_novel's rounds are one request stream each instead). Every
/// round follows its own set-up, so `setup_s` samples spread over the
/// run like the measured operations.
pub const ROUNDS: usize = 5;

/// One measured round of an untraced run.
#[derive(Debug)]
struct Round {
    /// Wall time of every timed operation, ms.
    op_ms: Vec<f64>,
    /// Measured wall time, s.
    wall_s: f64,
    /// Process CPU time inside the window, s.
    cpu_s: f64,
}

/// Everything an untraced run measures, before it is named.
///
/// A run measures in rounds, each after its own set-up. Every host-time
/// metric is the median over the rounds of that round's figure, so CPU
/// steal by other guests that hits fewer than half of a run's rounds
/// does not move it; a change to the program moves every round alike.
#[derive(Debug, Default)]
pub struct Timed {
    /// One sample per set-up: process or service start to ready.
    pub setup_s: Vec<f64>,
    rounds: Vec<Round>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output equalled the oracle.
    pub ok: u64,
    /// Peak resident set when measuring ended, KiB.
    pub peak_rss_kib: u64,
    /// Digest of the simulated results every operation was checked
    /// against.
    pub digest: Digest,
}

impl Timed {
    /// Records one measured round: the wall time of each operation, ms,
    /// and the round's `(wall, CPU)` window, s.
    pub fn add_round(&mut self, op_ms: Vec<f64>, (wall_s, cpu_s): (f64, f64)) {
        self.rounds.push(Round {
            op_ms,
            wall_s,
            cpu_s,
        });
    }

    /// Wall time measured so far, s.
    pub fn measured_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    /// Times one set-up as a `setup_s` sample and returns its result.
    pub fn setup<S>(&mut self, f: impl FnOnce() -> S) -> S {
        let t = Instant::now();
        let s = f();
        self.setup_s.push(t.elapsed().as_secs_f64());
        s
    }

    /// Whether another round starts: the first always does, later ones
    /// while fewer than `ROUNDS` ran and the run is not past its
    /// deadline.
    pub fn next_round(&self, cfg: &RunCfg) -> bool {
        self.rounds.is_empty() || (self.rounds.len() < ROUNDS && !cfg.overdue())
    }

    /// Measures one round: repeats `op` for its share of the run's
    /// seconds (at least once, never past the deadline), timing each
    /// call; `op` returns whether its output matched the oracle.
    pub fn measure(&mut self, cfg: &RunCfg, mut op: impl FnMut() -> bool) {
        let w = Window::start();
        let until = cfg.until(1.0 / ROUNDS as f64);
        let mut op_ms = Vec::new();
        while op_ms.is_empty() || Instant::now() < until {
            let t = Instant::now();
            let ok = op();
            op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.attempted += 1;
            self.ok += u64::from(ok);
        }
        let n = op_ms.len();
        self.add_round(op_ms, w.stop());
        cfg.progress(format_args!("round {}: {n} operations", self.rounds.len()));
    }

    /// Names the end-to-end metrics (all but the accuracy pair, which
    /// the caller adds).
    pub fn into_results(self) -> Results {
        let ops: u64 = self.rounds.iter().map(|r| r.op_ms.len() as u64).sum();
        let per_round =
            |f: fn(&Round) -> f64| stats::median(&self.rounds.iter().map(f).collect::<Vec<f64>>());
        let mut r = Results {
            attempted: self.attempted,
            failed: self.attempted - self.ok,
            digest: self.digest.value(),
            ..Results::default()
        };
        r.set(
            "setup_s",
            stats::median(&self.setup_s),
            self.setup_s.len() as u64,
        );
        r.set(
            "op_p50_ms",
            per_round(|r| stats::percentile(&r.op_ms, 50.0)),
            ops,
        );
        r.set(
            "op_p90_ms",
            per_round(|r| stats::percentile(&r.op_ms, 90.0)),
            ops,
        );
        r.set(
            "ops_per_s",
            per_round(|r| r.op_ms.len() as f64 / r.wall_s.max(1e-9)),
            ops,
        );
        r.set(
            "cpu_ms_per_op",
            per_round(|r| r.cpu_s * 1e3 / r.op_ms.len().max(1) as f64),
            ops,
        );
        r.set("peak_rss_mb", self.peak_rss_kib as f64 / 1024.0, 1);
        r.set(
            "ok_share",
            self.ok as f64 / self.attempted.max(1) as f64,
            self.attempted,
        );
        r
    }
}
