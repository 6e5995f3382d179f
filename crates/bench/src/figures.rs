//! The paper's figures, regenerated as text/DOT/CSV artifacts.

use std::fmt::Write as _;

use scperf_core::{
    g_call, g_i32, g_if, timed_wait, CostTable, GArr, Mode, Op, Platform, ProcessGraph, SimConfig,
    G,
};
use scperf_kernel::{Time, TraceMode};

use crate::harness::CLOCK;

// ============================================================ Figure 1/2 ==

/// Builds the paper's Figure 1 example process — a cyclic process with two
/// channel reads, a conditional write and a timed wait — runs it, and
/// returns the segment table plus the DOT process graph (Figure 2).
pub fn figure1_2() -> (String, String) {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", CLOCK, CostTable::figure3(), 0.0);
    let mut session = SimConfig::new().platform(platform).build();
    let ch1 = session.fifo::<i32>("ch1", 4);
    let ch2 = session.fifo::<i32>("ch2", 4);

    const ITERS: usize = 8;
    // Environment: feeds ch1 and consumes/back-fills ch2.
    {
        let ch1 = ch1.clone();
        let ch2 = ch2.clone();
        session.spawn_untimed("env", move |ctx| {
            for i in 0..ITERS {
                // Alternate the condition the process sees.
                ch1.raw().write(ctx, if i % 2 == 0 { 5 } else { -5 });
                if i % 2 == 0 {
                    let _ = ch2.raw().read(ctx); // consume the conditional write
                }
                ch2.raw().write(ctx, i as i32); // value for ch2.read()
            }
        });
    }
    // The Figure 1 process.
    {
        let ch1 = ch1.clone();
        let ch2 = ch2.clone();
        session.spawn("process", cpu, move |ctx| {
            let delay1 = Time::ns(500);
            for _ in 0..ITERS {
                // code of segment S0-1 / S4-1 (common code omitted)
                let v = g_i32(ch1.read(ctx)); // N1
                let mut acc = g_i32(0);
                g_if!((v > 0) {
                    // code of segment S1-2
                    acc = acc + v * 3;
                    ch2.write(ctx, acc.get()); // N2
                    // code of segment S2-3
                    acc = acc - 1;
                });
                // common code to S1-3 / S2-3
                acc = acc + 7;
                timed_wait(ctx, delay1); // N3
                                         // code of segment S3-4
                let _ = acc * 2;
                let _ = ch2.read(ctx); // N4
            }
        });
    }
    session.run().expect("figure 1 model runs");
    let report = session.report();
    let proc = report.process("process").expect("process reported");

    let mut table = String::new();
    let _ = writeln!(
        table,
        "Figure 1/2. Process segmentation of the example process ({ITERS} iterations)"
    );
    let _ = writeln!(
        table,
        "{:<24} {:>6} {:>12} {:>12} {:>12}",
        "segment (from -> to)", "execs", "mean cyc", "min cyc", "max cyc"
    );
    for s in &proc.segments {
        let mean = s.stats.total_cycles / s.stats.count as f64;
        let _ = writeln!(
            table,
            "{:<24} {:>6} {:>12.1} {:>12.1} {:>12.1}",
            format!("{} -> {}", s.from, s.to),
            s.stats.count,
            mean,
            s.stats.min_cycles,
            s.stats.max_cycles
        );
    }
    let dot = ProcessGraph::from_report(proc).to_dot();
    (table, dot)
}

// ============================================================== Figure 3 ==

/// Reproduces the worked delay calculation of Figure 3 step by step,
/// returning the rendered walk. The final accumulated value must be the
/// paper's 75.8 cycles.
pub fn figure3() -> String {
    let table = CostTable::figure3();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3. Delay calculation (library parameters)");
    let _ = writeln!(out, "  t_=  = {}", table[Op::Assign]);
    let _ = writeln!(out, "  t_+  = {}", table[Op::Add]);
    let _ = writeln!(out, "  t_<  = {}", table[Op::Cmp]);
    let _ = writeln!(out, "  t_[] = {}", table[Op::Index]);
    let _ = writeln!(out, "  t_if = {}", table[Op::Branch]);
    let _ = writeln!(out, "  t_fc = {}", table[Op::Call]);
    let mut time = 0.0;
    let mut step = |label: &str, ops: &[Op], out: &mut String| {
        let add: f64 = ops.iter().map(|&o| table[o]).sum::<f64>() + 0.0;
        time += add;
        let _ = writeln!(out, "  {label:<24} time += {add:>5.1}  (= {time:.1})");
    };
    let _ = writeln!(out, "segment walk:");
    step("ch1.read();", &[], &mut out);
    step("if (i < 0)", &[Op::Branch, Op::Cmp], &mut out);
    step("    i = c + d;", &[Op::Assign, Op::Add], &mut out);
    step("datai = array[i];", &[Op::Assign, Op::Index], &mut out);
    step("datao = func(datai);", &[Op::Assign, Op::Call], &mut out);
    // func contributes 40.4 cycles: the argument copy (assign, 2) plus its
    // body: 1 branch + 1 compare + 5 index + 4 assign.
    step(
        "  (func body)",
        &[
            Op::Assign, // argument copy
            Op::Branch,
            Op::Cmp,
            Op::Index,
            Op::Assign,
            Op::Index,
            Op::Assign,
            Op::Index,
            Op::Assign,
            Op::Index,
            Op::Assign,
            Op::Index,
        ],
        &mut out,
    );
    let _ = writeln!(
        out,
        "  ch2.read();              final delay = {time:.1} cycles"
    );
    assert!((time - 75.8).abs() < 1e-9, "walk must total 75.8 cycles");
    out
}

/// The library's estimate of Figure 3's `ch1.read` → `ch2.read`
/// segment, in cycles, with the code annotated as written in the
/// figure: the paper's 75.8 under [`CostTable::figure3`].
pub fn figure3_estimate() -> f64 {
    /// `func` adds 40.4 cycles including its argument copy: 1 branch,
    /// 1 comparison, 5 index and 4 assign operations.
    fn func(x: G<i32>) -> G<i32> {
        let scratch = GArr::<i32>::zeroed(8);
        g_if!((x < 0) {});
        let mut last = G::raw(0);
        for i in 0..4 {
            last.assign(scratch.at_raw(i));
        }
        let _ = scratch.at_raw(5);
        last
    }
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", CLOCK, CostTable::figure3(), 0.0);
    let mut session = SimConfig::new().platform(platform).build();
    let ch1 = session.fifo::<i32>("ch1", 1);
    let ch2 = session.fifo::<i32>("ch2", 1);
    let (ch1_w, ch2_w) = (ch1.clone(), ch2.clone());
    session.spawn_untimed("env", move |ctx| {
        ch1_w.raw().write(ctx, 0);
        ch2_w.raw().write(ctx, 0);
    });
    session.spawn("proc", cpu, move |ctx| {
        let (mut i, c, d) = (G::raw(-1_i32), G::raw(20_i32), G::raw(22_i32));
        let array = GArr::<i32>::from_vec(vec![7; 8]);
        let (mut datai, mut datao) = (G::raw(0), G::raw(0));
        let _ = ch1.read(ctx);
        g_if!((i < 0) {
            i.assign(c + d);
        });
        datai.assign(array.at_raw(0));
        datao.assign(g_call!(func(datai)));
        let _ = ch2.read(ctx);
        let _ = datao;
    });
    session.run().expect("figure 3 model runs");
    session
        .report()
        .process("proc")
        .and_then(|p| p.segment("ch1.read", "ch2.read"))
        .expect("segment ch1.read -> ch2.read recorded")
        .stats
        .total_cycles
}

// ============================================================== Figure 4 ==

/// One point of the Figure 4 solution space.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Point {
    /// ALU budget (0 = fully sequential single-ALU reference).
    pub alus: u32,
    /// Execution time (ns).
    pub time_ns: f64,
    /// Area (relative FU units).
    pub area: f64,
}

/// The Figure 4 data for one benchmark: the scheduler-derived area/time
/// curve plus the library's k-interpolated estimates.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Benchmark name.
    pub name: String,
    /// Scheduled implementation points, slowest (single-ALU) first.
    pub curve: Vec<Fig4Point>,
    /// `(k, estimated time ns)` samples of the library's weighted-mean
    /// annotation.
    pub k_sweep: Vec<(f64, f64)>,
}

/// Generates the Figure 4 solution space for the FIR sample kernel and the
/// Euler step.
pub fn figure4() -> Vec<Fig4> {
    let clock_ns = CLOCK.as_ns_f64();
    let mut result = Vec::new();
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, Box<dyn FnOnce() + Send>)> = vec![
        (
            "FIR",
            Box::new(|| {
                let _ = scperf_workloads::fir::annotated_one_sample(7);
            }),
        ),
        (
            "Euler",
            Box::new(|| {
                let _ = scperf_workloads::euler::step_annotated(
                    G::raw(0.4),
                    G::raw(-0.1),
                    G::raw(2.25),
                );
            }),
        ),
    ];
    for (name, body) in cases {
        let (dfg, t_min, t_max) = crate::harness::record_hw_dfg(CostTable::asic_hw(), body);
        let curve: Vec<Fig4Point> = scperf_hls::explore::tradeoff_curve(&dfg)
            .into_iter()
            .map(|p| Fig4Point {
                alus: p.alus,
                time_ns: p.cycles as f64 * clock_ns,
                area: p.area,
            })
            .collect();
        let k_sweep: Vec<(f64, f64)> = (0..=10)
            .map(|i| {
                let k = i as f64 / 10.0;
                (
                    k,
                    scperf_core::weighted_hw_cycles(t_min, t_max, k) * clock_ns,
                )
            })
            .collect();
        result.push(Fig4 {
            name: name.to_owned(),
            curve,
            k_sweep,
        });
    }
    result
}

/// Renders the Figure 4 data as text (with embedded CSV blocks).
pub fn format_figure4(figs: &[Fig4]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4. Implementation solutions: area vs execution time"
    );
    for f in figs {
        let _ = writeln!(out, "\n[{}] scheduler curve (alus,time_ns,area):", f.name);
        for p in &f.curve {
            let _ = writeln!(out, "{},{:.0},{:.1}", p.alus, p.time_ns, p.area);
        }
        let _ = writeln!(out, "[{}] library k-sweep (k,time_ns):", f.name);
        for (k, t) in &f.k_sweep {
            let _ = writeln!(out, "{k:.1},{t:.0}");
        }
        let best = f.curve.last().expect("curve non-empty");
        let worst = f.curve.first().expect("curve non-empty");
        let _ = writeln!(
            out,
            "[{}] best case {:.0} ns (area {:.1}), worst case {:.0} ns (area {:.1})",
            f.name, best.time_ns, best.area, worst.time_ns, worst.area
        );
    }
    out
}

// ============================================================== Figure 5 ==

/// The Figure 5 reproduction: the same 3-process model simulated untimed
/// and strict-timed; returns both rendered traces.
///
/// P1 is mapped to a HW resource; P2 and P3 share one CPU. Untimed, the
/// three signal writes land in the same delta cycle; strict-timed, sg1/sg2
/// serialize on the CPU while sg4 runs in parallel on HW.
pub fn figure5() -> (String, String) {
    let run = |mode: Mode| -> Vec<scperf_kernel::TraceRecord> {
        let mut platform = Platform::new();
        let cpu = platform.sequential("cpu0 (SW)", CLOCK, CostTable::risc_sw(), 100.0);
        let hw = platform.parallel("res1 (HW)", CLOCK, CostTable::asic_hw(), 0.0);
        let mut session = SimConfig::new()
            .platform(platform)
            .mode(mode)
            .tracing(TraceMode::Unbounded)
            .build();
        let s1 = session.signal("s1", 0_i32);
        let s2 = session.signal("s2", 0_i32);
        let s3 = session.signal("s3", 0_i32);
        // A dependent chain of adds: n cycles on the HW critical path,
        // n add-costs on a CPU.
        let burn = |n: u64| {
            let mut x = G::raw(0_i64);
            for _ in 0..n {
                x = x + G::raw(1);
            }
            let _ = x;
        };
        session.spawn("P1", hw, move |ctx| {
            for i in 1..=3_i32 {
                burn(400); // sg4-like computation on HW
                s1.write(ctx, i);
                timed_wait(ctx, Time::ZERO); // delta separation, as in Fig. 5a
            }
        });
        session.spawn("P2", cpu, move |ctx| {
            for i in 1..=3_i32 {
                burn(300); // sg1
                s2.write(ctx, i);
                timed_wait(ctx, Time::ZERO);
            }
        });
        session.spawn("P3", cpu, move |ctx| {
            for i in 1..=3_i32 {
                burn(500); // sg2
                s3.write(ctx, i);
                timed_wait(ctx, Time::ZERO);
            }
        });
        session.run().expect("figure 5 model runs");
        session.sim().take_trace()
    };
    let untimed = run(Mode::EstimateOnly);
    let timed = run(Mode::StrictTimed);
    (
        scperf_kernel::trace::render_timeline(&untimed),
        scperf_kernel::trace::render_timeline(&timed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_2_segments_cover_the_graph() {
        let (table, dot) = figure1_2();
        // All four nodes of Figure 2 appear.
        for node in ["ch1.read", "ch2.write", "wait", "ch2.read"] {
            assert!(dot.contains(node), "missing node {node} in:\n{dot}");
        }
        // Both the taken and not-taken paths were observed:
        // ch1.read -> ch2.write (S1-2) and ch1.read -> wait (S1-3).
        assert!(table.contains("ch1.read -> ch2.write"));
        assert!(table.contains("ch1.read -> wait"));
        assert!(table.contains("wait -> ch2.read"));
    }

    #[test]
    fn figure3_walk_reaches_75_8() {
        let walk = figure3();
        assert!(walk.contains("final delay = 75.8 cycles"));
        assert!(walk.contains("(= 5.4)"));
        assert!(walk.contains("(= 8.4)"));
        assert!(walk.contains("(= 15.4)"));
        assert!(walk.contains("(= 35.4)"));
    }

    #[test]
    fn figure4_curves_are_monotone_and_bracketing() {
        let figs = figure4();
        assert_eq!(figs.len(), 2);
        for f in &figs {
            assert!(f.curve.len() >= 2, "{}", f.name);
            // k sweep interpolates between the estimator's extremes.
            let (k0, t0) = f.k_sweep[0];
            let (k1, t1) = *f.k_sweep.last().unwrap();
            assert_eq!(k0, 0.0);
            assert_eq!(k1, 1.0);
            assert!(t0 <= t1);
            // Scheduler curve: time shrinks as ALUs grow.
            for w in f.curve.windows(2) {
                assert!(w[1].time_ns <= w[0].time_ns);
            }
        }
    }

    #[test]
    fn figure5_traces_differ_only_in_time() {
        let (untimed, timed) = figure5();
        // Untimed: everything in delta cycles at time 0.
        assert!(untimed
            .lines()
            .all(|l| l.is_empty() || l.starts_with("[0ps")));
        // Strict-timed: updates happen at non-zero times.
        assert!(timed
            .lines()
            .any(|l| !l.is_empty() && !l.starts_with("[0ps")));
        // Same functional content: each signal updated three times in both.
        for sig in ["s1=", "s2=", "s3="] {
            assert_eq!(untimed.matches(sig).count(), 3, "{sig} untimed");
            assert_eq!(timed.matches(sig).count(), 3, "{sig} timed");
        }
    }
}
