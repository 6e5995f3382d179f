//! Non-determinism detection (§6).
//!
//! "This method maintains the global behavior of the description although
//! the execution order of processes can change as a result of the
//! architectural mapping decisions. If results are different from the
//! original system-level specification, it means that the description is
//! not deterministic (potentially wrong). … Thus, the library becomes a
//! powerful verification tool."
//!
//! [`check`] runs the same model twice — once untimed, once strict-timed —
//! and diffs the per-process functional traces.

use scperf_kernel::{trace, SimError, Simulator, TraceMode, TraceRecord};

use crate::estimator::Mode;
use crate::model::PerfModel;
use crate::resource::Platform;
use crate::session::SimConfig;

/// The result of a determinism check.
#[derive(Debug, Clone)]
pub struct DeterminismOutcome {
    /// `true` when untimed and strict-timed runs agree on every process's
    /// observable behaviour.
    pub deterministic: bool,
    /// Processes whose functional trace differs between the two runs.
    pub differing: Vec<String>,
    /// Trace of the untimed ([`Mode::EstimateOnly`]) run.
    pub untimed_trace: Vec<TraceRecord>,
    /// Trace of the strict-timed run.
    pub timed_trace: Vec<TraceRecord>,
}

/// Runs `build`'s model under both simulation modes and compares the
/// functional (value-carrying) content of the traces per process.
///
/// `build` must construct the *same* model each time it is called — it
/// receives the [`Simulator`] and [`PerfModel`] of a fresh
/// [`crate::Session`] per run ([`crate::Session::parts_mut`]).
///
/// # Errors
///
/// Propagates any [`SimError`] from either run.
///
/// # Examples
///
/// ```
/// use scperf_core::{determinism, CostTable, Platform};
/// use scperf_kernel::Time;
///
/// let mut platform = Platform::new();
/// let cpu = platform.sequential("cpu", Time::ns(10), CostTable::risc_sw(), 0.0);
/// let outcome = determinism::check(&platform, |sim, model| {
///     let ch = model.fifo::<i32>(sim, "c", 2);
///     let tx = ch.clone();
///     model.spawn(sim, "producer", cpu, move |ctx| {
///         tx.write(ctx, 42);
///     });
///     model.spawn(sim, "consumer", cpu, move |ctx| {
///         let _ = ch.read(ctx);
///     });
/// })?;
/// assert!(outcome.deterministic);
/// # Ok::<(), scperf_kernel::SimError>(())
/// ```
pub fn check<F>(platform: &Platform, build: F) -> Result<DeterminismOutcome, SimError>
where
    F: Fn(&mut Simulator, &PerfModel),
{
    let run = |mode: Mode| -> Result<Vec<TraceRecord>, SimError> {
        let mut session = SimConfig::new()
            .platform(platform.clone())
            .mode(mode)
            .tracing(TraceMode::Unbounded)
            .build();
        let (sim, model) = session.parts_mut();
        build(sim, model);
        session.run()?;
        Ok(session.sim().take_trace())
    };
    let untimed_trace = run(Mode::EstimateOnly)?;
    let timed_trace = run(Mode::StrictTimed)?;
    let differing = trace::compare_traces(&untimed_trace, &timed_trace);
    Ok(DeterminismOutcome {
        deterministic: differing.is_empty(),
        differing,
        untimed_trace,
        timed_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTable;
    use scperf_kernel::Time;

    fn one_cpu() -> (Platform, crate::resource::ResourceId) {
        let mut p = Platform::new();
        let cpu = p.sequential("cpu", Time::ns(10), CostTable::risc_sw(), 10.0);
        (p, cpu)
    }

    #[test]
    fn deterministic_pipeline_passes() {
        let (platform, cpu) = one_cpu();
        let outcome = check(&platform, |sim, model| {
            let ch = model.fifo::<i64>(sim, "c", 2);
            let tx = ch.clone();
            model.spawn(sim, "producer", cpu, move |ctx| {
                for i in 0..5 {
                    let v = crate::gval::g_i64(i) * 2;
                    tx.write(ctx, v.get());
                }
            });
            model.spawn(sim, "consumer", cpu, move |ctx| {
                for _ in 0..5 {
                    let _ = ch.read(ctx);
                }
            });
        })
        .unwrap();
        assert!(outcome.deterministic, "differing: {:?}", outcome.differing);
        assert!(!outcome.timed_trace.is_empty());
    }

    #[test]
    fn racy_model_is_flagged() {
        // Two producers on *different* CPUs race into one FIFO; the
        // consumer's observed value order depends on scheduling. Untimed,
        // "slow" (lower pid) writes first; strict-timed, its heavy segment
        // makes it write much later than "fast".
        let (mut platform, cpu) = one_cpu();
        let cpu2 = platform.sequential("cpu2", Time::ns(10), CostTable::risc_sw(), 10.0);
        let outcome = check(&platform, move |sim, model| {
            let ch = model.fifo::<i64>(sim, "c", 4);
            let tx1 = ch.clone();
            let tx2 = ch.clone();
            model.spawn(sim, "slow", cpu, move |ctx| {
                let mut acc = crate::gval::g_i64(0);
                for i in 0..2000 {
                    acc = acc + i;
                }
                tx1.write(ctx, acc.get());
            });
            model.spawn(sim, "fast", cpu2, move |ctx| {
                tx2.write(ctx, -1);
            });
            model.spawn(sim, "consumer", cpu, move |ctx| {
                let a = ch.read(ctx);
                let b = ch.read(ctx);
                ctx.emit_trace("order", format!("{a},{b}"));
            });
        })
        .unwrap();
        assert!(!outcome.deterministic);
        assert!(outcome.differing.iter().any(|p| p == "consumer"));
    }
}
