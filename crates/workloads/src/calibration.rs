//! Probe-driven cost-table calibration (the automated §5 step).
//!
//! "Library weights were obtained analyzing assembler code from several
//! functions specifically developed for this purpose and taking into
//! account microprocessor architectural characteristics." Here that step
//! is automated: every [`crate::probes`] kernel runs in both forms —
//! annotated (exact source-level operation counts) and `minic`-compiled on
//! the reference ISS (cycles) — and the per-operation costs are fitted by
//! least squares, with an intercept column absorbing constant program
//! overhead (entry stub, `main` prologue).

use std::cell::Cell;
use std::rc::Rc;

use scperf_core::{CostTable, Mode, OpCounts, Platform, ResourceKind, SimConfig};
use scperf_kernel::Time;

use crate::probes::{probes, Probe};

/// One probe's calibration record.
#[derive(Debug, Clone)]
pub struct ProbeRow {
    /// Probe name.
    pub name: &'static str,
    /// ISS reference cycles.
    pub iss_cycles: u64,
    /// Cycles predicted by the fitted table.
    pub fitted_cycles: f64,
    /// Relative error of the fit on this probe (%).
    pub err_pct: f64,
}

/// A complete calibration result.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The fitted cost table.
    pub table: CostTable,
    /// Constant per-program overhead absorbed by the intercept (cycles).
    pub intercept: f64,
    /// Goodness of fit over the probe set.
    pub r_squared: f64,
    /// Per-probe diagnostics.
    pub rows: Vec<ProbeRow>,
}

/// Collects the exact source-level operation counts of an annotated kernel
/// by running it as the only analyzed process of a throwaway model.
pub fn count_ops(body: fn() -> i32) -> (OpCounts, i32) {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cal", Time::ns(10), CostTable::zero(), 0.0);
    assert_eq!(platform.resource(cpu).kind, ResourceKind::Sequential);
    let mut session = SimConfig::new()
        .platform(platform)
        .mode(Mode::EstimateOnly)
        .build();
    let value = Rc::new(Cell::new(0_i32));
    let out = Rc::clone(&value);
    session.spawn("probe", cpu, move |_ctx| out.set(body()));
    session.run().expect("count run");
    let counts = session.report().process("probe").expect("reported").counts;
    (counts, value.get())
}

/// Calibrates the SW cost table from the standard probe set.
///
/// # Panics
///
/// Panics if a probe's two forms disagree on their checksum (a broken
/// fixture) or the fit is singular.
pub fn calibrate() -> Calibration {
    calibrate_with(&probes())
}

/// Calibrates from an explicit probe set (used by the ablation bench to
/// shrink the set).
///
/// # Panics
///
/// See [`calibrate`].
pub fn calibrate_with(probe_set: &[Probe]) -> Calibration {
    let mut rows_matrix: Vec<Vec<f64>> = Vec::new();
    let mut cycles: Vec<f64> = Vec::new();
    let mut iss_cycles_all: Vec<u64> = Vec::new();
    for p in probe_set {
        let (counts, value) = count_ops(p.annotated);
        let (iss_value, iss_cycles) = p.run_iss();
        assert_eq!(
            value, iss_value,
            "probe {} disagrees between annotated and ISS forms",
            p.name
        );
        let mut row: Vec<f64> = counts.as_dense().iter().map(|&c| c as f64).collect();
        row.push(1.0); // intercept
        rows_matrix.push(row);
        cycles.push(iss_cycles as f64);
        iss_cycles_all.push(iss_cycles);
    }
    let fit = scperf_iss::calibrate::fit(&rows_matrix, &cycles).expect("calibration fit");
    let table = CostTable::from_dense(&fit.costs[..scperf_core::OP_COUNT]);
    let intercept = fit.costs[scperf_core::OP_COUNT];
    let rows = probe_set
        .iter()
        .zip(&rows_matrix)
        .zip(&iss_cycles_all)
        .map(|((p, row), &iss)| {
            let fitted: f64 = row.iter().zip(&fit.costs).map(|(a, c)| a * c).sum();
            let err_pct = if iss == 0 {
                0.0
            } else {
                (fitted - iss as f64).abs() / iss as f64 * 100.0
            };
            ProbeRow {
                name: p.name,
                iss_cycles: iss,
                fitted_cycles: fitted,
                err_pct,
            }
        })
        .collect();
    Calibration {
        table,
        intercept,
        r_squared: fit.r_squared,
        rows,
    }
}

impl std::fmt::Display for Calibration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "calibrated cost table (cycles per operation):")?;
        for op in scperf_core::ALL_OPS {
            writeln!(f, "  {:<5} {:8.3}", op.to_string(), self.table[op])?;
        }
        writeln!(
            f,
            "  intercept {:.1} cycles, R^2 = {:.6}",
            self.intercept, self.r_squared
        )?;
        writeln!(
            f,
            "{:<14} {:>12} {:>12} {:>8}",
            "probe", "ISS cyc", "fit cyc", "err %"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>12} {:>12.0} {:>8.2}",
                r.name, r.iss_cycles, r.fitted_cycles, r.err_pct
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scperf_core::Op;

    #[test]
    fn calibration_fits_probe_set_well() {
        let cal = calibrate();
        assert!(
            cal.r_squared > 0.98,
            "poor calibration fit: R^2 = {}",
            cal.r_squared
        );
        // Division dominates everything else on an iterative divider.
        assert!(cal.table[Op::Div] > cal.table[Op::Add]);
        // All costs non-negative.
        for op in scperf_core::ALL_OPS {
            assert!(cal.table[op] >= 0.0);
        }
        // The fitted model explains each probe to within ~15 %.
        for row in &cal.rows {
            assert!(
                row.err_pct < 15.0,
                "probe {} fits poorly: {:.1}%",
                row.name,
                row.err_pct
            );
        }
    }

    #[test]
    fn count_ops_returns_checksum_and_counts() {
        let p = &probes()[0];
        let (counts, value) = count_ops(p.annotated);
        assert!(counts.total() > 0);
        assert_eq!(value, (p.annotated)());
    }
}
