//! # scperf-workloads — the DATE 2004 evaluation workloads
//!
//! Every benchmark of the paper's §5 as **one generic source in two
//! meanings, plus `minic`**, all producing bit-identical results. As §3
//! swaps types with `#define`, each kernel is written once against the
//! `scperf-core` value types, generic over a
//! [`Domain`](scperf_core::Domain), and mirrors its `minic` source
//! statement by statement:
//!
//! 1. the [`Native`](scperf_core::Native) instantiation is the plain
//!    program (the reference result and the untimed-simulation
//!    baseline),
//! 2. the [`Annotated`](scperf_core::Annotated) instantiation charges
//!    every operation (the library path), and
//! 3. the `minic` source compiles to the `scperf-iss` reference processor
//!    (the ISS path).
//!
//! | Paper artifact | Module |
//! |----------------|--------|
//! | Table 1 rows FIR / Compress / Quick sort / Bubble / Fibonacci / Array | [`fir`], [`compress`], [`sort`], [`fibonacci`], [`mod@array`] |
//! | Table 2 HW benchmarks FIR and Euler | [`fir`], [`euler`] |
//! | Tables 3 & 4 GSM-like vocoder (5 concurrent processes) | [`vocoder`] |
//! | Cost-table calibration probes (§5 "functions specifically developed for this purpose") | [`probes`], [`calibration`] |

#![warn(missing_docs)]

pub mod array;
pub mod calibration;
pub mod case;
pub mod compress;
pub mod data;
pub mod euler;
pub mod fibonacci;
pub mod fir;
pub mod probes;
pub mod sort;
pub mod vocoder;

pub use case::BenchCase;

/// The six sequential benchmarks of Table 1, in the paper's row order.
pub fn table1_cases() -> Vec<BenchCase> {
    vec![
        fir::case(),
        compress::case(),
        sort::qsort_case(),
        sort::bubble_case(),
        fibonacci::case(),
        array::case(),
    ]
}
