//! # scperf-hls — a behavioral-synthesis scheduling baseline
//!
//! The paper validates its HW estimates (Tables 2 and 4) against "real
//! execution times under resource-constrained and time-constrained
//! scheduling … obtained by using the Concentric behavioral synthesis tool
//! from Synopsys". This crate is the open substitute: the textbook
//! scheduling cores of behavioral synthesis, operating directly on the
//! dataflow graphs the estimation library records
//! ([`scperf_core::SimConfig::record_dfgs`]).
//!
//! * [`schedule_asap`] — unlimited resources; its makespan is the critical
//!   path, the *time-constrained* / best-case reference.
//! * [`schedule_sequential`] — everything serialized on a single ALU, the
//!   *resource-constrained* / worst-case reference.
//! * [`schedule_list`] — priority list scheduling under an arbitrary
//!   functional-unit [`Allocation`], filling the space between the two.
//! * [`schedule_alap`] + slack, and [`explore::tradeoff_curve`] for the
//!   Figure 4 area/time solution space.
//!
//! # Examples
//!
//! ```
//! use scperf_core::{Dfg, Op, NO_NODE};
//! use scperf_hls::{schedule_asap, schedule_list, schedule_sequential, Allocation, FuKind};
//!
//! // (a+b) * (c+d)
//! let mut dfg = Dfg::new();
//! let s1 = dfg.push(Op::Add, 1, NO_NODE, NO_NODE);
//! let s2 = dfg.push(Op::Add, 1, NO_NODE, NO_NODE);
//! dfg.push(Op::Mul, 2, s1, s2);
//!
//! let best = schedule_asap(&dfg);
//! let worst = schedule_sequential(&dfg);
//! assert_eq!(best.makespan, 3);  // adds in parallel, then the multiply
//! assert_eq!(worst.makespan, 4); // 1 + 1 + 2
//!
//! let one_alu = Allocation::unlimited().with(FuKind::Alu, 1);
//! assert_eq!(schedule_list(&dfg, &one_alu).makespan, 4);
//! ```

#![warn(missing_docs)]

pub mod explore;
mod fu;
pub mod gantt;
mod sched;

pub use fu::{Allocation, FuKind, ALL_FU_KINDS, FU_KINDS};
pub use sched::{
    chained_critical_path, chained_sequential, schedule_alap, schedule_asap, schedule_list,
    schedule_sequential, Schedule,
};
