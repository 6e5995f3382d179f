//! Annotated value types: the operator-overloading mechanism of §3.
//!
//! The paper replaces ordinary C types by generic classes (`int` →
//! `generic_int` via `#define`) whose overloaded operators add their
//! execution time to the running segment's delay. The Rust analogue is
//! [`G<T>`]: a transparent wrapper implementing the `std::ops` traits, each
//! of which charges its [`Op`] cost to the thread-local estimation context
//! installed by [`crate::PerfModel::spawn`].
//!
//! On parallel (HW) resources every `G` value additionally carries the
//! *ready time* and DFG node of the operation that produced it, which is
//! how the library computes the critical-path `T_min` on the fly.
//!
//! Rust cannot overload `if`, `[]`-on-plain-arrays or function calls
//! transparently; the [`crate::g_if!`], [`crate::g_while!`],
//! [`crate::g_for!`] and [`crate::g_call!`] macros plus [`crate::GArr`]
//! stand in for the paper's parser-inserted marks.
//!
//! Integer arithmetic uses wrapping semantics so that annotated code
//! behaves identically to the reference C benchmarks on overflow.

use std::cmp::Ordering;

use crate::cost::Op;
use crate::domain::{Annotated, Domain};

/// An annotated value: behaves like `T`, charges operation costs as it is
/// used. In the [`Native`](crate::Native) domain it is the plain word
/// and charges nothing (see [`Domain`]).
///
/// # Examples
///
/// ```
/// use scperf_core::{g_i32, G};
///
/// // Outside an analyzed process these behave like plain numbers.
/// let a = g_i32(6);
/// let b = g_i32(7);
/// assert_eq!((a * b).get(), 42);
/// assert!(a < b);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct G<T, D: Domain = Annotated> {
    v: T,
    dep: D::Dep,
}

impl<T: Copy> G<T> {
    /// Wraps a value **without charging anything** — for constants that a
    /// compiler would fold, function parameters already materialized, and
    /// plumbing code outside the measured algorithm. Generic kernels
    /// write [`Domain::raw`].
    #[inline]
    pub fn raw(v: T) -> G<T> {
        Annotated::raw(v)
    }

    /// Wraps a value, charging one [`Op::Assign`] (a variable
    /// initialization, `int x = …;`). Generic kernels write
    /// [`Domain::init`].
    #[inline]
    pub fn init(v: T) -> G<T> {
        Annotated::init(v)
    }

    /// The dataflow ready time (cycles) of this value — non-zero only
    /// inside a process mapped to a parallel resource.
    #[inline]
    pub fn ready_cycles(self) -> f64 {
        self.dep.0
    }
}

impl<T: Copy, D: Domain> G<T, D> {
    /// The wrapped value.
    #[inline]
    pub fn get(self) -> T {
        self.v
    }

    /// Assignment (`x = expr;`): charges one [`Op::Assign`] and, on HW
    /// resources, makes this value depend on `rhs`.
    #[inline]
    pub fn assign(&mut self, rhs: G<T, D>) {
        self.dep = D::charge(Op::Assign, rhs.dep, D::NONE);
        self.v = rhs.v;
    }

    /// Assignment from an untracked value.
    #[inline]
    pub fn assign_raw(&mut self, v: T) {
        self.dep = D::charge(Op::Assign, D::NONE, D::NONE);
        self.v = v;
    }

    pub(crate) fn dep(self) -> D::Dep {
        self.dep
    }

    pub(crate) fn with_dep(v: T, dep: D::Dep) -> G<T, D> {
        G { v, dep }
    }
}

impl<T: Copy, D: Domain> From<T> for G<T, D> {
    /// Equivalent to [`G::raw`] (no cost): lets untracked scalars flow into
    /// annotated expressions.
    #[inline]
    fn from(v: T) -> G<T, D> {
        D::raw(v)
    }
}

/// Integer types usable as [`crate::GArr`] indices.
pub trait IndexValue: Copy {
    /// This value as a `usize` array index.
    fn as_index(self) -> usize;
}

macro_rules! impl_index_value {
    ($($t:ty),*) => {$(
        impl IndexValue for $t {
            #[inline]
            fn as_index(self) -> usize {
                self as usize
            }
        }
    )*};
}
impl_index_value!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! impl_binop {
    ($t:ty, $trait:ident, $method:ident, $op:expr, $apply:expr) => {
        impl<D: Domain> std::ops::$trait for G<$t, D> {
            type Output = G<$t, D>;
            #[inline]
            fn $method(self, rhs: G<$t, D>) -> G<$t, D> {
                let dep = D::charge($op, self.dep, rhs.dep);
                G {
                    v: ($apply)(self.v, rhs.v),
                    dep,
                }
            }
        }
        impl<D: Domain> std::ops::$trait<$t> for G<$t, D> {
            type Output = G<$t, D>;
            #[inline]
            fn $method(self, rhs: $t) -> G<$t, D> {
                let dep = D::charge($op, self.dep, D::NONE);
                G {
                    v: ($apply)(self.v, rhs),
                    dep,
                }
            }
        }
        impl<D: Domain> std::ops::$trait<G<$t, D>> for $t {
            type Output = G<$t, D>;
            #[inline]
            fn $method(self, rhs: G<$t, D>) -> G<$t, D> {
                let dep = D::charge($op, rhs.dep, D::NONE);
                G {
                    v: ($apply)(self, rhs.v),
                    dep,
                }
            }
        }
    };
}

macro_rules! impl_cmp {
    ($t:ty) => {
        impl<D: Domain> PartialEq for G<$t, D> {
            #[inline]
            fn eq(&self, other: &G<$t, D>) -> bool {
                let _ = D::charge(Op::Cmp, self.dep, other.dep);
                self.v == other.v
            }
        }
        impl<D: Domain> PartialEq<$t> for G<$t, D> {
            #[inline]
            fn eq(&self, other: &$t) -> bool {
                let _ = D::charge(Op::Cmp, self.dep, D::NONE);
                self.v == *other
            }
        }
        impl<D: Domain> PartialOrd for G<$t, D> {
            #[inline]
            fn partial_cmp(&self, other: &G<$t, D>) -> Option<Ordering> {
                let _ = D::charge(Op::Cmp, self.dep, other.dep);
                self.v.partial_cmp(&other.v)
            }
        }
        impl<D: Domain> PartialOrd<$t> for G<$t, D> {
            #[inline]
            fn partial_cmp(&self, other: &$t) -> Option<Ordering> {
                let _ = D::charge(Op::Cmp, self.dep, D::NONE);
                self.v.partial_cmp(other)
            }
        }
    };
}

macro_rules! impl_int_type {
    ($t:ty, $ctor:ident) => {
        impl_binop!($t, Add, add, Op::Add, |a: $t, b: $t| a.wrapping_add(b));
        impl_binop!($t, Sub, sub, Op::Add, |a: $t, b: $t| a.wrapping_sub(b));
        impl_binop!($t, Mul, mul, Op::Mul, |a: $t, b: $t| a.wrapping_mul(b));
        impl_binop!($t, Div, div, Op::Div, |a: $t, b: $t| a / b);
        impl_binop!($t, Rem, rem, Op::Div, |a: $t, b: $t| a % b);
        impl_binop!($t, BitAnd, bitand, Op::Logic, |a: $t, b: $t| a & b);
        impl_binop!($t, BitOr, bitor, Op::Logic, |a: $t, b: $t| a | b);
        impl_binop!($t, BitXor, bitxor, Op::Logic, |a: $t, b: $t| a ^ b);
        impl_binop!($t, Shl, shl, Op::Shift, |a: $t, b: $t| a
            .wrapping_shl(b as u32));
        impl_binop!($t, Shr, shr, Op::Shift, |a: $t, b: $t| a
            .wrapping_shr(b as u32));
        impl_cmp!($t);

        impl<D: Domain> std::ops::Not for G<$t, D> {
            type Output = G<$t, D>;
            #[inline]
            fn not(self) -> G<$t, D> {
                let dep = D::charge(Op::Logic, self.dep, D::NONE);
                G { v: !self.v, dep }
            }
        }

        /// Wraps a literal, charging one assignment (like `int x = lit;`).
        #[inline]
        pub fn $ctor(v: $t) -> G<$t> {
            G::init(v)
        }
    };
}

macro_rules! impl_signed_neg {
    ($t:ty) => {
        impl<D: Domain> std::ops::Neg for G<$t, D> {
            type Output = G<$t, D>;
            #[inline]
            fn neg(self) -> G<$t, D> {
                let dep = D::charge(Op::Add, self.dep, D::NONE);
                G {
                    v: self.v.wrapping_neg(),
                    dep,
                }
            }
        }
    };
}

macro_rules! impl_float_type {
    ($t:ty, $ctor:ident) => {
        impl_binop!($t, Add, add, Op::FAdd, |a: $t, b: $t| a + b);
        impl_binop!($t, Sub, sub, Op::FAdd, |a: $t, b: $t| a - b);
        impl_binop!($t, Mul, mul, Op::FMul, |a: $t, b: $t| a * b);
        impl_binop!($t, Div, div, Op::FDiv, |a: $t, b: $t| a / b);
        impl_cmp!($t);

        impl<D: Domain> std::ops::Neg for G<$t, D> {
            type Output = G<$t, D>;
            #[inline]
            fn neg(self) -> G<$t, D> {
                let dep = D::charge(Op::FAdd, self.dep, D::NONE);
                G { v: -self.v, dep }
            }
        }

        /// Wraps a literal, charging one assignment.
        #[inline]
        pub fn $ctor(v: $t) -> G<$t> {
            G::init(v)
        }
    };
}

impl_int_type!(i16, g_i16);
impl_int_type!(i32, g_i32);
impl_int_type!(i64, g_i64);
impl_int_type!(u8, g_u8);
impl_int_type!(u16, g_u16);
impl_int_type!(u32, g_u32);
impl_int_type!(u64, g_u64);
impl_int_type!(usize, g_usize);
impl_signed_neg!(i16);
impl_signed_neg!(i32);
impl_signed_neg!(i64);
impl_float_type!(f32, g_f32);
impl_float_type!(f64, g_f64);

macro_rules! impl_casts {
    ($t:ty => $($method:ident -> $to:ty),* $(,)?) => {
        impl<D: Domain> G<$t, D> {
            $(
                /// Free type cast of the wrapped value (register move).
                #[inline]
                pub fn $method(self) -> G<$to, D> {
                    G {
                        v: self.v as $to,
                        dep: self.dep,
                    }
                }
            )*
        }
    };
}

impl_casts!(i16 => cast_i32 -> i32, cast_i64 -> i64, cast_f64 -> f64);
impl_casts!(i32 => cast_i16 -> i16, cast_i64 -> i64, cast_usize -> usize, cast_f64 -> f64, cast_u32 -> u32);
impl_casts!(i64 => cast_i32 -> i32, cast_f64 -> f64, cast_usize -> usize);
impl_casts!(u8 => cast_u32 -> u32, cast_usize -> usize, cast_i32 -> i32);
impl_casts!(u16 => cast_u32 -> u32, cast_usize -> usize, cast_i32 -> i32);
impl_casts!(u32 => cast_i32 -> i32, cast_i64 -> i64, cast_usize -> usize, cast_u8 -> u8);
impl_casts!(u64 => cast_i64 -> i64, cast_usize -> usize);
impl_casts!(usize => cast_i32 -> i32, cast_i64 -> i64, cast_u32 -> u32);
impl_casts!(f64 => cast_f32 -> f32, cast_i32 -> i32, cast_i64 -> i64);
impl_casts!(f32 => cast_f64 -> f64, cast_i32 -> i32);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTable;
    use crate::resource::ResourceKind;
    use crate::tls::testutil::with_test_ctx;

    #[test]
    fn arithmetic_matches_plain_semantics() {
        let a = g_i32(i32::MAX);
        let b = a + 1; // wrapping, like the fixed-point reference code
        assert_eq!(b.get(), i32::MIN);
        assert_eq!((g_i32(7) % 3).get(), 1);
        assert_eq!((g_u32(0b1100) & 0b1010).get(), 0b1000);
        assert_eq!((g_i64(-5)).get(), -5);
        assert_eq!((-g_i64(5)).get(), -5);
        assert_eq!((g_f64(1.5) * 2.0).get(), 3.0);
    }

    #[test]
    fn comparisons_return_plain_bools() {
        assert!(g_i32(1) < g_i32(2));
        assert!(g_i32(2) <= 2);
        assert!(g_f64(2.5) > g_f64(1.0));
        assert!(g_i32(3) == 3);
    }

    #[test]
    fn costs_are_charged_per_operator() {
        let table = CostTable::from_pairs([
            (Op::Assign, 2.0),
            (Op::Add, 1.0),
            (Op::Mul, 3.0),
            (Op::Cmp, 0.5),
        ]);
        let ctx = with_test_ctx(ResourceKind::Sequential, table, false, || {
            let a = g_i32(1); // assign: 2
            let b = g_i32(2); // assign: 2
            let c = a + b; // add: 1
            let d = c * a; // mul: 3
            let _ = d < a; // cmp: 0.5
            let mut e = G::raw(0); // free
            e.assign(d); // assign: 2
        });
        assert_eq!(ctx.acc, 10.5);
        assert_eq!(ctx.counts.get(Op::Assign), 3);
        assert_eq!(ctx.counts.get(Op::Add), 1);
    }

    #[test]
    fn raw_values_are_free() {
        let ctx = with_test_ctx(
            ResourceKind::Sequential,
            CostTable::risc_sw(),
            false,
            || {
                let a: G<i64> = G::raw(5);
                let b: G<i64> = 7.into();
                let _ = a.get() + b.get();
            },
        );
        assert_eq!(ctx.acc, 0.0);
    }

    #[test]
    fn hw_mode_tracks_critical_path() {
        // add: 1 cycle, mul: 2 cycles.
        let table = CostTable::from_pairs([(Op::Add, 1.0), (Op::Mul, 2.0)]);
        let ctx = with_test_ctx(ResourceKind::Parallel, table, false, || {
            let a: G<i32> = G::raw(1);
            let b: G<i32> = G::raw(2);
            // Two independent adds (parallel), then a dependent multiply.
            let s1 = a + b; // ready 1
            let s2 = a + b; // ready 1 (parallel with s1)
            let _p = s1 * s2; // ready 3
        });
        assert_eq!(ctx.max_ready, 3.0); // T_min: critical path
        assert_eq!(ctx.acc, 4.0); // T_max: 1 + 1 + 2
    }

    #[test]
    fn hw_mode_records_dfg_when_enabled() {
        let table = CostTable::from_pairs([(Op::Add, 1.0), (Op::Mul, 2.0)]);
        let ctx = with_test_ctx(ResourceKind::Parallel, table, true, || {
            let a: G<i32> = G::raw(1);
            let s = a + a;
            let _p = s * s;
        });
        let dfg = ctx.dfg.expect("dfg recorded");
        assert_eq!(dfg.len(), 2);
        assert_eq!(dfg.critical_path(), 3);
        assert_eq!(dfg.sequential_cycles(), 3);
    }

    #[test]
    fn casts_preserve_value_and_lineage() {
        let a = g_i32(-3);
        let b = a.cast_i64();
        assert_eq!(b.get(), -3_i64);
        let c = g_f64(2.9).cast_i32();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn index_value_covers_signed() {
        assert_eq!(5_i32.as_index(), 5);
        assert_eq!(5_u64.as_index(), 5);
    }
}
