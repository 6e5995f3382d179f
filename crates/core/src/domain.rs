//! Value domains: one kernel source, two meanings.
//!
//! §3 of the paper obtains the annotated program from the plain one by
//! swapping the types with `#define`: the source is written once and
//! means either the original algorithm or its cost-charging twin. Here a
//! kernel is written once, generic over a [`Domain`], against
//! [`G<T, D>`](crate::G) values, [`GArr`] storage and the `g_*!` macros
//! given the domain as their first argument:
//!
//! * [`Annotated`] (the default everywhere) charges every operation to
//!   the running process, as [`G`] always has;
//! * [`Native`] is the plain program: wrapping words, uncharged array
//!   access, and branch, loop, call and region hooks that do nothing and
//!   never touch the estimation thread-local.
//!
//! ```
//! use scperf_core::{g_for, Domain, GArr, Native};
//!
//! /// Σ a[i]·a[i], mirroring `for (i = 0; i < n; i = i + 1) s = s + a[i] * a[i];`
//! fn sum_sq<D: Domain>(a: &GArr<i32>) -> i32 {
//!     let mut s = D::init(0_i32);
//!     g_for!(D; i in 0..a.len() => {
//!         s.assign(s + a.at(D::raw(i)) * a.at(D::raw(i)));
//!     });
//!     s.get()
//! }
//!
//! let a = GArr::from_vec(vec![1, 2, 3]);
//! assert_eq!(sum_sq::<Native>(&a), 14);
//! assert_eq!(sum_sq::<scperf_core::Annotated>(&a), 14);
//! ```
//!
//! A [`g_twin!`](crate::g_twin) region, the one memoized region, is a
//! function generic over the domain: once its cost program is compiled,
//! repeats charge the program and run the function's `Native`
//! instantiation, so the plain program *is* the twin and no
//! hand-written copy exists to drift.

use std::fmt::Debug;

use crate::cost::Op;
use crate::garray::GArr;
use crate::gval::G;
use crate::hw::NO_NODE;
use crate::site::{self, Region, SegmentSite};
use crate::tls;

/// The meaning of a kernel source: how its values charge. Implemented
/// by [`Annotated`] and [`Native`].
pub trait Domain: Copy + Default + Debug + 'static {
    /// What a value carries besides its word: the ready time and DFG
    /// node of the operation that produced it when annotated, nothing
    /// when native.
    type Dep: Copy + Default + Debug;

    /// The dependence of a value no charged operation produced.
    const NONE: Self::Dep;

    /// Charges `op` on operands with dependences `a` and `b`; returns
    /// the result's dependence.
    fn charge(op: Op, a: Self::Dep, b: Self::Dep) -> Self::Dep;

    /// Charges an array store `a[i] = v`: one [`Op::Index`] on the index
    /// (`None` for an untracked one), then one [`Op::Assign`] of `v`.
    fn store(i: Option<Self::Dep>, v: Self::Dep);

    /// Wraps `v` without charging: [`G::raw`] in this domain.
    #[inline]
    fn raw<T: Copy>(v: T) -> G<T, Self> {
        G::with_dep(v, Self::NONE)
    }

    /// Wraps `v`, charging one [`Op::Assign`] (`int x = …;`):
    /// [`G::init`] in this domain.
    #[inline]
    fn init<T: Copy>(v: T) -> G<T, Self> {
        G::with_dep(v, Self::charge(Op::Assign, Self::NONE, Self::NONE))
    }

    /// Charges one operation with no data dependences.
    #[inline]
    fn op(op: Op) {
        let _ = Self::charge(op, Self::NONE, Self::NONE);
    }

    /// Enters a [`g_twin!`](crate::g_twin) region: `None` means run the
    /// region's `Native` instantiation (its cost, if any, is charged
    /// already); `Some` means run this domain's through the [`Region`].
    /// The key is computed only when the region can memoize.
    fn twin(site: &'static SegmentSite, key: impl FnOnce() -> u64) -> Option<Region>;
}

/// The annotated domain: every operation charges the running process's
/// cost table (§3), and values carry their HW ready time and DFG node.
#[derive(Debug, Clone, Copy, Default)]
pub struct Annotated;

/// The native domain: the plain program. Values are wrapping words,
/// array access is unchecked by the estimator, and no hook charges.
#[derive(Debug, Clone, Copy, Default)]
pub struct Native;

impl Domain for Annotated {
    type Dep = (f64, u32);

    const NONE: (f64, u32) = (0.0, NO_NODE);

    #[inline]
    fn charge(op: Op, a: (f64, u32), b: (f64, u32)) -> (f64, u32) {
        tls::charge(op, a.0, a.1, b.0, b.1)
    }

    #[inline]
    fn store(i: Option<(f64, u32)>, (ready, node): (f64, u32)) {
        let (r1, n1) = Self::charge(Op::Index, i.unwrap_or(Self::NONE), Self::NONE);
        // A tracked index whose value no operation produced hangs the
        // store off the index node.
        let node = if i.is_some() && node == NO_NODE {
            n1
        } else {
            node
        };
        let _ = Self::charge(Op::Assign, (ready.max(r1), node), (r1, n1));
    }

    #[inline]
    fn twin(site: &'static SegmentSite, key: impl FnOnce() -> u64) -> Option<Region> {
        site::twin(site, key)
    }
}

impl Domain for Native {
    type Dep = ();

    const NONE: () = ();

    #[inline(always)]
    fn charge(_: Op, _: (), _: ()) {}

    #[inline(always)]
    fn store(_: Option<()>, _: ()) {}

    #[inline(always)]
    fn twin(_: &'static SegmentSite, _: impl FnOnce() -> u64) -> Option<Region> {
        None
    }
}

/// A value a [`g_twin!`](crate::g_twin) region takes or returns, carried
/// into the domain `Out` is in: a [`G`] keeps its word and drops its
/// dependence; storage and plain scalars pass through unchanged.
pub trait Carry<Out> {
    /// This value as `Out`.
    fn carry(self) -> Out;
}

impl<T: Copy, D: Domain, E: Domain> Carry<G<T, E>> for G<T, D> {
    #[inline(always)]
    fn carry(self) -> G<T, E> {
        E::raw(self.get())
    }
}

impl<'a, T> Carry<&'a GArr<T>> for &'a GArr<T> {
    #[inline(always)]
    fn carry(self) -> &'a GArr<T> {
        self
    }
}

impl<'a, T> Carry<&'a mut GArr<T>> for &'a mut GArr<T> {
    #[inline(always)]
    fn carry(self) -> &'a mut GArr<T> {
        self
    }
}

macro_rules! carry_as_is {
    ($($t:ty),*) => {$(
        impl Carry<$t> for $t {
            #[inline(always)]
            fn carry(self) -> $t {
                self
            }
        }
    )*};
}
carry_as_is!((), bool, u64, usize);

impl<A: Carry<X>, B: Carry<Y>, X, Y> Carry<(X, Y)> for (A, B) {
    #[inline(always)]
    fn carry(self) -> (X, Y) {
        (self.0.carry(), self.1.carry())
    }
}

impl<A: Carry<X>, B: Carry<Y>, C: Carry<Z>, X, Y, Z> Carry<(X, Y, Z)> for (A, B, C) {
    #[inline(always)]
    fn carry(self) -> (X, Y, Z) {
        (self.0.carry(), self.1.carry(), self.2.carry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTable;
    use crate::resource::ResourceKind;
    use crate::tls::testutil::with_test_ctx;

    fn kernel<D: Domain>(a: &GArr<i32>) -> i32 {
        let mut s = D::init(0_i32);
        crate::g_for!(D; i in 0..a.len() => {
            crate::g_if!(D; (a.at(D::raw(i)) > 1) {
                s.assign(s + a.at(D::raw(i)) * a.at(D::raw(i)));
            });
        });
        s.get()
    }

    #[test]
    fn native_charges_nothing_and_agrees_with_annotated() {
        let a = GArr::from_vec(vec![1, 2, 3]);
        let table = CostTable::risc_sw();
        let mut plain = 0;
        let native = with_test_ctx(ResourceKind::Sequential, table.clone(), false, || {
            plain = kernel::<Native>(&a);
        });
        let mut charged = 0;
        let annotated = with_test_ctx(ResourceKind::Sequential, table, false, || {
            charged = kernel::<Annotated>(&a);
        });
        assert_eq!((plain, charged), (13, 13));
        assert_eq!(native.acc, 0.0);
        assert!(annotated.acc > 0.0);
    }

    #[test]
    fn carry_keeps_words_and_drops_dependences() {
        let x: G<i32, Native> = G::raw(7).carry();
        assert_eq!(x.get(), 7);
        let (a, b): (G<i32>, G<i32>) = (Native::raw(1), Native::raw(2)).carry();
        assert_eq!((a.get(), b.get()), (1, 2));
        assert_eq!(a.ready_cycles(), 0.0);
    }
}
