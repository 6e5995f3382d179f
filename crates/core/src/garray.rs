//! Annotated arrays: charged `[]` indexing.
//!
//! Rust cannot hook cost collection into `Index` for plain slices (the
//! trait returns a reference, not a value we can tag), so annotated code
//! uses [`GArr`] with explicit `at`/`set` accessors — the equivalent of the
//! paper's overloaded `operator[]` with its `t_[]` cost (Figure 3). The
//! array is plain storage; an access charges in the domain of the values
//! it reads or writes (see [`Domain`]).

use std::fmt;

use crate::cost::Op;
use crate::domain::Domain;
use crate::gval::{IndexValue, G};

/// An annotated array of scalars. Every element access through
/// [`GArr::at`] / [`GArr::set`] charges one [`Op::Index`] (plus the
/// assignment cost for `set`).
///
/// # Examples
///
/// ```
/// use scperf_core::{g_usize, GArr};
///
/// let mut a = GArr::<i32>::zeroed(4);
/// a.set(g_usize(2), 7.into());
/// assert_eq!(a.at(g_usize(2)).get(), 7);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct GArr<T> {
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for GArr<T> {
    /// The elements, formatted as a `Vec` of them is.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.data.fmt(f)
    }
}

impl<T: Copy + Default> GArr<T> {
    /// A zero-initialized array of length `n` (allocation itself is free —
    /// it models static storage).
    pub fn zeroed(n: usize) -> GArr<T> {
        GArr {
            data: vec![T::default(); n],
        }
    }
}

impl<T: Copy> GArr<T> {
    /// Wraps existing data (free: models pre-existing input buffers).
    pub fn from_vec(data: Vec<T>) -> GArr<T> {
        GArr { data }
    }

    /// Wraps a slice by copying it (free).
    pub fn from_slice(data: &[T]) -> GArr<T> {
        GArr {
            data: data.to_vec(),
        }
    }

    /// The array length (compile-time knowledge: free).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Charged element read: `a[i]`. The index's domain is the
    /// element's: a [`Native`](crate::Native) read charges nothing.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn at<I: IndexValue, D: Domain>(&self, i: G<I, D>) -> G<T, D> {
        let dep = D::charge(Op::Index, i.dep(), D::NONE);
        G::with_dep(self.data[i.get().as_index()], dep)
    }

    /// Charged element read with an untracked index. Generic kernels
    /// write `a.at(D::raw(i))`, which charges the same.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn at_raw(&self, i: usize) -> G<T> {
        self.at(G::raw(i))
    }

    /// Charged element write: `a[i] = v` (one `[]` plus one `=`).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set<I: IndexValue, D: Domain>(&mut self, i: G<I, D>, v: G<T, D>) {
        D::store(Some(i.dep()), v.dep());
        self.data[i.get().as_index()] = v.get();
    }

    /// Charged element write with an untracked index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set_raw<D: Domain>(&mut self, i: usize, v: G<T, D>) {
        D::store(None, v.dep());
        self.data[i] = v.get();
    }

    /// Uncharged read (plumbing/verification code outside the measured
    /// algorithm).
    #[inline]
    pub fn peek(&self, i: usize) -> T {
        self.data[i]
    }

    /// Uncharged write (test setup, result extraction).
    #[inline]
    pub fn poke(&mut self, i: usize, v: T) {
        self.data[i] = v;
    }

    /// The underlying data (free).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Extracts the underlying data (free).
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Copy> From<Vec<T>> for GArr<T> {
    fn from(data: Vec<T>) -> GArr<T> {
        GArr::from_vec(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTable;
    use crate::gval::g_usize;
    use crate::resource::ResourceKind;
    use crate::tls::testutil::with_test_ctx;

    #[test]
    fn reads_and_writes_round_trip() {
        let mut a = GArr::<i64>::zeroed(3);
        a.set(g_usize(0), 10.into());
        a.set_raw(1, G::raw(20));
        a.poke(2, 30);
        assert_eq!(a.at(g_usize(0)).get(), 10);
        assert_eq!(a.at_raw(1).get(), 20);
        assert_eq!(a.peek(2), 30);
        assert_eq!(a.as_slice(), &[10, 20, 30]);
    }

    #[test]
    fn indexing_costs_are_charged() {
        let table = CostTable::from_pairs([(Op::Index, 5.0), (Op::Assign, 2.0)]);
        let ctx = with_test_ctx(ResourceKind::Sequential, table, false, || {
            let mut a = GArr::<i32>::zeroed(4);
            a.set_raw(0, G::raw(1)); // index + assign = 7
            let _ = a.at_raw(0); // index = 5
        });
        assert_eq!(ctx.acc, 12.0);
        assert_eq!(ctx.counts.get(Op::Index), 2);
        assert_eq!(ctx.counts.get(Op::Assign), 1);
    }

    #[test]
    fn hw_load_depends_on_index_value() {
        // index: 1 cycle, add: 1 cycle.
        let table = CostTable::from_pairs([(Op::Index, 1.0), (Op::Add, 1.0)]);
        let ctx = with_test_ctx(ResourceKind::Parallel, table, false, || {
            let a = GArr::<i32>::from_vec(vec![1, 2, 3, 4]);
            let i = G::<usize>::raw(0) + G::<usize>::raw(1); // ready 1
            let v = a.at(i); // ready 2 (depends on i)
            let _ = v + v; // ready 3
        });
        assert_eq!(ctx.max_ready, 3.0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let a = GArr::<i32>::zeroed(1);
        let _ = a.at_raw(5);
    }

    #[test]
    fn from_conversions() {
        let a: GArr<u8> = vec![1, 2].into();
        assert_eq!(a.len(), 2);
        let b = GArr::from_slice(&[3_u8, 4]);
        assert_eq!(b.into_vec(), vec![3, 4]);
        assert!(!a.is_empty());
        assert!(GArr::<u8>::zeroed(0).is_empty());
    }
}
