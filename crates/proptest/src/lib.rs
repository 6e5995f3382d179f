//! # scperf-proptest — an in-tree property-testing shim
//!
//! The workspace builds in fully offline environments, so the registry
//! `proptest` crate is not available. This crate reimplements the small
//! slice of its API that the scperf test suite uses — the [`Strategy`]
//! trait with `prop_map`, integer-range and tuple strategies,
//! [`collection::vec`], [`any`], the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros, [`ProptestConfig`]
//! and [`TestCaseError`] — with a deterministic splitmix64 generator
//! seeded per test and case, so failures are reproducible run-to-run.
//!
//! It has **no shrinking**: a failing case reports its seed and case
//! index instead. Set `PROPTEST_CASES` to override the case count.

#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic splitmix64 random-number generator driving all
/// strategies. One instance is created per test case.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Returns the next 64 raw pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u128) -> u128 {
        debug_assert!(bound > 0);
        let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
        wide % bound
    }
}

/// A generator of values of type [`Strategy::Value`].
///
/// Unlike real proptest there is no value tree / shrinking: a strategy
/// simply draws a value from the RNG.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `func`.
    fn prop_map<O, F>(self, func: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, func }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    func: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.func)(self.source.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy returned by [`any`].
#[derive(Debug)]
pub struct AnyStrategy<T>(PhantomData<fn() -> T>);

impl<T> Clone for AnyStrategy<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for AnyStrategy<T> {}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T` (integers and `bool`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

macro_rules! int_strategies {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let lo = self.start as i128;
                let span = (self.end as i128 - lo) as u128;
                // Mild edge bias: boundaries find off-by-one bugs that
                // uniform draws miss.
                match rng.next_u64() % 32 {
                    0 => self.start,
                    1 => (self.end as i128 - 1) as $t,
                    _ => (lo + rng.below(span) as i128) as $t,
                }
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                match rng.next_u64() % 32 {
                    0 => lo,
                    1 => hi,
                    _ => (lo as i128 + rng.below(span) as i128) as $t,
                }
            }
        }
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Collection strategies (`vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u128 + 1;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Generates a `Vec` whose length is drawn from `size` and whose
    /// elements are drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Per-`proptest!`-block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Failure reported by a property body (via `prop_assert!` or `?`).
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property does not hold.
    Fail(String),
    /// The generated input was rejected (counted, not a failure).
    Reject(String),
}

impl TestCaseError {
    /// A failed-property error.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }

    /// A rejected-input error.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(r) => write!(f, "{r}"),
            TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
        }
    }
}

impl std::error::Error for TestCaseError {}

/// Test-loop driver used by the [`proptest!`] macro expansion.
pub mod runner {
    use super::{ProptestConfig, TestCaseError, TestRng};

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Runs `body` for each case with a per-case deterministic RNG.
    /// Panics (failing the enclosing `#[test]`) on the first failure,
    /// reporting the case index and seed.
    pub fn run_cases<F>(name: &str, config: &ProptestConfig, mut body: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(config.cases);
        let mut rejected = 0_u32;
        for case in 0..cases {
            let seed =
                fnv1a(name.as_bytes()) ^ 0x5851_f42d_4c95_7f2d_u64.wrapping_mul(case as u64 + 1);
            let mut rng = TestRng::new(seed);
            match body(&mut rng) {
                Ok(()) => {}
                Err(TestCaseError::Reject(_)) => rejected += 1,
                Err(TestCaseError::Fail(reason)) => panic!(
                    "property '{name}' failed at case {case}/{cases} (seed {seed:#018x}):\n  \
                     {reason}"
                ),
            }
        }
        if rejected == cases && cases > 0 {
            panic!("property '{name}': every generated input was rejected");
        }
    }
}

/// Declares property tests. Mirrors the real `proptest!` item form:
///
/// ```ignore
/// # use proptest::{prop_assert_eq, proptest, ProptestConfig};
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn addition_commutes(a in 0_u32..100, b in 0_u32..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { config = (<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)* }
    };
}

/// Internal item-muncher for [`proptest!`]. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = ($cfg:expr);) => {};
    (config = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            $crate::runner::run_cases(stringify!($name), &__config, |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                let __out: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                __out
            });
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

/// Fails the enclosing property (returning [`TestCaseError::Fail`])
/// when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the enclosing property when the two values are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                        __l, __r
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`: {}",
                        __l, __r, format!($($fmt)+)
                    )));
                }
            }
        }
    };
}

/// Rejects the current input (not a failure) when the condition is
/// false, mirroring proptest's `prop_assume!`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

/// `use proptest::prelude::*;` — everything the test files need.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Arbitrary, Just, ProptestConfig,
        Strategy, TestCaseError,
    };

    /// Namespace alias so `prop::collection::vec(..)` resolves.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..2000 {
            let v = Strategy::generate(&(5_i32..10), &mut rng);
            assert!((5..10).contains(&v));
            let w = Strategy::generate(&(-3_i64..=3), &mut rng);
            assert!((-3..=3).contains(&w));
        }
    }

    #[test]
    fn edges_are_hit() {
        let mut rng = crate::TestRng::new(2);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..5000 {
            match Strategy::generate(&(0_u8..200), &mut rng) {
                0 => saw_lo = true,
                199 => saw_hi = true,
                _ => {}
            }
        }
        assert!(saw_lo && saw_hi, "edge bias should hit both bounds");
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = crate::TestRng::new(3);
        for _ in 0..500 {
            let v = Strategy::generate(&vec(any::<u32>(), 2..5), &mut rng);
            assert!((2..=4).contains(&v.len()));
            let w = Strategy::generate(&vec(0_u16..9, 7..=7), &mut rng);
            assert_eq!(w.len(), 7);
        }
    }

    #[test]
    fn determinism_same_seed_same_values() {
        let strat = vec((any::<u8>(), -50_i32..50), 1..20);
        let a = Strategy::generate(&strat, &mut crate::TestRng::new(42));
        let b = Strategy::generate(&strat, &mut crate::TestRng::new(42));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_smoke(xs in vec(0_u32..100, 1..8), flag in any::<bool>()) {
            let total: u32 = xs.iter().sum();
            prop_assert!(total <= 99 * 7, "sum {} too large", total);
            prop_assert_eq!(flag, flag);
            let _mapped = Just(3_u8).prop_map(|x| x + 1);
        }
    }

    #[test]
    #[should_panic(expected = "property 'always_fails' failed")]
    fn failures_panic_with_seed() {
        proptest! {
            fn always_fails(x in 0_u8..10) {
                prop_assert!(x > 200);
            }
        }
        always_fails();
    }
}
