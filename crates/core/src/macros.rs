//! Control-flow annotation macros.
//!
//! The paper annotates `if` statements and function calls through operator
//! overloading and parser-inserted marks. Rust cannot overload control
//! flow, so annotated code spells the marks with these macros; each charges
//! the corresponding [`crate::Op`] cost before executing the ordinary Rust
//! construct, leaving semantics untouched.
//!
//! Every macro takes an optional first argument, `D;`, naming the
//! [`Domain`](crate::Domain) of a kernel written generically: in the
//! [`Native`](crate::Native) domain the marks charge nothing and expand
//! to the plain construct. Without it the domain is
//! [`Annotated`](crate::Annotated).

/// An annotated `if`: charges one [`crate::Op::Branch`], then evaluates the
/// condition (whose own comparisons charge their [`crate::Op::Cmp`] costs)
/// and runs the chosen arm.
///
/// ```
/// use scperf_core::{g_if, g_i32};
///
/// let a = g_i32(1);
/// let mut hit = false;
/// g_if!((a < 2) {
///     hit = true;
/// } else {
///     unreachable!();
/// });
/// assert!(hit);
/// ```
#[macro_export]
macro_rules! g_if {
    (($cond:expr) $then:block else $else_:block) => {
        $crate::g_if!($crate::Annotated; ($cond) $then else $else_)
    };
    (($cond:expr) $then:block) => {
        $crate::g_if!($crate::Annotated; ($cond) $then)
    };
    ($d:ty; ($cond:expr) $then:block else $else_:block) => {{
        <$d as $crate::Domain>::op($crate::Op::Branch);
        if $cond $then else $else_
    }};
    ($d:ty; ($cond:expr) $then:block) => {{
        <$d as $crate::Domain>::op($crate::Op::Branch);
        if $cond $then
    }};
}

/// An annotated `while` loop: charges one [`crate::Op::Branch`] per
/// condition evaluation, including the final failing one.
///
/// ```
/// use scperf_core::{g_while, g_i32};
///
/// let mut i = g_i32(0);
/// let mut n = 0;
/// g_while!((i < 3) {
///     i = i + 1;
///     n += 1;
/// });
/// assert_eq!(n, 3);
/// ```
#[macro_export]
macro_rules! g_while {
    (($cond:expr) $body:block) => {
        $crate::g_while!($crate::Annotated; ($cond) $body)
    };
    ($d:ty; ($cond:expr) $body:block) => {
        loop {
            <$d as $crate::Domain>::op($crate::Op::Branch);
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let cond = $cond;
            if !cond {
                break;
            }
            $body
        }
    };
}

/// An annotated counted loop: charges the canonical `for`-statement
/// bookkeeping per iteration — the increment (`i = i + 1`:
/// [`crate::Op::Assign`] + [`crate::Op::Add`]), the bound test
/// ([`crate::Op::Cmp`]) and the branch ([`crate::Op::Branch`]) — exactly
/// what a compiled `for (i = 0; i < n; i = i + 1)` executes each time
/// around.
///
/// ```
/// use scperf_core::g_for;
///
/// let mut sum = 0;
/// g_for!(i in 0..4 => {
///     sum += i;
/// });
/// assert_eq!(sum, 6);
/// ```
#[macro_export]
macro_rules! g_for {
    ($i:ident in $range:expr => $body:block) => {
        $crate::g_for!($crate::Annotated; $i in $range => $body)
    };
    ($d:ty; $i:ident in $range:expr => $body:block) => {
        for $i in $range {
            <$d as $crate::Domain>::op($crate::Op::Assign);
            <$d as $crate::Domain>::op($crate::Op::Add);
            <$d as $crate::Domain>::op($crate::Op::Cmp);
            <$d as $crate::Domain>::op($crate::Op::Branch);
            $body
        }
    };
}

/// A memoized region with a **native twin**, the one kind of memoized
/// region: the region is a function generic over the
/// [`Domain`](crate::Domain), called with its arguments. Once the
/// region's cost program is compiled, repeat executions charge the
/// program in one step and run the function's [`Native`](crate::Native)
/// instantiation instead of the annotated one. This is the
/// host-compiled simulation move the paper's single-source methodology
/// enables: functionality at native speed, timing from the pre-compiled
/// cost program, and the plain program is the same source.
///
/// The key distinguishes executions with different charge streams: fold
/// into it every value the region's charges depend on, such as a
/// data-dependent trip count or a branch outcome computed uncharged.
/// It is evaluated at most once, before any argument, and only when the
/// region can memoize — never in the `Native` domain.
/// [`MemoMode::Verify`](crate::MemoMode) runs the annotated
/// instantiation on every hit and asserts its charges equal to the
/// program's, catching a missing key.
///
/// Arguments and the result cross between the domains through
/// [`Carry`](crate::Carry): a [`G`](crate::G) keeps its word, storage
/// and plain scalars pass as they are. The region must not wait or cross
/// a segment boundary (one that does records nothing). The annotated
/// instantiation runs on the first execution per key (recording the
/// program), in [`MemoMode::Off`](crate::MemoMode) and
/// [`MemoMode::Verify`](crate::MemoMode), and on fractional tables and
/// non-sequential resources.
///
/// ```
/// use scperf_core::{g_for, g_twin, Domain, GArr};
///
/// fn squares<D: Domain>(sq: &mut GArr<i32>) {
///     g_for!(D; i in 0..sq.len() => {
///         sq.set_raw(i, D::raw(i as i32) * D::raw(i as i32));
///     });
/// }
///
/// let mut sq = GArr::<i32>::zeroed(8);
/// g_twin!((sq.len() as u64) squares(&mut sq));
/// assert_eq!(sq.peek(7), 49);
/// ```
#[macro_export]
macro_rules! g_twin {
    (($key:expr) $f:ident ( $($arg:expr),* $(,)? )) => {
        $crate::g_twin!($crate::Annotated; ($key) $f($($arg),*))
    };
    ($d:ty; ($key:expr) $f:ident ( $($arg:expr),* $(,)? )) => {{
        static __SCPERF_SITE: $crate::SegmentSite =
            $crate::SegmentSite::named(concat!(file!(), ':', line!(), ':', column!()));
        match <$d as $crate::Domain>::twin(&__SCPERF_SITE, || $key) {
            None => $crate::Carry::carry($f::<$crate::Native>($($crate::Carry::carry($arg)),*)),
            Some(__scperf_region) => __scperf_region.run(|| $f::<$d>($($arg),*)),
        }
    }};
}

/// An annotated function call: charges one [`crate::Op::Call`] for the
/// call/return overhead plus one [`crate::Op::Assign`] per argument (the
/// argument copy into the callee's frame), before invoking the function
/// (whose body charges its own operations — the paper's Figure 3, where
/// `func` contributes its internal 40.4 cycles on top of `t_fc`).
///
/// ```
/// use scperf_core::{g_call, g_i32, G};
///
/// fn double(x: G<i32>) -> G<i32> {
///     x + x
/// }
/// let y = g_call!(double(g_i32(21)));
/// assert_eq!(y.get(), 42);
/// ```
#[macro_export]
macro_rules! g_call {
    ($($f:ident)::+ ( $($arg:expr),* $(,)? )) => {
        $crate::g_call!($crate::Annotated; $($f)::+($($arg),*))
    };
    ($d:ty; $($f:ident)::+ ( $($arg:expr),* $(,)? )) => {{
        <$d as $crate::Domain>::op($crate::Op::Call);
        $( <$d as $crate::Domain>::op($crate::Op::Assign); let _ = stringify!($arg); )*
        $($f)::+($($arg),*)
    }};
}

#[cfg(test)]
mod tests {
    use crate::cost::{CostTable, Op};
    use crate::domain::{Annotated, Domain};
    use crate::gval::G;
    use crate::resource::ResourceKind;
    use crate::site::MemoMode;
    use crate::tls::testutil::{with_test_ctx, with_test_ctx_memo};

    #[test]
    fn g_if_charges_branch_then_condition() {
        let table = CostTable::from_pairs([(Op::Branch, 2.4), (Op::Cmp, 3.0)]);
        let ctx = with_test_ctx(ResourceKind::Sequential, table, false, || {
            let a: G<i32> = G::raw(1);
            g_if!((a < 0) {} else {});
        });
        assert_eq!(ctx.acc, 5.4); // the paper's t_if + t_< step
    }

    #[test]
    fn g_while_charges_per_check() {
        let table = CostTable::from_pairs([(Op::Branch, 1.0), (Op::Cmp, 1.0)]);
        let ctx = with_test_ctx(ResourceKind::Sequential, table, false, || {
            let mut i: G<i32> = G::raw(0);
            g_while!((i < 3) {
                i = G::raw(i.get() + 1);
            });
        });
        // 4 checks (3 passing + 1 failing), each Branch + Cmp.
        assert_eq!(ctx.acc, 8.0);
    }

    #[test]
    fn g_for_charges_loop_bookkeeping_per_iteration() {
        let table = CostTable::from_pairs([
            (Op::Branch, 2.0),
            (Op::Assign, 1.0),
            (Op::Add, 1.0),
            (Op::Cmp, 1.0),
        ]);
        let ctx = with_test_ctx(ResourceKind::Sequential, table, false, || {
            g_for!(_i in 0..5 => {});
        });
        // 5 iterations x (assign + add + cmp + branch) = 5 x 5.
        assert_eq!(ctx.acc, 25.0);
    }

    #[test]
    fn g_call_charges_overhead_args_and_body() {
        fn body(x: G<i32>, y: G<i32>) -> G<i32> {
            x + y // one Add
        }
        let table = CostTable::from_pairs([(Op::Call, 18.0), (Op::Add, 1.0), (Op::Assign, 2.0)]);
        let ctx = with_test_ctx(ResourceKind::Sequential, table, false, || {
            let _ = g_call!(body(G::raw(1), G::raw(2)));
        });
        // call 18 + 2 args x 2 + body add 1.
        assert_eq!(ctx.acc, 23.0);
    }

    #[test]
    fn macros_work_without_context() {
        let mut n = 0;
        g_if!((true) { n += 1; });
        g_while!((n < 2) { n += 1; });
        g_for!(_i in 0..2 => { n += 1; });
        let m = g_twin!((0) plus_one(G::raw(n)));
        assert_eq!(n, 4);
        assert_eq!(m.get(), 5);
    }

    fn plus_one<D: Domain>(x: G<i32, D>) -> G<i32, D> {
        x + D::raw(1)
    }

    /// `trips` iterations of one charged multiply.
    fn muls<D: Domain>(trips: usize) {
        g_for!(D; _i in 0..trips => {
            D::op(Op::Mul);
        });
    }

    #[test]
    fn g_twin_charges_exactly_like_its_body() {
        let table = CostTable::from_pairs([
            (Op::Branch, 2.0),
            (Op::Assign, 1.0),
            (Op::Add, 1.0),
            (Op::Cmp, 1.0),
            (Op::Mul, 5.0),
        ]);
        let plain = with_test_ctx(ResourceKind::Sequential, table.clone(), false, || {
            for _ in 0..3 {
                muls::<Annotated>(6);
            }
        });
        for memo in [MemoMode::Off, MemoMode::Replay, MemoMode::Verify] {
            let twinned =
                with_test_ctx_memo(ResourceKind::Sequential, table.clone(), false, memo, || {
                    for _ in 0..3 {
                        g_twin!((6) muls(6));
                    }
                });
            assert_eq!(plain.acc.to_bits(), twinned.acc.to_bits(), "{memo:?}");
            assert_eq!(plain.counts, twinned.counts, "{memo:?}");
        }
    }

    #[test]
    fn g_twin_key_is_evaluated_only_when_memoizing() {
        let keyed = std::cell::Cell::new(0);
        let key = || {
            keyed.set(keyed.get() + 1);
            6
        };
        let run = |memo| {
            keyed.set(0);
            with_test_ctx_memo(
                ResourceKind::Sequential,
                CostTable::risc_sw(),
                false,
                memo,
                || {
                    for _ in 0..3 {
                        g_twin!((key()) muls(6));
                        g_twin!(crate::Native; (key()) muls(6));
                    }
                },
            );
            keyed.get()
        };
        assert_eq!(run(MemoMode::Off), 0, "never with memoization off");
        assert_eq!(
            run(MemoMode::Replay),
            3,
            "once per annotated entry, never native"
        );
        assert_eq!(run(MemoMode::Verify), 3);
    }

    #[test]
    fn g_twin_key_distinguishes_trip_counts() {
        let table = CostTable::from_pairs([
            (Op::Branch, 1.0),
            (Op::Assign, 1.0),
            (Op::Add, 1.0),
            (Op::Cmp, 1.0),
        ]);
        let run = |memo| {
            with_test_ctx_memo(ResourceKind::Sequential, table.clone(), false, memo, || {
                for trip in [2usize, 5, 2, 5, 5] {
                    g_twin!((trip as u64) muls(trip));
                }
            })
        };
        let live = run(MemoMode::Off);
        let memo = run(MemoMode::Replay);
        assert_eq!(live.acc.to_bits(), memo.acc.to_bits());
        assert_eq!(live.counts, memo.counts);
        assert_eq!((memo.site_misses, memo.site_hits), (2, 3));
        // (2+5+2+5+5) iterations x 4 bookkeeping ops.
        assert_eq!(live.acc, 19.0 * 4.0);
    }
}
