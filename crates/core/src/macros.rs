//! Control-flow annotation macros.
//!
//! The paper annotates `if` statements and function calls through operator
//! overloading and parser-inserted marks. Rust cannot overload control
//! flow, so annotated code spells the marks with these macros; each charges
//! the corresponding [`crate::Op`] cost before executing the ordinary Rust
//! construct, leaving semantics untouched.

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
    (($cond:expr) $then:block else $else_:block) => {{
        $crate::charge_branch();
        if $cond $then else $else_
    }};
    (($cond:expr) $then:block) => {{
        $crate::charge_branch();
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
        loop {
            $crate::charge_branch();
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
        for $i in $range {
            $crate::charge_op($crate::Op::Assign);
            $crate::charge_op($crate::Op::Add);
            $crate::charge_op($crate::Op::Cmp);
            $crate::charge_branch();
            $body
        }
    };
}

/// A memoizable annotated counted loop: [`g_for!`] wrapped in a single
/// *whole-loop* segment-site region, so on sequential resources with
/// integer-valued cost tables every repeat of the loop is satisfied by
/// one compiled-program apply instead of per-op (or even per-iteration)
/// charging. The trip count — taken from the range via
/// [`ExactSizeIterator::len`] — is folded into the site key, so
/// different trip counts compile into different programs; uniform
/// bodies additionally collapse into a [`crate::Instr::Loop`]
/// instruction when the program serializes.
///
/// Charges exactly what [`g_for!`] charges — the loop bookkeeping
/// ([`crate::Op::Assign`] + [`crate::Op::Add`] + [`crate::Op::Cmp`] +
/// [`crate::Op::Branch`]) is inside the memoized region, so replayed
/// loops are bit-identical to live ones.
///
/// Use only when the loop's charge stream is determined by the trip
/// count and the key (no data-dependent `g_if!` arms or early exits
/// that depend on element values). If the stream depends on a value you
/// can name, fold it into the key with the keyed form — the key
/// expression is evaluated **once**, before the first iteration;
/// [`crate::MemoMode::Verify`] re-charges every hit live and asserts
/// bit-equality, catching misuse.
///
/// ```
/// use scperf_core::g_loop;
///
/// let mut sum = 0;
/// g_loop!(i in 0..4 => {
///     sum += i;
/// });
/// assert_eq!(sum, 6);
/// ```
#[macro_export]
macro_rules! g_loop {
    ($i:ident in $range:expr => $body:block) => {
        $crate::g_loop!($i in $range, key = 0u64 => $body)
    };
    ($i:ident in $range:expr, key = $key:expr => $body:block) => {{
        static __SCPERF_SITE: $crate::SegmentSite =
            $crate::SegmentSite::named(concat!(file!(), ':', line!(), ':', column!()));
        let __scperf_iter = ::core::iter::IntoIterator::into_iter($range);
        let __scperf_trips = ::core::iter::ExactSizeIterator::len(&__scperf_iter) as u64;
        let mut __scperf_guard =
            $crate::site_enter_loop(&__SCPERF_SITE, $key, __scperf_trips);
        for $i in __scperf_iter {
            __scperf_guard.loop_iter();
            $crate::charge_op($crate::Op::Assign);
            $crate::charge_op($crate::Op::Add);
            $crate::charge_op($crate::Op::Cmp);
            $crate::charge_branch();
            $body
        }
        drop(__scperf_guard);
    }};
}

/// A memoizable straight-line region (block form of [`g_loop!`]): the
/// first execution per key records the charge delta, repeats apply it in
/// one step. Evaluates to the block's value. Charges nothing by itself.
///
/// The optional key distinguishes executions with different charge
/// streams — e.g. a data-dependent trip count:
///
/// ```
/// use scperf_core::{g_for, g_site};
///
/// let k = 3usize;
/// let sum = g_site!((k as u64) {
///     let mut s = 0;
///     g_for!(i in 0..k => { s += i; });
///     s
/// });
/// assert_eq!(sum, 3);
/// ```
#[macro_export]
macro_rules! g_site {
    (($key:expr) $body:block) => {{
        static __SCPERF_SITE: $crate::SegmentSite =
            $crate::SegmentSite::named(concat!(file!(), ':', line!(), ':', column!()));
        let __scperf_guard = $crate::site_enter(&__SCPERF_SITE, $key);
        let __scperf_value = $body;
        drop(__scperf_guard);
        __scperf_value
    }};
    ($body:block) => {
        $crate::g_site!((0u64) $body)
    };
}

/// A memoized region with a **native twin**: once the region's cost
/// program is compiled, repeat executions charge the program in one
/// step and run the `native` block — plain, uncharged Rust mirroring
/// the annotated block's data effects — instead of the annotated body.
/// This is the host-compiled simulation move the paper's single-source
/// methodology enables: functionality at native speed, timing from the
/// pre-compiled cost program.
///
/// The two blocks **must be data-equivalent**: same stores, same
/// wrapping arithmetic, and the native block must not charge or wait.
/// The annotated block runs on the first execution per key (recording
/// the program), in [`MemoMode::Off`](crate::MemoMode) and
/// [`MemoMode::Verify`](crate::MemoMode) and on non-sequential
/// resources — so the annotated semantics remain the source of truth,
/// and verify mode still checks programs against live charging.
///
/// ```
/// use scperf_core::{g_for, g_twin, GArr};
///
/// let mut sq = GArr::<i32>::zeroed(8);
/// g_twin!((sq.len() as u64) {
///     g_for!(i in 0..sq.len() => {
///         sq.set_raw(i, (scperf_core::G::raw(i as i32) * scperf_core::G::raw(i as i32)));
///     });
/// } native {
///     for i in 0..sq.len() {
///         sq.poke(i, (i as i32).wrapping_mul(i as i32));
///     }
/// });
/// assert_eq!(sq.peek(7), 49);
/// ```
#[macro_export]
macro_rules! g_twin {
    (($key:expr) $annotated:block native $native:block) => {{
        static __SCPERF_SITE: $crate::SegmentSite =
            $crate::SegmentSite::named(concat!(file!(), ':', line!(), ':', column!()));
        let __scperf_key: u64 = $key;
        if $crate::site_try_native(&__SCPERF_SITE, __scperf_key) {
            $native
        } else {
            let __scperf_guard = $crate::site_enter(&__SCPERF_SITE, __scperf_key);
            let __scperf_value = $annotated;
            drop(__scperf_guard);
            __scperf_value
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
    ($f:ident ( $($arg:expr),* $(,)? )) => {{
        $crate::charge_call();
        $( $crate::charge_op($crate::Op::Assign); let _ = stringify!($arg); )*
        $f($($arg),*)
    }};
    ($($f:ident)::+ ( $($arg:expr),* $(,)? )) => {{
        $crate::charge_call();
        $( $crate::charge_op($crate::Op::Assign); let _ = stringify!($arg); )*
        $($f)::+($($arg),*)
    }};
}

#[cfg(test)]
mod tests {
    use crate::cost::{CostTable, Op};
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
        g_loop!(_i in 0..2 => { n += 1; });
        let m = g_site!({ n + 1 });
        assert_eq!(n, 6);
        assert_eq!(m, 7);
    }

    #[test]
    fn g_loop_charges_exactly_like_g_for() {
        let table = CostTable::from_pairs([
            (Op::Branch, 2.0),
            (Op::Assign, 1.0),
            (Op::Add, 1.0),
            (Op::Cmp, 1.0),
            (Op::Mul, 5.0),
        ]);
        let plain = with_test_ctx(ResourceKind::Sequential, table.clone(), false, || {
            g_for!(_i in 0..6 => {
                crate::charge_op(Op::Mul);
            });
        });
        for memo in [MemoMode::Off, MemoMode::Replay, MemoMode::Verify] {
            let looped =
                with_test_ctx_memo(ResourceKind::Sequential, table.clone(), false, memo, || {
                    g_loop!(_i in 0..6 => {
                        crate::charge_op(Op::Mul);
                    });
                });
            assert_eq!(plain.acc.to_bits(), looped.acc.to_bits(), "{memo:?}");
            assert_eq!(plain.counts, looped.counts, "{memo:?}");
        }
    }

    #[test]
    fn g_site_keyed_form_distinguishes_trip_counts() {
        let table = CostTable::from_pairs([
            (Op::Branch, 1.0),
            (Op::Assign, 1.0),
            (Op::Add, 1.0),
            (Op::Cmp, 1.0),
        ]);
        let run = |memo| {
            with_test_ctx_memo(ResourceKind::Sequential, table.clone(), false, memo, || {
                for trip in [2usize, 5, 2, 5, 5] {
                    g_site!((trip as u64) {
                        g_for!(_i in 0..trip => {});
                    });
                }
            })
        };
        let live = run(MemoMode::Off);
        let memo = run(MemoMode::Replay);
        assert_eq!(live.acc.to_bits(), memo.acc.to_bits());
        assert_eq!(live.counts, memo.counts);
        // (2+5+2+5+5) iterations x 4 bookkeeping ops.
        assert_eq!(live.acc, 19.0 * 4.0);
    }

    #[test]
    fn g_loop_body_break_and_continue_stay_safe() {
        let table = CostTable::from_pairs([(Op::Branch, 1.0), (Op::Mul, 3.0)]);
        let ctx = with_test_ctx_memo(
            ResourceKind::Sequential,
            table,
            false,
            MemoMode::Replay,
            || {
                g_loop!(i in 0..10 => {
                    if i == 7 {
                        break;
                    }
                    if i % 2 == 0 {
                        continue;
                    }
                    crate::charge_op(Op::Mul);
                });
                // Charging must still be live after the early exits.
                crate::charge_op(Op::Mul);
            },
        );
        assert!(ctx.counts.get(Op::Mul) >= 1);
        assert!(ctx.counts.get(Op::Branch) >= 7);
    }
}
