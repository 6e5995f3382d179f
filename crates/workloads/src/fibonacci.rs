//! Recursive Fibonacci benchmark (Table 1 row "Fibonacci"): the classic
//! call-overhead stress test.

use scperf_core::{g_call, g_i32, g_if, g_site, G};

/// The argument (fib(18) = 2584; ~8k recursive calls).
pub const N: i32 = 18;

fn fib_plain(n: i32) -> i32 {
    if n < 2 {
        return n;
    }
    fib_plain(n - 1).wrapping_add(fib_plain(n - 2))
}

/// Reference implementation.
pub fn plain() -> i32 {
    fib_plain(N)
}

fn fib_annotated(n: G<i32>) -> G<i32> {
    // `if (n < 2) return n;`
    let mut result = G::raw(0);
    let mut done = false;
    g_if!((n < 2) {
        result = n;
        done = true;
    });
    if done {
        return result;
    }
    let a = g_call!(fib_annotated(n - 1));
    let b = g_call!(fib_annotated(n - 2));
    a + b
}

/// Cost-annotated implementation.
pub fn annotated() -> i32 {
    let seed = g_i32(N);
    fib_annotated(seed).get()
}

fn fib_memo(n: G<i32>) -> G<i32> {
    // Whole-subtree memoization: the cost of fib(n) is a function of n
    // alone, so the entire body — prologue branch, recursive calls and
    // the final add — is one region keyed by n. Recording compiles one
    // program per depth, each referencing fib(n-1)/fib(n-2) as `Call`
    // instructions; a repeat of any depth is one program apply.
    g_site!((n.get() as u64) {
        let mut result = G::raw(0);
        let mut done = false;
        g_if!((n < 2) {
            result = n;
            done = true;
        });
        if done {
            result
        } else {
            let a = g_call!(fib_memo(n - 1));
            let b = g_call!(fib_memo(n - 2));
            a + b
        }
    })
}

/// Cost-annotated implementation with per-depth segment-site
/// memoization (charges exactly what [`annotated`] charges when
/// memoization is off).
pub fn memo() -> i32 {
    let seed = g_i32(N);
    fib_memo(seed).get()
}

/// `minic` source.
pub fn minic() -> String {
    format!(
        "int result;\n\
         int fib(int n) {{\n\
           if (n < 2) return n;\n\
           return fib(n - 1) + fib(n - 2);\n\
         }}\n\
         int main() {{ result = fib({N}); return 0; }}\n"
    )
}

/// The Table 1 case.
pub fn case() -> crate::case::BenchCase {
    crate::case::BenchCase {
        name: "Fibonacci",
        plain,
        annotated,
        minic: minic(),
    }
}

#[cfg(test)]
mod tests {
    use scperf_core::MemoMode;

    use super::*;
    use crate::case::run_memoized;

    #[test]
    fn three_forms_agree() {
        assert_eq!(plain(), 2584);
        assert_eq!(annotated(), 2584);
        let (iss, _) = case().run_iss();
        assert_eq!(iss, 2584);
    }

    #[test]
    fn memoized_recursion_is_bit_identical() {
        let (live_v, live_r, live_h) = run_memoized(MemoMode::Off, memo);
        assert_eq!(live_v, 2584);
        assert_eq!(live_h.site_hits, 0);

        // The memoized form charges exactly what the plain annotated
        // form charges.
        let (ann_v, ann_r, _) = run_memoized(MemoMode::Off, annotated);
        assert_eq!(ann_v, 2584);
        assert_eq!(ann_r, live_r);

        // Replay: one recording miss per depth fib(0)..fib(18), every
        // other entry replays; bit-identical report.
        let (memo_v, memo_r, memo_h) = run_memoized(MemoMode::Replay, memo);
        assert_eq!(memo_v, 2584);
        assert_eq!(memo_r, live_r, "replay diverged from live");
        assert_eq!(memo_h.site_misses, (N + 1) as u64, "one miss per depth");
        assert!(memo_h.site_hits > 0);

        let (ver_v, ver_r, _) = run_memoized(MemoMode::Verify, memo);
        assert_eq!(ver_v, 2584);
        assert_eq!(ver_r, live_r, "verify diverged from live");
    }
}
