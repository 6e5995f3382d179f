//! Recursive Fibonacci benchmark (Table 1 row "Fibonacci"): the classic
//! call-overhead stress test, written once, generic over the value
//! domain.

use scperf_core::{g_call, g_if, g_twin, Annotated, Domain, Native, G};

/// The argument (fib(18) = 2584; ~8k recursive calls).
pub const N: i32 = 18;

/// `fib(n)`, memoized as a whole subtree: the cost of fib(n) is a
/// function of n alone, so the entire body is one twin region keyed by
/// n. Recording compiles one program per depth, whose totals include
/// the recursive calls' charges; a repeat of any depth is one program
/// apply and a native recursion.
fn fib<D: Domain>(n: G<i32, D>) -> G<i32, D> {
    g_twin!(D; (n.get() as u64) fib_body(n))
}

/// `if (n < 2) return n; return fib(n - 1) + fib(n - 2);`
fn fib_body<D: Domain>(n: G<i32, D>) -> G<i32, D> {
    let mut done = false;
    g_if!(D; (n < 2) { done = true; });
    if done {
        n
    } else {
        let a = g_call!(D; fib(n - 1));
        let b = g_call!(D; fib(n - 2));
        a + b
    }
}

/// The benchmark: `result = fib(18);`.
pub fn run<D: Domain>() -> i32 {
    fib(D::init(N)).get()
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
        plain: run::<Native>,
        annotated: run::<Annotated>,
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
        assert_eq!(run::<Native>(), 2584);
        assert_eq!(run::<Annotated>(), 2584);
        let (iss, _) = case().run_iss();
        assert_eq!(iss, 2584);
    }

    #[test]
    fn memoized_recursion_is_bit_identical() {
        let (live_v, live_r, live_h) = run_memoized(MemoMode::Off, run::<Annotated>);
        assert_eq!(live_v, 2584);
        assert_eq!(live_h.site_hits, 0);

        // Replay: one recording miss per depth fib(0)..fib(18), every
        // other entry replays; bit-identical report.
        let (memo_v, memo_r, memo_h) = run_memoized(MemoMode::Replay, run::<Annotated>);
        assert_eq!(memo_v, 2584);
        assert_eq!(memo_r, live_r, "replay diverged from live");
        assert_eq!(memo_h.site_misses, (N + 1) as u64, "one miss per depth");
        assert!(memo_h.site_hits > 0);

        let (ver_v, ver_r, _) = run_memoized(MemoMode::Verify, run::<Annotated>);
        assert_eq!(ver_v, 2584);
        assert_eq!(ver_r, live_r, "verify diverged from live");
    }
}
