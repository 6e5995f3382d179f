//! Euler ODE integrator (Table 2 HW rows, Figure 4): a forward-Euler step
//! of the Van der Pol oscillator with harmonic forcing.
//!
//! One integration step is the natural hardware segment — it is the loop
//! body a behavioral synthesis tool would schedule:
//!
//! ```text
//! x' = v
//! v' = μ·(1 − x²)·v − x + A·sin(ω t)      (sin via 2-term series)
//! ```

use std::f64::consts::PI;

use scperf_core::{g_call, Domain, G};

/// Integration step size.
pub const H: f64 = 0.01;
/// Van der Pol damping.
pub const MU: f64 = 1.5;
/// Forcing amplitude.
pub const AMP: f64 = 0.8;
/// Forcing angular frequency.
pub const OMEGA: f64 = 2.0;
/// Steps integrated by the full benchmark.
pub const STEPS: usize = 2000;

/// Integrates the oscillator and returns a fixed-point checksum of the
/// final state.
pub fn run<D: Domain>() -> i32 {
    let mut x = D::init(0.5_f64);
    let mut v = D::init(0.0_f64);
    for n in 0..STEPS {
        let t = D::raw(n as f64 * H);
        (x, v) = step(x, v, t);
    }
    ((x.get() * 4096.0) as i32).wrapping_add(((v.get() * 4096.0) as i32).wrapping_mul(31))
}

/// The 2-term sine series around 0, after range reduction to [-π, π).
fn sin_series<D: Domain>(reduced: G<f64, D>) -> G<f64, D> {
    -(reduced - reduced * reduced * reduced / 6.0)
}

/// One Euler step (the HW segment of Tables 2/4 and Figure 4).
pub fn step<D: Domain>(x: G<f64, D>, v: G<f64, D>, t: G<f64, D>) -> (G<f64, D>, G<f64, D>) {
    let two_pi = D::raw(2.0 * PI);
    let phase = D::raw(OMEGA) * t;
    // floor() has no dataflow cost model of its own; treat the range
    // reduction division + multiply + subtract as the charged operations.
    let k = D::raw((phase.get() / (2.0 * PI)).floor());
    let reduced = phase - k * two_pi - D::raw(PI);
    let s = g_call!(D; sin_series(reduced));
    let force = D::raw(AMP) * s;
    let one = D::raw(1.0);
    let dv = D::raw(MU) * (one - x * x) * v - x + force;
    (x + D::raw(H) * v, v + D::raw(H) * dv)
}

/// [`step`]'s annotated instantiation.
pub fn step_annotated(x: G<f64>, v: G<f64>, t: G<f64>) -> (G<f64>, G<f64>) {
    step(x, v, t)
}

#[cfg(test)]
mod tests {
    use scperf_core::{Annotated, Native};

    use super::*;

    #[test]
    fn plain_and_annotated_agree() {
        assert_eq!(run::<Native>(), run::<Annotated>());
    }

    #[test]
    fn trajectory_stays_bounded() {
        // The forced Van der Pol oscillator settles on a bounded orbit;
        // a blow-up would indicate a broken integrator.
        let (mut x, mut v) = (Native::raw(0.5), Native::raw(0.0));
        for n in 0..STEPS {
            (x, v) = step(x, v, Native::raw(n as f64 * H));
            assert!(
                x.get().abs() < 10.0 && v.get().abs() < 10.0,
                "diverged at step {n}"
            );
        }
    }

    #[test]
    fn single_step_matches_between_forms() {
        let (x, v, t) = (0.3, -0.2, 1.7);
        let phase = OMEGA * t;
        let reduced = phase - (phase / (2.0 * PI)).floor() * 2.0 * PI - PI;
        let force = AMP * -(reduced - reduced * reduced * reduced / 6.0);
        let dv = MU * (1.0 - x * x) * v - x + force;
        let (ax, av) = step_annotated(G::raw(x), G::raw(v), G::raw(t));
        assert_eq!((ax.get(), av.get()), (x + H * v, v + H * dv));
    }
}
