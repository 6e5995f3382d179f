//! Property tests: each vocoder stage's native and annotated
//! instantiations agree on arbitrary (not just the canonical synthetic)
//! input frames, and the DSP keeps its numeric invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use scperf_core::{Annotated, Domain, GArr, Native, G};
use scperf_workloads::vocoder::pipeline::{FrameMsg, StageState, STAGES};
use scperf_workloads::vocoder::{stages, FRAME, MAX_LAG, MIN_LAG, ORDER};

fn frame_strategy() -> impl Strategy<Value = Vec<i32>> {
    vec(-2047_i32..=2047, FRAME..=FRAME)
}

/// Runs `frames` through the five stages in domain `D`: every frame's
/// finished message, and the five stage checksums.
fn chain<D: Domain>(frames: &[Vec<i32>]) -> (Vec<FrameMsg>, [i32; 5]) {
    let mut states = STAGES.map(StageState::<D>::new);
    let msgs = frames
        .iter()
        .map(|frame| {
            let mut msg = FrameMsg::new(frame.clone());
            for state in &mut states {
                state.step(&mut msg);
            }
            msg
        })
        .collect();
    (msgs, states.map(|state| state.checksum()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LSP estimation: native and annotated agree on random frames, and
    /// the reflection-derived coefficients stay bounded.
    #[test]
    fn lsp_agrees_on_random_frames(frame in frame_strategy()) {
        let sp = GArr::from_vec(frame);
        let (mut chk_n, mut chk_a) = (Native::raw(0_i32), G::raw(0_i32));
        let p = stages::lsp(&sp, &mut chk_n);
        let a = stages::lsp::<Annotated>(&sp, &mut chk_a);
        prop_assert_eq!(p.as_slice(), a.as_slice());
        prop_assert_eq!(chk_n.get(), chk_a.get());
        for c in p.as_slice() {
            prop_assert!(c.abs() <= 3 * 4096, "coefficient {c} out of range");
        }
    }

    /// The whole per-frame chain agrees between native and annotated for
    /// random frames and the state they build up.
    #[test]
    fn full_stage_chain_agrees(frames in vec(frame_strategy(), 1..3)) {
        let (native, native_chk) = chain::<Native>(&frames);
        let (annotated, annotated_chk) = chain::<Annotated>(&frames);
        prop_assert_eq!(native_chk, annotated_chk);
        for (p, a) in native.iter().zip(&annotated) {
            prop_assert_eq!(format!("{p:?}"), format!("{a:?}"));
            // Output stays in 16-bit audio range.
            for &v in p.out.as_slice() {
                prop_assert!((-32767..=32767).contains(&v));
            }
        }
    }

    /// The residual is always clamped to the 13-bit excitation range, and
    /// the pitch search keeps its lags and gains in range.
    #[test]
    fn residual_is_clamped(frame in frame_strategy()) {
        let sp = GArr::from_vec(frame);
        let mut chk = Native::raw(0_i32);
        let lpc = stages::lsp(&sp, &mut chk);
        let aq = stages::lpc_int(&mut GArr::zeroed(ORDER), &lpc, &mut chk);
        let (res, _, lags, gains) = stages::acb(&mut GArr::zeroed(MAX_LAG), &sp, &aq, &mut chk);
        for &v in res.as_slice() {
            prop_assert!((-4095..=4095).contains(&v));
        }
        for &l in lags.as_slice() {
            prop_assert!((MIN_LAG as i32..=MAX_LAG as i32).contains(&l));
        }
        for &g in gains.as_slice() {
            prop_assert!((-8191..=8191).contains(&g));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sequential Table 1 benchmarks are deterministic: calling any
    /// form twice yields the same checksum (guards against hidden state).
    #[test]
    fn benchmarks_are_repeatable(idx in 0_usize..6) {
        let cases = scperf_workloads::table1_cases();
        let case = &cases[idx];
        prop_assert_eq!((case.plain)(), (case.plain)());
        prop_assert_eq!((case.annotated)(), (case.annotated)());
    }
}
