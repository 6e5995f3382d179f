//! GSM-like vocoder case study (Tables 3 and 4).
//!
//! The paper evaluates its library on "an ETSI standard, the EN vocoder
//! for GSM applications", split into the five concurrent processes of
//! Table 3: *LSP estim.*, *LPC int.*, *ACB sear.*, *ICB sear.* and *Post
//! Proc.* The ETSI reference code is licensed, so this module implements a
//! synthetic vocoder with the same pipeline structure and comparable
//! fixed-point DSP workloads per stage:
//!
//! * **LSP estim.** — autocorrelation (lags 0..=10) + Levinson-Durbin
//!   recursion → order-10 LPC coefficients (Q12);
//! * **LPC int.** — per-subframe interpolation between consecutive LPC
//!   sets plus bandwidth expansion;
//! * **ACB sear.** — adaptive-codebook (pitch) search: residual
//!   computation and a lag-40..=120 correlation search per subframe;
//! * **ICB sear.** — innovative-codebook search: greedy 4-track pulse
//!   selection per subframe;
//! * **Post Proc.** — LPC synthesis filter + de-emphasis + clipping.
//!
//! Each stage is written once, generic over the value domain
//! ([`stages`]); all arithmetic is wrapping 32-bit fixed point, so its
//! native and annotated instantiations and the `minic`/ISS form produce
//! bit-identical results.
//!
//! Frames are 160 samples (4 subframes of 40), as in GSM.

pub mod minic_gen;
pub mod pipeline;
pub mod stages;

use scperf_core::Native;

use crate::data::Lcg;

/// Samples per frame.
pub const FRAME: usize = 160;
/// Subframes per frame.
pub const SUBFRAMES: usize = 4;
/// Samples per subframe.
pub const SUBLEN: usize = 40;
/// LPC order.
pub const ORDER: usize = 10;
/// Fixed-point one (Q12).
pub const Q12: i32 = 4096;
/// Minimum pitch lag.
pub const MIN_LAG: usize = 40;
/// Maximum pitch lag (also the excitation-history length).
pub const MAX_LAG: usize = 120;
/// Default number of frames in the experiments.
pub const DEFAULT_FRAMES: usize = 16;

/// The 256-entry Q12 sine table shared by the synthetic speech source.
pub fn sine_table() -> Vec<i32> {
    (0..256)
        .map(|i| {
            let x = 2.0 * std::f64::consts::PI * i as f64 / 256.0;
            (4096.0 * x.sin()).round() as i32
        })
        .collect()
}

/// Synthesizes `nframes` frames of deterministic speech-like input:
/// two sinusoids with per-frame pitch drift plus low-level noise,
/// amplitude-enveloped, clamped to ±2047 (12-bit samples).
pub fn speech_frames(nframes: usize) -> Vec<Vec<i32>> {
    let sin_t = sine_table();
    let mut lcg = Lcg::new(0x5EEC);
    let mut phase1 = 0_u32;
    let mut phase2 = 64_u32;
    let mut frames = Vec::with_capacity(nframes);
    for f in 0..nframes {
        let inc1 = 180 + ((f as u32 % 7) * 24);
        let inc2 = 2 * inc1 + 13;
        let mut frame = Vec::with_capacity(FRAME);
        for n in 0..FRAME {
            phase1 = phase1.wrapping_add(inc1);
            phase2 = phase2.wrapping_add(inc2);
            // Envelope rises then falls over the frame.
            let env = if n < FRAME / 2 { n } else { FRAME - n } as i32 * 20 + 400;
            let s1 = sin_t[(phase1 >> 4) as usize & 255].wrapping_mul(env) >> 12;
            let s2 = sin_t[(phase2 >> 4) as usize & 255].wrapping_mul(env / 2) >> 12;
            let noise = lcg.signed(48);
            let v = s1.wrapping_add(s2).wrapping_add(noise).clamp(-2047, 2047);
            frame.push(v);
        }
        frames.push(frame);
    }
    frames
}

/// Bandwidth-expansion factors γ^j (γ = 0.75, Q12), j = 1..=10, computed
/// in integer arithmetic so every form can share the exact table.
pub fn gamma_powers() -> Vec<i32> {
    let gamma = 3072_i32; // 0.75 in Q12
    let mut powers = Vec::with_capacity(ORDER);
    let mut g = gamma;
    for _ in 0..ORDER {
        powers.push(g);
        g = (g.wrapping_mul(gamma)) >> 12;
    }
    powers
}

/// Everything the reference (native) pipeline produces: per-stage input
/// streams (used to generate the per-stage ISS programs) and per-stage
/// checksums (used to validate the annotated and ISS forms).
#[derive(Debug, Clone)]
pub struct VocoderTrace {
    /// Speech input, per frame.
    pub speech: Vec<Vec<i32>>,
    /// LPC output of LSP-estimation, per frame (10 values each).
    pub lpc: Vec<Vec<i32>>,
    /// Interpolated coefficients, per frame (40 values each).
    pub aq: Vec<Vec<i32>>,
    /// Residual signal, per frame (160 values each).
    pub res: Vec<Vec<i32>>,
    /// Adaptive-codebook contribution, per frame.
    pub acb: Vec<Vec<i32>>,
    /// Complete excitation after the innovative codebook, per frame.
    pub exc: Vec<Vec<i32>>,
    /// Decoded output speech, per frame.
    pub out: Vec<Vec<i32>>,
    /// Per-stage running checksums, in pipeline order
    /// (lsp, lpc_int, acb, icb, post).
    pub checksums: [i32; 5],
}

/// Runs the five stages' native instantiation over `nframes` frames, one
/// frame at a time through the whole pipeline, without a kernel.
pub fn run_reference(nframes: usize) -> VocoderTrace {
    let speech = speech_frames(nframes);
    let mut stages = pipeline::STAGES.map(pipeline::StageState::<Native>::new);
    let mut trace = VocoderTrace {
        speech: speech.clone(),
        lpc: Vec::new(),
        aq: Vec::new(),
        res: Vec::new(),
        acb: Vec::new(),
        exc: Vec::new(),
        out: Vec::new(),
        checksums: [0; 5],
    };
    for frame in speech {
        let mut msg = pipeline::FrameMsg::new(frame);
        for stage in &mut stages {
            stage.step(&mut msg);
        }
        trace.lpc.push(msg.lpc.into_vec());
        trace.aq.push(msg.aq.into_vec());
        trace.res.push(msg.res.into_vec());
        trace.acb.push(msg.acb.into_vec());
        trace.exc.push(msg.exc.into_vec());
        trace.out.push(msg.out.into_vec());
    }
    trace.checksums = stages.map(|stage| stage.checksum());
    trace
}

/// Mixes a slice into a running checksum (`s = s·31 + v`, wrapping).
pub fn checksum_acc(mut s: i32, values: &[i32]) -> i32 {
    for &v in values {
        s = s.wrapping_mul(31).wrapping_add(v);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speech_is_deterministic_and_bounded() {
        let a = speech_frames(4);
        let b = speech_frames(4);
        assert_eq!(a, b);
        assert!(a.iter().flatten().all(|&v| (-2047..=2047).contains(&v)));
        // Signal must actually carry energy.
        let energy: i64 = a.iter().flatten().map(|&v| (v as i64) * (v as i64)).sum();
        assert!(energy > 1_000_000);
    }

    #[test]
    fn gamma_powers_decay() {
        let g = gamma_powers();
        assert_eq!(g.len(), ORDER);
        assert_eq!(g[0], 3072);
        for w in g.windows(2) {
            assert!(w[1] < w[0]);
            assert!(w[1] > 0);
        }
    }

    #[test]
    fn reference_pipeline_runs_and_produces_output() {
        let t = run_reference(4);
        assert_eq!(t.out.len(), 4);
        assert!(t.out.iter().flatten().any(|&v| v != 0));
        // Output is clipped to 16-bit audio.
        assert!(t
            .out
            .iter()
            .flatten()
            .all(|&v| (-32767..=32767).contains(&v)));
        // All five stage checksums populated (overwhelmingly non-zero).
        assert!(t.checksums.iter().filter(|&&c| c != 0).count() >= 4);
    }

    #[test]
    fn sine_table_shape() {
        let t = sine_table();
        assert_eq!(t[0], 0);
        assert_eq!(t[64], 4096);
        assert_eq!(t[128], 0);
        assert_eq!(t[192], -4096);
    }
}
