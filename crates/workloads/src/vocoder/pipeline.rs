//! The concurrent vocoder model: five analyzed processes connected by
//! FIFO channels, plus an environment source and sink.
//!
//! This is the system-level specification the paper's Table 3 measures:
//! the sequential ETSI code "divided in the 5 concurrent processes". One
//! stage list ([`STAGES`], run through [`StageState`]) drives the
//! analyzed model ([`build_hybrid`]), the plain one ([`build_plain`]) and
//! the kernel-free reference ([`super::run_reference`]).

use std::sync::Arc;

use scperf_core::{Annotated, Domain, GArr, Native, PFifo, PerfModel, Replay, ResourceId, G};
use scperf_kernel::{Fifo, ProcCtx, Simulator};
use scperf_sync::Mutex;

use super::{checksum_acc, speech_frames, stages, MAX_LAG, ORDER};

/// The message flowing through the pipeline: each stage fills in its
/// fields and forwards the frame.
#[derive(Debug, Clone, Default)]
pub struct FrameMsg {
    /// Input speech (160 samples).
    pub speech: GArr<i32>,
    /// LPC coefficients (10, Q12) — set by LSP estimation.
    pub lpc: GArr<i32>,
    /// Interpolated coefficients (40) — set by LPC interpolation.
    pub aq: GArr<i32>,
    /// Residual (160) — set by ACB search.
    pub res: GArr<i32>,
    /// Adaptive-codebook contribution (160) — set by ACB search.
    pub acb: GArr<i32>,
    /// Complete excitation (160) — set by ICB search.
    pub exc: GArr<i32>,
    /// Decoded speech (160) — set by post-processing.
    pub out: GArr<i32>,
}

impl FrameMsg {
    /// A frame entering the pipeline.
    pub fn new(speech: Vec<i32>) -> FrameMsg {
        FrameMsg {
            speech: GArr::from_vec(speech),
            ..FrameMsg::default()
        }
    }
}

/// The five pipeline stages, as Table 3's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// "LSP estim.": [`stages::lsp`].
    Lsp,
    /// "LPC int.": [`stages::lpc_int`].
    LpcInt,
    /// "ACB sear.": [`stages::acb`].
    Acb,
    /// "ICB sear.": [`stages::icb`].
    Icb,
    /// "Post Proc.": [`stages::post`].
    Post,
}

/// The stages in pipeline order (names in [`STAGE_NAMES`]).
pub const STAGES: [Stage; 5] = [
    Stage::Lsp,
    Stage::LpcInt,
    Stage::Acb,
    Stage::Icb,
    Stage::Post,
];

/// One stage's state from frame to frame, in domain `D`: the history it
/// keeps (LPC int.: the previous LPC set; ACB sear.: the excitation
/// history; Post Proc.: the synthesis history and de-emphasis memory)
/// and its running checksum.
#[derive(Debug, Clone)]
pub struct StageState<D: Domain> {
    stage: Stage,
    hist: GArr<i32>,
    deemph: G<i32, D>,
    chk: G<i32, D>,
}

impl<D: Domain> StageState<D> {
    /// The state before the first frame.
    pub fn new(stage: Stage) -> StageState<D> {
        let hist = match stage {
            Stage::LpcInt | Stage::Post => ORDER,
            Stage::Acb => MAX_LAG,
            Stage::Lsp | Stage::Icb => 0,
        };
        StageState {
            stage,
            hist: GArr::zeroed(hist),
            deemph: D::raw(0),
            chk: D::raw(0),
        }
    }

    /// Runs the stage on one frame: reads its inputs from `msg` and
    /// writes its outputs there.
    pub fn step(&mut self, msg: &mut FrameMsg) {
        let chk = &mut self.chk;
        match self.stage {
            Stage::Lsp => msg.lpc = stages::lsp(&msg.speech, chk),
            Stage::LpcInt => msg.aq = stages::lpc_int(&mut self.hist, &msg.lpc, chk),
            Stage::Acb => {
                (msg.res, msg.acb, _, _) = stages::acb(&mut self.hist, &msg.speech, &msg.aq, chk);
            }
            Stage::Icb => msg.exc = stages::icb(&msg.res, &msg.acb, chk),
            Stage::Post => {
                msg.out = stages::post(&mut self.hist, &mut self.deemph, &msg.aq, &msg.exc, chk);
            }
        }
    }

    /// The stage checksum over every frame so far (same folding as the
    /// ISS stage programs).
    pub fn checksum(&self) -> i32 {
        self.chk.get()
    }
}

/// The architectural mapping of the five processes.
#[derive(Debug, Clone, Copy)]
pub struct VocoderMapping {
    /// Resource of "LSP estim.".
    pub lsp: ResourceId,
    /// Resource of "LPC int.".
    pub lpc_int: ResourceId,
    /// Resource of "ACB sear.".
    pub acb: ResourceId,
    /// Resource of "ICB sear.".
    pub icb: ResourceId,
    /// Resource of "Post Proc.".
    pub post: ResourceId,
}

impl VocoderMapping {
    /// Maps all five processes to one resource (the Table 3 setup: all SW
    /// on one processor).
    pub fn all_on(r: ResourceId) -> VocoderMapping {
        VocoderMapping {
            lsp: r,
            lpc_int: r,
            acb: r,
            icb: r,
            post: r,
        }
    }

    /// The five resources, in pipeline order.
    fn resources(&self) -> [ResourceId; 5] {
        [self.lsp, self.lpc_int, self.acb, self.icb, self.post]
    }
}

/// The sink-side result, filled when the simulation completes.
pub type OutputChecksum = Arc<Mutex<Option<i32>>>;

/// Per-stage checksums exported by the analyzed processes after their last
/// frame (same folding as the reference pipeline and the ISS stage
/// programs).
pub type StageChecksums = Arc<Mutex<[Option<i32>; 5]>>;

/// Handles to everything the vocoder model reports back after `sim.run()`.
#[derive(Debug, Clone)]
pub struct VocoderHandles {
    /// Final decoded-output checksum (from the sink).
    pub output: OutputChecksum,
    /// Per-stage checksums, in pipeline order.
    pub stages: StageChecksums,
}

/// The five process names, in pipeline order, exactly as the paper's
/// Table 3 rows.
pub const STAGE_NAMES: [&str; 5] = [
    "LSP estim.",
    "LPC int.",
    "ACB sear.",
    "ICB sear.",
    "Post Proc.",
];

/// An optional recorded per-segment cycle trace for one stage, as
/// handed out by a [`scperf_core::Recorder`] after a run with
/// segment-cost recording enabled.
pub type StageTrace = Option<Replay>;

/// Elaborates the full vocoder model into `sim`/`model`: an environment
/// source feeding `nframes` frames, the five analyzed stage processes
/// connected by FIFOs, and an environment sink. Returns a handle that
/// holds the output checksum after `sim.run()`.
pub fn build(
    sim: &mut Simulator,
    model: &PerfModel,
    mapping: VocoderMapping,
    nframes: usize,
) -> VocoderHandles {
    build_hybrid(sim, model, mapping, nframes, [None, None, None, None, None])
}

/// Like [`build`], but stages with a recorded segment-cost trace run in
/// *replay* mode: the stage executes its native (un-annotated)
/// instantiation — so data still flows and checksums still hold — while
/// every segment's cycles are popped from the trace instead of being
/// re-estimated operation by operation. Timing is bit-identical to the
/// live run the trace was recorded from; host time drops because all
/// operator-overloading overhead disappears.
///
/// This is the workhorse of the design-space-exploration memoization
/// cache ([`scperf_dse`](../../../scperf_dse/index.html)): a stage's
/// per-segment cycles depend only on its own code, input data and the
/// cost model of the resource it is mapped to — not on where the *other*
/// stages are mapped — so a trace recorded once per `(stage, resource
/// cost model, nframes)` is valid across every mapping that shares them.
pub fn build_hybrid(
    sim: &mut Simulator,
    model: &PerfModel,
    mapping: VocoderMapping,
    nframes: usize,
    mut replays: [StageTrace; 5],
) -> VocoderHandles {
    let stages: StageChecksums = Arc::new(Mutex::new([None; 5]));
    let resources = mapping.resources();
    let output = wire(
        sim,
        nframes,
        |sim, name| model.fifo(sim, name, 2),
        |sim, i, rx, tx| {
            let chks = Arc::clone(&stages);
            match replays[i].take() {
                Some(trace) => {
                    model.spawn_replaying(sim, STAGE_NAMES[i], resources[i], trace, move |ctx| {
                        chks.lock()[i] = Some(run_stage::<Native>(ctx, i, nframes, &rx, &tx));
                    })
                }
                None => model.spawn(sim, STAGE_NAMES[i], resources[i], move |ctx| {
                    chks.lock()[i] = Some(run_stage::<Annotated>(ctx, i, nframes, &rx, &tx));
                }),
            };
        },
    );
    VocoderHandles { output, stages }
}

/// Elaborates the *plain* (un-annotated) vocoder into `sim`: the same five
/// processes and channels built directly on the kernel, running the
/// stages' native instantiation. This is the "original SystemC
/// specification" whose host simulation time Table 3's overhead column
/// compares against.
pub fn build_plain(sim: &mut Simulator, nframes: usize) -> OutputChecksum {
    wire(
        sim,
        nframes,
        |sim, name| sim.fifo(name, 2),
        |sim, i, rx, tx| {
            sim.spawn(STAGE_NAMES[i], move |ctx| {
                run_stage::<Native>(ctx, i, nframes, &rx, &tx);
            });
        },
    )
}

/// The FIFO end a stage process reads frames from or forwards them to: a
/// kernel [`Fifo`] in the plain model, an instrumented [`PFifo`] in the
/// analyzed one.
trait Port: Clone + 'static {
    fn read(&self, ctx: &mut ProcCtx) -> FrameMsg;
    fn write(&self, ctx: &mut ProcCtx, msg: FrameMsg);
}

impl Port for Fifo<FrameMsg> {
    fn read(&self, ctx: &mut ProcCtx) -> FrameMsg {
        Fifo::read(self, ctx)
    }

    fn write(&self, ctx: &mut ProcCtx, msg: FrameMsg) {
        Fifo::write(self, ctx, msg);
    }
}

impl Port for PFifo<FrameMsg> {
    fn read(&self, ctx: &mut ProcCtx) -> FrameMsg {
        PFifo::read(self, ctx)
    }

    fn write(&self, ctx: &mut ProcCtx, msg: FrameMsg) {
        PFifo::write(self, ctx, msg);
    }
}

/// The pipeline's channels in order: source → the five stages → sink.
const CHANNELS: [&str; 6] = [
    "speech_in",
    "lsp_out",
    "lpcint_out",
    "acb_out",
    "icb_out",
    "speech_out",
];

/// Elaborates the pipeline around its stages: the channels `fifo` makes,
/// the environment source feeding `nframes` frames, the five stage
/// processes `spawn_stage(sim, i, rx, tx)` spawns, and the environment
/// sink, whose output checksum the returned handle holds after the run.
fn wire<P: Port>(
    sim: &mut Simulator,
    nframes: usize,
    mut fifo: impl FnMut(&mut Simulator, &str) -> P,
    mut spawn_stage: impl FnMut(&mut Simulator, usize, P, P),
) -> OutputChecksum {
    let ch: Vec<P> = CHANNELS.iter().map(|name| fifo(sim, name)).collect();
    let tx = ch[0].clone();
    sim.spawn("source", move |ctx| {
        for frame in speech_frames(nframes) {
            tx.write(ctx, FrameMsg::new(frame));
        }
    });
    for i in 0..STAGES.len() {
        spawn_stage(sim, i, ch[i].clone(), ch[i + 1].clone());
    }
    let result: OutputChecksum = Arc::new(Mutex::new(None));
    let (out, rx) = (Arc::clone(&result), ch[5].clone());
    sim.spawn("sink", move |ctx| {
        let mut checksum = 0_i32;
        for _ in 0..nframes {
            checksum = checksum_acc(checksum, rx.read(ctx).out.as_slice());
        }
        *out.lock() = Some(checksum);
    });
    result
}

/// Stage `i`'s process body in domain `D`: reads `nframes` frames from
/// `rx`, runs the stage on each and forwards it to `tx`; returns the
/// stage checksum.
fn run_stage<D: Domain>(
    ctx: &mut ProcCtx,
    i: usize,
    nframes: usize,
    rx: &impl Port,
    tx: &impl Port,
) -> i32 {
    let mut state = StageState::<D>::new(STAGES[i]);
    for _ in 0..nframes {
        let mut msg = rx.read(ctx);
        state.step(&mut msg);
        tx.write(ctx, msg);
    }
    state.checksum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scperf_core::{CostTable, Mode, Platform};
    use scperf_kernel::Time;

    #[test]
    fn plain_pipeline_matches_reference() {
        let nframes = 4;
        let reference = crate::vocoder::run_reference(nframes);
        let mut sim = Simulator::new();
        let result = build_plain(&mut sim, nframes);
        let summary = sim.run().unwrap();
        assert_eq!(result.lock().unwrap(), reference.checksums[4]);
        // Untimed: everything happens in delta cycles at t = 0.
        assert_eq!(summary.end_time, Time::ZERO);
    }

    #[test]
    fn pipeline_matches_reference_and_is_timed() {
        let nframes = 4;
        let reference = crate::vocoder::run_reference(nframes);

        let mut platform = Platform::new();
        let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
        let mut sim = Simulator::new();
        let model = PerfModel::new(platform, Mode::StrictTimed);
        let handles = build(&mut sim, &model, VocoderMapping::all_on(cpu), nframes);
        let summary = sim.run().unwrap();

        assert_eq!(
            handles.output.lock().expect("sink finished"),
            reference.checksums[4],
            "strict-timed pipeline output differs from reference"
        );
        let stage_chks = *handles.stages.lock();
        for (i, chk) in stage_chks.iter().enumerate() {
            assert_eq!(
                chk.expect("stage finished"),
                reference.checksums[i],
                "stage {} checksum differs",
                STAGE_NAMES[i]
            );
        }
        assert!(summary.end_time > Time::ZERO);

        let report = model.report();
        for name in STAGE_NAMES {
            let p = report
                .process(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(p.total_cycles > 0.0, "{name} has no estimate");
            assert!(p.rtos_time > Time::ZERO, "{name} charged no RTOS time");
        }
        // All five share one CPU: busy time must not exceed end time.
        assert!(report.resources[0].busy_time <= summary.end_time);
    }

    #[test]
    fn untimed_and_timed_agree_functionally() {
        let nframes = 3;
        let run = |mode: Mode| -> i32 {
            let mut platform = Platform::new();
            let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
            let mut sim = Simulator::new();
            let model = PerfModel::new(platform, mode);
            let handles = build(&mut sim, &model, VocoderMapping::all_on(cpu), nframes);
            sim.run().unwrap();
            let out = handles.output.lock().expect("sink finished");
            out
        };
        assert_eq!(run(Mode::EstimateOnly), run(Mode::StrictTimed));
    }

    #[test]
    fn hybrid_replay_matches_live_run_bit_exactly() {
        let nframes = 3;
        let reference = crate::vocoder::run_reference(nframes);
        let build_platform = || {
            let mut platform = Platform::new();
            let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
            (platform, cpu)
        };

        // Live run with trace recording on.
        let (platform, cpu) = build_platform();
        let mut sim = Simulator::new();
        let model = PerfModel::new(platform, Mode::StrictTimed);
        let recorder = model.recorder();
        let live = build(&mut sim, &model, VocoderMapping::all_on(cpu), nframes);
        let live_end = sim.run().unwrap().end_time;
        let live_report = model.report();
        let traces: Vec<Replay> = STAGE_NAMES
            .iter()
            .map(|n| recorder.replay(n).unwrap())
            .collect();
        // One trace entry per read node + write node per frame, plus exit.
        assert!(traces.iter().all(|t| t.len() == 2 * nframes + 1));

        // Replay run: all five stages replayed from the recorded traces.
        let (platform, cpu) = build_platform();
        let mut sim = Simulator::new();
        let model = PerfModel::new(platform, Mode::StrictTimed);
        let replays: [StageTrace; 5] = std::array::from_fn(|i| Some(traces[i].clone()));
        let replayed = build_hybrid(
            &mut sim,
            &model,
            VocoderMapping::all_on(cpu),
            nframes,
            replays,
        );
        let replay_end = sim.run().unwrap().end_time;

        assert_eq!(replay_end, live_end, "replay must be bit-identical");
        assert_eq!(*replayed.stages.lock(), *live.stages.lock());
        assert_eq!(
            replayed.output.lock().unwrap(),
            reference.checksums[4],
            "replayed pipeline must still produce correct data"
        );
        let replay_report = model.report();
        for name in STAGE_NAMES {
            assert_eq!(
                replay_report.process(name).unwrap().total_cycles,
                live_report.process(name).unwrap().total_cycles,
                "{name} cycles differ under replay"
            );
        }
    }

    #[test]
    fn post_on_hw_still_matches() {
        let nframes = 3;
        let reference = crate::vocoder::run_reference(nframes);
        let mut platform = Platform::new();
        let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 100.0);
        let hw = platform.parallel("post_asic", Time::ns(10), CostTable::asic_hw(), 0.0);
        let mut mapping = VocoderMapping::all_on(cpu);
        mapping.post = hw;
        let mut sim = Simulator::new();
        let model = PerfModel::new(platform, Mode::StrictTimed);
        let handles = build(&mut sim, &model, mapping, nframes);
        sim.run().unwrap();
        assert_eq!(handles.output.lock().unwrap(), reference.checksums[4]);
    }
}
