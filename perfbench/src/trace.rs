//! Outside-in spans: the benchmark brackets each public call it makes
//! into a layer, and nothing is placed inside the crates.
//!
//! Every span belongs to one *operation* (a serve request, a sweep
//! point, a tables pass) and records its name, start, end and parent.
//! An operation's root span is its wall time. A span's *self time* is
//! its duration minus the part of it that its children cover, so the
//! self times of one operation's spans add up to the operation's wall
//! time exactly; whatever the root keeps for itself is the
//! `unattributed` remainder. A span's layer is its name up to the first
//! dot (`kernel.run` → `kernel`), named for the crate module that owns
//! the call.

use std::collections::BTreeMap;
use std::time::Instant;

use scperf_obs::chrome::ChromeTrace;

/// One recorded span, in nanoseconds since the trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `pool.acquire`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span within the operation; `None` for
    /// the root.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one operation; `spans[0]` is the root.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// Operation id, shared by all its spans.
    pub id: u64,
    /// Worker track the operation ran on (for the Chrome view).
    pub track: u64,
    /// Free-form class of the operation (`live`, `replay`, ...).
    pub kind: &'static str,
    /// Spans in start order.
    pub spans: Vec<Span>,
    epoch: Instant,
    open: Vec<usize>,
}

impl OpTrace {
    /// Opens operation `id` with root span `root`.
    pub fn begin(epoch: Instant, id: u64, track: u64, root: &'static str) -> OpTrace {
        let mut op = OpTrace {
            id,
            track,
            kind: "",
            spans: Vec::with_capacity(16),
            epoch,
            open: Vec::with_capacity(4),
        };
        op.enter(root);
        op
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Runs `f` inside a span named `name`; also returns the span's
    /// duration in ns.
    pub fn span_ns<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let i = self.spans.len();
        let r = self.span(name, f);
        (r, self.spans[i].dur())
    }

    /// Closes the root (and anything left open) and returns the trace.
    pub fn finish(mut self) -> OpTrace {
        while !self.open.is_empty() {
            self.exit();
        }
        self
    }

    /// Operation wall time, ns.
    pub fn wall(&self) -> u64 {
        self.spans[0].dur()
    }

    /// Self time of every span, ns: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur() - covered
            })
            .collect()
    }
}

/// Tracing overhead: how much longer the median traced operation took
/// than the median untraced one, in percent.
pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    let base = crate::stats::median(untraced_ms);
    if base > 0.0 {
        (crate::stats::median(traced_ms) / base - 1.0) * 100.0
    } else {
        0.0
    }
}

/// The layers a span name can belong to, in report order, each with the
/// per-layer metric that carries its share; the root's own time goes to
/// `unattributed`.
pub const LAYERS: [(&str, &str); 9] = [
    ("serve", "share.serve_pct"),
    ("obs", "share.obs_pct"),
    ("pool", "share.pool_pct"),
    ("session", "share.session_pct"),
    ("workloads", "share.workloads_pct"),
    ("kernel", "share.kernel_pct"),
    ("est", "share.est_pct"),
    ("dse", "share.dse_pct"),
    ("unattributed", "share.unattributed_pct"),
];

/// The layer of span `i` of an operation.
fn layer_of(op: &OpTrace, i: usize) -> &'static str {
    if i == 0 {
        return "unattributed";
    }
    let name = op.spans[i].name;
    let layer = name.split('.').next().unwrap_or(name);
    LAYERS
        .iter()
        .map(|&(l, _)| l)
        .find(|&l| l == layer)
        .unwrap_or("unattributed")
}

/// All traced operations of a run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Operations in completion order.
    pub ops: Vec<OpTrace>,
}

impl Trace {
    /// Adds a finished operation.
    pub fn push(&mut self, op: OpTrace) {
        self.ops.push(op);
    }

    /// Wall time of every operation, ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.wall() as f64 / 1e6).collect()
    }

    /// Total operation wall time, ns.
    pub fn total_wall(&self) -> u64 {
        self.ops.iter().map(OpTrace::wall).sum()
    }

    /// Self time per layer, summed over all operations, ns.
    pub fn layer_self(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&(l, _)| (l, 0)).collect();
        for op in &self.ops {
            for (i, t) in op.self_times().into_iter().enumerate() {
                *out.get_mut(layer_of(op, i)).expect("known layer") += t;
            }
        }
        out
    }

    /// Each layer's share of total operation wall time, in percent, with
    /// the metric that carries it; the shares sum to 100.
    pub fn layer_shares_pct(&self) -> Vec<(&'static str, &'static str, f64)> {
        let wall = self.total_wall().max(1) as f64;
        let by_layer = self.layer_self();
        LAYERS
            .iter()
            .map(|&(l, metric)| (l, metric, by_layer[l] as f64 / wall * 100.0))
            .collect()
    }

    /// Mean time per operation spent in spans named `name`, in µs, over
    /// the operations (optionally only those of `kind`) that make the
    /// call; 0 when none does.
    pub fn mean_us(&self, name: &str, kind: Option<&str>) -> f64 {
        let mut total = 0;
        let mut ops = 0;
        for op in &self.ops {
            if kind.is_some_and(|k| k != op.kind) {
                continue;
            }
            let t: u64 = op
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur)
                .sum();
            if op.spans.iter().any(|s| s.name == name) {
                total += t;
                ops += 1;
            }
        }
        if ops == 0 {
            0.0
        } else {
            total as f64 / ops as f64 / 1e3
        }
    }

    /// Renders every span as a Chrome trace (`chrome://tracing`,
    /// Perfetto), one track per worker, with the operation id as an arg.
    pub fn chrome(&self, title: &str) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.process_name(title);
        for op in &self.ops {
            for s in &op.spans {
                t.complete(op.track, s.name, s.start as f64 / 1e3, s.dur() as f64 / 1e3)
                    .arg("op", op.id as f64)
                    .arg("kind", op.kind);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    fn op(spans: Vec<Span>) -> OpTrace {
        let mut o = OpTrace::begin(Instant::now(), 0, 0, "op");
        o = o.finish();
        o.spans = spans;
        o
    }

    #[test]
    fn self_times_sum_to_the_wall_time() {
        let o = op(vec![
            span("op", 0, 100, None),
            span("serve.execute", 10, 90, Some(0)),
            span("kernel.run", 20, 60, Some(1)),
            span("pool.publish", 60, 70, Some(1)),
            span("serve.render", 90, 95, Some(0)),
        ]);
        let st = o.self_times();
        assert_eq!(st, vec![15, 30, 40, 10, 5]);
        assert_eq!(st.iter().sum::<u64>(), o.wall());
        let mut t = Trace::default();
        t.push(o);
        let shares = t.layer_shares_pct();
        let total: f64 = shares.iter().map(|(_, _, s)| s).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(t.mean_us("kernel.run", None), 0.04);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let o = op(vec![
            span("op", 0, 100, None),
            span("dse.a", 0, 60, Some(0)),
            span("dse.b", 40, 80, Some(0)),
        ]);
        assert_eq!(o.self_times()[0], 20);
    }

    #[test]
    fn recorded_spans_nest() {
        let mut o = OpTrace::begin(Instant::now(), 3, 1, "op.request");
        let v = o.span("serve.parse", || o_work(7));
        assert_eq!(v, 49);
        o.enter("serve.execute");
        o.span("kernel.run", || ());
        o.exit();
        let o = o.finish();
        assert_eq!(o.spans.len(), 4);
        assert_eq!(o.spans[3].parent, Some(2));
        assert_eq!(o.self_times().iter().sum::<u64>(), o.wall());
    }

    fn o_work(x: u64) -> u64 {
        std::hint::black_box(x * x)
    }
}
