//! Performance reports: the "total execution times for processes and
//! resources … generated automatically" of §4, plus segment-level detail
//! on demand.

use std::fmt;

use scperf_kernel::Time;

use crate::cost::OpCounts;
use crate::estimator::{EstInner, InstSample, Mode, SegStats};
use crate::resource::{ResourceId, ResourceKind};

/// Per-segment report entry: one `(from, to)` node pair of one process.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReport {
    /// Label of the node the segment starts at.
    pub from: String,
    /// Label of the node the segment ends at.
    pub to: String,
    /// Aggregated statistics.
    pub stats: SegStats,
}

/// Per-process report entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessReport {
    /// Process name.
    pub name: String,
    /// The resource the process is mapped to.
    pub resource: ResourceId,
    /// That resource's name.
    pub resource_name: String,
    /// That resource's kind.
    pub kind: ResourceKind,
    /// Total estimated cycles over the whole simulation.
    pub total_cycles: f64,
    /// Total estimated execution time.
    pub total_time: Time,
    /// Total RTOS overhead attributed to this process.
    pub rtos_time: Time,
    /// Number of segment executions.
    pub segment_executions: u64,
    /// Merged operation counts.
    pub counts: OpCounts,
    /// Per-segment detail.
    pub segments: Vec<SegmentReport>,
    /// Instantaneous samples (when enabled via
    /// [`crate::SimConfig::record_instantaneous`]).
    pub instantaneous: Vec<InstSample>,
}

/// Per-resource report entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceReport {
    /// Resource name.
    pub name: String,
    /// Resource kind.
    pub kind: ResourceKind,
    /// Total time the resource executed segments (including RTOS).
    pub busy_time: Time,
    /// Of which RTOS overhead.
    pub rtos_time: Time,
}

/// Per-resource utilization and contention entry of a
/// [`UtilizationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUtilization {
    /// Resource name.
    pub name: String,
    /// Resource kind.
    pub kind: ResourceKind,
    /// Simulated time the resource executed segments (including RTOS).
    pub busy: Time,
    /// Busy time as a percentage of the run's total simulated time.
    pub busy_pct: f64,
    /// Simulated time processes spent waiting behind this resource in
    /// the §4 arbitration loop (sequential resources only).
    pub contention: Time,
    /// Contention time as a percentage of the run's total simulated
    /// time.
    pub contention_pct: f64,
    /// Number of non-zero arbitration waits.
    pub waits: u64,
}

/// Per-process contention entry of a [`UtilizationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessContention {
    /// Process name.
    pub name: String,
    /// The resource the process is mapped to.
    pub resource: String,
    /// Simulated time this process spent waiting behind its resource.
    pub wait: Time,
    /// Number of non-zero arbitration waits.
    pub waits: u64,
}

/// Per-channel utilization entry of a [`UtilizationReport`], from the
/// kernel's channel accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelUtilization {
    /// Channel name.
    pub name: String,
    /// High-water mark of the buffered element count (FIFOs).
    pub max_depth: u64,
    /// Times a process blocked on this channel.
    pub blocks: u64,
    /// Total simulated time processes spent blocked on this channel.
    pub blocked: Time,
}

/// Resource utilization & contention attribution for one run: which
/// resources were busiest, how long processes queued behind them, and
/// how deep the channels ran. Only populated when attribution was
/// enabled ([`crate::SimConfig::attribution`]);
/// attribution is measurement-only, so enabling it never changes the
/// simulated results themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// Total simulated time of the run (the denominator of the
    /// percentage fields).
    pub total_time: Time,
    /// Per-resource entries, sorted by busy time descending — the head
    /// of the list is the utilization bottleneck.
    pub resources: Vec<ResourceUtilization>,
    /// Per-process contention entries, in spawn order.
    pub processes: Vec<ProcessContention>,
    /// Per-channel entries, in creation order, from the kernel's
    /// channel accounting.
    pub channels: Vec<ChannelUtilization>,
}

impl UtilizationReport {
    /// The bottleneck *sequential* resource: the busiest one that
    /// processes can actually queue behind. `None` when the platform
    /// has no sequential resource.
    pub fn bottleneck(&self) -> Option<&ResourceUtilization> {
        self.resources
            .iter()
            .find(|r| r.kind == ResourceKind::Sequential)
    }

    /// The top `n` resources by busy time.
    pub fn top_resources(&self, n: usize) -> &[ResourceUtilization] {
        &self.resources[..n.min(self.resources.len())]
    }
}

impl fmt::Display for UtilizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "-- utilization (total {}) --", self.total_time)?;
        for r in &self.resources {
            writeln!(
                f,
                "{:<16} {:<12} busy {:>6.1}%  contention {:>6.1}%  waits {:>6}",
                r.name,
                format!("{:?}", r.kind),
                r.busy_pct,
                r.contention_pct,
                r.waits
            )?;
        }
        for c in &self.channels {
            writeln!(
                f,
                "{:<16} channel      depth≤{:<4} blocks {:>5}  blocked {}",
                c.name, c.max_depth, c.blocks, c.blocked
            )?;
        }
        Ok(())
    }
}

/// The complete performance report of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The mode the model ran in.
    pub mode: Mode,
    /// Per-process results, in spawn order.
    pub processes: Vec<ProcessReport>,
    /// Per-resource results, in declaration order.
    pub resources: Vec<ResourceReport>,
    /// Utilization & contention attribution (`None` unless attribution
    /// was enabled: [`crate::SimConfig::attribution`]).
    pub utilization: Option<UtilizationReport>,
}

impl Report {
    pub(crate) fn build(inner: &EstInner) -> Report {
        let processes = inner
            .procs
            .values()
            .map(|rec| {
                let res = inner.platform.resource(rec.resource);
                ProcessReport {
                    name: rec.name.clone(),
                    resource: rec.resource,
                    resource_name: res.name.clone(),
                    kind: res.kind,
                    total_cycles: rec.total_cycles,
                    total_time: rec.total_time,
                    rtos_time: rec.rtos_time,
                    segment_executions: rec.segment_executions,
                    counts: rec.counts,
                    segments: rec
                        .segments
                        .iter()
                        .map(|(&(f, t), stats)| SegmentReport {
                            from: inner.nodes[f as usize].clone(),
                            to: inner.nodes[t as usize].clone(),
                            stats: stats.clone(),
                        })
                        .collect(),
                    instantaneous: rec.instantaneous.clone(),
                }
            })
            .collect();
        let resources = inner
            .platform
            .iter()
            .map(|(id, r)| ResourceReport {
                name: r.name.clone(),
                kind: r.kind,
                busy_time: inner.busy_total[id.index()],
                rtos_time: inner.rtos_total[id.index()],
            })
            .collect();
        Report {
            mode: inner.settings.mode,
            processes,
            resources,
            utilization: None,
        }
    }

    pub(crate) fn build_utilization(inner: &EstInner, total_time: Time) -> UtilizationReport {
        let pct = |t: Time| {
            if total_time.is_zero() {
                0.0
            } else {
                t.as_ps() as f64 / total_time.as_ps() as f64 * 100.0
            }
        };
        let mut resources: Vec<ResourceUtilization> = inner
            .platform
            .iter()
            .map(|(id, r)| ResourceUtilization {
                name: r.name.clone(),
                kind: r.kind,
                busy: inner.busy_total[id.index()],
                busy_pct: pct(inner.busy_total[id.index()]),
                contention: inner.contention_total[id.index()],
                contention_pct: pct(inner.contention_total[id.index()]),
                waits: inner.arbitration_waits[id.index()],
            })
            .collect();
        resources.sort_by(|a, b| b.busy.cmp(&a.busy).then_with(|| a.name.cmp(&b.name)));
        let processes = inner
            .procs
            .values()
            .map(|rec| ProcessContention {
                name: rec.name.clone(),
                resource: inner.platform.resource(rec.resource).name.clone(),
                wait: rec.resource_wait,
                waits: rec.resource_waits,
            })
            .collect();
        UtilizationReport {
            total_time,
            resources,
            processes,
            channels: Vec::new(),
        }
    }

    /// Looks up a process report by name.
    pub fn process(&self, name: &str) -> Option<&ProcessReport> {
        self.processes.iter().find(|p| p.name == name)
    }

    /// Total estimated time across all processes.
    pub fn total_estimated_time(&self) -> Time {
        self.processes.iter().map(|p| p.total_time).sum()
    }
}

impl Report {
    /// Renders the per-process table as CSV
    /// (`process,resource,kind,cycles,time_ns,rtos_ns,segments`).
    pub fn to_csv(&self) -> String {
        use fmt::Write;
        let mut out = String::from("process,resource,kind,cycles,time_ns,rtos_ns,segments\n");
        for p in &self.processes {
            let _ = writeln!(
                out,
                "{},{},{:?},{},{},{},{}",
                p.name,
                p.resource_name,
                p.kind,
                p.total_cycles,
                p.total_time.as_ns_f64(),
                p.rtos_time.as_ns_f64(),
                p.segment_executions
            );
        }
        out
    }
}

impl ProcessReport {
    /// Renders this process's instantaneous samples (when recorded via
    /// [`crate::SimConfig::record_instantaneous`]) as CSV
    /// (`time_ns,from,to,cycles,dur_ns`) — the paper's "instantaneous
    /// estimated parameters for each process", ready for post-processing.
    pub fn instantaneous_csv(&self, node_label: impl Fn(u32) -> String) -> String {
        use fmt::Write;
        let mut out = String::from("time_ns,from,to,cycles,dur_ns\n");
        for s in &self.instantaneous {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.at.as_ns_f64(),
                node_label(s.segment.0),
                node_label(s.segment.1),
                s.cycles,
                s.dur.as_ns_f64()
            );
        }
        out
    }

    /// Looks up a segment by its `(from, to)` node labels.
    pub fn segment(&self, from: &str, to: &str) -> Option<&SegmentReport> {
        self.segments.iter().find(|s| s.from == from && s.to == to)
    }

    /// Mean cycles per segment execution.
    pub fn mean_segment_cycles(&self) -> f64 {
        if self.segment_executions == 0 {
            0.0
        } else {
            self.total_cycles / self.segment_executions as f64
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== scperf report ({:?}) ==", self.mode)?;
        writeln!(
            f,
            "{:<16} {:<10} {:>14} {:>14} {:>12} {:>8}",
            "process", "resource", "cycles", "time", "rtos", "segs"
        )?;
        for p in &self.processes {
            writeln!(
                f,
                "{:<16} {:<10} {:>14.1} {:>14} {:>12} {:>8}",
                p.name,
                p.resource_name,
                p.total_cycles,
                p.total_time.to_string(),
                p.rtos_time.to_string(),
                p.segment_executions
            )?;
        }
        writeln!(f, "-- resources --")?;
        for r in &self.resources {
            writeln!(
                f,
                "{:<16} {:<12} busy {:>14}   rtos {:>12}",
                r.name,
                format!("{:?}", r.kind),
                r.busy_time.to_string(),
                r.rtos_time.to_string()
            )?;
        }
        if let Some(u) = &self.utilization {
            write!(f, "{u}")?;
        }
        Ok(())
    }
}

/// A process graph (the paper's Figure 2): nodes are channel accesses,
/// waits and entry/exit; edges are the observed segments.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessGraph {
    /// The process name.
    pub process: String,
    /// Edges: `(from, to, executions, mean cycles)`.
    pub edges: Vec<(String, String, u64, f64)>,
}

impl ProcessGraph {
    /// Builds the graph from a process report.
    pub fn from_report(p: &ProcessReport) -> ProcessGraph {
        ProcessGraph {
            process: p.name.clone(),
            edges: p
                .segments
                .iter()
                .map(|s| {
                    (
                        s.from.clone(),
                        s.to.clone(),
                        s.stats.count,
                        if s.stats.count == 0 {
                            0.0
                        } else {
                            s.stats.total_cycles / s.stats.count as f64
                        },
                    )
                })
                .collect(),
        }
    }

    /// Renders the graph in Graphviz DOT format, edges labelled with
    /// execution counts and mean cycles.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.process);
        let _ = writeln!(out, "  rankdir=TB;");
        let mut nodes: Vec<&str> = Vec::new();
        for (f_, t, _, _) in &self.edges {
            for n in [f_.as_str(), t.as_str()] {
                if !nodes.contains(&n) {
                    nodes.push(n);
                }
            }
        }
        for n in &nodes {
            let _ = writeln!(out, "  \"{n}\";");
        }
        for (f_, t, count, mean) in &self.edges {
            let _ = writeln!(
                out,
                "  \"{f_}\" -> \"{t}\" [label=\"{count}x, {mean:.1}cy\"];"
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_process_report() -> ProcessReport {
        ProcessReport {
            name: "p".into(),
            resource: ResourceId(0),
            resource_name: "cpu".into(),
            kind: ResourceKind::Sequential,
            total_cycles: 100.0,
            total_time: Time::us(1),
            rtos_time: Time::ns(50),
            segment_executions: 4,
            counts: OpCounts::new(),
            segments: vec![SegmentReport {
                from: "entry".into(),
                to: "ch.write".into(),
                stats: SegStats {
                    count: 4,
                    total_cycles: 100.0,
                    min_cycles: 20.0,
                    max_cycles: 30.0,
                    total_time: Time::us(1),
                    counts: OpCounts::new(),
                    last_t_min: 0.0,
                    last_t_max: 0.0,
                },
            }],
            instantaneous: Vec::new(),
        }
    }

    #[test]
    fn mean_segment_cycles() {
        let p = sample_process_report();
        assert_eq!(p.mean_segment_cycles(), 25.0);
        assert!(p.segment("entry", "ch.write").is_some());
        assert!(p.segment("entry", "nope").is_none());
    }

    #[test]
    fn graph_dot_contains_edges() {
        let p = sample_process_report();
        let g = ProcessGraph::from_report(&p);
        let dot = g.to_dot();
        assert!(dot.contains("\"entry\" -> \"ch.write\""));
        assert!(dot.contains("4x, 25.0cy"));
    }

    #[test]
    fn report_display_renders() {
        let report = Report {
            mode: Mode::StrictTimed,
            processes: vec![sample_process_report()],
            resources: vec![ResourceReport {
                name: "cpu".into(),
                kind: ResourceKind::Sequential,
                busy_time: Time::us(1),
                rtos_time: Time::ns(50),
            }],
            utilization: None,
        };
        let s = report.to_string();
        assert!(s.contains("scperf report"));
        assert!(s.contains("cpu"));
        assert!(s.contains("100.0"));
        assert_eq!(report.total_estimated_time(), Time::us(1));
        assert!(report.process("p").is_some());
    }
}
