//! Capture points: user-inserted timing probes (§4).
//!
//! "The user can insert capture points anywhere inside the code and a list
//! of events corresponding to the concrete times when the capture points
//! were executed is generated. The format of these lists is prepared for
//! post-processing using mathematical tools (i.e. Matlab). Capture points
//! can be conditional to a certain assertion. It is also possible to
//! associate values of internal signals of the system to these time
//! values."

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use scperf_kernel::{ProcCtx, Time};

use crate::estimator::EstInner;

/// One captured event: when it happened and the associated value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureEvent {
    /// Simulation time of the capture.
    pub at: Time,
    /// Associated value (e.g. an internal signal), if any.
    pub value: Option<f64>,
}

/// The recorded event list of one capture point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CaptureList {
    /// The capture point's name.
    pub name: String,
    /// Captured events, in capture order (time-ordered in strict-timed
    /// simulations).
    pub events: Vec<CaptureEvent>,
}

impl CaptureList {
    /// Inter-event times: `events[i+1].at − events[i].at`. Useful for rate
    /// analysis / average inter-execution times (§1 of the paper).
    pub fn intervals(&self) -> Vec<Time> {
        self.events
            .windows(2)
            .map(|w| w[1].at.saturating_sub(w[0].at))
            .collect()
    }

    /// Mean inter-event interval, or `None` with fewer than two events.
    pub fn mean_interval(&self) -> Option<Time> {
        let iv = self.intervals();
        if iv.is_empty() {
            return None;
        }
        let total: u64 = iv.iter().map(|t| t.as_ps()).sum();
        Some(Time::ps(total / iv.len() as u64))
    }

    /// Renders the list as CSV (`time_ns,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ns,value\n");
        for e in &self.events {
            match e.value {
                Some(v) => {
                    let _ = writeln!(out, "{},{}", e.at.as_ns_f64(), v);
                }
                None => {
                    let _ = writeln!(out, "{},", e.at.as_ns_f64());
                }
            }
        }
        out
    }

    /// Renders the list as a Matlab/Octave script defining `<name>_t`
    /// (times in ns) and `<name>_v` (values; NaN where no value was
    /// attached) — the post-processing format §4 mentions.
    pub fn to_matlab(&self) -> String {
        let ident: String = self
            .name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let mut out = String::new();
        let _ = write!(out, "{ident}_t = [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", e.at.as_ns_f64());
        }
        out.push_str("];\n");
        let _ = write!(out, "{ident}_v = [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match e.value {
                Some(v) => {
                    let _ = write!(out, "{v}");
                }
                None => out.push_str("NaN"),
            }
        }
        out.push_str("];\n");
        out
    }
}

/// A handle to one capture point. Create with
/// [`crate::PerfModel::capture_point`]; cheap to clone into process bodies.
#[derive(Clone)]
pub struct CapturePoint {
    pub(crate) est: Rc<RefCell<EstInner>>,
    pub(crate) index: usize,
}

impl CapturePoint {
    /// Records an event at the current simulation time, without a value.
    pub fn capture(&self, ctx: &ProcCtx) {
        self.push(ctx.now(), None);
    }

    /// Records an event with an associated value.
    pub fn capture_value(&self, ctx: &ProcCtx, value: f64) {
        self.push(ctx.now(), Some(value));
    }

    /// Conditional capture (§4: "capture points can be conditional to a
    /// certain assertion"): records only when `condition` holds.
    pub fn capture_if(&self, ctx: &ProcCtx, condition: bool) {
        if condition {
            self.capture(ctx);
        }
    }

    /// Conditional capture with a value.
    pub fn capture_value_if(&self, ctx: &ProcCtx, condition: bool, value: f64) {
        if condition {
            self.capture_value(ctx, value);
        }
    }

    fn push(&self, at: Time, value: Option<f64>) {
        self.est.borrow_mut().captures[self.index]
            .events
            .push(CaptureEvent { at, value });
    }
}

impl std::fmt::Debug for CapturePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CapturePoint")
            .field("index", &self.index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(times_ns: &[u64]) -> CaptureList {
        CaptureList {
            name: "probe x".into(),
            events: times_ns
                .iter()
                .map(|&t| CaptureEvent {
                    at: Time::ns(t),
                    value: Some(t as f64 * 2.0),
                })
                .collect(),
        }
    }

    #[test]
    fn intervals_and_mean() {
        let l = list(&[10, 30, 60]);
        assert_eq!(l.intervals(), vec![Time::ns(20), Time::ns(30)]);
        assert_eq!(l.mean_interval(), Some(Time::ns(25)));
        assert_eq!(list(&[5]).mean_interval(), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = list(&[1, 2]).to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_ns,value");
        assert_eq!(lines[1], "1,2");
        assert_eq!(lines[2], "2,4");
    }

    #[test]
    fn matlab_output_is_valid_identifiers() {
        let m = list(&[1]).to_matlab();
        assert!(m.contains("probe_x_t = [1];"));
        assert!(m.contains("probe_x_v = [2];"));
    }

    #[test]
    fn matlab_missing_values_are_nan() {
        let l = CaptureList {
            name: "p".into(),
            events: vec![CaptureEvent {
                at: Time::ns(3),
                value: None,
            }],
        };
        assert!(l.to_matlab().contains("p_v = [NaN];"));
        assert!(l.to_csv().contains("3,\n"));
    }
}
