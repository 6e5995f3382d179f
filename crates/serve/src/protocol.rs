//! The JSON-lines request/response protocol and its boundary
//! validation.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Requests select an operation with `"op"`
//! (default `"sim"`):
//!
//! ```json
//! {"id":"r1","mapping":["cpu0","cpu0","hw","cpu1","cpu0"],"nframes":4}
//! {"id":"b1","op":"batch","scenarios":[{"mapping":[...],"nframes":2},...]}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"stats","reset":true}
//! {"op":"telemetry"}
//! {"op":"shutdown"}
//! ```
//!
//! # Validation at the boundary
//!
//! Worker threads run simulations; they must never panic on bad input.
//! Everything the kernel or estimator would `panic!` on — NaN or
//! negative cost parameters, a time-area weight outside `[0, 1]`
//! (mirroring [`scperf_core::weighted_hw_cycles`]'s contract), a
//! non-positive clock — is rejected *here*, with a typed error response
//! naming the offending field, before a job is ever enqueued.

use scperf_dse::point::Target;

use crate::json::Json;

/// Upper bound on frames per scenario; keeps one hostile request from
/// pinning a worker for hours.
pub const MAX_NFRAMES: u64 = 4096;
/// Upper bound on scenarios per batch request.
pub const MAX_BATCH: usize = 256;
/// Upper bound on request id length.
pub const MAX_ID_LEN: usize = 128;
/// Upper bound on one request line, newline excluded, in bytes (1 MiB):
/// far above a full [`MAX_BATCH`] batch. The frontends stop reading a
/// longer line there, so no line is buffered without a bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Machine-readable error classes carried in the `"code"` field of
/// error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    Parse,
    /// The request was well-formed JSON but failed validation.
    InvalidRequest,
    /// The service queue is saturated; retry after `retry_after_ms`.
    QueueFull,
    /// Every pooled session slot is live; retry after `retry_after_ms`.
    PoolExhausted,
    /// The request's deadline expired (in queue or mid-run).
    DeadlineExceeded,
    /// The service is draining and accepts no new work.
    ShuttingDown,
    /// The simulation itself failed.
    Sim,
}

impl ErrorCode {
    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse_error",
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::PoolExhausted => "pool_exhausted",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Sim => "sim_error",
        }
    }
}

/// A typed request failure: what class, which field, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Error class.
    pub code: ErrorCode,
    /// The request field at fault, when one is identifiable.
    pub field: Option<String>,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    /// An [`ErrorCode::InvalidRequest`] for `field`.
    pub fn invalid(field: &str, message: impl Into<String>) -> RequestError {
        RequestError {
            code: ErrorCode::InvalidRequest,
            field: Some(field.to_string()),
            message: message.into(),
        }
    }
}

/// Platform/resource parameters of one scenario, all optional on the
/// wire.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformParams {
    /// Clock period of every resource, in nanoseconds.
    pub clock_ns: f64,
    /// RTOS overhead charged per channel access / timed wait on the
    /// sequential processors, in cycles.
    pub rtos_cycles: f64,
    /// Time-area weight `k` of the accelerator (annotated HW time is
    /// `T_min + (T_max − T_min)·k`).
    pub hw_k: f64,
}

impl Default for PlatformParams {
    fn default() -> PlatformParams {
        PlatformParams {
            clock_ns: scperf_dse::point::CLOCK.as_ns_f64(),
            rtos_cycles: scperf_dse::point::RTOS_CYCLES,
            hw_k: scperf_dse::point::HW_K,
        }
    }
}

/// One validated scenario-evaluation request.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Per-stage mapping targets, in pipeline stage order.
    pub mapping: [Target; 5],
    /// Frames pushed through the pipeline.
    pub nframes: usize,
    /// Platform parameters.
    pub params: PlatformParams,
    /// Wall-clock budget measured from admission, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Include the per-process report in the response.
    pub want_report: bool,
    /// Include the kernel+estimator metrics snapshot in the response.
    pub want_metrics: bool,
    /// Include host-timing fields (`elapsed_us`, `replayed_stages`).
    /// Off by default so that response payloads are deterministic.
    pub want_timing: bool,
}

/// A parsed and validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one scenario.
    Sim {
        /// Caller-chosen correlation id, echoed in the response.
        id: String,
        /// The scenario.
        scenario: Scenario,
    },
    /// Evaluate a list of scenarios; the response carries per-scenario
    /// results in request order.
    Batch {
        /// Caller-chosen correlation id, echoed in the response.
        id: String,
        /// Scenarios, each independently validated.
        scenarios: Vec<Result<Scenario, RequestError>>,
    },
    /// Liveness probe.
    Ping {
        /// Optional correlation id.
        id: Option<String>,
    },
    /// Service metrics snapshot.
    Stats {
        /// Optional correlation id.
        id: Option<String>,
        /// Reset the service's counters, latency histograms and uptime
        /// clock *after* rendering the reply (read-and-reset).
        reset: bool,
    },
    /// Prometheus text-exposition dump of the full telemetry state:
    /// `serve.*` counters and latency quantiles plus the folded
    /// per-run kernel/estimator metrics (`kernel.*`, `est.*`).
    Telemetry {
        /// Optional correlation id.
        id: Option<String>,
    },
    /// Begin graceful shutdown: drain accepted work, then stop.
    Shutdown {
        /// Optional correlation id.
        id: Option<String>,
    },
}

impl Request {
    /// Validates a parsed JSON value into a request.
    pub fn from_json(v: &Json) -> Result<Request, RequestError> {
        if !v.is_obj() {
            return Err(RequestError {
                code: ErrorCode::InvalidRequest,
                field: None,
                message: "request must be a JSON object".into(),
            });
        }
        let op = match v.get("op") {
            None => "sim",
            Some(Json::Str(s)) => s.as_str(),
            Some(_) => return Err(RequestError::invalid("op", "must be a string")),
        };
        match op {
            "ping" => Ok(Request::Ping { id: opt_id(v)? }),
            "stats" => Ok(Request::Stats {
                id: opt_id(v)?,
                reset: bool_field(v, "reset")?,
            }),
            "telemetry" => Ok(Request::Telemetry { id: opt_id(v)? }),
            "shutdown" => Ok(Request::Shutdown { id: opt_id(v)? }),
            "sim" => Ok(Request::Sim {
                id: required_id(v)?,
                scenario: scenario_from(v)?,
            }),
            "batch" => {
                let id = required_id(v)?;
                let items = v
                    .get("scenarios")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| RequestError::invalid("scenarios", "must be an array"))?;
                if items.is_empty() {
                    return Err(RequestError::invalid("scenarios", "must not be empty"));
                }
                if items.len() > MAX_BATCH {
                    return Err(RequestError::invalid(
                        "scenarios",
                        format!("at most {MAX_BATCH} scenarios per batch"),
                    ));
                }
                let scenarios = items.iter().map(scenario_from).collect();
                Ok(Request::Batch { id, scenarios })
            }
            other => Err(RequestError::invalid(
                "op",
                format!(
                    "unknown op {other:?} (expected sim, batch, ping, stats, telemetry or shutdown)"
                ),
            )),
        }
    }
}

/// Pulls the id out of a request object *without* full validation — for
/// correlating error responses to requests that failed validation.
pub fn salvage_id(v: &Json) -> Option<String> {
    v.get("id").and_then(Json::as_str).map(str::to_string)
}

fn required_id(v: &Json) -> Result<String, RequestError> {
    match v.get("id") {
        Some(Json::Str(s)) if !s.is_empty() && s.len() <= MAX_ID_LEN => Ok(s.clone()),
        Some(Json::Str(_)) => Err(RequestError::invalid(
            "id",
            format!("must be 1..={MAX_ID_LEN} characters"),
        )),
        Some(_) => Err(RequestError::invalid("id", "must be a string")),
        None => Err(RequestError::invalid("id", "missing")),
    }
}

fn opt_id(v: &Json) -> Result<Option<String>, RequestError> {
    match v.get("id") {
        None => Ok(None),
        _ => required_id(v).map(Some),
    }
}

fn scenario_from(v: &Json) -> Result<Scenario, RequestError> {
    if !v.is_obj() {
        return Err(RequestError {
            code: ErrorCode::InvalidRequest,
            field: None,
            message: "scenario must be a JSON object".into(),
        });
    }
    if let Some(w) = v.get("workload") {
        match w.as_str() {
            Some("vocoder") => {}
            _ => {
                return Err(RequestError::invalid(
                    "workload",
                    "only \"vocoder\" is served",
                ))
            }
        }
    }

    let mapping_json = v
        .get("mapping")
        .and_then(Json::as_arr)
        .ok_or_else(|| RequestError::invalid("mapping", "must be an array of 5 targets"))?;
    if mapping_json.len() != 5 {
        return Err(RequestError::invalid(
            "mapping",
            format!("expected 5 targets, got {}", mapping_json.len()),
        ));
    }
    let mut mapping = [Target::Cpu0; 5];
    for (i, t) in mapping_json.iter().enumerate() {
        mapping[i] = match t.as_str() {
            Some("cpu0") => Target::Cpu0,
            Some("cpu1") => Target::Cpu1,
            Some("hw") => Target::Hw,
            _ => {
                return Err(RequestError::invalid(
                    "mapping",
                    format!("target {i} must be \"cpu0\", \"cpu1\" or \"hw\""),
                ))
            }
        };
    }

    let nframes = match v.get("nframes") {
        Some(n) => match n.as_u64() {
            Some(f) if (1..=MAX_NFRAMES).contains(&f) => f as usize,
            _ => {
                return Err(RequestError::invalid(
                    "nframes",
                    format!("must be an integer in 1..={MAX_NFRAMES}"),
                ))
            }
        },
        None => return Err(RequestError::invalid("nframes", "missing")),
    };

    let defaults = PlatformParams::default();
    // The parser guarantees numbers are finite, but these bounds are
    // still the panic-proofing layer: Platform::sequential rejects
    // non-positive clocks, Time::from_ns_f64 rejects negatives, and
    // weighted_hw_cycles rejects k outside [0, 1] — all by panicking.
    let clock_ns = num_field(v, "clock_ns", defaults.clock_ns)?;
    if !(clock_ns > 0.0 && clock_ns <= 1e9) {
        return Err(RequestError::invalid(
            "clock_ns",
            "must be a finite number in (0, 1e9]",
        ));
    }
    let rtos_cycles = num_field(v, "rtos_cycles", defaults.rtos_cycles)?;
    if !(0.0..=1e9).contains(&rtos_cycles) {
        return Err(RequestError::invalid(
            "rtos_cycles",
            "cost must be a finite number in [0, 1e9]",
        ));
    }
    let hw_k = num_field(v, "hw_k", defaults.hw_k)?;
    if !(0.0..=1.0).contains(&hw_k) {
        return Err(RequestError::invalid(
            "hw_k",
            "time-area weight must lie in [0, 1]",
        ));
    }

    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(n) => match n.as_u64() {
            Some(ms) if ms > 0 => Some(ms),
            _ => {
                return Err(RequestError::invalid(
                    "deadline_ms",
                    "must be a positive integer",
                ))
            }
        },
    };

    Ok(Scenario {
        mapping,
        nframes,
        params: PlatformParams {
            clock_ns,
            rtos_cycles,
            hw_k,
        },
        deadline_ms,
        want_report: bool_field(v, "report")?,
        want_metrics: bool_field(v, "metrics")?,
        want_timing: bool_field(v, "timing")?,
    })
}

fn num_field(v: &Json, field: &str, default: f64) -> Result<f64, RequestError> {
    match v.get(field) {
        None => Ok(default),
        Some(n) => n
            .as_f64()
            .ok_or_else(|| RequestError::invalid(field, "must be a number")),
    }
}

fn bool_field(v: &Json, field: &str) -> Result<bool, RequestError> {
    match v.get(field) {
        None => Ok(false),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| RequestError::invalid(field, "must be a boolean")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn req(line: &str) -> Result<Request, RequestError> {
        Request::from_json(&parse(line).expect("test input parses"))
    }

    const OK: &str = r#"{"id":"r1","mapping":["cpu0","cpu1","hw","cpu0","cpu0"],"nframes":2}"#;

    #[test]
    fn minimal_sim_request_gets_defaults() {
        let Request::Sim { id, scenario } = req(OK).unwrap() else {
            panic!("expected sim request");
        };
        assert_eq!(id, "r1");
        assert_eq!(scenario.nframes, 2);
        assert_eq!(scenario.params, PlatformParams::default());
        assert!(!scenario.want_report && !scenario.want_metrics && !scenario.want_timing);
        assert_eq!(scenario.deadline_ms, None);
    }

    #[test]
    fn out_of_range_k_is_rejected_with_the_field_named() {
        let line = r#"{"id":"r","mapping":["hw","hw","hw","hw","hw"],"nframes":1,"hw_k":1.5}"#;
        let err = req(line).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidRequest);
        assert_eq!(err.field.as_deref(), Some("hw_k"));
    }

    #[test]
    fn negative_costs_are_rejected() {
        let line = r#"{"id":"r","mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":1,"rtos_cycles":-1}"#;
        let err = req(line).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("rtos_cycles"));
        let line =
            r#"{"id":"r","mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":1,"clock_ns":0}"#;
        assert_eq!(req(line).unwrap_err().field.as_deref(), Some("clock_ns"));
    }

    #[test]
    fn nan_costs_cannot_reach_validation() {
        // NaN/Infinity are not JSON: the wire parser stops them first.
        assert!(parse(r#"{"rtos_cycles":NaN}"#).is_err());
        assert!(parse(r#"{"hw_k":Infinity}"#).is_err());
        // And a float overflow (non-finite after parse) is also a parse
        // error, so validators only ever see finite numbers.
        assert!(parse(r#"{"rtos_cycles":1e400}"#).is_err());
    }

    #[test]
    fn nframes_bounds_are_enforced() {
        for bad in ["0", "4.5", "1000000000"] {
            let line = format!(
                r#"{{"id":"r","mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":{bad}}}"#
            );
            assert_eq!(req(&line).unwrap_err().field.as_deref(), Some("nframes"));
        }
    }

    #[test]
    fn mapping_shape_and_labels_are_checked() {
        let short = r#"{"id":"r","mapping":["cpu0"],"nframes":1}"#;
        assert_eq!(req(short).unwrap_err().field.as_deref(), Some("mapping"));
        let bad = r#"{"id":"r","mapping":["cpu0","cpu0","gpu","cpu0","cpu0"],"nframes":1}"#;
        let err = req(bad).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("mapping"));
        assert!(err.message.contains("target 2"));
    }

    #[test]
    fn batch_validates_scenarios_independently() {
        let line = r#"{"id":"b","op":"batch","scenarios":[
            {"mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":1},
            {"mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":0}]}"#;
        let Request::Batch { id, scenarios } = req(line).unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(id, "b");
        assert!(scenarios[0].is_ok());
        assert_eq!(
            scenarios[1].as_ref().unwrap_err().field.as_deref(),
            Some("nframes")
        );
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(req(r#"{"op":"ping"}"#).unwrap(), Request::Ping { id: None });
        assert_eq!(
            req(r#"{"op":"shutdown","id":"s"}"#).unwrap(),
            Request::Shutdown {
                id: Some("s".into())
            }
        );
        assert!(matches!(
            req(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats {
                id: None,
                reset: false
            }
        ));
        assert!(matches!(
            req(r#"{"op":"stats","reset":true}"#).unwrap(),
            Request::Stats { reset: true, .. }
        ));
        assert_eq!(
            req(r#"{"op":"telemetry","id":"t"}"#).unwrap(),
            Request::Telemetry {
                id: Some("t".into())
            }
        );
        assert_eq!(
            req(r#"{"op":"stats","reset":"yes"}"#)
                .unwrap_err()
                .field
                .as_deref(),
            Some("reset")
        );
        assert_eq!(
            req(r#"{"op":"fly"}"#).unwrap_err().field.as_deref(),
            Some("op")
        );
    }

    #[test]
    fn missing_id_is_rejected_but_salvageable_ids_survive() {
        let line = r#"{"mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":1}"#;
        assert_eq!(req(line).unwrap_err().field.as_deref(), Some("id"));
        let v = parse(r#"{"id":"x","nframes":"bogus"}"#).unwrap();
        assert_eq!(salvage_id(&v).as_deref(), Some("x"));
    }
}
