//! Hostile-input properties of the request path: valid `sim`, `batch`
//! and control lines, with bytes flipped, inserted or deleted and the
//! result truncated, fed to `Service::handle_line_sync`. Nothing may
//! panic, and every non-empty line must get exactly one reply that
//! parses as JSON and carries a `status`.

use proptest::collection::vec;
use proptest::prelude::*;
use scperf_serve::json::{parse, Json};
use scperf_serve::{Service, ServiceConfig};

/// Valid lines to mutate. The sims carry a deadline, so a mutation
/// that raises `nframes` still finishes quickly.
const BASES: [&str; 7] = [
    r#"{"id":"s","mapping":["cpu0","cpu1","hw","cpu0","cpu1"],"nframes":1,"clock_ns":12.5,"rtos_cycles":40,"hw_k":0.25,"deadline_ms":250,"report":true,"metrics":true,"timing":true}"#,
    r#"{"id":"b","op":"batch","scenarios":[{"mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":1,"deadline_ms":250},{"mapping":["hw","cpu1","cpu0","hw","cpu1"],"nframes":2,"hw_k":0.5,"deadline_ms":250}]}"#,
    r#"{"id":"u","mapping":["cpu0","cpu0","cpu0","cpu0","cpu0"],"nframes":1,"deadline_ms":250,"note":"é😀\n\"x\""}"#,
    r#"{"op":"ping","id":"p"}"#,
    r#"{"op":"stats","id":"st","reset":true}"#,
    r#"{"op":"telemetry","id":"t"}"#,
    r#"{"op":"shutdown","id":"bye"}"#,
];

/// Applies `(kind, position, byte)` edits in order — 0 flips the byte
/// at `position` (xor with a non-zero mask), 1 inserts `byte` there,
/// 2 deletes it — then keeps the first `keep` bytes when given. Invalid
/// UTF-8 is replaced, as no frontend hands the service anything but a
/// `&str`.
fn mutate(base: &str, edits: &[(u8, u32, u8)], keep: Option<u32>) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for &(kind, position, byte) in edits {
        let at = position as usize % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] ^= byte | 1,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    if let Some(keep) = keep {
        bytes.truncate(keep as usize % (bytes.len() + 1));
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn every_mutated_line_gets_one_json_reply_with_a_status(
        base in 0..BASES.len(),
        edits in vec((0_u8..3, any::<u32>(), any::<u8>()), 0..=4),
        truncate in any::<bool>(),
        keep in any::<u32>(),
    ) {
        let line = mutate(BASES[base], &edits, truncate.then_some(keep));
        let svc = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (reply, _) = svc.handle_line_sync(&line);
        if line.trim().is_empty() {
            prop_assert!(reply.is_none(), "an empty line got {reply:?}");
            return Ok(());
        }
        let reply = reply.ok_or_else(|| TestCaseError::fail(format!("no reply to {line:?}")))?;
        let v = parse(&reply)
            .map_err(|e| TestCaseError::fail(format!("reply {reply:?} to {line:?}: {e}")))?;
        prop_assert!(
            matches!(v.get("status"), Some(Json::Str(_))),
            "reply {reply:?} to {line:?} has no status"
        );
    }
}

#[test]
fn mutation_covers_every_edit_kind() {
    let base = r#"{"op":"ping"}"#;
    assert_eq!(mutate(base, &[], None), base);
    assert_eq!(mutate(base, &[(0, 0, 1)], None), r#"z"op":"ping"}"#);
    assert_eq!(mutate(base, &[(1, 1, b' ')], None), r#"{ "op":"ping"}"#);
    assert_eq!(mutate(base, &[(2, 0, 0)], None), r#""op":"ping"}"#);
    assert_eq!(mutate(base, &[], Some(5)), r#"{"op""#);
}
