//! Property-based fuzzing at the protocol boundary, plus lease-expiry and
//! checkpoint round-trip properties.
//!
//! The dispatcher's contract with untrusted clients: *every* input line —
//! arbitrary bytes, truncated JSON, pathological nesting, junk interleaved
//! with real traffic — yields exactly one structured response (`ok:false`
//! with a `kind` tag on rejection), never a panic, and never wedges the
//! sessions being served on the same stream.

use oasis_engine::guard::guarded_dispatch;
use oasis_engine::protocol::Request;
use oasis_engine::server::serve_lines;
use oasis_engine::{ClientPolicy, ConnState, Engine, ManualClock};
use proptest::prelude::*;
use serde::json::Json;
use std::io::Cursor;
use std::sync::Arc;

/// Drive `lines` through the line server and return one response per
/// non-blank input line.
fn serve(engine: &Engine, lines: &[String]) -> Vec<String> {
    let mut script = lines.join("\n");
    script.push('\n');
    let mut output = Vec::new();
    serve_lines(engine, Cursor::new(script), &mut output, None, None)
        .expect("transport must not error");
    String::from_utf8(output)
        .expect("responses must be UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Junk line strategy: arbitrary bytes rendered as lossy UTF-8 (newlines
/// stripped so each sample stays one protocol line).  The vendored proptest
/// has no `prop_oneof!`, so a selector byte picks the corruption regime:
/// raw bytes, JSON punctuation soup, or a mutilated real request.
fn junk_line() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(any::<u8>(), 0..160),
        any::<u8>(),
        any::<u16>(),
    )
        .prop_map(|(bytes, mode, cut)| {
            let line = match mode % 3 {
                0 => String::from_utf8_lossy(&bytes).into_owned(),
                1 => bytes
                    .iter()
                    .map(|b| b"{}[]:,\"truefalsnu0123456789.-eE "[(*b as usize) % 31] as char)
                    .collect(),
                _ => {
                    let valid = r#"{"cmd":"step","session":"s","steps":1}"#;
                    let cut = (cut as usize) % valid.len();
                    format!("{}{}", &valid[..cut], String::from_utf8_lossy(&bytes))
                }
            };
            line.replace(['\n', '\r'], " ")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_lines_always_get_one_structured_response(
        lines in prop::collection::vec(junk_line(), 1..12),
    ) {
        // A junk line that happens to spell "shutdown" would legitimately
        // stop the loop early; astronomically unlikely, but exclude it so
        // the one-response-per-line invariant is exact.
        let lines: Vec<String> = lines
            .into_iter()
            .filter(|l| !l.contains("shutdown") && !l.trim().is_empty())
            .collect();
        let engine = Engine::new();
        let mut all = lines.clone();
        all.push(r#"{"cmd":"sessions"}"#.to_string());
        let responses = serve(&engine, &all);
        prop_assert_eq!(responses.len(), all.len(), "one response per line");
        for (line, response) in lines.iter().zip(&responses) {
            prop_assert!(
                response.starts_with('{') && response.contains(r#""ok":"#),
                "unstructured response to {line:?}: {response:?}"
            );
            if response.contains(r#""ok":false"#) {
                prop_assert!(
                    response.contains(r#""kind":"#),
                    "rejection without a kind tag: {response:?}"
                );
            }
        }
        // The server survived the abuse and still answers real requests.
        prop_assert!(responses.last().unwrap().contains(r#""ok":true"#));
    }

    #[test]
    fn pathological_nesting_is_rejected_not_stack_overflowed(
        depth in 1usize..600,
        close in any::<bool>(),
    ) {
        let mut line = format!(r#"{{"cmd":{}"#, "[".repeat(depth));
        if close {
            line.push_str(&"]".repeat(depth));
            line.push('}');
        }
        let engine = Engine::new();
        let responses = serve(
            &engine,
            &[line, r#"{"cmd":"sessions"}"#.to_string()],
        );
        prop_assert!(responses[0].contains(r#""ok":false"#), "{}", responses[0]);
        prop_assert!(responses[1].contains(r#""ok":true"#), "{}", responses[1]);
    }

    #[test]
    fn junk_interleaved_with_real_traffic_leaves_sessions_usable(
        junk in prop::collection::vec(junk_line(), 1..8),
        interleave_at in any::<u16>(),
    ) {
        let real = [
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":9,"config":{"strata_count":2},"truth":[true,false,false,true]}"#,
            r#"{"cmd":"step","session":"s","steps":25}"#,
            r#"{"cmd":"estimate","session":"s"}"#,
        ];
        // Splice the junk block between two real requests (never after the
        // final estimate, which the assertions below read).  Junk can spell
        // verbs by accident only if it parses as a JSON object with a string
        // "cmd" field — the mutilated-request regime never survives parsing
        // with its tail of random bytes — so the real session is unaffected.
        let at = (interleave_at as usize) % real.len();
        let mut lines: Vec<String> = Vec::new();
        lines.extend(real[..at].iter().map(|s| s.to_string()));
        lines.extend(
            junk.iter()
                .filter(|l| !l.contains("shutdown") && !l.trim().is_empty())
                .cloned(),
        );
        lines.extend(real[at..].iter().map(|s| s.to_string()));

        let engine = Engine::new();
        let responses = serve(&engine, &lines);
        prop_assert_eq!(responses.len(), lines.len());
        let estimate = responses.last().unwrap();
        prop_assert!(estimate.contains(r#""ok":true"#), "{}", estimate);
        prop_assert!(estimate.contains(r#""f_measure":"#), "{}", estimate);
    }

    #[test]
    fn guarded_dispatch_never_panics_and_never_leaks_past_auth(
        junk in prop::collection::vec(junk_line(), 1..8),
    ) {
        let engine = Engine::new();
        let policy = ClientPolicy::new().with_auth_token("secret").with_rate_limit(2);
        let mut conn = ConnState::default();
        for line in &junk {
            // Lines that don't even parse never reach the guard; the rest
            // must come back unauthorized — junk cannot guess the token.
            if let Ok(request) = Request::parse(line) {
                if matches!(&request, Request::Auth { token } if token == "secret") {
                    continue; // junk spelling the exact secret: not this universe
                }
                let rendered = guarded_dispatch(&engine, Some(&policy), &mut conn, request)
                    .response
                    .render();
                prop_assert!(rendered.contains(r#""ok":false"#), "{rendered}");
                prop_assert!(!conn.authenticated);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn leases_expire_exactly_at_their_deadline(
        timeout in 1u64..10_000,
        advance in 0u64..20_000,
    ) {
        let clock = Arc::new(ManualClock::new());
        let engine = Engine::new().with_lease_clock(Arc::clone(&clock) as _);
        let setup: Vec<String> = vec![
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#.to_string(),
            format!(
                r#"{{"cmd":"create_session","session":"s","pool":"p","seed":3,"config":{{"strata_count":2}},"lease_timeout_us":{timeout}}}"#
            ),
            r#"{"cmd":"propose","session":"s","count":2}"#.to_string(),
        ];
        for response in serve(&engine, &setup) {
            prop_assert!(response.contains(r#""ok":true"#), "{response}");
        }
        clock.advance(advance);
        let response = &serve(&engine, &[r#"{"cmd":"expire_leases","session":"s"}"#.to_string()])[0];
        if advance >= timeout {
            prop_assert!(
                response.contains(r#""expired":["0","1"]"#),
                "t={timeout} dt={advance}: {response}"
            );
            prop_assert!(response.contains(r#""pending":0"#), "{response}");
        } else {
            prop_assert!(
                response.contains(r#""expired":[]"#),
                "t={timeout} dt={advance}: {response}"
            );
            prop_assert!(response.contains(r#""pending":2"#), "{response}");
        }
    }

    #[test]
    fn checkpoint_restore_round_trips_bit_for_bit(
        // Seeds ride the wire as JSON numbers (f64), so the protocol's
        // contract covers exactly-representable integers: < 2^53.
        seed in 0u64..(1u64 << 53),
        steps in 0usize..50,
        method_selector in 0usize..4,
    ) {
        let method = ["oasis", "passive", "importance", "stratified"][method_selector];
        let engine = Engine::new();
        let script: Vec<String> = vec![
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.8,0.6,0.4,0.2,0.1],"predictions":[true,true,true,false,false,false]}"#.to_string(),
            format!(
                r#"{{"cmd":"create_session","session":"a","pool":"p","seed":{seed},"method":"{method}","config":{{"strata_count":2}},"truth":[true,false,true,false,false,true]}}"#
            ),
            format!(r#"{{"cmd":"step","session":"a","steps":{steps}}}"#),
            r#"{"cmd":"checkpoint","session":"a"}"#.to_string(),
            r#"{"cmd":"estimate","session":"a"}"#.to_string(),
        ];
        let responses = serve(&engine, &script);
        for response in &responses {
            prop_assert!(response.contains(r#""ok":true"#), "{response}");
        }
        // Checkpoints and estimates embed the session name; normalize it so
        // the comparison sees only sampler/RNG/estimator state.
        let checkpoint = Json::parse(&responses[3])
            .unwrap()
            .get("checkpoint")
            .unwrap()
            .render()
            .replace(r#""session":"a""#, r#""session":"b""#);
        let estimate_a = responses[4].replace(r#""session":"a""#, r#""session":"b""#);

        // Restore the serialized state into a fresh engine under a new name:
        // the estimate — point value and confidence interval — must be
        // byte-identical, and re-checkpointing must reproduce the bytes.
        let other = Engine::new();
        let script: Vec<String> = vec![
            // Checkpoints reference their pool; the fresh engine loads it first.
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.8,0.6,0.4,0.2,0.1],"predictions":[true,true,true,false,false,false]}"#.to_string(),
            format!(r#"{{"cmd":"restore","session":"b","checkpoint":{checkpoint}}}"#),
            r#"{"cmd":"estimate","session":"b"}"#.to_string(),
            r#"{"cmd":"checkpoint","session":"b"}"#.to_string(),
        ];
        let responses = serve(&other, &script);
        prop_assert!(responses[1].contains(r#""restored":true"#), "{}", responses[1]);
        prop_assert_eq!(&responses[2], &estimate_a);
        let round_tripped = Json::parse(&responses[3])
            .unwrap()
            .get("checkpoint")
            .unwrap()
            .render();
        prop_assert_eq!(round_tripped, checkpoint);
    }
}

/// Regression for the framing overflow path: a line longer than
/// [`MAX_LINE_BYTES`] must yield the *structured* `kind:"line_too_long"`
/// rejection (clients need to tell a framing overflow apart from malformed
/// JSON), and the very next request on the same stream must still be
/// served — the oversized line is discarded, never buffered whole.
#[test]
fn overlong_lines_get_a_structured_kind_and_do_not_wedge_the_stream() {
    use oasis_engine::server::MAX_LINE_BYTES;

    let engine = Engine::new();
    let mut script = Vec::from(&br#"{"cmd":"sessions"}"#[..]);
    script.push(b'\n');
    let overlong_from = script.len();
    script.resize(overlong_from + MAX_LINE_BYTES + 1024, b'x');
    script.extend_from_slice(b"\n{\"cmd\":\"sessions\"}\n");

    let mut output = Vec::new();
    serve_lines(&engine, Cursor::new(script), &mut output, None, None)
        .expect("transport must not error");
    let text = String::from_utf8(output).expect("responses must be UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one response per line:\n{text}");
    assert!(lines[0].contains(r#""ok":true"#), "{}", lines[0]);
    assert!(lines[1].contains(r#""ok":false"#), "{}", lines[1]);
    assert!(
        lines[1].contains(r#""kind":"line_too_long""#),
        "overflow must be machine-distinguishable from a parse error: {}",
        lines[1]
    );
    assert!(
        lines[2].contains(r#""ok":true"#),
        "the stream must keep serving after an overlong line: {}",
        lines[2]
    );
}
