//! The scripted protocol session CI pipes into the `oasis-serve` binary,
//! run here through `serve_lines` so `cargo test` enforces the same pinned
//! output locally.  If this test needs a new golden value, update the
//! matching `grep` in `.github/workflows/ci.yml` too.

use oasis_engine::server::serve_lines;
use oasis_engine::{Engine, FsCheckpointStore};
use std::io::Cursor;
use std::sync::Arc;

const SMOKE_SCRIPT: &str = include_str!("smoke/session.jsonl");
const DURABLE_BEFORE_KILL: &str = include_str!("smoke/durable-before-kill.jsonl");
const DURABLE_AFTER_RESTART: &str = include_str!("smoke/durable-after-restart.jsonl");

/// Golden estimates for the smoke sessions — one OASIS, one passive, one
/// stratified and one sharded-OASIS session over the same pool, seed and
/// step count (the pool + seed are fixed, all arithmetic is deterministic
/// IEEE-754 — no libm in the calibrated-score path — so these are stable
/// across platforms).  One golden per method pins the whole method-dispatch
/// path: sampler construction, the propose/apply state machine, and the
/// estimator; the sharded golden additionally pins shard routing and the
/// exact-merge estimator.
const GOLDEN_OASIS_FRAGMENT: &str = r#""f_measure":0.8605922932779813"#;
const GOLDEN_PASSIVE_FRAGMENT: &str = r#""f_measure":0.8524590163934426"#;
const GOLDEN_STRATIFIED_FRAGMENT: &str = r#""f_measure":0.8864468864468864"#;
const GOLDEN_SHARDED_FRAGMENT: &str = r#""f_measure":0.9313493268593968"#;

#[test]
fn scripted_smoke_session_reproduces_the_golden_estimate_lines() {
    let engine = Engine::new();
    let mut output = Vec::new();
    let shutdown =
        serve_lines(&engine, Cursor::new(SMOKE_SCRIPT), &mut output, None, None).unwrap();
    assert!(shutdown, "the script ends with a shutdown command");

    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 14, "one response per request:\n{text}");
    for line in &lines {
        assert!(line.contains(r#""ok":true"#), "failed response: {line}");
    }
    assert!(
        lines[10].contains(r#""shards":2"#),
        "s4's create response echoes its shard count: {}",
        lines[10]
    );
    for (estimate_line, method, golden) in [
        (lines[3], "oasis", GOLDEN_OASIS_FRAGMENT),
        (lines[6], "passive", GOLDEN_PASSIVE_FRAGMENT),
        (lines[9], "stratified", GOLDEN_STRATIFIED_FRAGMENT),
        (lines[12], "oasis", GOLDEN_SHARDED_FRAGMENT),
    ] {
        assert!(
            estimate_line.contains(golden),
            "{method} estimate drifted from golden: {estimate_line}"
        );
        assert!(
            estimate_line.contains(&format!(r#""method":"{method}""#)),
            "{method}: {estimate_line}"
        );
        assert!(estimate_line.contains(r#""labels_consumed":10"#));
    }
}

/// Goldens for the kill-and-replay script (`durable-before-kill.jsonl` then
/// `durable-after-restart.jsonl` over the same store directory).  Session
/// `d1` is the same pool/seed/step-count as the `s1` smoke session above, so
/// its estimate golden is shared; the confidence-interval golden pins that
/// the variance tracker — not just the point estimate — survives the replay.
const GOLDEN_DURABLE_ESTIMATE_FRAGMENT: &str = GOLDEN_OASIS_FRAGMENT;
const GOLDEN_DURABLE_CI_FRAGMENT: &str = r#""confidence_interval":{"estimate":0.8605922932779809,"level":0.95,"lower":0.7974245813386895"#;

#[test]
fn kill_and_replay_smoke_script_reproduces_the_golden_estimate_and_interval() {
    let dir = std::env::temp_dir().join(format!("oasis-smoke-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: a store-backed engine runs two sessions (one step-driven, one
    // labeled over the wire), durably checkpoints both mid-run, keeps
    // mutating (WAL only), and is dropped without a shutdown — the kill.
    {
        let engine = Engine::new().with_store(Arc::new(FsCheckpointStore::open(&dir).unwrap()));
        let mut output = Vec::new();
        serve_lines(
            &engine,
            Cursor::new(DURABLE_BEFORE_KILL),
            &mut output,
            None,
            None,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(
            text.lines().count(),
            12,
            "one response per request:\n{text}"
        );
        for line in text.lines() {
            assert!(line.contains(r#""ok":true"#), "failed response: {line}");
        }
        // The closing metrics request sees the durable work: 5 + 3 proposals,
        // one WAL append per mutating request, and four checkpoint writes —
        // each create_session registers an initial durable checkpoint, plus
        // the two explicit checkpoint_to requests (u64 counters render as
        // decimal strings on the wire).
        let metrics = text.lines().last().unwrap();
        assert!(metrics.contains(r#""propose":"8""#), "{metrics}");
        assert!(metrics.contains(r#""wal_append":"6""#), "{metrics}");
        assert!(metrics.contains(r#""checkpoint_write":"4""#), "{metrics}");
    }

    // Phase 2: a fresh engine over the same directory replays
    // checkpoint + WAL suffix for both sessions.
    let engine = Engine::new().with_store(Arc::new(FsCheckpointStore::open(&dir).unwrap()));
    let mut output = Vec::new();
    let shutdown = serve_lines(
        &engine,
        Cursor::new(DURABLE_AFTER_RESTART),
        &mut output,
        None,
        None,
    )
    .unwrap();
    assert!(shutdown, "the restart script ends with a shutdown command");
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8, "one response per request:\n{text}");
    for line in &lines {
        assert!(line.contains(r#""ok":true"#), "failed response: {line}");
    }
    // d1 replays its one post-checkpoint step batch; d2 replays its
    // post-checkpoint propose + label batch.
    assert!(lines[1].contains(r#""replayed":1"#), "{}", lines[1]);
    assert!(lines[2].contains(r#""replayed":2"#), "{}", lines[2]);
    assert!(
        lines[3].contains(GOLDEN_DURABLE_ESTIMATE_FRAGMENT),
        "d1 estimate drifted from golden: {}",
        lines[3]
    );
    assert!(
        lines[3].contains(GOLDEN_DURABLE_CI_FRAGMENT),
        "d1 confidence interval drifted from golden: {}",
        lines[3]
    );
    assert!(
        lines[3].contains(r#""variance_tracked":true"#),
        "{}",
        lines[3]
    );
    assert!(lines[5].contains(r#""detail":["#), "{}", lines[5]);
    // Counters reset with the process — the restarted engine's metrics show
    // only the replay (WAL entries re-applied, checkpoints restored), not
    // the pre-kill request counts.
    assert!(lines[6].contains(r#""wal_append":"0""#), "{}", lines[6]);
    assert!(lines[6].contains(r#""wal_replay":"3""#), "{}", lines[6]);
    assert!(
        lines[6].contains(r#""checkpoint_restore":"2""#),
        "{}",
        lines[6]
    );
    assert!(lines[6].contains(r#""rehydration":"2""#), "{}", lines[6]);

    // Parity: a never-crashed engine over the identical command stream must
    // produce byte-identical estimate lines — replay adds nothing and loses
    // nothing.
    let reference_dir =
        std::env::temp_dir().join(format!("oasis-smoke-durable-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&reference_dir);
    let reference =
        Engine::new().with_store(Arc::new(FsCheckpointStore::open(&reference_dir).unwrap()));
    let script = format!(
        "{DURABLE_BEFORE_KILL}{}",
        concat!(
            r#"{"cmd":"estimate","session":"d1"}"#,
            "\n",
            r#"{"cmd":"estimate","session":"d2"}"#,
            "\n",
        )
    );
    let mut output = Vec::new();
    serve_lines(&reference, Cursor::new(script), &mut output, None, None).unwrap();
    let text = String::from_utf8(output).unwrap();
    let reference_lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        reference_lines[12], lines[3],
        "d1 estimate differs from never-crashed run"
    );
    assert_eq!(
        reference_lines[13], lines[4],
        "d2 estimate differs from never-crashed run"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

#[test]
fn unknown_methods_are_rejected_with_a_protocol_error() {
    // The rejection path the smoke script cannot carry (it asserts all-ok):
    // an unknown method is answered with a structured error and the
    // connection keeps serving.
    let engine = Engine::new();
    let script = concat!(
        r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.1],"predictions":[true,false]}"#,
        "\n",
        r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"method":"annealing"}"#,
        "\n",
        r#"{"cmd":"sessions"}"#,
        "\n",
    );
    let mut output = Vec::new();
    serve_lines(&engine, Cursor::new(script), &mut output, None, None).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[1].contains(r#""ok":false"#), "{}", lines[1]);
    assert!(lines[1].contains("annealing"), "{}", lines[1]);
    assert!(lines[2].contains(r#""ok":true"#), "{}", lines[2]);
}
