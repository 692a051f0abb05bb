//! Cross-version restore: a store directory written in the
//! `oasis-engine/checkpoint-v1` format (inside `store-v1` envelopes) must
//! keep restoring, continue bit-identically with a run that was never
//! interrupted, and migrate to the compact `checkpoint-v2` format at its
//! next checkpoint.
//!
//! `fixtures/v1-store/` was written by running `fixtures/v1-create.jsonl`
//! through `oasis-serve --store` as of the last v1 release.  It holds three
//! sessions over one 240-pair pool:
//!
//! * `ext` — external OASIS, three labels in, one ticket still pending;
//! * `strat` — stratified with a ground-truth oracle, plus one `step` record
//!   in its WAL beyond the checkpoint;
//! * `shard` — OASIS with a ground-truth oracle over `shards: 4`.
//!
//! `fixtures/v1-restore.jsonl` is the script CI pipes into the release
//! binary over a copy of the directory; keep the goldens below in sync with
//! the `grep`s in `.github/workflows/ci.yml`.

use oasis_engine::server::serve_lines;
use oasis_engine::{Engine, FsCheckpointStore, SessionCheckpoint};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const CREATE: &str = include_str!("fixtures/v1-create.jsonl");
const RESTORE: &str = include_str!("fixtures/v1-restore.jsonl");
const FIXTURE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1-store");
const SESSIONS: [&str; 3] = ["ext", "strat", "shard"];

/// The estimate each session reports right after `restore_from`.
const GOLDEN_F_MEASURES: [&str; 3] = [
    r#""f_measure":0.42231671760269673"#,
    r#""f_measure":0.5641769398114576"#,
    r#""f_measure":0.6848701755558221"#,
];

/// Work done after the restore point: the pending ticket is labelled,
/// fresh proposals are labelled, and both oracle sessions step on.
const CONTINUE: &str = r#"{"cmd":"label","session":"ext","labels":[{"ticket":3,"label":false}]}
{"cmd":"propose","session":"ext","count":2}
{"cmd":"label","session":"ext","labels":[{"ticket":4,"label":true},{"ticket":5,"label":false}]}
{"cmd":"step","session":"strat","steps":30}
{"cmd":"step","session":"shard","steps":40}
{"cmd":"estimate","session":"ext"}
{"cmd":"estimate","session":"strat"}
{"cmd":"estimate","session":"shard"}
{"cmd":"diagnostics","session":"shard"}
"#;

fn serve(engine: &Engine, script: &str) -> Vec<String> {
    let mut output = Vec::new();
    serve_lines(engine, Cursor::new(script), &mut output, None, None).unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// A private copy of the fixture store: opening a store may write to it.
fn fixture_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-v1-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(FIXTURE_DIR).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

fn store_engine(dir: &Path) -> Engine {
    Engine::new().with_store(Arc::new(FsCheckpointStore::open(dir).unwrap()))
}

fn load_pool_line() -> &'static str {
    RESTORE.lines().next().unwrap()
}

fn restore_all(engine: &Engine) {
    let mut script = format!("{}\n", load_pool_line());
    for id in SESSIONS {
        script.push_str(&format!(
            "{{\"cmd\":\"restore_from\",\"session\":\"{id}\"}}\n"
        ));
    }
    for line in serve(engine, &script) {
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
}

fn checkpoints(engine: &Engine) -> Vec<SessionCheckpoint> {
    SESSIONS
        .iter()
        .map(|id| engine.session(id).unwrap().lock().checkpoint())
        .collect()
}

#[test]
fn the_ci_restore_script_reproduces_the_golden_estimates() {
    let dir = fixture_copy("script");
    let lines = serve(&store_engine(&dir), RESTORE);
    assert_eq!(lines.len(), 8, "{lines:#?}");
    for line in &lines {
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    assert!(lines[2].contains(r#""replayed":1"#), "{}", lines[2]);
    for (line, golden) in lines[4..7].iter().zip(GOLDEN_F_MEASURES) {
        assert!(line.contains(golden), "{golden} missing from {line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_sessions_continue_bit_identically_and_migrate_to_v2() {
    // Uninterrupted: the creating script (minus its store verbs) followed
    // by the continuation, on an engine without a store.
    let reference = Engine::new();
    let create: String = CREATE
        .lines()
        .filter(|line| !line.contains(r#""cmd":"checkpoint_to""#))
        .map(|line| format!("{line}\n"))
        .collect();
    serve(&reference, &create);
    let expected = serve(&reference, CONTINUE);

    // Interrupted: restore the v1 store, then the same continuation.
    let dir = fixture_copy("continue");
    let engine = store_engine(&dir);
    restore_all(&engine);
    let resumed = serve(&engine, CONTINUE);
    assert_eq!(resumed, expected);
    assert_eq!(checkpoints(&engine), checkpoints(&reference));

    // Re-checkpointing writes compact v2 documents...
    for id in SESSIONS {
        let line = serve(
            &engine,
            &format!("{{\"cmd\":\"checkpoint_to\",\"session\":\"{id}\"}}\n"),
        );
        assert!(line[0].contains(r#""ok":true"#), "{}", line[0]);
        let document = std::fs::read_to_string(dir.join(format!("{id}.checkpoint.json"))).unwrap();
        assert!(
            document.contains(r#""format":"oasis-engine/checkpoint-v2""#),
            "{id}: {document}"
        );
        assert!(!document.contains("allocations"), "{id}: {document}");
        assert!(!document.contains("[false"), "{id}: {document}");
    }

    // ...that restore to the same state.
    let migrated = store_engine(&dir);
    restore_all(&migrated);
    assert_eq!(checkpoints(&migrated), checkpoints(&engine));
    let more = "{\"cmd\":\"step\",\"session\":\"shard\",\"steps\":25}\n\
                {\"cmd\":\"estimate\",\"session\":\"shard\"}\n";
    assert_eq!(serve(&migrated, more), serve(&engine, more));
    let _ = std::fs::remove_dir_all(&dir);
}
