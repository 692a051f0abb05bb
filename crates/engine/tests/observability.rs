//! Wire tests for the observability surface: the `metrics` and
//! `diagnostics` protocol verbs, driven through `serve_lines` exactly as a
//! client would see them.
//!
//! Counters are engine-process-global: they live in memory only, are *not*
//! persisted through checkpoints or the WAL, and reset to zero on restart
//! (replaying a WAL after `restore_from` re-counts the replayed entries as
//! fresh work).  Diagnostics, by contrast, are pure functions of the
//! serialized sampler state and must be bit-stable across
//! checkpoint→restore — both contracts are pinned below.

use oasis_engine::server::serve_lines;
use oasis_engine::{Engine, FsCheckpointStore, ManualClock, MetricsRegistry};
use serde::json::Json;
use std::io::Cursor;
use std::sync::Arc;

const METHODS: [&str; 4] = ["oasis", "passive", "importance", "stratified"];

fn run_script(engine: &Engine, script: &str) -> Vec<String> {
    let mut output = Vec::new();
    serve_lines(
        engine,
        Cursor::new(script.to_string()),
        &mut output,
        None,
        None,
    )
    .unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Steps each session runs; small relative to the pool so that on the fixed
/// seed every draw hits a distinct item.  That makes `labels_consumed` equal
/// the iteration count, so the Kish bound `ESS ≤ iterations` becomes the
/// wire-checkable `ESS ∈ (0, labels_consumed]` — with label reuse (repeat
/// draws cost no new label) ESS may legitimately exceed `labels_consumed`.
const STEPS: usize = 8;

const POOL_SIZE: usize = 100;

/// A 100-pair pool with a deterministic score ramp, predictions down the
/// middle, and (separately) a hidden truth that correlates with but does not
/// equal the predictions, so `step` runs self-contained.
fn pool_line() -> String {
    let scores: Vec<String> = (0..POOL_SIZE)
        .map(|i| format!("{:.6}", (POOL_SIZE - i) as f64 / (POOL_SIZE + 1) as f64))
        .collect();
    let predictions: Vec<&str> = (0..POOL_SIZE)
        .map(|i| if i < POOL_SIZE / 2 { "true" } else { "false" })
        .collect();
    format!(
        r#"{{"cmd":"load_pool","pool":"p","scores":[{}],"predictions":[{}]}}"#,
        scores.join(","),
        predictions.join(",")
    )
}

fn truth_array() -> String {
    let truth: Vec<&str> = (0..POOL_SIZE)
        .map(|i| i % 5 != 3 && i < POOL_SIZE / 2 + 2)
        .map(|t| if t { "true" } else { "false" })
        .collect();
    format!("[{}]", truth.join(","))
}

fn setup_script() -> String {
    let mut script = format!("{}\n", pool_line());
    let truth = truth_array();
    for method in METHODS {
        script.push_str(&format!(
            concat!(
                r#"{{"cmd":"create_session","session":"{m}","pool":"p","seed":13,"method":"{m}","config":{{"strata_count":3}},"truth":{truth}}}"#,
                "\n",
                r#"{{"cmd":"step","session":"{m}","steps":{steps}}}"#,
                "\n",
            ),
            m = method,
            truth = truth,
            steps = STEPS
        ));
    }
    script
}

#[test]
fn diagnostics_verb_reports_populated_health_for_every_method() {
    let engine = Engine::new();
    let mut script = setup_script();
    for method in METHODS {
        script.push_str(&format!(
            "{{\"cmd\":\"diagnostics\",\"session\":\"{method}\"}}\n"
        ));
    }
    let responses = run_script(&engine, &script);
    assert_eq!(responses.len(), 1 + 2 * METHODS.len() + METHODS.len());

    for (i, method) in METHODS.iter().enumerate() {
        let line = &responses[1 + 2 * METHODS.len() + i];
        let parsed = Json::parse(line).unwrap();
        assert!(parsed.require("ok").unwrap().as_bool().unwrap(), "{line}");
        assert_eq!(
            parsed.require("method").unwrap().as_str().unwrap(),
            *method,
            "{line}"
        );
        let labels_consumed = parsed.require("labels_consumed").unwrap().as_u64().unwrap();
        assert!(labels_consumed > 0, "{line}");

        let diagnostics = parsed.require("diagnostics").unwrap();
        assert_eq!(
            diagnostics.require("method").unwrap().as_str().unwrap(),
            *method
        );
        assert_eq!(
            diagnostics.require("iterations").unwrap().as_u64().unwrap(),
            STEPS as u64
        );
        // Ground-truth-free health: ESS must be positive and can never
        // exceed the labels actually consumed on these fixed-seed scripts.
        let ess = diagnostics
            .require("effective_sample_size")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(ess > 0.0, "{method}: ESS must be positive: {line}");
        assert!(
            ess <= labels_consumed as f64 + 1e-9,
            "{method}: ESS {ess} exceeds labels_consumed {labels_consumed}: {line}"
        );
        let nwv = diagnostics
            .require("normalized_weight_variance")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(nwv >= 0.0, "{method}: {line}");

        // Allocation vs instrumental distribution: stratified methods
        // report one entry per stratum, unstratified ones a single bucket.
        let labels = diagnostics.require("stratum_labels").unwrap();
        let instrumental = diagnostics.require("instrumental").unwrap();
        let expected_strata = match *method {
            "oasis" | "stratified" => 3,
            _ => 1,
        };
        assert_eq!(labels.as_array().unwrap().len(), expected_strata, "{line}");
        assert_eq!(
            instrumental.as_array().unwrap().len(),
            expected_strata,
            "{line}"
        );
        let mass: f64 = instrumental
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.as_f64().unwrap())
            .sum();
        assert!(
            (mass - 1.0).abs() < 1e-9,
            "{method}: instrumental must be a distribution: {line}"
        );

        // Only the adaptive OASIS sampler rebuilds its proposal CDF.
        let rebuilds = diagnostics
            .require("cdf_rebuilds")
            .unwrap()
            .as_u64()
            .unwrap();
        if *method == "oasis" {
            assert!(rebuilds > 0, "{line}");
        } else {
            assert_eq!(rebuilds, 0, "{line}");
        }
    }
}

#[test]
fn metrics_verb_reports_nonzero_counters_and_histograms_for_every_method() {
    let engine = Engine::new();
    let mut script = setup_script();
    script.push_str("{\"cmd\":\"metrics\"}\n");
    let responses = run_script(&engine, &script);
    let line = responses.last().unwrap();
    let parsed = Json::parse(line).unwrap();
    assert!(parsed.require("ok").unwrap().as_bool().unwrap(), "{line}");

    let metrics = parsed.require("metrics").unwrap();
    let counters = metrics.require("counters").unwrap();
    let steps = counters.require("step").unwrap().as_u64().unwrap();
    assert_eq!(steps, (STEPS * METHODS.len()) as u64, "{line}");
    // No durable store attached: the WAL/checkpoint counters stay zero but
    // are still listed, so consumers never need existence checks.
    assert_eq!(
        counters.require("wal_append").unwrap().as_u64().unwrap(),
        0,
        "{line}"
    );

    let latency = metrics.require("latency_us").unwrap();
    for method in METHODS {
        let histogram = latency
            .require(&format!("step.{method}"))
            .unwrap_or_else(|_| panic!("missing step.{method} histogram: {line}"));
        assert_eq!(histogram.require("count").unwrap().as_u64().unwrap(), 1);
        assert!(histogram.require("p99_us").unwrap().as_u64().is_ok());
    }
}

#[test]
fn diagnostics_are_bit_stable_across_checkpoint_and_restore() {
    let engine = Engine::new();
    let mut script = setup_script();
    script.push_str(concat!(
        r#"{"cmd":"checkpoint","session":"oasis"}"#,
        "\n",
        r#"{"cmd":"diagnostics","session":"oasis"}"#,
        "\n",
    ));
    let responses = run_script(&engine, &script);
    let checkpoint_line = &responses[responses.len() - 2];
    let original = Json::parse(responses.last().unwrap()).unwrap();
    let checkpoint = Json::parse(checkpoint_line)
        .unwrap()
        .require("checkpoint")
        .unwrap()
        .render();

    let restore_script = format!(
        "{}\n{}\n",
        format_args!(r#"{{"cmd":"restore","session":"copy","checkpoint":{checkpoint}}}"#),
        r#"{"cmd":"diagnostics","session":"copy"}"#,
    );
    let responses = run_script(&engine, &restore_script);
    assert!(
        responses[0].contains(r#""restored":true"#),
        "{}",
        responses[0]
    );
    let restored = Json::parse(&responses[1]).unwrap();

    // The diagnostics object — ESS, variance, allocation, instrumental,
    // CDF-rebuild count — must render byte-identically: it is a pure
    // function of the serialized state.
    assert_eq!(
        original.require("diagnostics").unwrap().render(),
        restored.require("diagnostics").unwrap().render(),
        "diagnostics drifted across checkpoint/restore"
    );
}

#[test]
fn manual_clock_makes_the_metrics_snapshot_bit_stable() {
    // Two engines over the same script and a frozen manual clock must
    // produce byte-identical metrics responses — nothing in the snapshot
    // (counters, histogram buckets, quantiles) may depend on wall time.
    let render = || {
        let engine =
            Engine::new().with_metrics(MetricsRegistry::with_clock(Box::new(ManualClock::new())));
        let mut script = setup_script();
        script.push_str("{\"cmd\":\"metrics\"}\n");
        run_script(&engine, &script).last().unwrap().clone()
    };
    let first = render();
    assert_eq!(first, render(), "metrics snapshot depends on wall time");
    // With time frozen every latency is exactly zero — pinned, not flaky.
    assert!(
        first.contains(r#""step.oasis":{"count":"1","max_us":"0""#),
        "{first}"
    );
}

#[test]
fn counters_reset_on_restart_and_recount_replayed_wal_entries() {
    let dir = std::env::temp_dir().join(format!("oasis-observability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: durable engine does WAL-logged work; counters are nonzero.
    {
        let engine = Engine::new().with_store(Arc::new(FsCheckpointStore::open(&dir).unwrap()));
        let script = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#,
            "\n",
            r#"{"cmd":"create_session","session":"d","pool":"p","seed":13,"config":{"strata_count":2},"truth":[true,true,false,false]}"#,
            "\n",
            r#"{"cmd":"checkpoint_to","session":"d"}"#,
            "\n",
            r#"{"cmd":"step","session":"d","steps":5}"#,
            "\n",
            r#"{"cmd":"metrics"}"#,
            "\n",
        );
        let responses = run_script(&engine, script);
        let metrics = Json::parse(responses.last().unwrap()).unwrap();
        let counters = metrics
            .require("metrics")
            .unwrap()
            .require("counters")
            .unwrap();
        assert!(counters.require("wal_append").unwrap().as_u64().unwrap() >= 1);
        assert!(
            counters
                .require("checkpoint_write")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 1
        );
    }

    // Phase 2: a fresh engine over the same store starts from zero —
    // counters are process-global, not persisted — then counts the replay.
    // (The pool must be reloaded first: pools are not in the store.)
    let engine = Engine::new().with_store(Arc::new(FsCheckpointStore::open(&dir).unwrap()));
    let script = concat!(
        r#"{"cmd":"metrics"}"#,
        "\n",
        r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#,
        "\n",
        r#"{"cmd":"restore_from","session":"d"}"#,
        "\n",
        r#"{"cmd":"metrics"}"#,
        "\n",
    );
    let responses = run_script(&engine, script);
    let fresh = Json::parse(&responses[0]).unwrap();
    let counters = fresh
        .require("metrics")
        .unwrap()
        .require("counters")
        .unwrap();
    for key in ["propose", "step", "wal_append", "checkpoint_write"] {
        assert_eq!(
            counters.require(key).unwrap().as_u64().unwrap(),
            0,
            "counter {key} must reset on restart"
        );
    }
    assert!(
        responses[2].contains(r#""restored":true"#),
        "{}",
        responses[2]
    );
    let after = Json::parse(&responses[3]).unwrap();
    let counters = after
        .require("metrics")
        .unwrap()
        .require("counters")
        .unwrap();
    assert!(
        counters.require("wal_replay").unwrap().as_u64().unwrap() >= 1,
        "{}",
        responses[2]
    );
    assert!(
        counters
            .require("checkpoint_restore")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1,
        "{}",
        responses[2]
    );

    let _ = std::fs::remove_dir_all(&dir);
}
