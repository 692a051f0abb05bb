//! Self-test of the benchmark: a smoke of every workload at a tiny length,
//! checked against `BENCHMARK.json`, and a demonstration that the
//! correctness check catches a perturbed reference.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use oasis_perfbench::inputs::PoolInput;
use oasis_perfbench::{check, server, wire, Workload};
use serde::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repository_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repository_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.require(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .require(key)
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark binary and parse its last line.
fn run_benchmark(workload: &str, trace: u8) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_oasis-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "3"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"))
}

#[test]
fn every_workload_prints_every_declared_metric_and_fails_nothing() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(section);
        for workload in Workload::ALL {
            let result = run_benchmark(workload.name(), trace);
            let context = format!("{} --trace {trace}: {}", workload.name(), result.render());
            assert_eq!(
                result.require("correct").unwrap(),
                &Json::Bool(true),
                "{context}"
            );
            assert_eq!(
                result.require("failed").unwrap().as_f64().unwrap(),
                0.0,
                "{context}"
            );
            assert!(
                result.require("attempted").unwrap().as_f64().unwrap() >= 1.0,
                "{context}"
            );
            let printed = result.require("metrics").unwrap();
            let Json::Object(printed_map) = printed else {
                panic!("metrics is an object: {context}");
            };
            assert_eq!(printed_map.len(), metrics.len(), "{context}");
            for (name, unit) in &metrics {
                let metric = printed
                    .require(name)
                    .unwrap_or_else(|_| panic!("{name} missing: {context}"));
                assert_eq!(metric.require("unit").unwrap().as_str().unwrap(), unit);
                let value = metric.require("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite(), "{name} = {value}: {context}");
                if trace == 0 {
                    assert!(value > 0.0, "end-to-end {name} must never be 0: {context}");
                }
            }
        }
    }
}

#[test]
fn the_correctness_check_catches_a_perturbed_reference() {
    let root = repository_root();
    let binary = server::build_server(&root).expect("oasis-serve builds");
    let scratch = root.join(".perfbench").join("selftest");
    std::fs::create_dir_all(&scratch).unwrap();
    for workload in [Workload::Annotate, Workload::Durable] {
        let pool = PoolInput::generate(workload.scale(), 3);
        let run = wire::run(&binary, workload, &pool, 3, 0.3, 1, false, &scratch, None).unwrap();
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert_eq!(check::check_run(&run, &pool, None), Vec::<String>::new());
        let caught = check::check_run(&run, &pool, Some(0));
        assert!(
            !caught.is_empty(),
            "{}: flipping the reference's first label went unnoticed",
            workload.name()
        );
    }
    std::fs::remove_dir_all(&scratch).unwrap();
}
