//! Metrics from a run, and the result line.

use crate::layers::LayerValues;
use crate::stats::{median, ns_to_us, quantile};
use crate::wire::WireRun;
use serde::json::Json;
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (shown next to percentiles), if any.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: None,
    }
}

fn sampled(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: Some(samples),
    }
}

fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &WireRun) -> Vec<Metric> {
    let cycles = ns_to_us(&run.cycles_ns);
    let estimates = ns_to_us(&run.estimates_ns);
    vec![
        sampled("setup_s", "s", median(&run.setup_s), run.setup_s.len()),
        sampled("cycle_p50_us", "us", quantile(&cycles, 0.5), cycles.len()),
        sampled("cycle_p95_us", "us", quantile(&cycles, 0.95), cycles.len()),
        metric(
            "cycles_per_s",
            "1/s",
            per(cycles.len() as f64, run.window_s),
        ),
        metric(
            "steps_per_s",
            "1/s",
            per(run.iterations as f64, run.window_s),
        ),
        sampled("estimate_p50_us", "us", median(&estimates), estimates.len()),
        metric(
            "server_cpu_us_per_req",
            "us",
            per(run.proc.cpu_us, run.requests.len() as f64),
        ),
        metric(
            "server_rss_peak_mb",
            "MB",
            run.proc.vm_hwm_kb as f64 / 1024.0,
        ),
    ]
}

fn counter(snapshot: &Json, name: &str) -> f64 {
    snapshot
        .get("counters")
        .and_then(|counters| counters.get(name))
        .and_then(|value| value.as_u64().ok())
        .unwrap_or(0) as f64
}

/// Mean of a server latency histogram over the window, milliseconds.
fn histogram_mean_ms(run: &WireRun, name: &str) -> f64 {
    let read = |snapshot: &Json, field: &str| -> f64 {
        snapshot
            .get("latency_us")
            .and_then(|histograms| histograms.get(name))
            .and_then(|histogram| histogram.get(field))
            .and_then(|value| value.as_u64().ok())
            .unwrap_or(0) as f64
    };
    let count = read(&run.metrics_after, "count") - read(&run.metrics_before, "count");
    let sum_us = read(&run.metrics_after, "sum_us") - read(&run.metrics_before, "sum_us");
    per(sum_us, count) / 1e3
}

fn counter_delta(run: &WireRun, name: &str) -> f64 {
    counter(&run.metrics_after, name) - counter(&run.metrics_before, name)
}

/// Client round trip minus the server's logged `latency_us`, per request,
/// for requests of client `only_client` (all clients when `None`).
/// Requests are paired with events per session, in order.
fn transport_gaps_us(run: &WireRun, only_client: Option<usize>) -> Vec<f64> {
    let mut events: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    for line in &run.log_events {
        let Ok(event) = Json::parse(line) else {
            continue;
        };
        let (Some(Json::String(session)), Some(Json::String(verb)), Some(latency)) = (
            event.get("session"),
            event.get("verb"),
            event.get("latency_us").and_then(|v| v.as_u64().ok()),
        ) else {
            continue;
        };
        if verb != "create_session" {
            events
                .entry(session.clone())
                .or_default()
                .push((verb.clone(), latency as f64));
        }
    }
    let mut next: BTreeMap<&str, usize> = BTreeMap::new();
    let mut gaps = Vec::new();
    for record in &run.requests {
        let session = run.sessions[record.session].spec.id.as_str();
        let cursor = next.entry(session).or_default();
        let Some((verb, latency_us)) = events.get(session).and_then(|list| list.get(*cursor))
        else {
            continue;
        };
        *cursor += 1;
        if verb == record.verb.as_str() && only_client.is_none_or(|c| c == record.client) {
            gaps.push(record.rtt_ns as f64 / 1e3 - latency_us);
        }
    }
    gaps
}

/// The per-layer metrics of a traced run: wire-level readings of the
/// untraced window, log-matched readings of the traced window, and the
/// in-process ladder.
pub fn per_layer(untraced: &WireRun, traced: &WireRun, ladder: &LayerValues) -> Vec<Metric> {
    let layer = |name: &'static str, unit: &'static str| {
        metric(name, unit, ladder.get(name).copied().unwrap_or(0.0))
    };
    let labels = untraced.iterations as f64;
    let requests = untraced.requests.len() as f64;
    let response_bytes: f64 = untraced
        .requests
        .iter()
        .map(|record| record.response_bytes as f64)
        .sum();
    let client_reads: f64 = untraced
        .requests
        .iter()
        .map(|record| record.client_reads as f64)
        .sum();
    // `wchar` counts pipe writes but not socket sends, so responses are
    // taken out only where they went through stdout.
    let written = untraced.proc.wchar as f64 - if untraced.stdio { response_bytes } else { 0.0 };
    let steps_ms: Vec<f64> = untraced
        .step_requests_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let gaps = transport_gaps_us(traced, None);
    let waits = transport_gaps_us(traced, Some(0));
    let untraced_p50 = median(&ns_to_us(&untraced.cycles_ns));
    let traced_p50 = median(&ns_to_us(&traced.cycles_ns));
    vec![
        layer("samplers.oasis.propose_ns", "ns"),
        layer("samplers.oasis.apply_label_ns", "ns"),
        layer("samplers.oasis.step_ns", "ns"),
        layer("samplers.passive.step_ns", "ns"),
        layer("samplers.importance.step_ns", "ns"),
        layer("samplers.stratified.step_ns", "ns"),
        layer("samplers.oasis_k64.step_ns", "ns"),
        layer("samplers.oasis.cdf_rebuilds_per_label", "count"),
        layer("estimate.ns", "ns"),
        layer("session.propose_ns", "ns"),
        layer("session.apply_labels_ns", "ns"),
        layer("session.step_ns_per_step", "ns"),
        layer("session.self_ns_per_label", "ns"),
        layer("engine.session_lookup_ns", "ns"),
        layer("store.wal_append_us", "us"),
        metric(
            "store.checkpoint_write_ms",
            "ms",
            histogram_mean_ms(untraced, "checkpoint.write"),
        ),
        metric(
            "store.rehydrate_ms",
            "ms",
            histogram_mean_ms(untraced, "rehydrate"),
        ),
        layer("store.checkpoint_bytes", "bytes"),
        metric(
            "store.wal_appends_per_label",
            "count",
            per(counter_delta(untraced, "wal_append"), labels),
        ),
        metric(
            "store.evictions_per_klabel",
            "count",
            per(counter_delta(untraced, "eviction") * 1e3, labels),
        ),
        metric(
            "store.rehydrations_per_klabel",
            "count",
            per(counter_delta(untraced, "rehydration") * 1e3, labels),
        ),
        metric(
            "store.bytes_written_per_label",
            "bytes",
            per(written, labels),
        ),
        layer("protocol.parse_ns.propose", "ns"),
        layer("protocol.parse_ns.label", "ns"),
        layer("protocol.parse_ns.step", "ns"),
        layer("protocol.parse_ns.estimate", "ns"),
        layer("protocol.dispatch_ns.propose", "ns"),
        layer("protocol.dispatch_ns.label", "ns"),
        layer("protocol.dispatch_ns.step", "ns"),
        layer("protocol.dispatch_ns.estimate", "ns"),
        layer("protocol.render_ns", "ns"),
        layer("protocol.load_pool_parse_ms", "ms"),
        metric(
            "protocol.response_bytes_per_req",
            "bytes",
            per(response_bytes, requests),
        ),
        layer("metrics.overhead_ns_per_req", "ns"),
        sampled(
            "transport.overhead_us_p50",
            "us",
            quantile(&gaps, 0.5),
            gaps.len(),
        ),
        sampled(
            "transport.wait_us_p95",
            "us",
            quantile(&waits, 0.95),
            waits.len(),
        ),
        metric(
            "transport.write_syscalls_per_resp",
            "count",
            per(untraced.proc.syscw as f64, requests),
        ),
        metric(
            "transport.read_syscalls_per_req",
            "count",
            per(untraced.proc.syscr as f64, requests),
        ),
        metric(
            "transport.client_reads_per_resp",
            "count",
            per(client_reads, requests),
        ),
        sampled(
            "client.step_req_p50_ms",
            "ms",
            quantile(&steps_ms, 0.5),
            steps_ms.len(),
        ),
        sampled(
            "client.step_req_p95_ms",
            "ms",
            quantile(&steps_ms, 0.95),
            steps_ms.len(),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            per((traced_p50 - untraced_p50) * 100.0, untraced_p50),
        ),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut values = Json::object();
    for metric in metrics {
        let mut entry = Json::object();
        entry.set("value", Json::Number(metric.value));
        entry.set("unit", Json::String(metric.unit.to_string()));
        values.set(metric.name, entry);
    }
    let mut line = Json::object();
    line.set("correct", Json::Bool(correct));
    line.set("attempted", Json::Number(attempted as f64));
    line.set("failed", Json::Number(failed as f64));
    line.set("metrics", values);
    line.render()
}
