//! Bench: `oasis-engine` session throughput (steps/sec) for concurrent
//! sessions driven by the scoped-thread worker pool, plus the OASIS
//! proposal-CDF cache: batched proposals pay the O(K) instrumental-
//! distribution refit once per batch instead of once per draw, so the win
//! grows with the stratum count K.
//!
//! The `large_pool_proposals` group is the sharding headline: per-label
//! proposal maintenance on a pool bigger than one flat CDF wants to be,
//! Fenwick-tree shard routing (O(log S) update + draw) against the
//! pre-sharding cost profile (every label dirties the proposal, the next
//! draw rebuilds the whole O(S) CDF).  Defaults to 1M synthetic pairs; set
//! `OASIS_BENCH_LARGE=1` for the 10M-pair run.
//!
//! Every headline number printed by these benches is also recorded to
//! `BENCH_engine.json` (path overridable via `BENCH_ENGINE_JSON`) so CI can
//! archive the run as an artifact.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use er_core::datasets::DatasetProfile;
use experiments::pools::direct_pool;
use oasis::samplers::{CategoricalCdf, FenwickTree, InteractiveSampler, OasisConfig, OasisSampler};
use oasis_engine::protocol::{dispatch, Request};
use oasis_engine::{Engine, MetricsRegistry, SessionJob, SessionSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

const SESSIONS: usize = 8;
const STEPS: usize = 500;

/// Headline numbers accumulated across the bench functions, flushed to
/// `BENCH_engine.json` by the last bench in the group.  Keys map to raw JSON
/// values (already serialised).
static HEADLINES: Mutex<BTreeMap<String, String>> = Mutex::new(BTreeMap::new());

fn record_headline(key: &str, json_value: String) {
    HEADLINES
        .lock()
        .unwrap()
        .insert(key.to_string(), json_value);
}

/// Write the accumulated headlines as a single JSON object.  CI uploads the
/// file as the `BENCH_engine.json` artifact.
fn write_bench_json() {
    let headlines = HEADLINES.lock().unwrap();
    let fields: Vec<String> = headlines
        .iter()
        .map(|(key, value)| format!("\"{key}\":{value}"))
        .collect();
    let path = std::env::var("BENCH_ENGINE_JSON").unwrap_or_else(|_| "BENCH_engine.json".into());
    std::fs::write(&path, format!("{{{}}}\n", fields.join(","))).expect("write bench json");
    println!("bench headline numbers written to {path}");
}

/// Build an engine with `SESSIONS` fresh sessions over one shared pool.
fn build_engine(pool: &experiments::pools::ExperimentPool) -> (Engine, Vec<SessionJob>) {
    let engine = Engine::new();
    engine.load_pool("cora", pool.pool.clone()).unwrap();
    let config = OasisConfig::default().with_strata_count(30);
    let mut jobs = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS as u64 {
        let id = format!("s{i}");
        engine
            .create_session(SessionSpec {
                config: config.clone(),
                truth: Some(pool.truth.clone()),
                ..SessionSpec::new(&id, "cora", 2017 + i)
            })
            .unwrap();
        jobs.push(SessionJob::Steps {
            session: id,
            steps: STEPS,
        });
    }
    (engine, jobs)
}

/// The proposal-CDF cache win: draw `batch` proposals per posterior refresh
/// (one label applied between batches) either one `propose` at a time —
/// every draw after a label pays the O(K) refit — or through
/// `propose_batch`, which refits once.  At large K the difference is the
/// refit cost itself.
fn bench_propose_cdf_cache(c: &mut Criterion) {
    let pool = direct_pool(&DatasetProfile::cora(), 0.05, true, 2017);
    let batch = 64usize;
    let rounds = 16usize;

    let mut group = c.benchmark_group("oasis_propose_cdf_cache");
    group.sample_size(10);
    for strata in [30usize, 240, 480] {
        let config = OasisConfig::default().with_strata_count(strata);
        let base = OasisSampler::new(&pool.pool, config).unwrap();
        // Per-draw refit: alternate propose and apply_label, so every
        // proposal pays the O(K) distribution + CDF rebuild.
        group.bench_function(
            BenchmarkId::new("per_draw_refit", format!("K{strata}")),
            |b| {
                b.iter(|| {
                    let mut sampler = base.clone();
                    let mut rng = StdRng::seed_from_u64(7);
                    for _ in 0..rounds * batch {
                        let proposal = sampler.propose(&pool.pool, &mut rng);
                        sampler.apply_label(&proposal, pool.truth[proposal.item]);
                    }
                    sampler.estimate()
                })
            },
        );
        // Batched: one refit per `batch` draws, labels applied in bulk.
        group.bench_function(
            BenchmarkId::new("batched_refit", format!("K{strata}")),
            |b| {
                b.iter(|| {
                    let mut sampler = base.clone();
                    let mut rng = StdRng::seed_from_u64(7);
                    for _ in 0..rounds {
                        let proposals = sampler.propose_batch(&pool.pool, &mut rng, batch);
                        let labelled: Vec<(&oasis::Proposal, bool)> =
                            proposals.iter().map(|p| (p, pool.truth[p.item])).collect();
                        sampler.apply_labels(labelled);
                    }
                    sampler.estimate()
                })
            },
        );
    }
    group.finish();
}

fn bench_engine_throughput(c: &mut Criterion) {
    let pool = direct_pool(&DatasetProfile::cora(), 0.05, true, 2017);

    // One-off headline number: total steps / wall-clock at each worker count.
    let mut throughput_fields = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (engine, jobs) = build_engine(&pool);
        let start = std::time::Instant::now();
        engine.run_parallel(&jobs, workers).unwrap();
        let seconds = start.elapsed().as_secs_f64();
        let steps_per_sec = (SESSIONS * STEPS) as f64 / seconds;
        println!(
            "engine throughput: {SESSIONS} sessions x {STEPS} steps, {workers} workers -> {steps_per_sec:.0} steps/s"
        );
        throughput_fields.push(format!("\"workers_{workers}\":{steps_per_sec:.0}"));
    }
    record_headline(
        "engine_throughput_steps_per_sec",
        format!("{{{}}}", throughput_fields.join(",")),
    );

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    for workers in [1usize, 4, 8] {
        group.bench_function(
            BenchmarkId::new(format!("{SESSIONS}_sessions"), format!("{workers}_workers")),
            |b| {
                b.iter(|| {
                    // Session state advances across iterations (sessions are
                    // long-lived by design), so rebuild per measurement to
                    // keep the workload comparable.
                    let (engine, jobs) = build_engine(&pool);
                    engine.run_parallel(&jobs, workers).unwrap()
                })
            },
        );
    }
    group.finish();
}

/// An engine with one external (suspend/resume) session over the pool,
/// either fully instrumented (the default registry) or with metrics
/// disabled (every record an early-returning no-op).
fn build_external_engine(pool: &experiments::pools::ExperimentPool, instrumented: bool) -> Engine {
    let engine = if instrumented {
        Engine::new()
    } else {
        Engine::new().with_metrics(MetricsRegistry::disabled())
    };
    engine.load_pool("cora", pool.pool.clone()).unwrap();
    engine
        .create_session(SessionSpec {
            config: OasisConfig::default().with_strata_count(30),
            ..SessionSpec::new("s", "cora", 2017)
        })
        .unwrap();
    engine
}

/// Drive `rounds` batched propose→label round trips through the protocol
/// dispatch path — the exact code the counters and latency timers live on.
/// The session is long-lived across calls; `next_ticket` carries the ticket
/// sequence forward.
fn run_propose_label_rounds(engine: &Engine, rounds: usize, batch: usize, next_ticket: &mut u64) {
    for _ in 0..rounds {
        let outcome = dispatch(
            engine,
            Request::Propose {
                session: "s".to_string(),
                count: batch,
            },
        );
        assert!(!outcome.shutdown);
        let labels: Vec<(u64, bool)> = (*next_ticket..*next_ticket + batch as u64)
            .map(|ticket| (ticket, true))
            .collect();
        *next_ticket += batch as u64;
        dispatch(
            engine,
            Request::Label {
                session: "s".to_string(),
                labels,
            },
        );
    }
}

/// Metrics overhead on the hot path: identical batched-proposal workloads
/// against an instrumented engine and one whose registry is disabled.  The
/// instrumentation budget is <2% — a few relaxed atomic adds and two clock
/// reads per request, amortised over a whole proposal batch.  Both engines
/// are built once and their sessions stay hot; the headline number
/// alternates the two workloads so clock drift and cache effects cancel.
fn bench_metrics_overhead(c: &mut Criterion) {
    let pool = direct_pool(&DatasetProfile::cora(), 0.05, true, 2017);
    let batch = 256usize;
    let rounds = 8usize;

    let instrumented = build_external_engine(&pool, true);
    let disabled = build_external_engine(&pool, false);
    let mut tickets = [0u64; 2];

    // One-off headline number for the PR description / CI log.
    let mut timed = [0f64; 2];
    for _ in 0..8 {
        for (slot, engine) in [(0usize, &instrumented), (1usize, &disabled)] {
            let start = std::time::Instant::now();
            run_propose_label_rounds(engine, rounds, batch, &mut tickets[slot]);
            timed[slot] += start.elapsed().as_secs_f64();
        }
    }
    println!(
        "metrics overhead: instrumented {:.4}s vs disabled {:.4}s -> {:+.2}%",
        timed[0],
        timed[1],
        (timed[0] / timed[1] - 1.0) * 100.0
    );
    record_headline(
        "metrics_overhead_pct",
        format!("{:.2}", (timed[0] / timed[1] - 1.0) * 100.0),
    );

    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(10);
    for (name, engine, slot) in [
        ("instrumented", &instrumented, 0usize),
        ("disabled", &disabled, 1usize),
    ] {
        let mut next_ticket = tickets[slot];
        group.bench_function(BenchmarkId::new("batched_propose_label", name), |b| {
            b.iter(|| {
                run_propose_label_rounds(engine, rounds, batch, &mut next_ticket);
                engine.session("s").unwrap().lock().estimate()
            })
        });
        tickets[slot] = next_ticket;
    }
    group.finish();
}

/// Per-label proposal maintenance cost at a given shard count: one routed
/// shard re-weight plus one shard draw, measured over `rounds` labels.
/// Returns (fenwick ns/label, rebuilt-CDF ns/label).
fn measure_per_label_cost(shards: usize, rounds: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(2017);
    let masses: Vec<f64> = (0..shards).map(|_| 0.001 + rng.gen::<f64>()).collect();
    let updates: Vec<(usize, f64)> = (0..rounds)
        .map(|_| (rng.gen_range(0..shards), 0.001 + rng.gen::<f64>()))
        .collect();
    let mut sink = 0usize;

    // Fenwick routing: O(log S) canonical update + O(log S) descent draw.
    let mut tree = FenwickTree::from_weights(&masses);
    let mut draw_rng = StdRng::seed_from_u64(7);
    let start = Instant::now();
    for &(shard, mass) in &updates {
        tree.set(shard, mass);
        sink ^= tree.sample(&mut draw_rng);
    }
    let fenwick_ns = start.elapsed().as_nanos() as f64 / rounds as f64;

    // Pre-sharding profile: every label dirties the proposal; the next draw
    // pays a full O(S) CDF rebuild.  Cap the rounds — each one is O(S) and
    // the per-label cost is flat in the round count.
    let rebuild_rounds = rounds.min(2_000);
    let mut rebuilt = masses.clone();
    let mut draw_rng = StdRng::seed_from_u64(7);
    let start = Instant::now();
    for &(shard, mass) in &updates[..rebuild_rounds] {
        rebuilt[shard] = mass;
        let cdf = CategoricalCdf::new(&rebuilt);
        sink ^= cdf.sample(&mut draw_rng);
    }
    let rebuild_ns = start.elapsed().as_nanos() as f64 / rebuild_rounds as f64;
    black_box(sink);
    (fenwick_ns, rebuild_ns)
}

/// The sharding headline: per-label proposal cost on a pool too big for a
/// flat rebuild-per-label CDF.  The pool is carved into ~2048-item shards
/// (the sharded sampler's routing granularity: one Fenwick leaf per shard),
/// and each label re-weights its routed shard then draws the next shard.
/// Measuring the same workload at pool size N/10 shows the Fenwick cost is
/// sublinear (near-flat) in pool size while the rebuild cost scales with it.
fn bench_large_pool_proposals(c: &mut Criterion) {
    let large = std::env::var("OASIS_BENCH_LARGE").is_ok_and(|v| v == "1");
    let pairs: usize = if large { 10_000_000 } else { 1_000_000 };
    const SHARD_SIZE: usize = 2048;
    let shards = pairs.div_ceil(SHARD_SIZE);
    let small_shards = (pairs / 10).div_ceil(SHARD_SIZE);
    let rounds = 20_000usize;

    let (fenwick_small_ns, rebuild_small_ns) = measure_per_label_cost(small_shards, rounds);
    let (fenwick_ns, rebuild_ns) = measure_per_label_cost(shards, rounds);
    println!(
        "large-pool proposals: {pairs} pairs / {shards} shards -> fenwick {fenwick_ns:.0} ns/label vs rebuilt CDF {rebuild_ns:.0} ns/label ({:.1}x)",
        rebuild_ns / fenwick_ns
    );
    println!(
        "  sublinearity: pool x10 ({} -> {pairs} pairs) scales fenwick x{:.2}, rebuild x{:.2}",
        pairs / 10,
        fenwick_ns / fenwick_small_ns,
        rebuild_ns / rebuild_small_ns
    );
    record_headline(
        "large_pool_proposals",
        format!(
            "{{\"pairs\":{pairs},\"shards\":{shards},\"fenwick_ns_per_label\":{fenwick_ns:.0},\"rebuild_ns_per_label\":{rebuild_ns:.0},\"speedup\":{:.1},\"fenwick_scale_x10_pool\":{:.2},\"rebuild_scale_x10_pool\":{:.2}}}",
            rebuild_ns / fenwick_ns,
            fenwick_ns / fenwick_small_ns,
            rebuild_ns / rebuild_small_ns
        ),
    );

    let mut rng = StdRng::seed_from_u64(2017);
    let masses: Vec<f64> = (0..shards).map(|_| 0.001 + rng.gen::<f64>()).collect();
    let mut group = c.benchmark_group("large_pool_proposals");
    group.sample_size(10);
    group.bench_function(
        BenchmarkId::new("fenwick_update_draw", format!("{shards}_shards")),
        |b| {
            let mut tree = FenwickTree::from_weights(&masses);
            let mut rng = StdRng::seed_from_u64(11);
            b.iter(|| {
                let shard = rng.gen_range(0..shards);
                tree.set(shard, 0.001 + rng.gen::<f64>());
                tree.sample(&mut rng)
            })
        },
    );
    group.bench_function(
        BenchmarkId::new("rebuilt_cdf_draw", format!("{shards}_shards")),
        |b| {
            let mut rebuilt = masses.clone();
            let mut rng = StdRng::seed_from_u64(11);
            b.iter(|| {
                let shard = rng.gen_range(0..shards);
                rebuilt[shard] = 0.001 + rng.gen::<f64>();
                CategoricalCdf::new(&rebuilt).sample(&mut rng)
            })
        },
    );
    group.finish();

    // Last bench in the group: flush every recorded headline to disk.
    write_bench_json();
}

criterion_group!(
    benches,
    bench_engine_throughput,
    bench_propose_cdf_cache,
    bench_metrics_overhead,
    bench_large_pool_proposals
);
criterion_main!(benches);
