//! Large-pool sharded-session smoke: one logical evaluation bigger than one
//! flat sampler wants to be.  Builds a synthetic 1M-pair pool (set
//! `OASIS_SMOKE_PAIRS` to override), carves it into 64 shards behind a
//! single session, spends a label budget, and prints the merged estimate —
//! the exact AIS estimate, not an approximation, because every proposal
//! weight is corrected by its shard's routing probability at proposal time.
//!
//! CI pins the printed `f_measure` as a golden: the pool is generated from a
//! fixed seed and every step is deterministic IEEE-754 arithmetic, so the
//! line is stable across platforms.
//!
//! Run with: `cargo run --release --example sharded_session`

use oasis::samplers::OasisConfig;
use oasis::ScoredPool;
use oasis_engine::{Engine, Session, SessionCheckpoint, SessionSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic imbalanced pool plus its hidden truth: skewed calibrated
/// scores (most mass near zero — the low-prevalence regime the paper's
/// entity-resolution pools have) with the truth drawn *from* the score, so
/// predictions correlate with but don't perfectly reproduce the labels.
fn synthetic_pool(n: usize, seed: u64) -> (ScoredPool, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scores = Vec::with_capacity(n);
    let mut predictions = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    for _ in 0..n {
        let p = rng.gen::<f64>().powi(3);
        scores.push(p);
        predictions.push(p > 0.5);
        truth.push(rng.gen_bool(p));
    }
    (ScoredPool::new(scores, predictions).unwrap(), truth)
}

fn main() {
    let pairs: usize = std::env::var("OASIS_SMOKE_PAIRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let shards = 64usize;
    let labels = 2_000usize;

    // Timings go to stderr: stdout must be byte-identical across runs (CI
    // pins it), and wall-clock is the one nondeterministic thing here.
    let start = std::time::Instant::now();
    let (pool, truth) = synthetic_pool(pairs, 2017);
    println!("Pool: {pairs} synthetic pairs");
    eprintln!("pool generated in {:.2?}", start.elapsed());

    let engine = Engine::new();
    engine.load_pool("large", pool).expect("load pool");
    let start = std::time::Instant::now();
    engine
        .create_session(SessionSpec {
            config: OasisConfig::default().with_strata_count(10),
            shards: Some(shards),
            truth: Some(truth),
            ..SessionSpec::new("sharded", "large", 42)
        })
        .expect("create sharded session");
    println!("Session: {shards} shards, 10 strata each");
    eprintln!("session built in {:.2?}", start.elapsed());

    let session = engine.session("sharded").expect("exists");
    let start = std::time::Instant::now();
    let estimate = session.lock().step(labels).expect("run");
    let interval = session
        .lock()
        .confidence_interval(0.95)
        .expect("enough samples");
    eprintln!("{labels} labels spent in {:.2?}", start.elapsed());
    println!(
        "estimate after {labels} labels: f_measure={} precision={} recall={}",
        estimate.f_measure, estimate.precision, estimate.recall,
    );
    println!("ci95: [{}, {}]", interval.lower, interval.upper);

    // Checkpoint size and one checkpoint → JSON → restore round trip; on
    // stderr too, since the timing varies from run to run.
    let start = std::time::Instant::now();
    let document = session.lock().checkpoint().to_json_string();
    let checkpoint = SessionCheckpoint::from_json_string(&document).expect("parse checkpoint");
    let restored =
        Session::restore(checkpoint, engine.pool("large").expect("loaded")).expect("restore");
    eprintln!(
        "checkpoint: {} bytes; checkpoint -> restore in {:.2?}",
        document.len(),
        start.elapsed()
    );
    assert_eq!(
        restored.estimate().f_measure.to_bits(),
        estimate.f_measure.to_bits(),
        "a restored session reports the same estimate"
    );
}
