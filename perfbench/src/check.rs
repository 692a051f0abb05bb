//! The correctness check: every session's request stream replayed through
//! the `oasis` library alone — no engine, no protocol — at the same seed,
//! config and label sequence.  Every proposal the server issued must be the
//! reference's proposal, and every estimate it served (label and step
//! responses, `estimate` reads, the final estimate after the window) must
//! match the reference bit for bit, confidence interval included.

use crate::inputs::{PoolInput, SessionSpec};
use crate::wire::{Op, SessionLog, WireRun};
use oasis::{
    AnySampler, ConfidenceInterval, Estimate, GroundTruthOracle, InteractiveSampler, Oracle,
    Proposal, TrackedSampler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::{FromJson, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One session rebuilt from the library: sampler, session RNG, label
/// bookkeeping.  Mirrors what a served session does per request.
pub struct Reference {
    sampler: TrackedSampler<AnySampler>,
    rng: StdRng,
    oracle: Option<GroundTruthOracle>,
    labelled: Vec<bool>,
    distinct: usize,
    pending: BTreeMap<u64, Proposal>,
    next_ticket: u64,
    last_call: (Instant, Instant),
}

impl Reference {
    /// A fresh reference for `spec` over `pool`.
    ///
    /// # Errors
    /// Sampler construction failures, as text.
    pub fn new(spec: &SessionSpec, pool: &PoolInput) -> Result<Self, String> {
        let config = spec.config();
        let inner = match spec.shards {
            Some(shards) => {
                AnySampler::build_sharded(spec.method, &pool.pool, &config, shards, spec.seed)
            }
            None => AnySampler::build(spec.method, &pool.pool, &config),
        }
        .map_err(|e| e.to_string())?;
        Ok(Reference {
            sampler: TrackedSampler::new(inner, config.alpha),
            rng: StdRng::seed_from_u64(spec.seed),
            oracle: spec
                .with_truth
                .then(|| GroundTruthOracle::new(pool.truth.clone())),
            labelled: vec![false; pool.pool.len()],
            distinct: 0,
            pending: BTreeMap::new(),
            next_ticket: 0,
            last_call: (Instant::now(), Instant::now()),
        })
    }

    /// Draw one proposal; returns its ticket and item.
    pub fn propose(&mut self, pool: &PoolInput) -> (u64, usize) {
        let started = Instant::now();
        let proposal = self.sampler.propose_batch(&pool.pool, &mut self.rng, 1)[0];
        self.last_call = (started, Instant::now());
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.pending.insert(ticket, proposal);
        (ticket, proposal.item)
    }

    /// Apply a label to a pending ticket.
    ///
    /// # Errors
    /// An unknown ticket.
    pub fn apply_label(&mut self, ticket: u64, label: bool) -> Result<(), String> {
        let proposal = self
            .pending
            .remove(&ticket)
            .ok_or_else(|| format!("label for unknown ticket {ticket}"))?;
        let started = Instant::now();
        self.sampler.apply_label(&proposal, label);
        self.last_call = (started, Instant::now());
        match &mut self.oracle {
            Some(oracle) => {
                let _ = oracle.mark_queried(proposal.item);
            }
            None => {
                if !self.labelled[proposal.item] {
                    self.labelled[proposal.item] = true;
                    self.distinct += 1;
                }
            }
        }
        Ok(())
    }

    /// Run `steps` oracle-driven iterations.
    ///
    /// # Errors
    /// A session without truth, or an oracle failure.
    pub fn step(&mut self, pool: &PoolInput, steps: usize) -> Result<(), String> {
        let oracle = self.oracle.as_mut().ok_or("step on an external session")?;
        let started = Instant::now();
        for _ in 0..steps {
            let proposal = self.sampler.propose(&pool.pool, &mut self.rng);
            let label = oracle
                .query(proposal.item, &mut self.rng)
                .map_err(|e| e.to_string())?;
            self.sampler.apply_label(&proposal, label);
        }
        self.last_call = (started, Instant::now());
        Ok(())
    }

    /// Start and end of the last sampler-layer call (`propose_batch`,
    /// `apply_label`, or a whole `step` loop), excluding this type's own
    /// bookkeeping.
    pub fn last_call(&self) -> (Instant, Instant) {
        self.last_call
    }

    /// The current estimate and 95% interval.
    pub fn estimate(&self) -> (Estimate, Option<ConfidenceInterval>) {
        (
            self.sampler.estimate(),
            self.sampler.confidence_interval(0.95),
        )
    }

    /// Distinct items labelled so far.
    pub fn labels_consumed(&self) -> usize {
        match &self.oracle {
            Some(oracle) => oracle.labels_consumed(),
            None => self.distinct,
        }
    }

    /// The wrapped sampler (for diagnostics).
    pub fn sampler(&self) -> &TrackedSampler<AnySampler> {
        &self.sampler
    }
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn float(value: &Json, key: &str) -> Result<f64, String> {
    value
        .require(key)
        .and_then(f64::from_json)
        .map_err(|e| format!("{key}: {e}"))
}

/// Compare one served estimate response with the reference state.
fn compare(served: &str, reference: &Reference) -> Result<(), String> {
    let parsed = Json::parse(served).map_err(|e| format!("malformed response: {e}"))?;
    let (estimate, interval) = reference.estimate();
    let got = parsed.require("estimate").map_err(|e| e.to_string())?;
    for (key, want) in [
        ("f_measure", estimate.f_measure),
        ("precision", estimate.precision),
        ("recall", estimate.recall),
    ] {
        let value = float(got, key)?;
        if !same(value, want) {
            return Err(format!("{key} served {value:?}, reference {want:?}"));
        }
    }
    let iterations = got
        .require("iterations")
        .and_then(Json::as_usize)
        .map_err(|e| e.to_string())?;
    if iterations != estimate.iterations {
        return Err(format!(
            "iterations served {iterations}, reference {}",
            estimate.iterations
        ));
    }
    let consumed = parsed
        .require("labels_consumed")
        .and_then(Json::as_usize)
        .map_err(|e| e.to_string())?;
    if consumed != reference.labels_consumed() {
        return Err(format!(
            "labels_consumed served {consumed}, reference {}",
            reference.labels_consumed()
        ));
    }
    match (parsed.get("confidence_interval"), interval) {
        (Some(Json::Null), None) => Ok(()),
        (Some(served), Some(want)) if served != &Json::Null => {
            for (key, want) in [
                ("estimate", want.estimate),
                ("lower", want.lower),
                ("upper", want.upper),
                ("standard_error", want.standard_error),
            ] {
                let value = float(served, key)?;
                if !same(value, want) {
                    return Err(format!(
                        "interval {key} served {value:?}, reference {want:?}"
                    ));
                }
            }
            Ok(())
        }
        (served, want) => Err(format!("interval served {served:?}, reference {want:?}")),
    }
}

/// Replay one session's stream; `flip_label` perturbs the reference by
/// flipping the label of that label op (counted from 0), which the check
/// must then catch.  Returns the first mismatch.
pub fn check_session(
    log: &SessionLog,
    pool: &PoolInput,
    flip_label: Option<usize>,
) -> Result<(), String> {
    let fail = |index: usize, what: String| format!("session {} op {index}: {what}", log.spec.id);
    let mut reference = Reference::new(&log.spec, pool).map_err(|e| fail(0, e))?;
    let mut labels_seen = 0;
    for (index, (op, served)) in log.ops.iter().enumerate() {
        match *op {
            Op::Propose { ticket, item } => {
                let want = reference.propose(pool);
                if want != (ticket, item) {
                    return Err(fail(
                        index,
                        format!(
                            "served ticket/item {:?}, reference {want:?}",
                            (ticket, item)
                        ),
                    ));
                }
            }
            Op::Label { ticket, label } => {
                let label = label ^ (flip_label == Some(labels_seen));
                labels_seen += 1;
                reference
                    .apply_label(ticket, label)
                    .map_err(|e| fail(index, e))?;
            }
            Op::Step(steps) => reference.step(pool, steps).map_err(|e| fail(index, e))?,
            Op::Estimate | Op::Checkpoint => {}
        }
        if let Some(served) = served {
            compare(served, &reference).map_err(|e| fail(index, e))?;
        }
    }
    Ok(())
}

/// Check every session of `run` on two threads; returns one message per
/// session that failed.
pub fn check_run(run: &WireRun, pool: &PoolInput, flip_label: Option<usize>) -> Vec<String> {
    let mut failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|half| {
                scope.spawn(move || {
                    run.sessions
                        .iter()
                        .skip(half)
                        .step_by(2)
                        .filter_map(|log| check_session(log, pool, flip_label).err())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("check thread panicked"))
            .collect()
    });
    failures.sort();
    failures
}
