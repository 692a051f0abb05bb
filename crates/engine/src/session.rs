//! A single interactive evaluation session, whatever the sampling method.
//!
//! A [`Session`] wraps one sampler run — any [`SamplerMethod`], dispatched
//! through [`AnySampler`] — over a shared [`Arc<ScoredPool>`] with its own
//! independently seeded RNG.  Unlike the library's
//! [`Sampler::run`](oasis::Sampler::run) loop, a session is an *interactive*
//! state machine built on the
//! [`InteractiveSampler`] propose/apply-label contract:
//!
//! * [`Session::propose`] draws one or more items and returns [`Ticket`]s —
//!   the session then *suspends*, holding the tickets as pending;
//! * [`Session::apply_labels`] resumes it when labels arrive (possibly out of
//!   order, possibly in batches);
//! * with an in-process oracle attached ([`SessionSpec::truth`]),
//!   [`Session::step`] runs the classic propose→query→apply loop and is
//!   bit-identical to the library's `Sampler::step` with the same seed —
//!   for every method, not just OASIS.
//!
//! Sessions are checkpointable: [`Session::checkpoint`] captures the
//! method-tagged sampler state, RNG words, pending tickets and oracle state,
//! and [`Session::restore`] resumes exactly (see `crate::checkpoint`).

use crate::checkpoint::{flags_from_indices, set_indices, OracleCheckpoint, SessionCheckpoint};
use crate::error::{EngineError, EngineResult};
use oasis::{
    AnySampler, ConfidenceInterval, Estimate, GroundTruthOracle, InteractiveSampler, OasisConfig,
    Oracle, Proposal, SamplerDiagnostics, SamplerMethod, ScoredPool, TrackedSampler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// A pending label request: a proposal plus the ticket id the eventual label
/// must quote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ticket {
    /// Monotonically increasing ticket id, unique within the session.
    pub id: u64,
    /// The proposed query (item, stratum, prediction, locked-in weight).
    pub proposal: Proposal,
    /// Logical lease timestamp the ticket was issued at (the session's lease
    /// clock, microseconds).  0 on sessions that never saw a timestamp.
    pub issued_at_us: u64,
}

/// Optional per-session robustness limits.
///
/// Both limits default to off, which is bit-identical to pre-lease engine
/// behaviour: tickets never expire and the pending queue is unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionLimits {
    /// Drop a pending ticket once the session's lease clock passes
    /// `issued_at_us + lease_timeout_us`.  Because sampling is with
    /// replacement, the item itself never left the proposable pool —
    /// expiry frees the queue slot and makes a late label for the ticket a
    /// deterministic [`EngineError::UnknownTicket`].
    pub lease_timeout_us: Option<u64>,
    /// Reject proposals that would grow the pending queue past this cap
    /// with [`EngineError::Backpressure`].
    pub max_pending: Option<usize>,
}

/// Everything needed to build a session: the one constructor input for
/// [`Session::new`] and [`Engine::create_session`](crate::Engine::create_session),
/// and what a `create_session` protocol line parses into.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Session id.
    pub id: String,
    /// Id of the pool the session evaluates.
    pub pool: String,
    /// Sampling method.
    pub method: SamplerMethod,
    /// Sampler configuration; every method draws its hyperparameters from
    /// it (see [`AnySampler::build`]).
    pub config: OasisConfig,
    /// Partition the pool into this many shards, each with its own strata
    /// and inner sampler (see [`oasis::ShardedSampler`]); `None` builds the
    /// flat sampler.  Shard `s` seeds its own RNG from `seed + s`, while the
    /// session RNG is consumed only for shard selection, so `Some(1)` is
    /// bit-identical to `None`.
    pub shards: Option<usize>,
    /// Seed of the session RNG.
    pub seed: u64,
    /// Hidden ground truth for an in-process oracle, enabling
    /// [`Session::step`]; `None` means labels arrive from outside through
    /// [`Session::apply_labels`].
    pub truth: Option<Vec<bool>>,
    /// Robustness limits (both off by default).
    pub limits: SessionLimits,
}

impl SessionSpec {
    /// A spec with the defaults a minimal `create_session` line gets: OASIS
    /// with the default config, flat, externally labelled, no limits.
    pub fn new(id: impl Into<String>, pool: impl Into<String>, seed: u64) -> Self {
        SessionSpec {
            id: id.into(),
            pool: pool.into(),
            method: SamplerMethod::Oasis,
            config: OasisConfig::default(),
            shards: None,
            seed,
            truth: None,
            limits: SessionLimits::default(),
        }
    }
}

/// Where a session's labels come from.
#[derive(Debug, Clone)]
enum LabelSource {
    /// Labels arrive from outside (human annotators, a remote client) via
    /// [`Session::apply_labels`].  The session tracks the footnote-5 budget
    /// itself: repeated labels for the same item charge once.
    External {
        /// Which pool items have been labelled at least once.
        labelled: Vec<bool>,
        /// Number of distinct items labelled (the consumed budget).
        distinct: usize,
    },
    /// A deterministic in-process oracle; enables [`Session::step`] and
    /// simulation-style runs inside the engine.
    GroundTruth(GroundTruthOracle),
}

/// One concurrent, independently seeded, checkpointable evaluation run of
/// any sampling method.
#[derive(Debug, Clone)]
pub struct Session {
    id: String,
    pool_id: String,
    pool: Arc<ScoredPool>,
    sampler: TrackedSampler<AnySampler>,
    rng: StdRng,
    seed: u64,
    pending: VecDeque<Ticket>,
    next_ticket: u64,
    source: LabelSource,
    limits: SessionLimits,
    /// Logical lease clock: the largest timestamp ever observed via
    /// [`Session::expire_leases`].  Advanced only by WAL-logged values, so
    /// replay reproduces every expiry decision bit for bit.
    lease_now_us: u64,
    /// Sequence number the next WAL record will carry.  Engine bookkeeping,
    /// not checkpoint state: rehydration recomputes it from the envelope
    /// watermark plus the replayed records.
    pub(crate) wal_seq: u64,
    /// Watermark of the session's stored checkpoint: records
    /// `checkpoint_seq..wal_seq` live only in the WAL.  Engine bookkeeping
    /// like `wal_seq`.
    pub(crate) checkpoint_seq: u64,
    /// Whether the session has been mutated since its last durable
    /// checkpoint (or, without a store, since it was created/restored).
    pub(crate) dirty: bool,
}

impl Session {
    /// Build the session `spec` describes over `pool` (the pool `spec.pool`
    /// names), with its own RNG seeded from `spec.seed`.
    ///
    /// # Errors
    /// Propagates sampler construction failures (invalid config, degenerate
    /// pool, `Some(0)` or more shards than pool items) and rejects a ground
    /// truth that does not cover the pool.
    pub fn new(spec: SessionSpec, pool: Arc<ScoredPool>) -> EngineResult<Self> {
        let source = match spec.truth {
            Some(truth) if truth.len() != pool.len() => {
                return Err(EngineError::InvalidLabelSource(format!(
                    "label source covers {} items but the pool has {}",
                    truth.len(),
                    pool.len()
                )))
            }
            Some(truth) => LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
            None => LabelSource::External {
                labelled: vec![false; pool.len()],
                distinct: 0,
            },
        };
        let sampler = match spec.shards {
            Some(k) => AnySampler::build_sharded(spec.method, &pool, &spec.config, k, spec.seed)?,
            None => AnySampler::build(spec.method, &pool, &spec.config)?,
        };
        Ok(Session {
            id: spec.id,
            pool_id: spec.pool,
            pool,
            sampler: TrackedSampler::new(sampler, spec.config.alpha),
            rng: StdRng::seed_from_u64(spec.seed),
            seed: spec.seed,
            pending: VecDeque::new(),
            next_ticket: 0,
            source,
            limits: spec.limits,
            lease_now_us: 0,
            wal_seq: 0,
            checkpoint_seq: 0,
            dirty: false,
        })
    }

    /// The session id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The sampling method the session runs.
    pub fn method(&self) -> SamplerMethod {
        self.sampler.method()
    }

    /// The id of the pool the session evaluates.
    pub fn pool_id(&self) -> &str {
        &self.pool_id
    }

    /// The seed the session RNG was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared pool.
    pub fn pool(&self) -> &Arc<ScoredPool> {
        &self.pool
    }

    /// The current estimate.
    pub fn estimate(&self) -> Estimate {
        self.sampler.estimate()
    }

    /// The underlying sampler (method-agnostic introspection lives on the
    /// [`InteractiveSampler`] trait, e.g.
    /// [`instrumental_snapshot`](InteractiveSampler::instrumental_snapshot)).
    pub fn sampler(&self) -> &AnySampler {
        self.sampler.inner()
    }

    /// Number of pool shards the session's sampler runs over (1 for a flat,
    /// unsharded sampler).
    pub fn shard_count(&self) -> usize {
        self.sampler.inner().shard_count()
    }

    /// Ground-truth-free sampler health diagnostics — ESS, weight variance,
    /// per-stratum label allocation, instrumental distribution, CDF-rebuild
    /// count — method-agnostic via
    /// [`InteractiveSampler::diagnostics`](oasis::InteractiveSampler::diagnostics).
    pub fn diagnostics(&self) -> SamplerDiagnostics {
        self.sampler.diagnostics()
    }

    /// A normal-approximation confidence interval on the F-measure at the
    /// given level, or `None` while the estimate is undefined — or while the
    /// variance history is incomplete (see [`Session::variance_tracked`]).
    pub fn confidence_interval(&self, level: f64) -> Option<ConfidenceInterval> {
        self.sampler.confidence_interval(level)
    }

    /// Whether the session's variance tracker covers the whole run.  `false`
    /// only after restoring a checkpoint written before tracker state was
    /// serialized: the estimate is still exact, but intervals are suppressed
    /// rather than reported from a truncated history.
    pub fn variance_tracked(&self) -> bool {
        self.sampler.tracker_complete()
    }

    /// Pending (proposed but unlabelled) tickets, oldest first.
    pub fn pending(&self) -> impl Iterator<Item = &Ticket> {
        self.pending.iter()
    }

    /// Number of pending tickets.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Distinct items labelled so far — the footnote-5 label budget.
    pub fn labels_consumed(&self) -> usize {
        match &self.source {
            LabelSource::External { distinct, .. } => *distinct,
            LabelSource::GroundTruth(oracle) => oracle.labels_consumed(),
        }
    }

    /// Whether the session has an in-process oracle attached.
    pub fn has_oracle(&self) -> bool {
        matches!(self.source, LabelSource::GroundTruth(_))
    }

    /// Propose `count` items to label, suspending the session until the
    /// labels come back through [`Session::apply_labels`].
    ///
    /// All draws in one batch use the same instrumental distribution (no
    /// labels can intervene inside the batch), matching the
    /// batched-annotation semantics of
    /// [`InteractiveSampler::propose_batch`].
    ///
    /// Tickets are stamped with the session's current lease clock; callers
    /// that enforce leases advance it first via [`Session::expire_leases`].
    ///
    /// # Errors
    /// [`EngineError::Backpressure`] when a configured `max_pending` cap
    /// would be exceeded; the sampler and RNG are untouched, so a rejected
    /// propose is invisible to replay.
    pub fn propose(&mut self, count: usize) -> EngineResult<Vec<Ticket>> {
        if let Some(cap) = self.limits.max_pending {
            let would_hold = self.pending.len().saturating_add(count);
            if would_hold > cap {
                return Err(EngineError::Backpressure(format!(
                    "propose of {count} would hold {would_hold} pending tickets, cap is {cap}; \
                     label or expire pending tickets first"
                )));
            }
        }
        let proposals = self.sampler.propose_batch(&self.pool, &mut self.rng, count);
        let mut tickets = Vec::with_capacity(count);
        for proposal in proposals {
            let ticket = Ticket {
                id: self.next_ticket,
                proposal,
                issued_at_us: self.lease_now_us,
            };
            self.next_ticket += 1;
            self.pending.push_back(ticket);
            tickets.push(ticket);
        }
        Ok(tickets)
    }

    /// Advance the session's logical lease clock to `now_us` (it never moves
    /// backwards) and drop every pending ticket whose lease has expired,
    /// returning the dropped ids oldest-first.
    ///
    /// Sampling is with replacement, so an expired item was never removed
    /// from the proposable pool: expiry only frees the queue slot.  A later
    /// label quoting a dropped id fails with the same
    /// [`EngineError::UnknownTicket`] a replay reproduces.  Without a
    /// configured lease timeout this only advances the clock.
    pub fn expire_leases(&mut self, now_us: u64) -> Vec<u64> {
        self.lease_now_us = self.lease_now_us.max(now_us);
        let Some(timeout) = self.limits.lease_timeout_us else {
            return Vec::new();
        };
        let mut expired = Vec::new();
        // Pending is issue-ordered, so issued_at_us is non-decreasing and
        // expired tickets form a prefix of the queue.
        while let Some(front) = self.pending.front() {
            if front.issued_at_us.saturating_add(timeout) <= self.lease_now_us {
                expired.push(front.id);
                self.pending.pop_front();
            } else {
                break;
            }
        }
        expired
    }

    /// The session's robustness limits.
    pub fn limits(&self) -> SessionLimits {
        self.limits
    }

    /// The logical lease clock (largest timestamp ever observed).
    pub fn lease_now_us(&self) -> u64 {
        self.lease_now_us
    }

    /// Resume the session with a batch of labels, each quoting a pending
    /// ticket id.  Labels are applied in ascending ticket order (so a client
    /// replying in order reproduces the sequential run bit-for-bit), and any
    /// subset of pending tickets may be answered — stragglers stay pending.
    ///
    /// Every applied label charges the footnote-5 budget (distinct items
    /// only), whatever the label source: externally labelled sessions update
    /// their own bitmap, and sessions with an attached oracle mark the item
    /// as queried there, so `labels_consumed` and later `run_until_budget`
    /// calls stay consistent with the estimator.
    ///
    /// Returns the number of labels applied.
    ///
    /// # Errors
    /// [`EngineError::UnknownTicket`] if an id is not pending (already
    /// answered, or never issued) and [`EngineError::DuplicateTicket`] if the
    /// batch names one ticket twice; no labels are applied in either case.
    pub fn apply_labels(&mut self, labels: &[(u64, bool)]) -> EngineResult<usize> {
        // Validate the whole batch first so errors leave the session intact.
        // Batches and pending queues are both unbounded over the protocol, so
        // everything here is O(B + P) — no per-label rescans.
        let mut by_ticket: std::collections::HashMap<u64, bool> =
            std::collections::HashMap::with_capacity(labels.len());
        for &(ticket_id, label) in labels {
            if by_ticket.insert(ticket_id, label).is_some() {
                return Err(EngineError::DuplicateTicket(ticket_id));
            }
        }
        let pending_ids: std::collections::HashSet<u64> =
            self.pending.iter().map(|t| t.id).collect();
        for &(ticket_id, _) in labels {
            if !pending_ids.contains(&ticket_id) {
                return Err(EngineError::UnknownTicket(ticket_id));
            }
        }
        // One pass over the deque: answered tickets come out in queue order,
        // which is ascending ticket id — the order labels are applied in.
        let mut answered = Vec::with_capacity(by_ticket.len());
        self.pending.retain(|ticket| {
            if by_ticket.contains_key(&ticket.id) {
                answered.push(*ticket);
                false
            } else {
                true
            }
        });
        for ticket in &answered {
            let label = by_ticket[&ticket.id];
            self.sampler.apply_label(&ticket.proposal, label);
            self.charge_label_budget(ticket.proposal.item);
        }
        Ok(answered.len())
    }

    fn charge_label_budget(&mut self, item: usize) {
        match &mut self.source {
            LabelSource::External { labelled, distinct } => {
                if !labelled[item] {
                    labelled[item] = true;
                    *distinct += 1;
                }
            }
            LabelSource::GroundTruth(oracle) => {
                // Budget accounting only: the client's label was already
                // applied above.  `mark_queried` charges once per distinct
                // item without inflating `queries_issued` (the oracle never
                // answered) or touching the session's RNG stream.
                let _ = oracle.mark_queried(item);
            }
        }
    }

    /// Run `steps` complete propose→query→apply iterations against the
    /// attached oracle.  Bit-identical to the library's `Sampler::run` with
    /// the same seed and pool.
    ///
    /// # Errors
    /// [`EngineError::WrongLabelSource`] if the session labels externally, or
    /// if proposals are still pending (labels must not leapfrog them).
    pub fn step(&mut self, steps: usize) -> EngineResult<Estimate> {
        self.ensure_steppable()?;
        for _ in 0..steps {
            self.step_once()?;
        }
        Ok(self.estimate())
    }

    /// Run steps until the oracle has consumed `label_budget` distinct labels
    /// or `max_steps` iterations have elapsed, mirroring the library's
    /// `run_until_budget`.
    pub fn run_until_budget(
        &mut self,
        label_budget: usize,
        max_steps: usize,
    ) -> EngineResult<Estimate> {
        self.ensure_steppable()?;
        let mut steps = 0;
        while self.labels_consumed() < label_budget && steps < max_steps {
            self.step_once()?;
            steps += 1;
        }
        Ok(self.estimate())
    }

    fn ensure_steppable(&self) -> EngineResult<()> {
        if !self.has_oracle() {
            return Err(EngineError::WrongLabelSource(
                "session labels externally; use propose/label instead of step",
            ));
        }
        if !self.pending.is_empty() {
            return Err(EngineError::WrongLabelSource(
                "session has pending tickets; label them before stepping",
            ));
        }
        Ok(())
    }

    fn step_once(&mut self) -> EngineResult<()> {
        // Identical draw/query/update order to `Sampler::step`, so a session
        // with seed s reproduces the library run with seed s bit-for-bit.
        let proposal = self.sampler.propose(&self.pool, &mut self.rng);
        let label = match &mut self.source {
            LabelSource::GroundTruth(oracle) => oracle.query(proposal.item, &mut self.rng)?,
            LabelSource::External { .. } => unreachable!("checked by ensure_steppable"),
        };
        self.sampler.apply_label(&proposal, label);
        Ok(())
    }

    /// Capture a full checkpoint: sampler state, RNG words, pending tickets
    /// and oracle state.  Restoring it with [`Session::restore`] resumes the
    /// run exactly.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            session_id: self.id.clone(),
            pool_id: self.pool_id.clone(),
            pool_len: self.pool.len(),
            pool_fingerprint: crate::checkpoint::pool_fingerprint(&self.pool),
            seed: self.seed,
            rng_words: self.rng.state_words(),
            sampler: self.sampler.state(),
            pending: self.pending.iter().copied().collect(),
            next_ticket: self.next_ticket,
            limits: self.limits,
            lease_now_us: self.lease_now_us,
            oracle: match &self.source {
                LabelSource::External { labelled, distinct } => OracleCheckpoint::External {
                    labelled: set_indices(labelled),
                    distinct: *distinct,
                },
                LabelSource::GroundTruth(oracle) => OracleCheckpoint::GroundTruth {
                    truth: set_indices(oracle.ground_truth()),
                    queried: set_indices(oracle.queried_mask()),
                    queries_issued: oracle.queries_issued(),
                },
            },
        }
    }

    /// Rebuild a session from a checkpoint against the (already loaded) pool
    /// it was captured on.
    ///
    /// # Errors
    /// [`EngineError::CheckpointMismatch`] if the pool's length or
    /// fingerprint differs from the checkpointed one, plus any sampler
    /// reconstruction failure.
    pub fn restore(checkpoint: SessionCheckpoint, pool: Arc<ScoredPool>) -> EngineResult<Self> {
        if pool.len() != checkpoint.pool_len {
            return Err(EngineError::CheckpointMismatch(format!(
                "pool has {} items, checkpoint expects {}",
                pool.len(),
                checkpoint.pool_len
            )));
        }
        let fingerprint = crate::checkpoint::pool_fingerprint(&pool);
        if fingerprint != checkpoint.pool_fingerprint {
            return Err(EngineError::CheckpointMismatch(format!(
                "pool fingerprint {fingerprint:#x} != checkpointed {:#x}",
                checkpoint.pool_fingerprint
            )));
        }
        let sampler = TrackedSampler::<AnySampler>::from_state(&pool, checkpoint.sampler)?;
        let source = match checkpoint.oracle {
            OracleCheckpoint::External { labelled, .. } => LabelSource::External {
                // Recompute the budget from the list (as the oracle path
                // does) so a hand-edited `distinct` cannot misreport it.
                distinct: labelled.len(),
                labelled: flags_from_indices(&labelled, pool.len(), "labelled")?,
            },
            OracleCheckpoint::GroundTruth {
                truth,
                queried,
                queries_issued,
            } => LabelSource::GroundTruth(GroundTruthOracle::from_state(
                flags_from_indices(&truth, pool.len(), "truth")?,
                flags_from_indices(&queried, pool.len(), "queried")?,
                queries_issued,
            )?),
        };
        // Pending tickets come verbatim from the document; a crafted
        // checkpoint must not be able to smuggle out-of-range indices past
        // restore and panic a later apply_labels.
        let strata_count = sampler.strata_len();
        let mut seen_tickets = std::collections::HashSet::new();
        for ticket in &checkpoint.pending {
            if ticket.id >= checkpoint.next_ticket || !seen_tickets.insert(ticket.id) {
                return Err(EngineError::CheckpointMismatch(format!(
                    "pending ticket id {} is duplicated or not below next_ticket {}",
                    ticket.id, checkpoint.next_ticket
                )));
            }
            if !(ticket.proposal.weight.is_finite() && ticket.proposal.weight >= 0.0) {
                return Err(EngineError::CheckpointMismatch(format!(
                    "pending ticket {} has invalid weight {}",
                    ticket.id, ticket.proposal.weight
                )));
            }
            if ticket.proposal.item >= pool.len() || ticket.proposal.stratum >= strata_count {
                return Err(EngineError::CheckpointMismatch(format!(
                    "pending ticket {} references item {} / stratum {} outside the pool \
                     ({} items, {} strata)",
                    ticket.id,
                    ticket.proposal.item,
                    ticket.proposal.stratum,
                    pool.len(),
                    strata_count
                )));
            }
        }
        Ok(Session {
            id: checkpoint.session_id,
            pool_id: checkpoint.pool_id,
            pool,
            sampler,
            rng: StdRng::from_state_words(checkpoint.rng_words),
            seed: checkpoint.seed,
            pending: checkpoint.pending.into(),
            next_ticket: checkpoint.next_ticket,
            source,
            limits: checkpoint.limits,
            lease_now_us: checkpoint.lease_now_us,
            wal_seq: 0,
            checkpoint_seq: 0,
            dirty: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis::{OasisSampler, Sampler};

    fn pool_and_truth(n: usize, seed: u64) -> (Arc<ScoredPool>, Vec<bool>) {
        crate::test_support::pool_and_truth(n, seed, 0.06)
    }

    fn library_run(pool: &ScoredPool, truth: &[bool], seed: u64, steps: usize) -> Estimate {
        let mut oracle = GroundTruthOracle::new(truth.to_vec());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler =
            OasisSampler::new(pool, OasisConfig::default().with_strata_count(12)).unwrap();
        sampler.run(pool, &mut oracle, &mut rng, steps).unwrap()
    }

    fn assert_bit_identical(a: &Estimate, b: &Estimate) {
        assert_eq!(a.f_measure.to_bits(), b.f_measure.to_bits());
        assert_eq!(a.precision.to_bits(), b.precision.to_bits());
        assert_eq!(a.recall.to_bits(), b.recall.to_bits());
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn oracle_session_is_bit_identical_to_library_run() {
        let (pool, truth) = pool_and_truth(2000, 1);
        let expected = library_run(&pool, &truth, 7, 400);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(12),
                truth: Some(truth),
                ..SessionSpec::new("s", "p", 7)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        let estimate = session.step(400).unwrap();
        assert_bit_identical(&estimate, &expected);
    }

    #[test]
    fn external_session_fed_true_labels_matches_library_run() {
        let (pool, truth) = pool_and_truth(1200, 2);
        let expected = library_run(&pool, &truth, 11, 300);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(12),
                ..SessionSpec::new("s", "p", 11)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        // Suspend/resume one ticket at a time, the client answering from the
        // hidden truth — exactly what a human-annotator driver would do.
        for _ in 0..300 {
            let tickets = session.propose(1).unwrap();
            let answers: Vec<(u64, bool)> = tickets
                .iter()
                .map(|t| (t.id, truth[t.proposal.item]))
                .collect();
            session.apply_labels(&answers).unwrap();
        }
        assert_bit_identical(&session.estimate(), &expected);
        assert!(session.labels_consumed() > 0);
        assert!(session.labels_consumed() <= 300);
    }

    #[test]
    fn batch_proposals_share_a_posterior_and_resume_in_any_order() {
        let (pool, truth) = pool_and_truth(800, 3);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(8),
                ..SessionSpec::new("s", "p", 13)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        let tickets = session.propose(5).unwrap();
        assert_eq!(session.pending_count(), 5);
        // Answer out of order and in two batches; stragglers stay pending.
        session
            .apply_labels(&[
                (tickets[3].id, truth[tickets[3].proposal.item]),
                (tickets[0].id, truth[tickets[0].proposal.item]),
            ])
            .unwrap();
        assert_eq!(session.pending_count(), 3);
        session
            .apply_labels(&[
                (tickets[1].id, truth[tickets[1].proposal.item]),
                (tickets[4].id, truth[tickets[4].proposal.item]),
                (tickets[2].id, truth[tickets[2].proposal.item]),
            ])
            .unwrap();
        assert_eq!(session.pending_count(), 0);
        assert_eq!(session.estimate().iterations, 5);
    }

    #[test]
    fn unknown_or_replayed_tickets_are_rejected_atomically() {
        let (pool, truth) = pool_and_truth(500, 4);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(6),
                ..SessionSpec::new("s", "p", 17)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        let tickets = session.propose(2).unwrap();
        // One good id + one bogus id → nothing applied.
        let err = session
            .apply_labels(&[(tickets[0].id, true), (999, false)])
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownTicket(999));
        assert_eq!(session.pending_count(), 2);
        // Answer then replay the same ticket → rejected.
        session
            .apply_labels(&[(tickets[0].id, truth[tickets[0].proposal.item])])
            .unwrap();
        let err = session.apply_labels(&[(tickets[0].id, true)]).unwrap_err();
        assert_eq!(err, EngineError::UnknownTicket(tickets[0].id));
    }

    #[test]
    fn duplicate_tickets_in_one_batch_are_rejected_atomically() {
        let (pool, _) = pool_and_truth(400, 9);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                ..SessionSpec::new("s", "p", 37)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        let tickets = session.propose(2).unwrap();
        let err = session
            .apply_labels(&[(tickets[0].id, true), (tickets[0].id, false)])
            .unwrap_err();
        assert_eq!(err, EngineError::DuplicateTicket(tickets[0].id));
        // Nothing was applied: both tickets still pending, estimator untouched.
        assert_eq!(session.pending_count(), 2);
        assert_eq!(session.estimate().iterations, 0);
    }

    #[test]
    fn external_labels_on_an_oracle_session_charge_the_oracle_budget() {
        let (pool, truth) = pool_and_truth(400, 10);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                truth: Some(truth.clone()),
                ..SessionSpec::new("s", "p", 41)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        // Drive an oracle-attached session through the suspend/resume path
        // (allowed, e.g. when a client overrides labels): the footnote-5
        // budget must advance exactly as if the oracle had been queried.
        let mut items = std::collections::HashSet::new();
        for _ in 0..50 {
            let tickets = session.propose(1).unwrap();
            items.insert(tickets[0].proposal.item);
            session
                .apply_labels(&[(tickets[0].id, truth[tickets[0].proposal.item])])
                .unwrap();
        }
        assert_eq!(session.labels_consumed(), items.len());
        // Mixing with step() afterwards keeps the accounting consistent.
        session.step(10).unwrap();
        assert!(session.labels_consumed() >= items.len());
    }

    #[test]
    fn external_budget_charges_distinct_items_once() {
        let (pool, _) = pool_and_truth(300, 5);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                ..SessionSpec::new("s", "p", 19)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        // Draws are with replacement, so after many proposals the distinct
        // count must be ≤ the number of labels applied.
        for _ in 0..120 {
            let tickets = session.propose(1).unwrap();
            session.apply_labels(&[(tickets[0].id, false)]).unwrap();
        }
        assert!(session.labels_consumed() <= 120);
        assert_eq!(session.estimate().iterations, 120);
    }

    #[test]
    fn stepping_an_external_session_is_an_error() {
        let (pool, _) = pool_and_truth(200, 6);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                ..SessionSpec::new("s", "p", 23)
            },
            pool,
        )
        .unwrap();
        assert!(matches!(
            session.step(1),
            Err(EngineError::WrongLabelSource(_))
        ));
    }

    #[test]
    fn stepping_with_pending_tickets_is_an_error() {
        let (pool, truth) = pool_and_truth(200, 7);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                truth: Some(truth),
                ..SessionSpec::new("s", "p", 29)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.propose(1).unwrap();
        assert!(matches!(
            session.step(1),
            Err(EngineError::WrongLabelSource(_))
        ));
    }

    #[test]
    fn every_method_session_is_bit_identical_to_its_library_run() {
        let (pool, truth) = pool_and_truth(1500, 21);
        let config = OasisConfig::default().with_strata_count(10);
        for method in oasis::SamplerMethod::ALL {
            // Library reference through AnySampler's Sampler impl.
            let mut sampler = oasis::AnySampler::build(method, &pool, &config).unwrap();
            let mut oracle = GroundTruthOracle::new(truth.clone());
            let mut rng = StdRng::seed_from_u64(19);
            let expected = sampler.run(&pool, &mut oracle, &mut rng, 250).unwrap();

            let mut session = Session::new(
                SessionSpec {
                    method,
                    config: config.clone(),
                    truth: Some(truth.clone()),
                    ..SessionSpec::new("s", "p", 19)
                },
                Arc::clone(&pool),
            )
            .unwrap();
            assert_eq!(session.method(), method);
            let estimate = session.step(250).unwrap();
            assert_bit_identical(&estimate, &expected);
        }
    }

    #[test]
    fn every_method_checkpoint_restores_and_continues_bitwise() {
        let (pool, truth) = pool_and_truth(1000, 22);
        let config = OasisConfig::default().with_strata_count(8);
        for method in oasis::SamplerMethod::ALL {
            let make = |id: &str| {
                Session::new(
                    SessionSpec {
                        method,
                        config: config.clone(),
                        truth: Some(truth.clone()),
                        ..SessionSpec::new(id, "p", 23)
                    },
                    Arc::clone(&pool),
                )
                .unwrap()
            };
            let mut straight = make("straight");
            let expected = straight.step(400).unwrap();

            let mut interrupted = make("interrupted");
            interrupted.step(163).unwrap();
            let text = interrupted.checkpoint().to_json_string();
            drop(interrupted);
            let checkpoint = SessionCheckpoint::from_json_string(&text).unwrap();
            let mut resumed = Session::restore(checkpoint, Arc::clone(&pool)).unwrap();
            assert_eq!(resumed.method(), method);
            let estimate = resumed.step(400 - 163).unwrap();
            assert_bit_identical(&estimate, &expected);
            assert_eq!(resumed.labels_consumed(), straight.labels_consumed());
        }
    }

    #[test]
    fn every_method_supports_the_external_propose_label_path() {
        let (pool, truth) = pool_and_truth(600, 23);
        let config = OasisConfig::default().with_strata_count(6);
        for method in oasis::SamplerMethod::ALL {
            let mut session = Session::new(
                SessionSpec {
                    method,
                    config: config.clone(),
                    ..SessionSpec::new("s", "p", 29)
                },
                Arc::clone(&pool),
            )
            .unwrap();
            for _ in 0..30 {
                let tickets = session.propose(3).unwrap();
                let answers: Vec<(u64, bool)> = tickets
                    .iter()
                    .map(|t| (t.id, truth[t.proposal.item]))
                    .collect();
                session.apply_labels(&answers).unwrap();
            }
            assert_eq!(session.estimate().iterations, 90, "{method}");
            assert!(session.labels_consumed() > 0, "{method}");
            assert_eq!(session.pending_count(), 0, "{method}");
        }
    }

    fn limited_session(pool: &Arc<ScoredPool>, seed: u64, limits: SessionLimits) -> Session {
        Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                limits,
                ..SessionSpec::new("s", "p", seed)
            },
            Arc::clone(pool),
        )
        .unwrap()
    }

    #[test]
    fn expired_leases_drop_the_oldest_tickets_and_reject_late_labels() {
        let (pool, _) = pool_and_truth(300, 11);
        let mut session = limited_session(
            &pool,
            43,
            SessionLimits {
                lease_timeout_us: Some(1_000),
                max_pending: None,
            },
        );
        assert!(session.expire_leases(100).is_empty());
        let first = session.propose(2).unwrap(); // issued at 100
        session.expire_leases(700);
        let second = session.propose(1).unwrap(); // issued at 700
        assert_eq!(session.pending_count(), 3);

        // At t=1100 the first batch (100 + 1000 <= 1100) expires, the second
        // (700 + 1000 > 1100) survives.
        let expired = session.expire_leases(1_100);
        assert_eq!(expired, vec![first[0].id, first[1].id]);
        assert_eq!(session.pending_count(), 1);
        assert_eq!(session.lease_now_us(), 1_100);

        // A late label for an expired ticket is a deterministic rejection...
        let err = session.apply_labels(&[(first[0].id, true)]).unwrap_err();
        assert_eq!(err, EngineError::UnknownTicket(first[0].id));
        // ...while the surviving ticket still labels fine, and the item
        // behind the expired tickets is still proposable (with-replacement).
        session.apply_labels(&[(second[0].id, false)]).unwrap();
        assert!(session.propose(4).is_ok());

        // The clock never moves backwards.
        session.expire_leases(5);
        assert_eq!(session.lease_now_us(), 1_100);
    }

    #[test]
    fn without_a_timeout_expire_only_advances_the_clock() {
        let (pool, _) = pool_and_truth(300, 12);
        let mut session = limited_session(&pool, 47, SessionLimits::default());
        session.propose(3).unwrap();
        assert!(session.expire_leases(u64::MAX).is_empty());
        assert_eq!(session.pending_count(), 3);
    }

    #[test]
    fn pending_queue_cap_rejects_without_touching_the_rng() {
        let (pool, _) = pool_and_truth(300, 13);
        let mut capped = limited_session(
            &pool,
            53,
            SessionLimits {
                lease_timeout_us: None,
                max_pending: Some(3),
            },
        );
        let mut free = limited_session(&pool, 53, SessionLimits::default());

        capped.propose(2).unwrap();
        free.propose(2).unwrap();
        let err = capped.propose(2).unwrap_err();
        assert!(matches!(err, EngineError::Backpressure(_)), "{err}");
        assert_eq!(capped.pending_count(), 2);

        // The rejected propose consumed no randomness: the next accepted
        // batch matches an uncapped twin draw-for-draw.
        let a = capped.propose(1).unwrap();
        let b = free.propose(1).unwrap();
        assert_eq!(a[0].proposal.item, b[0].proposal.item);
        assert_eq!(
            a[0].proposal.weight.to_bits(),
            b[0].proposal.weight.to_bits()
        );
    }

    #[test]
    fn lease_state_survives_checkpoint_restore_bitwise() {
        let (pool, _) = pool_and_truth(400, 14);
        let limits = SessionLimits {
            lease_timeout_us: Some(2_000),
            max_pending: Some(10),
        };
        let mut session = limited_session(&pool, 59, limits);
        session.expire_leases(900);
        session.propose(3).unwrap();

        let text = session.checkpoint().to_json_string();
        let restored = Session::restore(
            SessionCheckpoint::from_json_string(&text).unwrap(),
            Arc::clone(&pool),
        )
        .unwrap();
        assert_eq!(restored.limits(), limits);
        assert_eq!(restored.lease_now_us(), 900);
        let original: Vec<_> = session.pending().copied().collect();
        let revived: Vec<_> = restored.pending().copied().collect();
        assert_eq!(original, revived, "tickets keep their issue timestamps");

        // Both twins expire identically from here on.
        let mut a = session;
        let mut b = restored;
        assert_eq!(a.expire_leases(2_900), b.expire_leases(2_900));
        assert_eq!(a.pending_count(), b.pending_count());
    }

    #[test]
    fn run_until_budget_matches_library_run_until_budget() {
        let (pool, truth) = pool_and_truth(3000, 8);
        let mut oracle = GroundTruthOracle::new(truth.clone());
        let mut rng = StdRng::seed_from_u64(31);
        let mut sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(12)).unwrap();
        let expected = sampler
            .run_until_budget(&pool, &mut oracle, &mut rng, 150, 100_000)
            .unwrap();

        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(12),
                truth: Some(truth),
                ..SessionSpec::new("s", "p", 31)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        let estimate = session.run_until_budget(150, 100_000).unwrap();
        assert_bit_identical(&estimate, &expected);
        assert_eq!(session.labels_consumed(), oracle.labels_consumed());
    }
}
