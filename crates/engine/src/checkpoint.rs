//! Checkpoint subsystem: exact-resume snapshots of sessions.
//!
//! A [`SessionCheckpoint`] captures everything needed to resume an evaluation
//! run bit-for-bit: the [`SamplerState`] (Beta–Bernoulli posterior counts, AIS
//! weighted sums, strata when they cannot be recomputed), the xoshiro RNG
//! state words, any suspended (proposed-but-unlabelled) tickets, and the
//! oracle/budget state.  Checkpoints serialise to JSON through the vendored
//! `serde`'s [`json`](serde::json) layer, whose shortest-round-trip float
//! encoding makes the JSON form as exact as the in-memory one.
//!
//! The pool itself is *not* embedded — pools are shared across many sessions
//! and can be huge.  Instead the checkpoint records the pool id, length and a
//! content fingerprint, and [`Session::restore`](crate::Session::restore)
//! refuses to resume against a pool that does not match.
//!
//! # Formats
//!
//! [`CHECKPOINT_FORMAT`] (`oasis-engine/checkpoint-v2`) is the only format
//! written.  It stores nothing the verified pool already determines, so its
//! size is O(strata + labels), not O(pool):
//!
//! * **Strata are recomputed, not stored**, for every sampler built by its
//!   configured stratifier (all engine sessions).  Stratification is a
//!   deterministic function of the pool's scores and the strata count, and
//!   the fingerprint pins the scores, so rerunning the stratifier — per
//!   shard sub-pool for sharded sessions — gives back the same allocations
//!   and, through `Strata::from_allocations`, the same summary bits.  Custom
//!   strata (`with_strata`) are still stored in full.
//! * **Pool-length bool vectors are sorted index lists**: `labelled`, and
//!   `truth` and `queried` for ground-truth sessions, list the positions
//!   that are `true`.  Restore rejects a list that is unsorted, repeats an
//!   index, or names one at or past `pool_len`.
//!
//! `oasis-engine/checkpoint-v1` documents, which store full allocations and
//! bool arrays, are still read.  A v1 sampler whose stored strata equal the
//! recomputed ones is marked canonical on restore, so its next checkpoint is
//! compact.

use crate::error::{EngineError, EngineResult};
use crate::session::{SessionLimits, Ticket};
use oasis::samplers::SamplerState;
use oasis::{Proposal, ScoredPool};
use serde::json::{FromJson, Json, JsonError, JsonResult, ToJson};

/// Version tag embedded in every checkpoint document written.
pub const CHECKPOINT_FORMAT: &str = "oasis-engine/checkpoint-v2";

/// Version tag of the previous format: full strata allocations and
/// pool-length bool arrays.  Still accepted on read.
pub const CHECKPOINT_FORMAT_V1: &str = "oasis-engine/checkpoint-v1";

/// FNV-1a content fingerprint of a pool (score bits + predictions), used to
/// verify a checkpoint is restored against the pool it was captured on.
/// Memoised on the pool ([`ScoredPool::fingerprint`]), so sessions sharing
/// one `Arc<ScoredPool>` hash it once between them.
pub fn pool_fingerprint(pool: &ScoredPool) -> u64 {
    pool.fingerprint()
}

/// Oracle/budget state carried in a checkpoint.
///
/// Per-item flags are sorted lists of the pool indices whose flag is set;
/// [`Session::restore`](crate::Session::restore) validates them against the
/// pool.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleCheckpoint {
    /// Externally labelled session: the footnote-5 budget.
    External {
        /// Pool items labelled at least once, ascending.
        labelled: Vec<usize>,
        /// Number of distinct items labelled (recomputed on restore).
        distinct: usize,
    },
    /// In-process deterministic oracle: hidden truth plus budget accounting.
    GroundTruth {
        /// Pool items whose hidden ground-truth label is a match, ascending.
        truth: Vec<usize>,
        /// Pool items queried at least once (the budget), ascending.
        queried: Vec<usize>,
        /// Total queries issued, including cache hits.
        queries_issued: usize,
    },
}

/// The positions of `flags` that are set, ascending — the checkpoint form of
/// a pool-length bool vector.
pub(crate) fn set_indices(flags: &[bool]) -> Vec<usize> {
    flags
        .iter()
        .enumerate()
        .filter_map(|(index, &flag)| flag.then_some(index))
        .collect()
}

/// Expand a sorted index list back into a `len`-long bool vector.
///
/// # Errors
/// [`EngineError::CheckpointMismatch`] naming `what` if the list is not
/// strictly ascending (unsorted or repeated) or holds an index `>= len`.
pub(crate) fn flags_from_indices(
    indices: &[usize],
    len: usize,
    what: &str,
) -> EngineResult<Vec<bool>> {
    let mut flags = vec![false; len];
    let mut previous = None;
    for &index in indices {
        if previous.is_some_and(|previous| index <= previous) {
            return Err(EngineError::CheckpointMismatch(format!(
                "{what} index list is not strictly ascending at {index}"
            )));
        }
        let Some(flag) = flags.get_mut(index) else {
            return Err(EngineError::CheckpointMismatch(format!(
                "{what} index {index} is outside the {len}-item pool"
            )));
        };
        *flag = true;
        previous = Some(index);
    }
    Ok(flags)
}

/// A full, exact-resume snapshot of one [`Session`](crate::Session).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The session id.
    pub session_id: String,
    /// Id of the pool the session evaluates (not embedded; see module docs).
    pub pool_id: String,
    /// Pool length, verified on restore.
    pub pool_len: usize,
    /// Pool content fingerprint, verified on restore.
    pub pool_fingerprint: u64,
    /// The seed the session RNG was originally created from.
    pub seed: u64,
    /// Current xoshiro256++ state words of the session RNG.
    pub rng_words: [u64; 4],
    /// Sampler state (posterior, estimator sums, non-canonical strata).
    pub sampler: SamplerState,
    /// Suspended (proposed-but-unlabelled) tickets, oldest first.
    pub pending: Vec<Ticket>,
    /// The next ticket id to issue.
    pub next_ticket: u64,
    /// Robustness limits (lease timeout, pending cap); defaults on
    /// documents written before lease support.
    pub limits: SessionLimits,
    /// The session's logical lease clock (0 on pre-lease documents).
    pub lease_now_us: u64,
    /// Oracle/budget state.
    pub oracle: OracleCheckpoint,
}

impl SessionCheckpoint {
    /// Serialise to a single-line JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse a checkpoint from its JSON text.
    ///
    /// # Errors
    /// Any parse or schema failure, including a wrong `format` tag.
    pub fn from_json_string(text: &str) -> EngineResult<Self> {
        let value = Json::parse(text)?;
        Ok(Self::from_json(&value)?)
    }
}

impl ToJson for Ticket {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("ticket", self.id.to_json());
        obj.set("item", self.proposal.item.to_json());
        obj.set("stratum", self.proposal.stratum.to_json());
        obj.set("prediction", self.proposal.prediction.to_json());
        obj.set("weight", self.proposal.weight.to_json());
        if self.issued_at_us != 0 {
            obj.set("issued_at_us", self.issued_at_us.to_json());
        }
        obj
    }
}

impl FromJson for Ticket {
    fn from_json(value: &Json) -> JsonResult<Self> {
        Ok(Ticket {
            id: value.require("ticket")?.as_u64()?,
            proposal: Proposal {
                item: value.require("item")?.as_usize()?,
                stratum: value.require("stratum")?.as_usize()?,
                prediction: value.require("prediction")?.as_bool()?,
                weight: value.require("weight")?.as_f64()?,
            },
            issued_at_us: match value.get("issued_at_us") {
                Some(at) => at.as_u64()?,
                None => 0,
            },
        })
    }
}

impl ToJson for OracleCheckpoint {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        match self {
            OracleCheckpoint::External { labelled, distinct } => {
                obj.set("kind", Json::String("external".to_string()));
                obj.set("labelled", labelled.to_json());
                obj.set("distinct", distinct.to_json());
            }
            OracleCheckpoint::GroundTruth {
                truth,
                queried,
                queries_issued,
            } => {
                obj.set("kind", Json::String("ground_truth".to_string()));
                obj.set("truth", truth.to_json());
                obj.set("queried", queried.to_json());
                obj.set("queries_issued", queries_issued.to_json());
            }
        }
        obj
    }
}

impl OracleCheckpoint {
    /// Decode the oracle object.  `v1_pool_len` is `Some(pool_len)` for a
    /// `checkpoint-v1` document, whose flags are pool-length bool arrays;
    /// `None` reads v2 index lists.
    fn decode(value: &Json, v1_pool_len: Option<usize>) -> JsonResult<Self> {
        let flags = |key: &str| -> JsonResult<Vec<usize>> {
            let field = value.require(key)?;
            let Some(pool_len) = v1_pool_len else {
                return Vec::<usize>::from_json(field);
            };
            let bools = Vec::<bool>::from_json(field)?;
            if bools.len() != pool_len {
                return Err(JsonError::new(format!(
                    "{key} covers {} items but the pool has {pool_len}",
                    bools.len()
                )));
            }
            Ok(set_indices(&bools))
        };
        match value.require("kind")?.as_str()? {
            "external" => Ok(OracleCheckpoint::External {
                labelled: flags("labelled")?,
                distinct: value.require("distinct")?.as_usize()?,
            }),
            "ground_truth" => Ok(OracleCheckpoint::GroundTruth {
                truth: flags("truth")?,
                queried: flags("queried")?,
                queries_issued: value.require("queries_issued")?.as_usize()?,
            }),
            other => Err(JsonError::new(format!("unknown oracle kind {other:?}"))),
        }
    }
}

impl ToJson for SessionCheckpoint {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("format", Json::String(CHECKPOINT_FORMAT.to_string()));
        obj.set("session", Json::String(self.session_id.clone()));
        obj.set("pool", Json::String(self.pool_id.clone()));
        obj.set("pool_len", self.pool_len.to_json());
        obj.set("pool_fingerprint", self.pool_fingerprint.to_json());
        obj.set("seed", self.seed.to_json());
        obj.set("rng", self.rng_words.to_vec().to_json());
        obj.set("sampler", self.sampler.to_json());
        obj.set("pending", self.pending.to_json());
        obj.set("next_ticket", self.next_ticket.to_json());
        // Lease state is only written when it diverges from the defaults, so
        // lease-free sessions keep the pre-lease document shape.
        if let Some(timeout) = self.limits.lease_timeout_us {
            obj.set("lease_timeout_us", timeout.to_json());
        }
        if let Some(cap) = self.limits.max_pending {
            obj.set("max_pending", cap.to_json());
        }
        if self.lease_now_us != 0 {
            obj.set("lease_now_us", self.lease_now_us.to_json());
        }
        obj.set("oracle", self.oracle.to_json());
        obj
    }
}

impl FromJson for SessionCheckpoint {
    fn from_json(value: &Json) -> JsonResult<Self> {
        let format = value.require("format")?.as_str()?;
        let v1 = match format {
            CHECKPOINT_FORMAT => false,
            CHECKPOINT_FORMAT_V1 => true,
            other => {
                return Err(JsonError::new(format!(
                    "unsupported checkpoint format {other:?} (expected {CHECKPOINT_FORMAT:?} \
                     or {CHECKPOINT_FORMAT_V1:?})"
                )))
            }
        };
        let pool_len = value.require("pool_len")?.as_usize()?;
        let rng_vec = Vec::<u64>::from_json(value.require("rng")?)?;
        let rng_words: [u64; 4] = rng_vec
            .try_into()
            .map_err(|_| JsonError::new("rng state must have exactly 4 words"))?;
        Ok(SessionCheckpoint {
            session_id: String::from_json(value.require("session")?)?,
            pool_id: String::from_json(value.require("pool")?)?,
            pool_len,
            pool_fingerprint: value.require("pool_fingerprint")?.as_u64()?,
            seed: value.require("seed")?.as_u64()?,
            rng_words,
            sampler: SamplerState::from_json(value.require("sampler")?)?,
            pending: Vec::<Ticket>::from_json(value.require("pending")?)?,
            next_ticket: value.require("next_ticket")?.as_u64()?,
            limits: SessionLimits {
                lease_timeout_us: match value.get("lease_timeout_us") {
                    Some(timeout) => Some(timeout.as_u64()?),
                    None => None,
                },
                max_pending: match value.get("max_pending") {
                    Some(cap) => Some(cap.as_usize()?),
                    None => None,
                },
            },
            lease_now_us: match value.get("lease_now_us") {
                Some(now) => now.as_u64()?,
                None => 0,
            },
            oracle: OracleCheckpoint::decode(value.require("oracle")?, v1.then_some(pool_len))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionSpec};
    use oasis::OasisConfig;
    use std::sync::Arc;

    fn pool_and_truth(n: usize, seed: u64) -> (Arc<ScoredPool>, Vec<bool>) {
        crate::test_support::pool_and_truth(n, seed, 0.07)
    }

    #[test]
    fn fingerprint_tracks_pool_content() {
        let (a, _) = pool_and_truth(100, 1);
        let (b, _) = pool_and_truth(100, 2);
        assert_eq!(pool_fingerprint(&a), pool_fingerprint(&a));
        assert_ne!(pool_fingerprint(&a), pool_fingerprint(&b));
    }

    #[test]
    fn checkpoint_json_round_trip_is_exact() {
        let (pool, truth) = pool_and_truth(600, 3);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(8),
                truth: Some(truth),
                ..SessionSpec::new("s1", "p1", 42)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.step(120).unwrap();
        // Leave a suspended ticket in flight so the pending path is exercised.
        let mut external = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(8),
                ..SessionSpec::new("s2", "p1", 43)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        external.propose(3).unwrap();

        for checkpoint in [session.checkpoint(), external.checkpoint()] {
            let text = checkpoint.to_json_string();
            let parsed = SessionCheckpoint::from_json_string(&text).unwrap();
            assert_eq!(parsed, checkpoint);
        }
    }

    #[test]
    fn interrupted_resume_is_bit_identical_to_uninterrupted_run() {
        let (pool, truth) = pool_and_truth(1500, 4);
        let config = OasisConfig::default().with_strata_count(10);

        // Uninterrupted: 500 steps straight through.
        let mut straight = Session::new(
            SessionSpec {
                config: config.clone(),
                truth: Some(truth.clone()),
                ..SessionSpec::new("s", "p", 2017)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        let expected = straight.step(500).unwrap();

        // Interrupted at step 180: checkpoint → JSON → restore → continue.
        let mut interrupted = Session::new(
            SessionSpec {
                config,
                truth: Some(truth),
                ..SessionSpec::new("s", "p", 2017)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        interrupted.step(180).unwrap();
        let text = interrupted.checkpoint().to_json_string();
        drop(interrupted);
        let checkpoint = SessionCheckpoint::from_json_string(&text).unwrap();
        let mut resumed = Session::restore(checkpoint, Arc::clone(&pool)).unwrap();
        let estimate = resumed.step(320).unwrap();

        assert_eq!(estimate.f_measure.to_bits(), expected.f_measure.to_bits());
        assert_eq!(estimate.precision.to_bits(), expected.precision.to_bits());
        assert_eq!(estimate.recall.to_bits(), expected.recall.to_bits());
        assert_eq!(resumed.labels_consumed(), straight.labels_consumed());
    }

    #[test]
    fn restore_rejects_mismatched_pools() {
        let (pool, truth) = pool_and_truth(400, 5);
        let (other, _) = pool_and_truth(400, 6);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(6),
                truth: Some(truth),
                ..SessionSpec::new("s", "p", 1)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.step(20).unwrap();
        let checkpoint = session.checkpoint();
        let err = Session::restore(checkpoint, other).unwrap_err();
        assert!(matches!(
            err,
            crate::error::EngineError::CheckpointMismatch(_)
        ));
    }

    #[test]
    fn restore_rejects_out_of_range_pending_tickets() {
        // A crafted checkpoint must not smuggle out-of-range indices past
        // restore (they would panic a later apply_labels).
        let (pool, truth) = pool_and_truth(300, 8);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(5),
                truth: Some(truth),
                ..SessionSpec::new("s", "p", 3)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.step(10).unwrap();
        session.propose(1).unwrap();
        let good = session.checkpoint();

        let mut bad_item = good.clone();
        bad_item.pending[0].proposal.item = 10_000;
        assert!(Session::restore(bad_item, Arc::clone(&pool)).is_err());

        let mut bad_stratum = good.clone();
        bad_stratum.pending[0].proposal.stratum = 99;
        assert!(Session::restore(bad_stratum, Arc::clone(&pool)).is_err());

        // The unmodified checkpoint still restores.
        assert!(Session::restore(good, pool).is_ok());
    }

    #[test]
    fn session_new_rejects_label_sources_that_do_not_cover_the_pool() {
        let (pool, truth) = pool_and_truth(200, 9);
        let short_truth = SessionSpec {
            config: OasisConfig::default().with_strata_count(4),
            truth: Some(truth[..50].to_vec()),
            ..SessionSpec::new("s", "p", 1)
        };
        assert!(matches!(
            Session::new(short_truth, pool),
            Err(crate::error::EngineError::InvalidLabelSource(_))
        ));
    }

    #[test]
    fn restore_sanitises_budget_and_weights() {
        let (pool, _) = pool_and_truth(200, 10);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                ..SessionSpec::new("s", "p", 5)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.propose(2).unwrap();
        let good = session.checkpoint();

        // A hand-edited `distinct` is recomputed from the labelled list on restore.
        let mut inflated = good.clone();
        if let OracleCheckpoint::External { distinct, .. } = &mut inflated.oracle {
            *distinct = 999;
        }
        let restored = Session::restore(inflated, Arc::clone(&pool)).unwrap();
        assert_eq!(restored.labels_consumed(), 0);

        // Non-finite or negative ticket weights are rejected.
        for bad_weight in [f64::NAN, f64::INFINITY, -1.0] {
            let mut bad = good.clone();
            bad.pending[0].proposal.weight = bad_weight;
            assert!(
                Session::restore(bad, Arc::clone(&pool)).is_err(),
                "weight {bad_weight} must be rejected"
            );
        }
    }

    #[test]
    fn restore_rejects_duplicate_or_reissuable_ticket_ids() {
        let (pool, _) = pool_and_truth(200, 11);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                ..SessionSpec::new("s", "p", 6)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.propose(2).unwrap();
        let good = session.checkpoint();

        // Two pending tickets sharing an id would make one label apply twice.
        let mut duplicated = good.clone();
        duplicated.pending[1].id = duplicated.pending[0].id;
        assert!(Session::restore(duplicated, Arc::clone(&pool)).is_err());

        // next_ticket at/below a pending id would reissue a live ticket id.
        let mut reissuable = good.clone();
        reissuable.next_ticket = 0;
        assert!(Session::restore(reissuable, Arc::clone(&pool)).is_err());

        assert!(Session::restore(good, pool).is_ok());
    }

    #[test]
    fn restore_rejects_corrupt_estimator_sums() {
        let (pool, truth) = pool_and_truth(200, 12);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                truth: Some(truth),
                ..SessionSpec::new("s", "p", 7)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.step(20).unwrap();
        let good = session.checkpoint();
        for corrupt in [f64::NAN, f64::INFINITY, -1.0] {
            let mut bad = good.clone();
            match &mut bad.sampler {
                oasis::SamplerState::Oasis(state) => state.estimator.total_weight = corrupt,
                other => panic!("expected an OASIS state, got {:?}", other.method()),
            }
            assert!(
                Session::restore(bad, Arc::clone(&pool)).is_err(),
                "total_weight {corrupt} must be rejected"
            );
        }
    }

    #[test]
    fn restore_rejects_malformed_index_lists() {
        let (pool, truth) = pool_and_truth(300, 13);
        let spec = |truth| SessionSpec {
            config: OasisConfig::default().with_strata_count(5),
            truth,
            ..SessionSpec::new("s", "p", 9)
        };
        let mut external = Session::new(spec(None), Arc::clone(&pool)).unwrap();
        let tickets = external.propose(6).unwrap();
        let labels: Vec<(u64, bool)> = tickets.iter().map(|t| (t.id, true)).collect();
        external.apply_labels(&labels).unwrap();
        let mut oracle = Session::new(spec(Some(truth)), Arc::clone(&pool)).unwrap();
        oracle.step(40).unwrap();

        fn lists(oracle: &mut OracleCheckpoint) -> Vec<&mut Vec<usize>> {
            match oracle {
                OracleCheckpoint::External { labelled, .. } => vec![labelled],
                OracleCheckpoint::GroundTruth { truth, queried, .. } => vec![truth, queried],
            }
        }
        for good in [external.checkpoint(), oracle.checkpoint()] {
            let list_count = lists(&mut good.clone().oracle).len();
            for which in 0..list_count {
                let tamper = |edit: &dyn Fn(&mut Vec<usize>)| {
                    let mut bad = good.clone();
                    let list = lists(&mut bad.oracle).swap_remove(which);
                    assert!(list.len() >= 2, "the fixture needs two indices");
                    edit(list);
                    // Through the JSON form, as a stored document would arrive.
                    let text = bad.to_json_string();
                    let parsed = SessionCheckpoint::from_json_string(&text).unwrap();
                    Session::restore(parsed, Arc::clone(&pool)).unwrap_err()
                };
                let unsorted = tamper(&|list| list.swap(0, 1));
                let duplicate = tamper(&|list| list[1] = list[0]);
                let out_of_range = tamper(&|list| list.push(pool.len()));
                for err in [unsorted, duplicate, out_of_range] {
                    assert!(
                        matches!(err, crate::error::EngineError::CheckpointMismatch(_)),
                        "{err}"
                    );
                }
            }
            assert!(Session::restore(good, Arc::clone(&pool)).is_ok());
        }
    }

    #[test]
    fn restore_rejects_a_strata_count_the_state_does_not_fit() {
        // Canonical strata are recomputed from the stored config, so a
        // tampered `strata_count` yields strata the posterior rows do not
        // cover, and even an absurd one must fail promptly.
        let (pool, _) = pool_and_truth(400, 16);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(6),
                ..SessionSpec::new("s", "p", 12)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.propose(1).unwrap();
        let good = session.checkpoint();
        for tampered in [3, usize::MAX] {
            let mut bad = good.clone();
            match &mut bad.sampler {
                oasis::SamplerState::Oasis(state) => state.config.strata_count = tampered,
                other => panic!("expected an OASIS state, got {:?}", other.method()),
            }
            assert!(
                Session::restore(bad, Arc::clone(&pool)).is_err(),
                "{tampered}"
            );
        }
        assert!(Session::restore(good, pool).is_ok());
    }

    #[test]
    fn v2_documents_store_no_canonical_strata_and_list_set_indices() {
        let (pool, truth) = pool_and_truth(400, 14);
        let mut session = Session::new(
            SessionSpec {
                method: oasis::SamplerMethod::Stratified,
                config: OasisConfig::default().with_strata_count(4),
                truth: Some(truth.clone()),
                ..SessionSpec::new("s", "p", 10)
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.step(30).unwrap();
        let checkpoint = session.checkpoint();
        let text = checkpoint.to_json_string();
        assert!(text.contains(r#""format":"oasis-engine/checkpoint-v2""#));
        assert!(!text.contains("allocations"), "{text}");
        let OracleCheckpoint::GroundTruth { truth: listed, .. } = &checkpoint.oracle else {
            panic!("expected a ground-truth oracle");
        };
        let expected: Vec<usize> = (0..truth.len()).filter(|&i| truth[i]).collect();
        assert_eq!(listed, &expected);
    }

    #[test]
    fn a_200_label_session_on_a_30k_pool_renders_under_16_kib() {
        let (pool, truth) = pool_and_truth(30_000, 15);
        let mut session = Session::new(SessionSpec::new("s", "p", 11), Arc::clone(&pool)).unwrap();
        for _ in 0..200 {
            let ticket = session.propose(1).unwrap()[0];
            let label = truth[ticket.proposal.item];
            session.apply_labels(&[(ticket.id, label)]).unwrap();
        }
        assert!(session.labels_consumed() > 0);
        let bytes = crate::store::render_envelope(&session.checkpoint(), 200).len();
        assert!(bytes < 16 * 1024, "envelope is {bytes} bytes");
    }

    #[test]
    fn bad_checkpoint_documents_are_rejected() {
        assert!(SessionCheckpoint::from_json_string("not json").is_err());
        assert!(SessionCheckpoint::from_json_string("{}").is_err());
        assert!(
            SessionCheckpoint::from_json_string(r#"{"format":"something-else"}"#).is_err(),
            "wrong format tag must be rejected"
        );
    }
}
