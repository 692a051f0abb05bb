//! The multi-session engine: shared pools, named sessions, and a scoped
//! worker pool that drives many sessions concurrently.
//!
//! Sessions are fully independent (own sampler, own RNG, own oracle), so
//! driving them from `W` worker threads produces estimates bit-identical to
//! driving them one after another — concurrency changes wall-clock time, not
//! results.  That property is what the `engine_parity` tests and experiment
//! driver assert.

use crate::checkpoint::SessionCheckpoint;
use crate::error::{EngineError, EngineResult};
use crate::metrics::{Clock, Counter, MetricsRegistry, MonotonicClock};
use crate::session::{Session, SessionSpec};
use crate::store::{parse_envelope, render_envelope, CheckpointStore};
use crate::wal::{self, Applied, WalEntry, WalRecord};
use oasis::{Estimate, SamplerMethod, ScoredPool};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Extra attempts after a transient store fault.  No jitter — retry
/// behaviour must be as reproducible as everything else.
const STORE_RETRIES: u32 = 3;

/// Delay before the first store retry; doubles each attempt.
const STORE_RETRY_DELAY: Duration = Duration::from_millis(1);

/// An evicted session is checkpointed on the way out only once its WAL
/// suffix holds this many records; a shorter suffix stays in the WAL and is
/// replayed on rehydration.  Replay costs about 1.7 us per record on a
/// 32k-pair pool (2-vCPU VM), so the longest suffix left behind costs about
/// what the avoided write costs: the document plus a file and a directory
/// fsync, whose latency follows the disk rather than this process.
const EVICTION_CHECKPOINT_RECORDS: u64 = 512;

/// What a WAL replay did: how many records were applied, and whether a
/// partial trailing record (crash mid-append) was truncated along the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records replayed on top of the checkpoint.
    pub replayed: usize,
    /// Whether a torn trailing WAL record was dropped and scrubbed.
    pub truncated_tail: bool,
}

/// A unit of work for [`Engine::run_parallel`]: drive one session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionJob {
    /// Run a fixed number of steps.
    Steps {
        /// Session id.
        session: String,
        /// Number of propose→query→apply iterations.
        steps: usize,
    },
    /// Run until the label budget is consumed (or `max_steps` elapse).
    Budget {
        /// Session id.
        session: String,
        /// Distinct-label budget.
        budget: usize,
        /// Iteration cap.
        max_steps: usize,
    },
}

/// A resident session beside its LRU stamp, which a lookup bumps without
/// taking the session's mutex.
#[derive(Debug)]
struct Resident {
    session: Arc<Mutex<Session>>,
    /// Logical access time for LRU eviction.
    last_access: AtomicU64,
}

/// A snapshot of one session's identity and progress, cheap enough to build
/// for a `sessions` listing without disturbing the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOverview {
    /// The session id.
    pub id: String,
    /// The sampling method, or `None` for a stored-but-evicted session
    /// (reading it would mean rehydrating the whole checkpoint).
    pub method: Option<SamplerMethod>,
    /// Number of pool shards the session's sampler runs over (1 for flat
    /// samplers), if resident.
    pub shards: Option<usize>,
    /// Pending (proposed but unlabelled) ticket count, if resident.
    pub pending: Option<usize>,
    /// Distinct labels consumed, if resident.
    pub labels_consumed: Option<usize>,
    /// Whether the session has been mutated since its last durable
    /// checkpoint.
    pub dirty: bool,
    /// Whether the session is resident in memory (vs. only in the store).
    pub resident: bool,
}

/// The engine: a registry of shared pools and concurrent sessions.
///
/// All methods take `&self`; interior locking makes the engine shareable
/// across server connections and worker threads.
///
/// With a [`CheckpointStore`] attached (see [`Engine::with_store`]) every
/// session is durable: creation writes a base checkpoint, every mutating
/// request is write-ahead logged, [`Engine::checkpoint_to`] compacts log
/// into checkpoint, and a restart — or an access to a session evicted under
/// [`Engine::with_max_resident`] — rebuilds the exact pre-crash state by
/// replaying `latest checkpoint + WAL suffix`.
#[derive(Debug)]
pub struct Engine {
    pools: RwLock<HashMap<String, Arc<ScoredPool>>>,
    sessions: RwLock<HashMap<String, Resident>>,
    store: Option<Arc<dyn CheckpointStore>>,
    max_resident: Option<usize>,
    clock: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    lease_clock: Arc<dyn Clock>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            pools: RwLock::default(),
            sessions: RwLock::default(),
            store: None,
            max_resident: None,
            clock: AtomicU64::new(0),
            metrics: Arc::new(MetricsRegistry::new()),
            lease_clock: Arc::new(MonotonicClock::new()),
        }
    }
}

impl Engine {
    /// An empty engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Attach a durable checkpoint store.  From then on every session is
    /// durable: created sessions write a base checkpoint immediately, and
    /// mutating requests are write-ahead logged before they apply.
    pub fn with_store(mut self, store: Arc<dyn CheckpointStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Cap the number of sessions resident in memory.  Requires a store:
    /// when the cap is exceeded, the least-recently-used session is
    /// evicted (checkpointed first only if its WAL suffix is long), and a
    /// later access rehydrates it transparently from its checkpoint plus
    /// WAL suffix.  Without a store the cap is ignored.
    pub fn with_max_resident(mut self, cap: usize) -> Self {
        self.max_resident = Some(cap.max(1));
        self
    }

    /// Replace the metrics registry — pass [`MetricsRegistry::disabled`] for
    /// an uninstrumented engine (the overhead-bench baseline) or a registry
    /// on a [`ManualClock`](crate::metrics::ManualClock) for deterministic
    /// latency tests.  The default engine is instrumented on the monotonic
    /// clock.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Arc::new(metrics);
        self
    }

    /// Replace the clock lease deadlines are read from.  The default is the
    /// process monotonic clock; tests pass a
    /// [`ManualClock`](crate::metrics::ManualClock) to expire leases at will.
    pub fn with_lease_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.lease_clock = clock;
        self
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A shareable handle to the metrics registry — hand this to a
    /// [`FaultyStore`](crate::fault::FaultyStore) or a guard layer so their
    /// counters land in the same snapshot.
    pub fn metrics_handle(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Run `op`, retrying [`EngineError::StoreTransient`] failures with
    /// doubling backoff ([`STORE_RETRIES`], [`STORE_RETRY_DELAY`]).  An
    /// exhausted budget promotes the fault to a permanent
    /// [`EngineError::Store`]; any other error passes through untouched.
    fn with_store_retry<T>(
        &self,
        what: &str,
        mut op: impl FnMut() -> EngineResult<T>,
    ) -> EngineResult<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(EngineError::StoreTransient(_)) if attempt < STORE_RETRIES => {
                    self.metrics.incr(Counter::RetriedWrite);
                    std::thread::sleep(STORE_RETRY_DELAY * (1u32 << attempt));
                    attempt += 1;
                }
                Err(EngineError::StoreTransient(why)) => {
                    return Err(EngineError::Store(format!(
                        "{what} failed after {attempt} retries: {why}"
                    )));
                }
                other => return other,
            }
        }
    }

    /// Register a pool under `id`, sharing it across future sessions.
    ///
    /// # Errors
    /// [`EngineError::DuplicateId`] if the id is taken.
    pub fn load_pool(&self, id: impl Into<String>, pool: ScoredPool) -> EngineResult<()> {
        let id = id.into();
        let mut pools = self.pools.write();
        if pools.contains_key(&id) {
            return Err(EngineError::DuplicateId(id));
        }
        pools.insert(id, Arc::new(pool));
        Ok(())
    }

    /// Look up a shared pool.
    ///
    /// # Errors
    /// [`EngineError::UnknownPool`] if it was never loaded.
    pub fn pool(&self, id: &str) -> EngineResult<Arc<ScoredPool>> {
        self.pools
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| EngineError::UnknownPool(id.to_string()))
    }

    /// Ids of all loaded pools, sorted.
    pub fn pool_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.pools.read().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Create the session `spec` describes over its (loaded) pool.
    ///
    /// # Errors
    /// Unknown pool, duplicate session id, or any [`Session::new`] failure.
    pub fn create_session(&self, spec: SessionSpec) -> EngineResult<()> {
        let pool = self.pool(&spec.pool)?;
        // Fail fast on an obvious duplicate, but do the expensive sampler
        // construction (stratification is O(N log N)) outside any lock so
        // concurrent traffic on other sessions is not stalled.
        self.reject_duplicate(&spec.id)?;
        self.register(Session::new(spec, pool)?)
    }

    /// A resident or stored-but-evicted session owns its id.
    fn reject_duplicate(&self, session_id: &str) -> EngineResult<()> {
        let duplicate = || Err(EngineError::DuplicateId(session_id.to_string()));
        if self.sessions.read().contains_key(session_id) {
            return duplicate();
        }
        if let Some(store) = &self.store {
            if store.load_checkpoint(session_id)?.is_some() {
                return duplicate();
            }
        }
        Ok(())
    }

    /// Register a freshly built session; with a store attached, write its
    /// base checkpoint first so the WAL always has something to replay onto.
    fn register(&self, mut session: Session) -> EngineResult<()> {
        let session_id = session.id().to_string();
        if let Some(store) = &self.store {
            self.write_checkpoint(&**store, &mut session, "base ")?;
        }
        self.make_resident(session)
            .map_err(|_| EngineError::DuplicateId(session_id))?;
        self.enforce_resident_cap()
    }

    /// Write `session`'s store envelope (checkpoint + WAL watermark), truncate
    /// its log and mark it clean.  The caller owns the session or holds its
    /// lock, so no WAL append can slip in between.  `what` prefixes retry
    /// errors.  Returns the watermark: the next WAL record's sequence number.
    fn write_checkpoint(
        &self,
        store: &dyn CheckpointStore,
        session: &mut Session,
        what: &str,
    ) -> EngineResult<u64> {
        let timer = self.metrics.timer();
        let id = session.id();
        let document = render_envelope(&session.checkpoint(), session.wal_seq);
        self.with_store_retry(&format!("{what}checkpoint write"), || {
            store.put_checkpoint(id, &document)
        })?;
        self.with_store_retry(&format!("{what}WAL truncate"), || store.truncate_wal(id))?;
        self.metrics.incr(Counter::CheckpointWrite);
        self.metrics.record("checkpoint.write", timer);
        session.checkpoint_seq = session.wal_seq;
        session.dirty = false;
        Ok(session.wal_seq)
    }

    /// Insert a session into the resident registry, counting it as sharded
    /// when it runs over more than one shard.  Hands back the
    /// already-resident session instead when the id is taken.
    fn make_resident(&self, session: Session) -> Result<Arc<Mutex<Session>>, Arc<Mutex<Session>>> {
        let session_id = session.id().to_string();
        let sharded = session.shard_count() > 1;
        let mut sessions = self.sessions.write();
        if let Some(existing) = sessions.get(&session_id) {
            return Err(Arc::clone(&existing.session));
        }
        let handle = Arc::new(Mutex::new(session));
        let resident = Resident {
            session: Arc::clone(&handle),
            last_access: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        };
        sessions.insert(session_id, resident);
        if sharded {
            self.metrics.incr(Counter::ShardedSession);
        }
        Ok(handle)
    }

    /// Restore a session from a checkpoint; the checkpointed pool id must be
    /// loaded and match the fingerprint.  The session is registered under
    /// `session_id`, which may differ from the checkpointed id (restore-as).
    ///
    /// # Errors
    /// Unknown pool, duplicate session id, or checkpoint mismatch.
    pub fn restore_session(
        &self,
        session_id: impl Into<String>,
        checkpoint: SessionCheckpoint,
    ) -> EngineResult<()> {
        let pool = self.pool(&checkpoint.pool_id)?;
        let mut checkpoint = checkpoint;
        checkpoint.session_id = session_id.into();
        self.reject_duplicate(&checkpoint.session_id)?;
        // Fingerprint verification and sampler reconstruction are O(N);
        // keep them outside the write lock (same pattern as create_session).
        let timer = self.metrics.timer();
        let session = Session::restore(checkpoint, pool)?;
        self.metrics.incr(Counter::CheckpointRestore);
        self.metrics.record("checkpoint.restore", timer);
        self.register(session)
    }

    /// Fetch a session handle.  With a store attached, a stored-but-evicted
    /// session is rehydrated transparently (checkpoint + WAL replay).
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`] if it exists neither in memory nor in
    /// the store; [`EngineError::Store`] if its store entry is corrupt.
    pub fn session(&self, id: &str) -> EngineResult<Arc<Mutex<Session>>> {
        if let Some(resident) = self.sessions.read().get(id) {
            let now = self.clock.fetch_add(1, Ordering::Relaxed);
            resident.last_access.store(now, Ordering::Relaxed);
            return Ok(Arc::clone(&resident.session));
        }
        self.rehydrate(id).map(|(handle, _)| handle)
    }

    /// Drop a torn trailing record from a session's on-disk WAL: keep the
    /// parseable prefix, truncate, and re-append it.  Best-effort — a store
    /// that cannot even be scrubbed will surface its own error on the next
    /// append, and replay tolerates the torn tail regardless.
    fn scrub_wal_tail(&self, store: &Arc<dyn CheckpointStore>, session_id: &str) {
        let Ok(lines) = store.read_wal(session_id) else {
            return;
        };
        let good: Vec<&String> = lines
            .iter()
            .take_while(|line| WalRecord::parse(line).is_ok())
            .collect();
        if good.len() == lines.len() {
            return;
        }
        if store.truncate_wal(session_id).is_err() {
            return;
        }
        for line in good {
            if store.append_wal(session_id, line).is_err() {
                return;
            }
        }
    }

    /// Rebuild an evicted (or pre-restart) session from the store: restore
    /// the latest checkpoint, then replay the WAL suffix at or beyond its
    /// watermark.  A partial trailing WAL record — the signature of a crash
    /// mid-append — is dropped, scrubbed from disk, and reported; interior
    /// corruption stays a hard error.  Returns the handle and a
    /// [`ReplayReport`].
    fn rehydrate(&self, id: &str) -> EngineResult<(Arc<Mutex<Session>>, ReplayReport)> {
        let unknown = || EngineError::UnknownSession(id.to_string());
        let Some(store) = self.store.clone() else {
            return Err(unknown());
        };
        let timer = self.metrics.timer();
        let Some(document) =
            self.with_store_retry("checkpoint load", || store.load_checkpoint(id))?
        else {
            return Err(unknown());
        };
        let (mut checkpoint, wal_seq) = parse_envelope(&document)?;
        checkpoint.session_id = id.to_string();
        let pool = self.pool(&checkpoint.pool_id)?;
        let mut session = Session::restore(checkpoint, pool)?;
        let lines = self.with_store_retry("WAL read", || store.read_wal(id))?;
        let outcome = wal::parse_lines(&lines)?;
        if outcome.truncated_tail.is_some() {
            self.scrub_wal_tail(&store, id);
        }
        let applied = wal::replay(&mut session, &outcome.records, wal_seq)?;
        session.checkpoint_seq = wal_seq;
        session.wal_seq = wal_seq + applied as u64;
        session.dirty = applied > 0;
        self.metrics.incr(Counter::Rehydration);
        self.metrics.incr(Counter::CheckpointRestore);
        self.metrics.add(Counter::WalReplay, applied as u64);
        self.metrics.record("rehydrate", timer);
        let report = ReplayReport {
            replayed: applied,
            truncated_tail: outcome.truncated_tail.is_some(),
        };
        match self.make_resident(session) {
            Ok(handle) => {
                self.enforce_resident_cap()?;
                Ok((handle, report))
            }
            // Lost a rehydration race; the winner's copy (and its WAL
            // position, possibly advanced by new appends) is the truth.
            Err(existing) => {
                let report = ReplayReport {
                    replayed: 0,
                    truncated_tail: false,
                };
                Ok((existing, report))
            }
        }
    }

    /// Explicitly rehydrate a session from the store (the `restore_from`
    /// protocol verb), returning a [`ReplayReport`]: how many WAL records
    /// were replayed on top of the checkpoint and whether a torn trailing
    /// record had to be truncated.
    ///
    /// # Errors
    /// [`EngineError::Store`] with no store attached or a corrupt entry;
    /// [`EngineError::UnknownSession`] if the store has no such session;
    /// [`EngineError::DuplicateId`] if it is already resident.
    pub fn restore_from(&self, id: &str) -> EngineResult<ReplayReport> {
        if self.store.is_none() {
            return Err(EngineError::Store(
                "no checkpoint store attached".to_string(),
            ));
        }
        if self.sessions.read().contains_key(id) {
            return Err(EngineError::DuplicateId(id.to_string()));
        }
        self.rehydrate(id).map(|(_, report)| report)
    }

    /// Durably checkpoint a session: write the store envelope (checkpoint +
    /// WAL watermark) and truncate its log.  Returns the watermark — the
    /// sequence number the next WAL record will carry.
    ///
    /// # Errors
    /// [`EngineError::Store`] with no store attached or on write failure;
    /// [`EngineError::UnknownSession`] if the session does not exist.
    pub fn checkpoint_to(&self, id: &str) -> EngineResult<u64> {
        let Some(store) = &self.store else {
            return Err(EngineError::Store(
                "no checkpoint store attached".to_string(),
            ));
        };
        let handle = self.session(id)?;
        let mut session = handle.lock();
        self.write_checkpoint(&**store, &mut session, "")
    }

    /// Apply one mutation to a session — the path every live propose,
    /// label, step, run-budget and lease sweep takes.  Under the session
    /// lock it stamps the lease-clock reading into the entry (a propose
    /// reads the clock only on lease-enabled sessions, so lease-free
    /// sessions keep byte-identical WAL lines; an expire always reads it),
    /// write-ahead logs the entry, runs it through [`WalEntry::apply`],
    /// counts it, and hands the session and the outcome to `render` before
    /// the lock is released.  Replay runs the same [`WalEntry::apply`]
    /// without logging or counting.
    ///
    /// # Errors
    /// Unknown session, a failed WAL append (the session is untouched), or
    /// the mutation's own error — logged first, so replay reproduces it.
    pub(crate) fn mutate<R>(
        &self,
        session_id: &str,
        mut entry: WalEntry,
        render: impl FnOnce(&Session, Applied) -> R,
    ) -> EngineResult<R> {
        let timer = self.metrics.timer();
        let handle = self.session(session_id)?;
        let mut session = handle.lock();
        match &mut entry {
            WalEntry::Propose { now_us, .. } => {
                *now_us = session
                    .limits()
                    .lease_timeout_us
                    .map(|_| self.lease_clock.now_micros());
            }
            WalEntry::Expire { now_us } => *now_us = self.lease_clock.now_micros(),
            _ => {}
        }
        self.log_wal(&mut session, &entry)?;
        let pending = session.pending_count();
        let applied = entry.apply(&mut session).inspect_err(|_| {
            // A failed mutation leaves the queue alone, except a propose
            // rejected by backpressure after sweeping expired leases: those
            // expiries happened (and replay repeats them), so count them.
            let swept = pending - session.pending_count();
            self.metrics.add(Counter::LeaseExpiry, swept as u64);
        })?;
        let metrics = &self.metrics;
        let routed = match &applied {
            Applied::Proposed { expired, tickets } => {
                metrics.add(Counter::LeaseExpiry, expired.len() as u64);
                metrics.add(Counter::Propose, tickets.len() as u64);
                Some(tickets.len())
            }
            // A lease sweep is counted but not timed.
            Applied::Expired(expired) => {
                metrics.add(Counter::LeaseExpiry, expired.len() as u64);
                None
            }
            Applied::Labelled(labels) => {
                metrics.add(Counter::Label, *labels as u64);
                Some(0)
            }
            Applied::Ran { steps, .. } => {
                match entry {
                    WalEntry::RunBudget { .. } => metrics.incr(Counter::RunBudget),
                    _ => metrics.add(Counter::Step, *steps as u64),
                }
                Some(*steps)
            }
        };
        if let Some(routed) = routed {
            if session.shard_count() > 1 {
                metrics.add(Counter::ShardRoute, routed as u64);
            }
            let method = session.method().as_str();
            metrics.record(&format!("{}.{method}", entry.op()), timer);
        }
        Ok(render(&session, applied))
    }

    /// Append a mutation record to a session's write-ahead log, assigning
    /// the next sequence number.  Called only by [`Engine::mutate`], with
    /// the session's mutex held and *before* the mutation is applied — that
    /// ordering is what makes the log a write-*ahead* log and keeps
    /// concurrent batches in application order.  Takes no engine-wide lock,
    /// so a slow append stalls only its own session.  No-op (except
    /// dirtiness tracking) without a store.
    fn log_wal(&self, session: &mut Session, entry: &WalEntry) -> EngineResult<()> {
        let session_id = session.id();
        if let Some(store) = &self.store {
            let record = WalRecord {
                seq: session.wal_seq,
                entry: entry.clone(),
            };
            let line = record.render();
            let timer = self.metrics.timer();
            if let Err(err) =
                self.with_store_retry("WAL append", || store.append_wal(session_id, &line))
            {
                // A failed append may still have put a torn prefix on disk
                // (crash mid-write).  Scrub it now so later successful
                // appends cannot bury it as interior corruption, which
                // replay treats as fatal.
                self.scrub_wal_tail(store, session_id);
                return Err(err);
            }
            self.metrics.incr(Counter::WalAppend);
            self.metrics.record("wal.append", timer);
            session.wal_seq += 1;
        }
        session.dirty = true;
        Ok(())
    }

    /// Evict least-recently-used sessions until the resident count is
    /// within the configured cap.  A victim is dropped as it is: its stored
    /// checkpoint plus its WAL suffix already rebuild it exactly, and every
    /// acknowledged mutation is in the WAL whether or not the session is
    /// resident.  Only a victim whose suffix has reached
    /// [`EVICTION_CHECKPOINT_RECORDS`] is checkpointed first, so that
    /// rehydration never replays more than that.
    fn enforce_resident_cap(&self) -> EngineResult<()> {
        let Some(cap) = self.max_resident else {
            return Ok(());
        };
        let Some(store) = &self.store else {
            return Ok(());
        };
        loop {
            let victim = {
                let sessions = self.sessions.read();
                if sessions.len() <= cap {
                    return Ok(());
                }
                sessions
                    .iter()
                    .min_by_key(|(_, resident)| resident.last_access.load(Ordering::Relaxed))
                    .map(|(id, resident)| (id.clone(), Arc::clone(&resident.session)))
            };
            let Some((victim, handle)) = victim else {
                return Ok(());
            };
            {
                let mut session = handle.lock();
                if session.wal_seq - session.checkpoint_seq >= EVICTION_CHECKPOINT_RECORDS {
                    self.write_checkpoint(&**store, &mut session, "")?;
                }
            }
            self.sessions.write().remove(&victim);
            self.metrics.incr(Counter::Eviction);
        }
    }

    /// Ids of all known sessions — resident and stored — sorted.
    pub fn session_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.sessions.read().keys().cloned().collect();
        if let Some(store) = &self.store {
            if let Ok(stored) = store.list_sessions() {
                ids.extend(stored);
            }
        }
        ids.sort();
        ids.dedup();
        ids
    }

    /// Per-session metadata for every known session, sorted by id.  Resident
    /// sessions report method/pending/labels; stored-but-evicted ones only
    /// their identity (reading more would mean rehydrating the checkpoint).
    pub fn session_overviews(&self) -> Vec<SessionOverview> {
        self.session_ids()
            .into_iter()
            .map(|id| {
                let resident = self
                    .sessions
                    .read()
                    .get(&id)
                    .map(|r| Arc::clone(&r.session));
                match resident {
                    Some(handle) => {
                        let session = handle.lock();
                        SessionOverview {
                            id,
                            method: Some(session.method()),
                            shards: Some(session.shard_count()),
                            pending: Some(session.pending_count()),
                            labels_consumed: Some(session.labels_consumed()),
                            dirty: session.dirty,
                            resident: true,
                        }
                    }
                    None => SessionOverview {
                        id,
                        method: None,
                        shards: None,
                        pending: None,
                        labels_consumed: None,
                        dirty: false, // only resident state counts as dirty
                        resident: false,
                    },
                }
            })
            .collect()
    }

    /// Remove a session everywhere: the resident registry and (with a
    /// store) its checkpoint and log.
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`] if it exists neither in memory nor in
    /// the store.
    pub fn delete_session(&self, id: &str) -> EngineResult<()> {
        let resident = self.sessions.write().remove(id).is_some();
        let mut stored = false;
        if let Some(store) = &self.store {
            stored = store.load_checkpoint(id)?.is_some();
            store.remove(id)?;
        }
        if resident || stored {
            Ok(())
        } else {
            Err(EngineError::UnknownSession(id.to_string()))
        }
    }

    /// Drive many sessions concurrently on a pool of `workers` scoped
    /// threads, returning one estimate per job in job order.
    ///
    /// Work is distributed by an atomic cursor over the job list; since each
    /// session owns its RNG and oracle, the estimates are bit-identical to
    /// running the jobs sequentially, whatever the interleaving — provided
    /// each session appears in at most one job.  Jobs naming the same session
    /// are safe (the per-session mutex serialises them) but race for lock
    /// order, so their split of the session's RNG stream is not
    /// deterministic.
    ///
    /// # Errors
    /// The first failing job's error (all jobs still run to completion).
    pub fn run_parallel(&self, jobs: &[SessionJob], workers: usize) -> EngineResult<Vec<Estimate>> {
        let workers = workers.max(1).min(jobs.len().max(1));
        let cursor = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<EngineResult<Estimate>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();

        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= jobs.len() {
                        break;
                    }
                    let job = &jobs[index];
                    let outcome = self.run_job(job);
                    *results[index].lock() = Some(outcome);
                });
            }
        })
        .expect("engine worker panicked");

        let mut estimates = Vec::with_capacity(jobs.len());
        for slot in results {
            estimates.push(slot.into_inner().expect("every job ran")?);
        }
        Ok(estimates)
    }

    fn run_job(&self, job: &SessionJob) -> EngineResult<Estimate> {
        let (session, entry) = match job {
            SessionJob::Steps { session, steps } => (session, WalEntry::Step { steps: *steps }),
            SessionJob::Budget {
                session,
                budget,
                max_steps,
            } => (
                session,
                WalEntry::RunBudget {
                    label_budget: *budget,
                    max_steps: *max_steps,
                },
            ),
        };
        self.mutate(session, entry, |_, applied| match applied {
            Applied::Ran { estimate, .. } => estimate,
            other => unreachable!("a step entry applied as {other:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis::{GroundTruthOracle, OasisConfig, OasisSampler, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool_and_truth(n: usize, seed: u64) -> (ScoredPool, Vec<bool>) {
        let (pool, truth) = crate::test_support::pool_and_truth(n, seed, 0.05);
        ((*pool).clone(), truth)
    }

    #[test]
    fn pool_and_session_registry_basics() {
        let engine = Engine::new();
        let (pool, truth) = pool_and_truth(300, 1);
        engine.load_pool("p", pool.clone()).unwrap();
        assert!(matches!(
            engine.load_pool("p", pool),
            Err(EngineError::DuplicateId(_))
        ));
        assert!(matches!(engine.pool("q"), Err(EngineError::UnknownPool(_))));
        assert_eq!(engine.pool_ids(), vec!["p".to_string()]);

        engine
            .create_session(SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                truth: Some(truth),
                ..SessionSpec::new("s", "p", 1)
            })
            .unwrap();
        assert!(matches!(
            engine.create_session(SessionSpec::new("s", "p", 1)),
            Err(EngineError::DuplicateId(_))
        ));
        assert_eq!(engine.session_ids(), vec!["s".to_string()]);
        engine.delete_session("s").unwrap();
        assert!(matches!(
            engine.delete_session("s"),
            Err(EngineError::UnknownSession(_))
        ));
    }

    #[test]
    fn parallel_jobs_are_counted_like_step_requests() {
        let (pool, truth) = pool_and_truth(300, 5);
        let engine = Engine::new();
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "s", &truth, 1);
        engine.run_parallel(&steps_job("s", 40), 1).unwrap();
        assert_eq!(engine.metrics().counter(Counter::Step), 40);
        let samples = engine.metrics().histogram("step.oasis").map(|h| h.count());
        assert_eq!(samples, Some(1));
    }

    #[test]
    fn concurrent_sessions_match_sequential_library_runs_bitwise() {
        let (pool, truth) = pool_and_truth(2500, 2);
        let config = OasisConfig::default().with_strata_count(15);
        let seeds: Vec<u64> = (100..108).collect();
        let steps = 300;

        // Sequential library reference, one run per seed.
        let mut expected = Vec::new();
        for &seed in &seeds {
            let mut oracle = GroundTruthOracle::new(truth.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sampler = OasisSampler::new(&pool, config.clone()).unwrap();
            expected.push(sampler.run(&pool, &mut oracle, &mut rng, steps).unwrap());
        }

        // Engine: 8 sessions over one shared Arc pool, 4 workers.
        let engine = Engine::new();
        engine.load_pool("p", pool).unwrap();
        for &seed in &seeds {
            engine
                .create_session(SessionSpec {
                    config: config.clone(),
                    truth: Some(truth.clone()),
                    ..SessionSpec::new(format!("s{seed}"), "p", seed)
                })
                .unwrap();
        }
        let jobs: Vec<SessionJob> = seeds
            .iter()
            .map(|seed| SessionJob::Steps {
                session: format!("s{seed}"),
                steps,
            })
            .collect();
        let estimates = engine.run_parallel(&jobs, 4).unwrap();

        for (estimate, reference) in estimates.iter().zip(expected.iter()) {
            assert_eq!(estimate.f_measure.to_bits(), reference.f_measure.to_bits());
            assert_eq!(estimate.precision.to_bits(), reference.precision.to_bits());
            assert_eq!(estimate.recall.to_bits(), reference.recall.to_bits());
        }
    }

    #[test]
    fn parallel_budget_jobs_and_error_reporting() {
        let (pool, truth) = pool_and_truth(800, 3);
        let engine = Engine::new();
        engine.load_pool("p", pool).unwrap();
        engine
            .create_session(SessionSpec {
                config: OasisConfig::default().with_strata_count(6),
                truth: Some(truth),
                ..SessionSpec::new("good", "p", 5)
            })
            .unwrap();
        let jobs = vec![
            SessionJob::Budget {
                session: "good".to_string(),
                budget: 50,
                max_steps: 50_000,
            },
            SessionJob::Steps {
                session: "missing".to_string(),
                steps: 1,
            },
        ];
        let err = engine.run_parallel(&jobs, 2).unwrap_err();
        assert!(matches!(err, EngineError::UnknownSession(_)));

        // Without the bad job the budget run completes.
        let estimates = engine.run_parallel(&jobs[..1], 2).unwrap();
        assert_eq!(estimates.len(), 1);
        let session = engine.session("good").unwrap();
        assert!(session.lock().labels_consumed() >= 50);
    }

    fn scratch_store(tag: &str) -> (std::path::PathBuf, Arc<crate::store::FsCheckpointStore>) {
        let dir =
            std::env::temp_dir().join(format!("oasis-engine-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(crate::store::FsCheckpointStore::open(&dir).unwrap());
        (dir, store)
    }

    fn durable_engine(store: &Arc<crate::store::FsCheckpointStore>) -> Engine {
        Engine::new().with_store(Arc::clone(store) as Arc<dyn CheckpointStore>)
    }

    fn oracle_session(engine: &Engine, id: &str, truth: &[bool], seed: u64) {
        engine
            .create_session(SessionSpec {
                config: OasisConfig::default().with_strata_count(6),
                truth: Some(truth.to_vec()),
                ..SessionSpec::new(id, "p", seed)
            })
            .unwrap();
    }

    fn steps_job(id: &str, steps: usize) -> Vec<SessionJob> {
        vec![SessionJob::Steps {
            session: id.to_string(),
            steps,
        }]
    }

    #[test]
    fn durable_sessions_replay_checkpoint_plus_wal_after_a_crash() {
        let (dir, store) = scratch_store("crash");
        let (pool, truth) = pool_and_truth(800, 31);

        // Reference: a run that never crashed, in a store-less engine.
        let reference = Engine::new();
        reference.load_pool("p", pool.clone()).unwrap();
        oracle_session(&reference, "s", &truth, 5);
        reference.run_parallel(&steps_job("s", 200), 1).unwrap();
        let reference_session = reference.session("s").unwrap();
        let reference_session = reference_session.lock();

        // Durable run: 120 steps, a durable checkpoint, 80 more steps that
        // live only in the WAL — then the process "dies" (engine dropped).
        {
            let engine = durable_engine(&store);
            engine.load_pool("p", pool.clone()).unwrap();
            oracle_session(&engine, "s", &truth, 5);
            engine.run_parallel(&steps_job("s", 120), 1).unwrap();
            engine.checkpoint_to("s").unwrap();
            engine.run_parallel(&steps_job("s", 80), 1).unwrap();
        }

        // Restart: a fresh engine over the same store directory.  The pool
        // is not durable — the client reloads it — but the session state is.
        let revived = Engine::new().with_store(Arc::new(
            crate::store::FsCheckpointStore::open(&dir).unwrap(),
        ) as Arc<dyn CheckpointStore>);
        revived.load_pool("p", pool).unwrap();
        let report = revived.restore_from("s").unwrap();
        assert_eq!(report.replayed, 1, "one WAL record");
        assert!(!report.truncated_tail, "clean shutdown leaves no torn tail");
        let session = revived.session("s").unwrap();
        let session = session.lock();
        assert_eq!(
            session.estimate().f_measure.to_bits(),
            reference_session.estimate().f_measure.to_bits()
        );
        assert_eq!(
            session.labels_consumed(),
            reference_session.labels_consumed()
        );
        let a = session.confidence_interval(0.95).unwrap();
        let b = reference_session.confidence_interval(0.95).unwrap();
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
        assert!(session.variance_tracked());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_checkpoints_idle_sessions_and_rehydrates_on_access() {
        let (dir, store) = scratch_store("lru");
        let (pool, truth) = pool_and_truth(600, 32);

        let reference = Engine::new();
        reference.load_pool("p", pool.clone()).unwrap();
        oracle_session(&reference, "s1", &truth, 7);
        reference.run_parallel(&steps_job("s1", 90), 1).unwrap();

        let engine = durable_engine(&store).with_max_resident(1);
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "s1", &truth, 7);
        engine.run_parallel(&steps_job("s1", 40), 1).unwrap();
        // Creating s2 exceeds the cap: s1 (least recently used) is evicted,
        // its steps left in the WAL.
        oracle_session(&engine, "s2", &truth, 8);
        let overviews = engine.session_overviews();
        assert_eq!(overviews.len(), 2);
        let s1 = overviews.iter().find(|o| o.id == "s1").unwrap();
        assert!(!s1.resident, "s1 should have been evicted");
        assert!(!s1.dirty, "a session that is not resident is never dirty");
        assert!(overviews.iter().find(|o| o.id == "s2").unwrap().resident);
        // Both ids stay visible even while one lives only in the store.
        assert_eq!(engine.session_ids(), vec!["s1", "s2"]);

        // Accessing s1 rehydrates it transparently and the run continues
        // bit-identically to the never-evicted reference.
        engine.run_parallel(&steps_job("s1", 50), 1).unwrap();
        let revived = engine.session("s1").unwrap();
        let expected = reference.session("s1").unwrap();
        assert_eq!(
            revived.lock().estimate().f_measure.to_bits(),
            expected.lock().estimate().f_measure.to_bits()
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicting_a_clean_session_writes_no_checkpoint() {
        let (dir, store) = scratch_store("clean-evict");
        let (pool, truth) = pool_and_truth(600, 33);

        let reference = Engine::new();
        reference.load_pool("p", pool.clone()).unwrap();
        oracle_session(&reference, "a", &truth, 5);
        reference.run_parallel(&steps_job("a", 70), 1).unwrap();

        let engine = durable_engine(&store).with_max_resident(1);
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "a", &truth, 5);
        oracle_session(&engine, "b", &truth, 6);
        // Creating b evicts the untouched a: its base checkpoint is already
        // exact, so the only writes are the two base checkpoints.
        assert_eq!(engine.metrics().counter(Counter::Eviction), 1);
        assert_eq!(engine.metrics().counter(Counter::CheckpointWrite), 2);
        let overviews = engine.session_overviews();
        let a = overviews.iter().find(|o| o.id == "a").unwrap();
        assert!(!a.resident && !a.dirty);

        // Rehydrating a evicts the still-clean b, again without a write, and
        // a continues bit-identically to the never-evicted reference.
        engine.run_parallel(&steps_job("a", 70), 1).unwrap();
        assert_eq!(engine.metrics().counter(Counter::Rehydration), 1);
        assert_eq!(engine.metrics().counter(Counter::Eviction), 2);
        assert_eq!(engine.metrics().counter(Counter::CheckpointWrite), 2);
        assert_same_estimate(&engine, &reference, "a");

        let _ = std::fs::remove_dir_all(&dir);
    }

    fn assert_same_estimate(engine: &Engine, reference: &Engine, id: &str) {
        let got = engine.session(id).unwrap().lock().estimate();
        let expected = reference.session(id).unwrap().lock().estimate();
        assert_eq!(got.f_measure.to_bits(), expected.f_measure.to_bits());
        assert_eq!(got.precision.to_bits(), expected.precision.to_bits());
        assert_eq!(got.recall.to_bits(), expected.recall.to_bits());
    }

    #[test]
    fn evicting_a_dirty_session_leaves_its_wal_suffix_to_replay() {
        let (dir, store) = scratch_store("dirty-evict");
        let (pool, truth) = pool_and_truth(600, 34);

        let reference = Engine::new();
        reference.load_pool("p", pool.clone()).unwrap();
        oracle_session(&reference, "a", &truth, 5);
        reference.run_parallel(&steps_job("a", 40), 1).unwrap();
        reference.run_parallel(&steps_job("a", 30), 1).unwrap();

        let engine = durable_engine(&store).with_max_resident(1);
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "a", &truth, 5);
        engine.run_parallel(&steps_job("a", 40), 1).unwrap();
        // Creating b evicts the dirty a without a write: its one step
        // record stays in the WAL.
        oracle_session(&engine, "b", &truth, 6);
        assert_eq!(engine.metrics().counter(Counter::Eviction), 1);
        assert_eq!(engine.metrics().counter(Counter::CheckpointWrite), 2);
        assert_eq!(store.read_wal("a").unwrap().len(), 1);

        // Rehydration replays that record, and a continues bit-identically
        // to the never-evicted reference.
        engine.run_parallel(&steps_job("a", 30), 1).unwrap();
        assert_eq!(engine.metrics().counter(Counter::Rehydration), 1);
        assert_eq!(engine.metrics().counter(Counter::WalReplay), 1);
        assert_eq!(engine.metrics().counter(Counter::CheckpointWrite), 2);
        assert_same_estimate(&engine, &reference, "a");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_checkpoints_a_session_whose_wal_suffix_is_long() {
        let (dir, store) = scratch_store("long-suffix-evict");
        let (pool, truth) = pool_and_truth(600, 35);

        let reference = Engine::new();
        reference.load_pool("p", pool.clone()).unwrap();
        oracle_session(&reference, "a", &truth, 5);

        let engine = durable_engine(&store).with_max_resident(1);
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "a", &truth, 5);
        for _ in 0..EVICTION_CHECKPOINT_RECORDS {
            reference.run_parallel(&steps_job("a", 1), 1).unwrap();
            engine.run_parallel(&steps_job("a", 1), 1).unwrap();
        }
        // a's suffix has reached the bound: evicting it compacts the WAL.
        oracle_session(&engine, "b", &truth, 6);
        assert_eq!(engine.metrics().counter(Counter::Eviction), 1);
        assert_eq!(engine.metrics().counter(Counter::CheckpointWrite), 3);
        assert!(store.read_wal("a").unwrap().is_empty());

        reference.run_parallel(&steps_job("a", 30), 1).unwrap();
        engine.run_parallel(&steps_job("a", 30), 1).unwrap();
        assert_eq!(engine.metrics().counter(Counter::WalReplay), 0);
        assert_same_estimate(&engine, &reference, "a");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_from_failures_are_structured_errors() {
        // No store attached: a Store error, not a panic.
        let bare = Engine::new();
        assert!(matches!(bare.restore_from("s"), Err(EngineError::Store(_))));
        assert!(matches!(
            bare.checkpoint_to("s"),
            Err(EngineError::Store(_))
        ));

        let (dir, store) = scratch_store("errors");
        let (pool, truth) = pool_and_truth(400, 33);
        let engine = durable_engine(&store);
        engine.load_pool("p", pool).unwrap();

        // Missing entry.
        assert!(matches!(
            engine.restore_from("ghost"),
            Err(EngineError::UnknownSession(_))
        ));
        // Corrupt entry: bad JSON, and valid JSON of the wrong shape.
        store.put_checkpoint("bad", "definitely not json").unwrap();
        assert!(matches!(
            engine.restore_from("bad"),
            Err(EngineError::Store(_))
        ));
        store
            .put_checkpoint("shape", r#"{"format":"oasis-engine/store-v1","wal_seq":0}"#)
            .unwrap();
        assert!(matches!(
            engine.restore_from("shape"),
            Err(EngineError::Store(_))
        ));
        // Already resident.
        oracle_session(&engine, "s", &truth, 9);
        assert!(matches!(
            engine.restore_from("s"),
            Err(EngineError::DuplicateId(_))
        ));
        // An *interior* corrupt WAL line under a good checkpoint is also
        // structured — only a torn trailing line is forgiven (see below).
        engine.checkpoint_to("s").unwrap();
        engine.delete_session("s").unwrap();
        oracle_session(&engine, "s", &truth, 9);
        store.append_wal("s", "garbage").unwrap();
        store
            .append_wal("s", "{\"seq\":\"0\",\"op\":\"step\",\"steps\":1}")
            .unwrap();
        let fresh = Engine::new().with_store(Arc::new(
            crate::store::FsCheckpointStore::open(&dir).unwrap(),
        ) as Arc<dyn CheckpointStore>);
        let (pool, _) = pool_and_truth(400, 33);
        fresh.load_pool("p", pool).unwrap();
        assert!(matches!(
            fresh.restore_from("s"),
            Err(EngineError::Store(_))
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_wal_record_is_truncated_and_scrubbed_on_rehydrate() {
        let (dir, store) = scratch_store("torn-tail");
        let (pool, truth) = pool_and_truth(500, 35);
        {
            let engine = durable_engine(&store);
            engine.load_pool("p", pool.clone()).unwrap();
            oracle_session(&engine, "s", &truth, 11);
            engine.run_parallel(&steps_job("s", 60), 1).unwrap();
        }
        // Crash mid-append: half a record trails the log.
        store.append_wal("s", "{\"seq\":\"1\",\"op\":\"st").unwrap();

        let revived = durable_engine(&store);
        revived.load_pool("p", pool).unwrap();
        let report = revived.restore_from("s").unwrap();
        assert_eq!(report.replayed, 1, "the intact record replays");
        assert!(report.truncated_tail, "the torn tail is reported");
        // The scrub removed the torn line from disk, so a second restart
        // replays a clean log.
        let lines = store.read_wal("s").unwrap();
        assert!(
            lines.iter().all(|l| WalRecord::parse(l).is_ok()),
            "scrubbed WAL must be fully parseable: {lines:?}"
        );
        // And the revived session still serves traffic.
        revived.run_parallel(&steps_job("s", 10), 1).unwrap();

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_store_faults_are_retried_and_counted() {
        use crate::fault::{FaultKind, FaultyStore, StoreOp};
        let (dir, inner) = scratch_store("retry");
        let faulty = Arc::new(
            FaultyStore::new(inner as Arc<dyn CheckpointStore>)
                .with_fault(StoreOp::AppendWal, 0, FaultKind::Transient)
                .with_fault(StoreOp::PutCheckpoint, 1, FaultKind::Transient),
        );
        let (pool, truth) = pool_and_truth(400, 36);
        let engine = Engine::new().with_store(Arc::clone(&faulty) as Arc<dyn CheckpointStore>);
        faulty.attach_metrics(engine.metrics_handle());
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "s", &truth, 13);
        // Both the first WAL append and the checkpoint write hit a transient
        // fault; the retry absorbs them invisibly.
        engine.run_parallel(&steps_job("s", 20), 1).unwrap();
        engine.checkpoint_to("s").unwrap();
        assert_eq!(engine.metrics().counter(Counter::RetriedWrite), 2);
        assert_eq!(engine.metrics().counter(Counter::FaultInjected), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retries_become_a_permanent_store_error() {
        use crate::fault::{FaultKind, FaultyStore, StoreOp};
        let (dir, inner) = scratch_store("exhaust");
        let faulty = Arc::new(FaultyStore::new(inner as Arc<dyn CheckpointStore>));
        // More consecutive transients than the engine retries.
        for index in 0..4 {
            faulty.fail_nth(StoreOp::AppendWal, index, FaultKind::Transient);
        }
        let (pool, truth) = pool_and_truth(300, 37);
        let engine = Engine::new().with_store(Arc::clone(&faulty) as Arc<dyn CheckpointStore>);
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "s", &truth, 17);
        let err = engine.run_parallel(&steps_job("s", 5), 1).unwrap_err();
        assert!(matches!(err, EngineError::Store(_)), "{err}");
        assert!(err.to_string().contains("after 3 retries"), "{err}");
        // The engine is not wedged: the faults are spent, traffic resumes.
        engine.run_parallel(&steps_job("s", 5), 1).unwrap();

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store that parks the first WAL append for session `"slow"` until
    /// the test releases it; everything else goes straight through.
    #[derive(Debug)]
    struct ParkingStore {
        inner: Arc<crate::store::FsCheckpointStore>,
        parked: Mutex<Option<std::sync::mpsc::Sender<()>>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl CheckpointStore for ParkingStore {
        fn put_checkpoint(&self, session_id: &str, document: &str) -> EngineResult<()> {
            self.inner.put_checkpoint(session_id, document)
        }
        fn load_checkpoint(&self, session_id: &str) -> EngineResult<Option<String>> {
            self.inner.load_checkpoint(session_id)
        }
        fn append_wal(&self, session_id: &str, line: &str) -> EngineResult<()> {
            if session_id == "slow" {
                if let Some(parked) = self.parked.lock().take() {
                    parked.send(()).unwrap();
                    let _ = self.release.lock().recv();
                }
            }
            self.inner.append_wal(session_id, line)
        }
        fn read_wal(&self, session_id: &str) -> EngineResult<Vec<String>> {
            self.inner.read_wal(session_id)
        }
        fn truncate_wal(&self, session_id: &str) -> EngineResult<()> {
            self.inner.truncate_wal(session_id)
        }
        fn list_sessions(&self) -> EngineResult<Vec<String>> {
            self.inner.list_sessions()
        }
        fn remove(&self, session_id: &str) -> EngineResult<()> {
            self.inner.remove(session_id)
        }
    }

    #[test]
    fn a_slow_wal_append_does_not_stall_other_sessions() {
        use crate::protocol::{dispatch, Request};
        use std::sync::mpsc;
        let (dir, inner) = scratch_store("slow-append");
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let store = ParkingStore {
            inner,
            parked: Mutex::new(Some(parked_tx)),
            release: Mutex::new(release_rx),
        };
        let engine = Engine::new().with_store(Arc::new(store));
        let (pool, truth) = pool_and_truth(300, 39);
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "slow", &truth, 1);
        oracle_session(&engine, "fast", &truth, 2);
        let propose = |session: &str| Request::Propose {
            session: session.to_string(),
            count: 1,
        };

        let (parked, answered) = std::thread::scope(|scope| {
            let slow = scope.spawn(|| dispatch(&engine, propose("slow")));
            let parked = parked_rx.recv_timeout(Duration::from_secs(5)).is_ok();
            let (answer_tx, answer_rx) = mpsc::channel();
            let engine = &engine;
            scope.spawn(move || answer_tx.send(dispatch(engine, propose("fast"))));
            let answered = answer_rx.recv_timeout(Duration::from_secs(5));
            // Release "slow" whatever happened, so the scope can join.
            release_tx.send(()).unwrap();
            let slow = slow.join().unwrap().response.render();
            assert!(slow.contains(r#""ok":true"#), "{slow}");
            (parked, answered)
        });
        assert!(parked, "the append for \"slow\" never reached the store");
        let fast = answered.expect("\"fast\" waited on the slow append for \"slow\"");
        let fast = fast.response.render();
        assert!(fast.contains(r#""ok":true"#), "{fast}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    fn dirty(engine: &Engine, id: &str) -> bool {
        let overviews = engine.session_overviews();
        overviews.iter().find(|o| o.id == id).unwrap().dirty
    }

    #[test]
    fn dirty_tracks_mutations_since_the_last_durable_checkpoint() {
        let (dir, store) = scratch_store("dirty");
        let (pool, truth) = pool_and_truth(400, 38);
        {
            let engine = durable_engine(&store);
            engine.load_pool("p", pool.clone()).unwrap();
            oracle_session(&engine, "s", &truth, 19);
            assert!(!dirty(&engine, "s"), "a durable create is checkpointed");
            engine.run_parallel(&steps_job("s", 10), 1).unwrap();
            assert!(dirty(&engine, "s"));
            engine.checkpoint_to("s").unwrap();
            assert!(!dirty(&engine, "s"));
            engine.run_parallel(&steps_job("s", 10), 1).unwrap();
            assert!(dirty(&engine, "s"), "the last steps live only in the WAL");
        }
        // Restart: the stored session is known but not resident, and a
        // session that is not resident is never dirty.
        let revived = durable_engine(&store);
        revived.load_pool("p", pool).unwrap();
        let overviews = revived.session_overviews();
        assert_eq!(overviews.len(), 1);
        assert!(!overviews[0].resident);
        assert!(!overviews[0].dirty);
        // Replaying the WAL suffix leaves state the checkpoint lacks.
        let report = revived.restore_from("s").unwrap();
        assert_eq!(report.replayed, 1);
        assert!(
            dirty(&revived, "s"),
            "a replayed record is not checkpointed"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_ids_stay_reserved_and_delete_clears_the_store() {
        let (dir, store) = scratch_store("reserve");
        let (pool, truth) = pool_and_truth(300, 34);
        {
            let engine = durable_engine(&store);
            engine.load_pool("p", pool.clone()).unwrap();
            oracle_session(&engine, "s", &truth, 3);
        }
        // After a "restart" the stored id still owns its name.
        let engine = durable_engine(&store);
        engine.load_pool("p", pool).unwrap();
        assert!(matches!(
            engine.create_session(SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                truth: Some(truth.clone()),
                ..SessionSpec::new("s", "p", 1)
            }),
            Err(EngineError::DuplicateId(_))
        ));
        // Deleting a stored-but-not-resident session clears the store entry
        // and frees the id.
        engine.delete_session("s").unwrap();
        assert!(store.load_checkpoint("s").unwrap().is_none());
        oracle_session(&engine, "s", &truth, 3);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_session_under_new_name() {
        let (pool, truth) = pool_and_truth(500, 4);
        let engine = Engine::new();
        engine.load_pool("p", pool).unwrap();
        engine
            .create_session(SessionSpec {
                config: OasisConfig::default().with_strata_count(6),
                truth: Some(truth),
                ..SessionSpec::new("orig", "p", 9)
            })
            .unwrap();
        let handle = engine.session("orig").unwrap();
        handle.lock().step(50).unwrap();
        let checkpoint = handle.lock().checkpoint();

        engine.restore_session("copy", checkpoint).unwrap();
        let copy = engine.session("copy").unwrap();
        let a = handle.lock().step(50).unwrap();
        let b = copy.lock().step(50).unwrap();
        assert_eq!(a.f_measure.to_bits(), b.f_measure.to_bits());
    }
}
