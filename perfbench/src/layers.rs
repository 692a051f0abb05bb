//! The traced per-layer ladder.
//!
//! A recorded wire run's request stream is replayed in-process, one layer at
//! a time, timing calls into each layer's public functions from outside and
//! recording one [`Span`] per call: name, start, end, parent span, and the
//! request's index in the stream as its id.  State is always built through
//! `Request::parse` + `dispatch`.  A layer's self time is its span minus the
//! span of the layer below at the same request index.
//!
//! | pass | calls timed | spans |
//! |---|---|---|
//! | protocol | `Request::parse`, `dispatch`, `Json::render`, then `Engine::session` on the now-resident id | `request` > `protocol.*`; `engine.session_lookup` |
//! | metrics | `dispatch` on a default and a `MetricsRegistry::disabled()` engine, in interleaved pairs | `metrics.enabled`, `metrics.disabled` |
//! | session | `Session::{propose, apply_labels, step}`, `Session::estimate` + `confidence_interval` | `session.*`, `estimate` |
//! | sampler | `InteractiveSampler::{propose_batch, apply_label}` and whole step loops | `samplers.<method>.*` |
//! | store | `CheckpointStore::append_wal` on this run's `WalRecord::render` lines | `store.wal_append` |
//!
//! The protocol pass replays requests until its time budget is spent; the
//! other passes replay the same prefix, so indices line up.

use crate::check::Reference;
use crate::inputs::PoolInput;
use crate::stats::median;
use crate::wire::{Verb, WireRun};
use crate::{Workload, DURABLE_MAX_RESIDENT};
use oasis::{InteractiveSampler, SamplerMethod};
use oasis_engine::protocol::{dispatch, Request};
use oasis_engine::store::render_envelope;
use oasis_engine::{
    CheckpointStore, Engine, FsCheckpointStore, MetricsRegistry, WalEntry, WalRecord,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Index of the request in the replayed stream.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder; written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished call; returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
        self.spans.len() - 1
    }

    /// Time `call` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = black_box(call());
        self.record(name, id, parent, (start, Instant::now()));
        value
    }

    /// Open a span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, id, parent, (now, now))
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.offset(Instant::now());
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, keyed by request index.
    pub fn by_id(&self, name: &str) -> BTreeMap<u64, u64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.id, span.duration_ns()))
            .collect()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.by_id(name).values().map(|&ns| ns as f64).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","id":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

fn parse_name(verb: Verb) -> &'static str {
    match verb {
        Verb::Propose => "protocol.parse.propose",
        Verb::Label => "protocol.parse.label",
        Verb::Step => "protocol.parse.step",
        Verb::Estimate => "protocol.parse.estimate",
        Verb::Checkpoint => "protocol.parse.checkpoint_to",
    }
}

fn dispatch_name(verb: Verb) -> &'static str {
    match verb {
        Verb::Propose => "protocol.dispatch.propose",
        Verb::Label => "protocol.dispatch.label",
        Verb::Step => "protocol.dispatch.step",
        Verb::Estimate => "protocol.dispatch.estimate",
        Verb::Checkpoint => "protocol.dispatch.checkpoint_to",
    }
}

/// The sampler-layer name prefix for a session: its method, with sharded
/// OASIS reported separately.
fn sampler_step_name(method: SamplerMethod, sharded: bool) -> &'static str {
    match (method, sharded) {
        (SamplerMethod::Oasis, true) => "samplers.oasis_k64.step",
        (SamplerMethod::Oasis, false) => "samplers.oasis.step",
        (SamplerMethod::Passive, _) => "samplers.passive.step",
        (SamplerMethod::Importance, _) => "samplers.importance.step",
        (SamplerMethod::Stratified, _) => "samplers.stratified.step",
    }
}

fn parse(line: &str) -> Result<Request, String> {
    Request::parse(line).map_err(|e| format!("replay parse: {e}"))
}

fn expect_ok(response: &serde::json::Json, what: &str) -> Result<(), String> {
    match response.get("ok") {
        Some(serde::json::Json::Bool(true)) => Ok(()),
        _ => Err(format!("replay {what}: {}", response.render())),
    }
}

/// A fresh engine brought to the run's starting state through
/// `Request::parse` + `dispatch`: `durable` gets its own store and cap.
fn build_engine(
    workload: Workload,
    pool: &PoolInput,
    run: &WireRun,
    metrics: MetricsRegistry,
    store_dir: Option<&Path>,
) -> Result<Engine, String> {
    let mut engine = Engine::new().with_metrics(metrics);
    if let (Workload::Durable, Some(dir)) = (workload, store_dir) {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let store = FsCheckpointStore::open(dir).map_err(|e| e.to_string())?;
        engine = engine
            .with_store(Arc::new(store))
            .with_max_resident(DURABLE_MAX_RESIDENT);
    }
    let setup = std::iter::once(pool.load_line.clone())
        .chain(run.sessions.iter().map(|log| log.spec.create_line(pool)));
    for line in setup {
        expect_ok(&dispatch(&engine, parse(&line)?).response, "set-up")?;
    }
    Ok(engine)
}

/// In-process per-layer metrics of one workload, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Replay `run` layer by layer.  The protocol pass gets `budget`; the
/// others replay the same prefix.  `scratch` holds store directories.
pub fn ladder(
    workload: Workload,
    pool: &PoolInput,
    run: &WireRun,
    budget: Duration,
    scratch: &Path,
) -> Result<(Tracer, LayerValues), String> {
    let mut tracer = Tracer::default();
    let mut values = LayerValues::new();
    let ids: Vec<&str> = run
        .sessions
        .iter()
        .map(|log| log.spec.id.as_str())
        .collect();

    // Protocol pass, with the resident-session lookup after each request.
    let engine = build_engine(
        workload,
        pool,
        run,
        MetricsRegistry::new(),
        Some(&scratch.join("ladder-protocol")),
    )?;
    let started = Instant::now();
    let mut prefix = 0;
    for (index, record) in run.requests.iter().enumerate() {
        if started.elapsed() > budget {
            break;
        }
        let id = index as u64;
        let root = tracer.open("request", id, None);
        let request = tracer.time(parse_name(record.verb), id, Some(root), || {
            parse(&record.line)
        })?;
        let outcome = tracer.time(dispatch_name(record.verb), id, Some(root), || {
            dispatch(&engine, request)
        });
        let rendered = tracer.time("protocol.render", id, Some(root), || {
            outcome.response.render()
        });
        tracer.close(root);
        expect_ok(&outcome.response, record.verb.as_str())?;
        black_box(rendered);
        let session = ids[record.session];
        tracer
            .time("engine.session_lookup", id, None, || {
                engine.session(session)
            })
            .map_err(|e| e.to_string())?;
        prefix = index + 1;
    }
    let replayed = &run.requests[..prefix];
    for (verb, parse_metric, dispatch_metric) in [
        (
            Verb::Propose,
            "protocol.parse_ns.propose",
            "protocol.dispatch_ns.propose",
        ),
        (
            Verb::Label,
            "protocol.parse_ns.label",
            "protocol.dispatch_ns.label",
        ),
        (
            Verb::Step,
            "protocol.parse_ns.step",
            "protocol.dispatch_ns.step",
        ),
        (
            Verb::Estimate,
            "protocol.parse_ns.estimate",
            "protocol.dispatch_ns.estimate",
        ),
    ] {
        values.insert(parse_metric, median(&tracer.durations(parse_name(verb))));
        values.insert(
            dispatch_metric,
            median(&tracer.durations(dispatch_name(verb))),
        );
    }
    values.insert(
        "protocol.render_ns",
        median(&tracer.durations("protocol.render")),
    );
    values.insert(
        "engine.session_lookup_ns",
        median(&tracer.durations("engine.session_lookup")),
    );
    let load_parse_ms: Vec<f64> = (0..3)
        .map(|repetition| {
            let start = Instant::now();
            let parsed = black_box(Request::parse(&pool.load_line));
            let end = Instant::now();
            tracer.record("protocol.parse.load_pool", repetition, None, (start, end));
            drop(parsed);
            (end - start).as_secs_f64() * 1e3
        })
        .collect();
    values.insert("protocol.load_pool_parse_ms", median(&load_parse_ms));
    drop(engine);

    // Metrics pass: the same dispatch stream on an instrumented and an
    // uninstrumented engine, alternating which goes first.
    let enabled = build_engine(
        workload,
        pool,
        run,
        MetricsRegistry::new(),
        Some(&scratch.join("ladder-enabled")),
    )?;
    let disabled = build_engine(
        workload,
        pool,
        run,
        MetricsRegistry::disabled(),
        Some(&scratch.join("ladder-disabled")),
    )?;
    let mut differences = Vec::with_capacity(prefix);
    for (index, record) in replayed.iter().enumerate() {
        let id = index as u64;
        let (on, off) = (parse(&record.line)?, parse(&record.line)?);
        let timed = |tracer: &mut Tracer, name, engine: &Engine, request| {
            let start = Instant::now();
            let outcome = black_box(dispatch(engine, request));
            let end = Instant::now();
            tracer.record(name, id, None, (start, end));
            (outcome, (end - start).as_nanos() as f64)
        };
        let ((a, on_ns), (b, off_ns)) = if index % 2 == 0 {
            let a = timed(&mut tracer, "metrics.enabled", &enabled, on);
            (a, timed(&mut tracer, "metrics.disabled", &disabled, off))
        } else {
            let b = timed(&mut tracer, "metrics.disabled", &disabled, off);
            (timed(&mut tracer, "metrics.enabled", &enabled, on), b)
        };
        expect_ok(&a.response, "metrics pass")?;
        expect_ok(&b.response, "metrics pass")?;
        differences.push(on_ns - off_ns);
    }
    values.insert("metrics.overhead_ns_per_req", median(&differences));
    drop((enabled, disabled));

    // Session pass: every session resident, no store, so only Session's
    // own work is timed.
    let engine = build_engine(workload, pool, run, MetricsRegistry::new(), None)?;
    for (index, record) in replayed.iter().enumerate() {
        let id = index as u64;
        let handle = engine
            .session(ids[record.session])
            .map_err(|e| e.to_string())?;
        let mut session = handle.lock();
        let outcome = match parse(&record.line)? {
            Request::Propose { count, .. } => tracer
                .time("session.propose", id, None, || session.propose(count))
                .map(drop),
            Request::Label { labels, .. } => tracer
                .time("session.apply_labels", id, None, || {
                    session.apply_labels(&labels)
                })
                .map(drop),
            Request::Step { steps, .. } => tracer
                .time("session.step", id, None, || session.step(steps))
                .map(drop),
            Request::Estimate { .. } => {
                tracer.time("estimate", id, None, || {
                    (session.estimate(), session.confidence_interval(0.95))
                });
                Ok(())
            }
            _ => Ok(()),
        };
        outcome.map_err(|e| format!("session pass: {e}"))?;
    }
    values.insert(
        "session.propose_ns",
        median(&tracer.durations("session.propose")),
    );
    values.insert(
        "session.apply_labels_ns",
        median(&tracer.durations("session.apply_labels")),
    );
    let step_total: u64 = tracer.by_id("session.step").values().sum();
    let stepped = replayed.iter().filter(|r| r.verb == Verb::Step).count() as f64
        * crate::wire::STEPS_PER_REQUEST as f64;
    values.insert(
        "session.step_ns_per_step",
        if stepped > 0.0 {
            step_total as f64 / stepped
        } else {
            0.0
        },
    );
    values.insert("estimate.ns", median(&tracer.durations("estimate")));
    let checkpoint_bytes: Vec<f64> = ids
        .iter()
        .map(|id| {
            let handle = engine.session(id).map_err(|e| e.to_string())?;
            let bytes = render_envelope(&handle.lock().checkpoint(), 0).len();
            Ok(bytes as f64)
        })
        .collect::<Result<_, String>>()?;
    values.insert("store.checkpoint_bytes", median(&checkpoint_bytes));
    drop(engine);

    // Sampler pass: the library sampler each session wraps, driven with the
    // same label sequence.
    let mut references = run
        .sessions
        .iter()
        .map(|log| Reference::new(&log.spec, pool))
        .collect::<Result<Vec<_>, _>>()?;
    let mut session_minus_sampler = 0.0;
    let mut iterations = 0.0;
    let session_spans: [BTreeMap<u64, u64>; 3] = [
        tracer.by_id("session.propose"),
        tracer.by_id("session.apply_labels"),
        tracer.by_id("session.step"),
    ];
    for (index, record) in replayed.iter().enumerate() {
        let id = index as u64;
        let spec = &run.sessions[record.session].spec;
        let reference = &mut references[record.session];
        let (name, session_ns, count) = match parse(&record.line)? {
            Request::Propose { .. } => {
                reference.propose(pool);
                ("samplers.oasis.propose", session_spans[0].get(&id), 1.0)
            }
            Request::Label { labels, .. } => {
                for (ticket, label) in labels {
                    reference.apply_label(ticket, label)?;
                }
                ("samplers.oasis.apply_label", session_spans[1].get(&id), 1.0)
            }
            Request::Step { steps, .. } => {
                reference.step(pool, steps)?;
                (
                    sampler_step_name(spec.method, spec.shards.is_some()),
                    session_spans[2].get(&id),
                    steps as f64,
                )
            }
            _ => continue,
        };
        let span = tracer.record(name, id, None, reference.last_call());
        if let Some(&session_ns) = session_ns {
            session_minus_sampler += session_ns as f64 - tracer.spans()[span].duration_ns() as f64;
            iterations += count;
        }
    }
    values.insert(
        "samplers.oasis.propose_ns",
        median(&tracer.durations("samplers.oasis.propose")),
    );
    values.insert(
        "samplers.oasis.apply_label_ns",
        median(&tracer.durations("samplers.oasis.apply_label")),
    );
    for (method, sharded, metric) in [
        (SamplerMethod::Oasis, false, "samplers.oasis.step_ns"),
        (SamplerMethod::Passive, false, "samplers.passive.step_ns"),
        (
            SamplerMethod::Importance,
            false,
            "samplers.importance.step_ns",
        ),
        (
            SamplerMethod::Stratified,
            false,
            "samplers.stratified.step_ns",
        ),
        (SamplerMethod::Oasis, true, "samplers.oasis_k64.step_ns"),
    ] {
        let total: u64 = tracer
            .by_id(sampler_step_name(method, sharded))
            .values()
            .sum();
        let steps = tracer.by_id(sampler_step_name(method, sharded)).len() as f64
            * crate::wire::STEPS_PER_REQUEST as f64;
        values.insert(
            metric,
            if steps > 0.0 {
                total as f64 / steps
            } else {
                0.0
            },
        );
    }
    values.insert(
        "session.self_ns_per_label",
        if iterations > 0.0 {
            session_minus_sampler / iterations
        } else {
            0.0
        },
    );
    let (rebuilds, labels) = run
        .sessions
        .iter()
        .zip(&references)
        .filter(|(log, _)| log.spec.method == SamplerMethod::Oasis && log.spec.shards.is_none())
        .fold((0.0, 0.0), |(rebuilds, labels), (_, reference)| {
            let diagnostics = reference.sampler().diagnostics();
            (
                rebuilds + diagnostics.cdf_rebuilds as f64,
                labels + diagnostics.iterations as f64,
            )
        });
    values.insert(
        "samplers.oasis.cdf_rebuilds_per_label",
        if labels > 0.0 { rebuilds / labels } else { 0.0 },
    );

    // Store pass: this run's WAL records appended to a fresh store.
    let dir = scratch.join("ladder-wal");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let store = FsCheckpointStore::open(&dir).map_err(|e| e.to_string())?;
    let mut seq = vec![0u64; run.sessions.len()];
    for (index, record) in replayed.iter().enumerate() {
        let entry = match parse(&record.line)? {
            Request::Propose { count, .. } => WalEntry::Propose {
                count,
                now_us: None,
            },
            Request::Label { labels, .. } => WalEntry::Label { labels },
            Request::Step { steps, .. } => WalEntry::Step { steps },
            _ => continue,
        };
        let line = WalRecord {
            seq: seq[record.session],
            entry,
        }
        .render();
        seq[record.session] += 1;
        tracer
            .time("store.wal_append", index as u64, None, || {
                store.append_wal(ids[record.session], &line)
            })
            .map_err(|e| e.to_string())?;
    }
    values.insert(
        "store.wal_append_us",
        median(&tracer.durations("store.wal_append")) / 1e3,
    );
    Ok((tracer, values))
}
