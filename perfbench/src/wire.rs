//! The end-to-end run: closed-loop clients driving `oasis-serve` over its
//! public wire protocol, recording every request, its round trip and the
//! server's answers.

use crate::inputs::{self, PoolInput, SessionSpec};
use crate::procfs::{self, ProcDelta};
use crate::server::{Conn, Server, ServerOptions};
use crate::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Json;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Steps per `step` request (simulate, mixed connection B).
pub const STEPS_PER_REQUEST: usize = 20_000;
/// Every this many label cycles, an annotating client asks for an estimate.
pub const ESTIMATE_EVERY: usize = 25;
/// `durable` checkpoints a session every this many of its labels.
pub const CHECKPOINT_EVERY: usize = 200;
/// `durable`: every this many cycles, one goes to a uniformly random
/// session; the rest (80%) go round-robin over the hot sessions.
pub const COLD_EVERY: usize = 5;
/// Number of hot sessions in `durable`.
pub const HOT_SESSIONS: usize = 6;

/// The wire verbs the clients send during the timed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `propose` with count 1.
    Propose,
    /// `label` answering one ticket.
    Label,
    /// `step` of [`STEPS_PER_REQUEST`] iterations.
    Step,
    /// `estimate`.
    Estimate,
    /// `checkpoint_to`.
    Checkpoint,
}

impl Verb {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Propose => "propose",
            Verb::Label => "label",
            Verb::Step => "step",
            Verb::Estimate => "estimate",
            Verb::Checkpoint => "checkpoint_to",
        }
    }
}

/// One mutation or read of a session, as the server saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A proposal the server issued.
    Propose {
        /// Ticket id.
        ticket: u64,
        /// Proposed pool item.
        item: usize,
    },
    /// A label the client sent back (the response carries the estimate).
    Label {
        /// Ticket id answered.
        ticket: u64,
        /// Label from the hidden truth.
        label: bool,
    },
    /// Oracle-driven iterations (the response carries the estimate).
    Step(usize),
    /// An estimate read.
    Estimate,
    /// A durable checkpoint.
    Checkpoint,
}

/// One session's request stream with the responses to check.
#[derive(Debug, Clone)]
pub struct SessionLog {
    /// How the session was created.
    pub spec: SessionSpec,
    /// Ops in the order the server applied them, each with the served
    /// response for ops that report an estimate.
    pub ops: Vec<(Op, Option<String>)>,
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Which client connection sent it.
    pub client: usize,
    /// Index into [`WireRun::sessions`].
    pub session: usize,
    /// The verb.
    pub verb: Verb,
    /// The request line as sent.
    pub line: String,
    /// When it was sent, nanoseconds after the window opened.
    pub sent_ns: u64,
    /// Round trip, nanoseconds.
    pub rtt_ns: u64,
    /// Response length, bytes (with the newline).
    pub response_bytes: usize,
    /// Client `read` calls the response took.
    pub client_reads: u64,
}

/// The outcome of one end-to-end run.
#[derive(Debug)]
pub struct WireRun {
    /// Set-up times of every repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Every session's stream.
    pub sessions: Vec<SessionLog>,
    /// Every request of the window, in send order.
    pub requests: Vec<RequestRecord>,
    /// Closed-loop cycles of the primary client(s), nanoseconds.
    pub cycles_ns: Vec<u64>,
    /// `estimate` round trips, nanoseconds.
    pub estimates_ns: Vec<u64>,
    /// `step` round trips, nanoseconds.
    pub step_requests_ns: Vec<u64>,
    /// Sampler iterations the window applied (labels plus steps).
    pub iterations: u64,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Whether the run spoke over the server's stdin/stdout.
    pub stdio: bool,
    /// Server process readings over the window.
    pub proc: ProcDelta,
    /// `metrics` snapshots just before and just after the window.
    pub metrics_before: Json,
    /// See `metrics_before`.
    pub metrics_after: Json,
    /// Request events from `--log-json` (empty otherwise).
    pub log_events: Vec<String>,
    /// Requests sent in the window, answered or not.
    pub attempted: u64,
    /// Requests that failed: `ok:false`, malformed, or transport errors.
    pub failures: Vec<String>,
}

/// What one client thread produced.
#[derive(Default)]
struct ClientOut {
    requests: Vec<RequestRecord>,
    cycles_ns: Vec<u64>,
    estimates_ns: Vec<u64>,
    step_requests_ns: Vec<u64>,
    iterations: u64,
    attempted: u64,
    failure: Option<String>,
}

/// One closed-loop client: a connection, the sessions it owns (by global
/// index), and what it has recorded so far.
struct Client<'a> {
    index: usize,
    conn: &'a mut Conn,
    sessions: Vec<(usize, &'a mut SessionLog)>,
    truth: &'a [bool],
    epoch: Instant,
    deadline: Instant,
    out: ClientOut,
}

impl Client<'_> {
    fn request(&mut self, local: usize, verb: Verb, line: String) -> io::Result<(String, u64)> {
        let sent_ns = self.epoch.elapsed().as_nanos() as u64;
        self.out.attempted += 1;
        let (response, rtt_ns, client_reads) = self.conn.round_trip(&line)?;
        self.out.requests.push(RequestRecord {
            client: self.index,
            session: self.sessions[local].0,
            verb,
            line,
            sent_ns,
            rtt_ns,
            response_bytes: response.len() + 1,
            client_reads,
        });
        if !response.contains(r#""ok":true"#) {
            return Err(io::Error::other(format!("{}: {response}", verb.as_str())));
        }
        Ok((response, rtt_ns))
    }

    fn id(&self, local: usize) -> String {
        self.sessions[local].1.spec.id.clone()
    }

    fn log(&mut self, local: usize, op: Op, served: Option<String>) {
        self.sessions[local].1.ops.push((op, served));
    }

    /// One `propose` → `label` cycle.
    fn label_cycle(&mut self, local: usize) -> io::Result<()> {
        let id = self.id(local);
        let (proposed, propose_ns) =
            self.request(local, Verb::Propose, inputs::propose_line(&id))?;
        let (ticket, item) = parse_proposal(&proposed)?;
        let label = *self
            .truth
            .get(item)
            .ok_or_else(|| io::Error::other(format!("proposed item {item} outside the pool")))?;
        self.log(local, Op::Propose { ticket, item }, None);
        let (labelled, label_ns) =
            self.request(local, Verb::Label, inputs::label_line(&id, ticket, label))?;
        self.log(local, Op::Label { ticket, label }, Some(labelled));
        self.out.iterations += 1;
        self.out.cycles_ns.push(propose_ns + label_ns);
        Ok(())
    }

    fn estimate(&mut self, local: usize) -> io::Result<()> {
        let id = self.id(local);
        let (served, ns) = self.request(local, Verb::Estimate, inputs::estimate_line(&id))?;
        self.log(local, Op::Estimate, Some(served));
        self.out.estimates_ns.push(ns);
        Ok(())
    }

    fn step(&mut self, local: usize) -> io::Result<u64> {
        let id = self.id(local);
        let (served, ns) =
            self.request(local, Verb::Step, inputs::step_line(&id, STEPS_PER_REQUEST))?;
        self.log(local, Op::Step(STEPS_PER_REQUEST), Some(served));
        self.out.iterations += STEPS_PER_REQUEST as u64;
        self.out.step_requests_ns.push(ns);
        Ok(ns)
    }

    fn open(&self) -> bool {
        Instant::now() < self.deadline
    }

    /// `annotate` and `mixed` connection A: label cycles on one session.
    fn annotate(&mut self) -> io::Result<()> {
        let mut cycles = 0usize;
        while self.open() {
            self.label_cycle(0)?;
            cycles += 1;
            if cycles.is_multiple_of(ESTIMATE_EVERY) {
                self.estimate(0)?;
            }
        }
        Ok(())
    }

    /// `simulate`: rounds of `step` + `estimate` on every session in turn;
    /// a cycle is one whole round, so every method weighs in equally.
    fn simulate(&mut self) -> io::Result<()> {
        while self.open() {
            let mut round_ns = 0;
            for local in 0..self.sessions.len() {
                round_ns += self.step(local)?;
                self.estimate(local)?;
                round_ns += *self.out.estimates_ns.last().expect("just recorded");
            }
            self.out.cycles_ns.push(round_ns);
        }
        Ok(())
    }

    /// `mixed` connection B: back-to-back `step` requests.
    fn stepper(&mut self) -> io::Result<()> {
        while self.open() {
            self.step(0)?;
        }
        Ok(())
    }

    /// `durable`: label cycles over many sessions, periodic `checkpoint_to`.
    /// The hot sessions are visited in turn rather than drawn, so no hot
    /// session goes unvisited long enough to be evicted by chance: the
    /// eviction rate then depends on the cold draws alone, and varies
    /// little from seed to seed.
    fn durable(&mut self, picker: &mut StdRng, hot: &[usize]) -> io::Result<()> {
        let mut labels = vec![0usize; self.sessions.len()];
        let mut cycles = 0;
        let mut hot_turn = 0;
        while self.open() {
            let local = if cycles % COLD_EVERY == COLD_EVERY - 1 {
                picker.gen_range(0..self.sessions.len())
            } else {
                hot_turn += 1;
                hot[(hot_turn - 1) % hot.len()]
            };
            self.label_cycle(local)?;
            cycles += 1;
            labels[local] += 1;
            if cycles.is_multiple_of(ESTIMATE_EVERY) {
                self.estimate(local)?;
            }
            if labels[local].is_multiple_of(CHECKPOINT_EVERY) {
                let id = self.id(local);
                self.request(local, Verb::Checkpoint, inputs::checkpoint_line(&id))?;
                self.log(local, Op::Checkpoint, None);
            }
        }
        Ok(())
    }
}

fn parse_proposal(response: &str) -> io::Result<(u64, usize)> {
    let parsed = Json::parse(response).map_err(|e| io::Error::other(e.to_string()))?;
    let first = parsed
        .require("proposals")
        .and_then(|p| p.as_array().map(|a| a.first().cloned()))
        .map_err(|e| io::Error::other(e.to_string()))?
        .ok_or_else(|| io::Error::other("propose returned no proposal"))?;
    let ticket = first.require("ticket").and_then(Json::as_u64);
    let item = first.require("item").and_then(Json::as_usize);
    match (ticket, item) {
        (Ok(ticket), Ok(item)) => Ok((ticket, item)),
        _ => Err(io::Error::other(format!("malformed proposal {response}"))),
    }
}

/// Start a server and bring it to the state the window starts from: pool
/// loaded, every session created, every client connected.
fn set_up(
    binary: &Path,
    options: &ServerOptions,
    pool: &PoolInput,
    specs: &[SessionSpec],
) -> io::Result<(Server, Vec<Conn>, f64)> {
    let started = Instant::now();
    let (server, mut conns) = Server::start(binary, options)?;
    let expect_ok = |(response, _, _): (String, u64, u64)| -> io::Result<()> {
        if response.contains(r#""ok":true"#) {
            Ok(())
        } else {
            Err(io::Error::other(format!("set-up failed: {response}")))
        }
    };
    expect_ok(conns[0].round_trip(&pool.load_line)?)?;
    let per_conn = specs.len().div_ceil(conns.len());
    for (index, spec) in specs.iter().enumerate() {
        let last = conns.len() - 1;
        let conn = &mut conns[(index / per_conn).min(last)];
        expect_ok(conn.round_trip(&spec.create_line(pool))?)?;
    }
    Ok((server, conns, started.elapsed().as_secs_f64()))
}

fn metrics_snapshot(conn: &mut Conn) -> io::Result<Json> {
    let (response, _, _) = conn.round_trip(r#"{"cmd":"metrics"}"#)?;
    let parsed = Json::parse(&response).map_err(|e| io::Error::other(e.to_string()))?;
    parsed
        .get("metrics")
        .cloned()
        .ok_or_else(|| io::Error::other(format!("metrics failed: {response}")))
}

/// Run `workload` end to end for `seconds`, with `setups` set-up
/// repetitions (the last one is measured).  `scratch` holds store
/// directories; `server_cpus` pins the server (see
/// [`Workload::server_cpus`]).
#[allow(clippy::too_many_arguments)]
pub fn run(
    binary: &Path,
    workload: Workload,
    pool: &PoolInput,
    seed: u64,
    seconds: f64,
    setups: usize,
    log_json: bool,
    scratch: &Path,
    server_cpus: Option<&str>,
) -> io::Result<WireRun> {
    let specs = workload.sessions(seed);
    let mut setup_s = Vec::with_capacity(setups);
    let mut live = None;
    for repetition in 0..setups.max(1) {
        let options = workload.server_options(
            scratch,
            repetition,
            log_json,
            server_cpus.map(str::to_string),
        )?;
        let (server, conns, seconds) = set_up(binary, &options, pool, &specs)?;
        setup_s.push(seconds);
        if let Some((old, old_conns)) = live.replace((server, conns)) {
            Server::stop(old, old_conns)?;
        }
    }
    let (server, mut conns) = live.expect("at least one set-up");

    let mut sessions: Vec<SessionLog> = specs
        .iter()
        .map(|spec| SessionLog {
            spec: spec.clone(),
            ops: Vec::new(),
        })
        .collect();
    let metrics_before = metrics_snapshot(&mut conns[0])?;
    let proc_before = procfs::sample(server.pid())?;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let per_conn = sessions.len().div_ceil(conns.len());
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(sessions.chunks_mut(per_conn))
            .enumerate()
            .map(|(index, (conn, owned))| {
                let first = index * per_conn;
                let mut client = Client {
                    index,
                    conn,
                    sessions: owned
                        .iter_mut()
                        .enumerate()
                        .map(|(i, s)| (first + i, s))
                        .collect(),
                    truth: &pool.truth,
                    epoch,
                    deadline,
                    out: ClientOut::default(),
                };
                let body = move || {
                    let outcome = match (workload, index) {
                        (Workload::Annotate, _) | (Workload::Mixed, 0) => client.annotate(),
                        (Workload::Mixed, _) => client.stepper(),
                        (Workload::Simulate, _) => client.simulate(),
                        (Workload::Durable, _) => {
                            let mut picker =
                                StdRng::seed_from_u64(inputs::derive_seed(seed, 0xD0_AB1E));
                            let hot = pick_hot(&mut picker, client.sessions.len());
                            client.durable(&mut picker, &hot)
                        }
                    };
                    if let Err(error) = outcome {
                        client.out.failure = Some(error.to_string());
                    }
                    client.out
                };
                scope.spawn(body)
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = epoch.elapsed().as_secs_f64();
    let proc_after = procfs::sample(server.pid())?;
    let metrics_after = metrics_snapshot(&mut conns[0])?;

    // The final estimate of every session, checked like every other one.
    for session in &mut sessions {
        let (served, _, _) = conns[0].round_trip(&inputs::estimate_line(&session.spec.id))?;
        session.ops.push((Op::Estimate, Some(served)));
    }
    let log_events = server.stop(conns)?;

    let mut run = WireRun {
        setup_s,
        sessions,
        requests: Vec::new(),
        cycles_ns: Vec::new(),
        estimates_ns: Vec::new(),
        step_requests_ns: Vec::new(),
        iterations: 0,
        window_s,
        stdio: workload.transport() == crate::server::Transport::Stdio,
        proc: procfs::delta(&proc_before, &proc_after),
        metrics_before,
        metrics_after,
        log_events,
        attempted: 0,
        failures: Vec::new(),
    };
    for out in outs {
        run.requests.extend(out.requests);
        run.cycles_ns.extend(out.cycles_ns);
        run.estimates_ns.extend(out.estimates_ns);
        run.step_requests_ns.extend(out.step_requests_ns);
        run.iterations += out.iterations;
        run.attempted += out.attempted;
        run.failures.extend(out.failure);
    }
    run.requests.sort_by_key(|record| record.sent_ns);
    Ok(run)
}

/// `durable`'s hot set: [`HOT_SESSIONS`] distinct session indices.
fn pick_hot(picker: &mut StdRng, sessions: usize) -> Vec<usize> {
    let mut hot = Vec::with_capacity(HOT_SESSIONS);
    while hot.len() < HOT_SESSIONS.min(sessions) {
        let candidate = picker.gen_range(0..sessions);
        if !hot.contains(&candidate) {
            hot.push(candidate);
        }
    }
    hot
}
