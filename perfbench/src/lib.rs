//! The repository benchmark: four wire-level workloads against the
//! released `oasis-serve` binary, plus a traced per-layer ladder.
//!
//! An untraced run (`--trace 0`) starts the server as a child process,
//! drives it over its public protocol with closed-loop clients for the
//! timed window, reads the server process from `/proc`, and then checks
//! every served answer against an in-process library reference.  A traced
//! run (`--trace 1`) repeats the window twice — once as before, once with
//! the server's `--log-json` events — and then replays the recorded request
//! stream in-process, one layer at a time, recording a span per call
//! ([`layers`]).  See `README.md` in this directory for the workloads, the
//! metrics and the layer → end-to-end predictions.

pub mod check;
pub mod inputs;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod server;
pub mod stats;
pub mod wire;

use inputs::{derive_seed, SessionSpec};
use oasis::SamplerMethod;
use server::{ServerOptions, Transport};
use std::io;
use std::path::Path;

/// `durable`'s resident-session cap (`--max-resident`).
pub const DURABLE_MAX_RESIDENT: usize = 8;
/// Number of sessions `durable` spreads its labels over.
pub const DURABLE_SESSIONS: usize = 32;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two TCP annotators, one external OASIS session each.
    Annotate,
    /// One stdio client stepping five simulation sessions on the full pool.
    /// Run by hand only: too compute-bound to hold a bound on a shared
    /// virtual machine, so `BENCHMARK.json` leaves it out (see `README.md`).
    Simulate,
    /// One stdio annotator over 32 sessions with a store and a resident cap.
    Durable,
    /// TCP: an annotator beside a connection issuing long `step` requests.
    Mixed,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 4] = [
        Workload::Annotate,
        Workload::Simulate,
        Workload::Durable,
        Workload::Mixed,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Annotate => "annotate",
            Workload::Simulate => "simulate",
            Workload::Durable => "durable",
            Workload::Mixed => "mixed",
        }
    }

    /// Pool scale: the full cora pool for `simulate`, a tenth elsewhere.
    pub fn scale(self) -> f64 {
        match self {
            Workload::Simulate => 1.0,
            _ => 0.1,
        }
    }

    /// Transport and client count.
    pub fn transport(self) -> Transport {
        match self {
            Workload::Annotate | Workload::Mixed => Transport::Tcp(2),
            Workload::Simulate | Workload::Durable => Transport::Stdio,
        }
    }

    /// The sessions the workload creates, with seeds derived from `seed`.
    /// Client `i` of `n` owns the `i`-th contiguous share of this list.
    pub fn sessions(self, seed: u64) -> Vec<SessionSpec> {
        let spec = |index: usize, id: &str, method, shards, with_truth| SessionSpec {
            id: id.to_string(),
            method,
            shards,
            seed: derive_seed(seed, index as u64 + 1),
            with_truth,
        };
        match self {
            Workload::Annotate => (0..2)
                .map(|i| {
                    spec(
                        i,
                        &format!("annotator-{i}"),
                        SamplerMethod::Oasis,
                        None,
                        false,
                    )
                })
                .collect(),
            Workload::Simulate => vec![
                spec(0, "oasis", SamplerMethod::Oasis, None, true),
                spec(1, "passive", SamplerMethod::Passive, None, true),
                spec(2, "importance", SamplerMethod::Importance, None, true),
                spec(3, "stratified", SamplerMethod::Stratified, None, true),
                spec(4, "oasis-k64", SamplerMethod::Oasis, Some(64), true),
            ],
            Workload::Durable => (0..DURABLE_SESSIONS)
                .map(|i| {
                    spec(
                        i,
                        &format!("durable-{i:02}"),
                        SamplerMethod::Oasis,
                        None,
                        false,
                    )
                })
                .collect(),
            Workload::Mixed => vec![
                spec(0, "annotator", SamplerMethod::Oasis, None, false),
                spec(1, "stepper", SamplerMethod::Oasis, None, true),
            ],
        }
    }

    /// Where the server may run while the benchmark's own threads are
    /// pinned to CPU 0, on a machine with `cpus` CPUs.  Left to the
    /// scheduler — or pinned to a CPU of its own — a ping-pong between a
    /// client and the server crosses CPUs, and on a virtual machine what a
    /// cross-CPU wake-up costs depends on where the host has put the vCPUs:
    /// a `durable` cycle took about 45 us in some runs and 70 us in others.
    /// On one CPU it takes the same time every run, and costs no CPU time
    /// the server could have used, since a closed-loop client is blocked
    /// while the server works.  `mixed` is the exception: it must let the
    /// server run its two connections on every CPU, or thread-per-connection
    /// would look like a single event loop.  So a change that spreads one
    /// request over several cores shows on `mixed` only.
    pub fn server_cpus(self, cpus: usize) -> String {
        match self {
            Workload::Mixed => format!("0-{}", cpus - 1),
            _ => "0".to_string(),
        }
    }

    /// Server options for set-up `repetition`; `durable` gets a fresh,
    /// empty store directory under `scratch` each time.  `cpus` is the
    /// server's CPU list when the benchmark is pinned.
    pub fn server_options(
        self,
        scratch: &Path,
        repetition: usize,
        log_json: bool,
        cpus: Option<String>,
    ) -> io::Result<ServerOptions> {
        let store = match self {
            Workload::Durable => {
                let dir = scratch.join(format!("store-{}-{repetition}", u8::from(log_json)));
                if dir.exists() {
                    std::fs::remove_dir_all(&dir)?;
                }
                std::fs::create_dir_all(&dir)?;
                Some((dir, DURABLE_MAX_RESIDENT))
            }
            _ => None,
        };
        Ok(ServerOptions {
            transport: self.transport(),
            store,
            log_json,
            cpus,
        })
    }
}
