//! Seeded workload inputs: the pool, the sessions and the wire lines that
//! create them.  Everything derives from the one `--seed`; the server only
//! ever sees the rendered lines.

use er_core::datasets::DatasetProfile;
use oasis::{OasisConfig, SamplerMethod, ScoredPool};
use serde::json::{Json, ToJson};

/// The pool id every workload registers its pool under.
pub const POOL_ID: &str = "cora";

/// A generated pool plus the hidden truth only the benchmark knows.
#[derive(Debug)]
pub struct PoolInput {
    /// Scale passed to the profile (1.0 = the paper's full cora pool).
    pub scale: f64,
    /// The pool the server is asked to load.
    pub pool: ScoredPool,
    /// The hidden ground truth the annotating clients answer from.
    pub truth: Vec<bool>,
    /// The rendered `load_pool` request.
    pub load_line: String,
}

impl PoolInput {
    /// `experiments::pools::direct_pool` on the cora profile, calibrated.
    pub fn generate(scale: f64, seed: u64) -> Self {
        let generated = experiments::pools::direct_pool(&DatasetProfile::cora(), scale, true, seed);
        let mut load = Json::object();
        load.set("cmd", Json::String("load_pool".to_string()));
        load.set("pool", Json::String(POOL_ID.to_string()));
        load.set("scores", generated.pool.scores().to_vec().to_json());
        load.set(
            "predictions",
            generated.pool.predictions().to_vec().to_json(),
        );
        PoolInput {
            scale,
            load_line: load.render(),
            pool: generated.pool,
            truth: generated.truth,
        }
    }
}

/// One session a workload creates.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Session id on the wire.
    pub id: String,
    /// Sampling method.
    pub method: SamplerMethod,
    /// Shard count (`None` = flat sampler).
    pub shards: Option<usize>,
    /// Session RNG seed, derived from the workload seed.
    pub seed: u64,
    /// Whether the server gets the truth (enables `step`); otherwise the
    /// session labels externally through `propose`/`label`.
    pub with_truth: bool,
}

impl SessionSpec {
    /// The default sampler configuration every session runs (K = 30 strata).
    pub fn config(&self) -> OasisConfig {
        OasisConfig::default()
    }

    /// The rendered `create_session` request.
    pub fn create_line(&self, pool: &PoolInput) -> String {
        let mut create = Json::object();
        create.set("cmd", Json::String("create_session".to_string()));
        create.set("session", Json::String(self.id.clone()));
        create.set("pool", Json::String(POOL_ID.to_string()));
        create.set("seed", self.seed.to_json());
        create.set("method", Json::String(self.method.as_str().to_string()));
        if let Some(shards) = self.shards {
            create.set("shards", shards.to_json());
        }
        if self.with_truth {
            create.set("truth", pool.truth.clone().to_json());
        }
        create.render()
    }
}

/// SplitMix64 over `(seed, stream)`: independent sub-seeds for sessions and
/// pickers from the one workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `propose` request for one item.
pub fn propose_line(session: &str) -> String {
    format!(r#"{{"cmd":"propose","session":"{session}","count":1}}"#)
}

/// The `label` request answering one ticket.
pub fn label_line(session: &str, ticket: u64, label: bool) -> String {
    format!(
        r#"{{"cmd":"label","session":"{session}","labels":[{{"ticket":"{ticket}","label":{label}}}]}}"#
    )
}

/// The `step` request.
pub fn step_line(session: &str, steps: usize) -> String {
    format!(r#"{{"cmd":"step","session":"{session}","steps":{steps}}}"#)
}

/// The `estimate` request.
pub fn estimate_line(session: &str) -> String {
    format!(r#"{{"cmd":"estimate","session":"{session}"}}"#)
}

/// The `checkpoint_to` request.
pub fn checkpoint_line(session: &str) -> String {
    format!(r#"{{"cmd":"checkpoint_to","session":"{session}"}}"#)
}
