//! The untrusted-client guard: per-connection auth and per-session rate
//! limits screened *before* a request reaches the engine.
//!
//! A [`ClientPolicy`] is shared by every connection of a server.  Each
//! connection tracks its own [`ConnState`] (has this client authenticated?);
//! rate-limit buckets are keyed by session id so one chatty client cannot
//! starve sessions it does not own.  Rejections are structured `ok:false`
//! responses with a stable `kind` tag (`unauthorized` / `throttled`) — a
//! screened-out request never reaches a sampler, never takes a session
//! lock, and never appears in the WAL, so guards are invisible to replay.
//!
//! The token bucket does integer micro-token accounting on the engine's
//! [`Clock`] abstraction: capacity one second's worth of requests, refilled
//! at `rate_per_second`, with [`ManualClock`](crate::metrics::ManualClock)
//! making throttle tests deterministic.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::metrics::{Clock, Counter, MonotonicClock};
use crate::protocol::{dispatch, error_response, Dispatch, Request};
use parking_lot::Mutex;
use serde::json::Json;
use std::collections::HashMap;
use std::sync::Arc;

/// Micro-tokens charged per admitted request.
const REQUEST_COST: u64 = 1_000_000;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Current fill in micro-tokens.
    level: u64,
    /// Lease-clock reading at the last refill.
    last_us: u64,
}

/// Connection-screening policy: an optional shared-secret auth token and an
/// optional per-session request rate limit.
#[derive(Debug)]
pub struct ClientPolicy {
    auth_token: Option<String>,
    rate_per_second: Option<u64>,
    clock: Arc<dyn Clock>,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl Default for ClientPolicy {
    fn default() -> Self {
        ClientPolicy {
            auth_token: None,
            rate_per_second: None,
            clock: Arc::new(MonotonicClock::new()),
            buckets: Mutex::new(HashMap::new()),
        }
    }
}

impl ClientPolicy {
    /// A policy that admits everything (no token, no rate limit).
    pub fn new() -> Self {
        ClientPolicy::default()
    }

    /// Require every connection to present `token` via the `auth` command
    /// before any other request is served.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Cap each session at `per_second` requests per second (sustained).
    /// Bursts up to one second's worth are admitted from a full bucket.
    pub fn with_rate_limit(mut self, per_second: u64) -> Self {
        self.rate_per_second = Some(per_second.max(1));
        self
    }

    /// Read bucket refills from `clock` instead of the monotonic clock
    /// (tests pass a [`ManualClock`](crate::metrics::ManualClock)).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Whether connections must authenticate before issuing requests.
    pub fn requires_auth(&self) -> bool {
        self.auth_token.is_some()
    }

    /// Whether `token` matches the configured secret (always true with no
    /// secret configured).
    pub fn accepts(&self, token: &str) -> bool {
        match &self.auth_token {
            // Constant-time-ish comparison: fold over every byte instead of
            // short-circuiting on the first mismatch.
            Some(secret) => {
                let mut diff = u8::from(secret.len() != token.len());
                for (a, b) in secret.bytes().zip(token.bytes()) {
                    diff |= a ^ b;
                }
                diff == 0
            }
            None => true,
        }
    }

    /// Admit or throttle one request under `key`'s token bucket.
    ///
    /// # Errors
    /// [`EngineError::Throttled`] when the bucket is empty; the client
    /// should back off and retry.
    pub fn admit(&self, key: &str) -> Result<(), EngineError> {
        let Some(rate) = self.rate_per_second else {
            return Ok(());
        };
        let capacity = rate.saturating_mul(REQUEST_COST);
        let now = self.clock.now_micros();
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(key.to_string()).or_insert(Bucket {
            level: capacity,
            last_us: now,
        });
        let elapsed = now.saturating_sub(bucket.last_us);
        // rate tokens/second == rate micro-tokens/microsecond.
        bucket.level = bucket
            .level
            .saturating_add(elapsed.saturating_mul(rate))
            .min(capacity);
        bucket.last_us = now;
        if bucket.level >= REQUEST_COST {
            bucket.level -= REQUEST_COST;
            Ok(())
        } else {
            Err(EngineError::Throttled(format!(
                "session {key:?} exceeded {rate} requests/second; retry later"
            )))
        }
    }
}

/// Per-connection guard state.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnState {
    /// Whether this connection has presented a valid auth token.
    pub authenticated: bool,
}

/// Dispatch one request through the guard: handle `auth`, enforce the auth
/// requirement, charge the rate limiter, then hand off to
/// [`dispatch`].  With no policy this is exactly [`dispatch`].
pub fn guarded_dispatch(
    engine: &Engine,
    policy: Option<&ClientPolicy>,
    conn: &mut ConnState,
    request: Request,
) -> Dispatch {
    let Some(policy) = policy else {
        return dispatch(engine, request);
    };
    if let Request::Auth { token } = &request {
        return if policy.accepts(token) {
            conn.authenticated = true;
            let mut obj = Json::object();
            obj.set("ok", Json::Bool(true));
            obj.set("authenticated", Json::Bool(true));
            Dispatch {
                response: obj,
                shutdown: false,
            }
        } else {
            Dispatch {
                response: error_response(&EngineError::Unauthorized(
                    "invalid auth token".to_string(),
                )),
                shutdown: false,
            }
        };
    }
    if policy.requires_auth() && !conn.authenticated {
        return Dispatch {
            response: error_response(&EngineError::Unauthorized(
                "authenticate first: {\"cmd\":\"auth\",\"token\":\"...\"}".to_string(),
            )),
            shutdown: false,
        };
    }
    if let Err(error) = policy.admit(request.session_id().unwrap_or("_global")) {
        engine.metrics().incr(Counter::Throttle);
        return Dispatch {
            response: error_response(&error),
            shutdown: false,
        };
    }
    dispatch(engine, request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ManualClock;

    #[test]
    fn auth_tokens_are_checked_exactly() {
        let policy = ClientPolicy::new().with_auth_token("hunter2");
        assert!(policy.requires_auth());
        assert!(policy.accepts("hunter2"));
        assert!(!policy.accepts("hunter"));
        assert!(!policy.accepts("hunter22"));
        assert!(!policy.accepts(""));
        // A length difference that is a multiple of 256 still counts.
        assert!(!policy.accepts(&format!("hunter2{}", "x".repeat(256))));
        let open = ClientPolicy::new();
        assert!(!open.requires_auth());
        assert!(open.accepts("anything"));
    }

    #[test]
    fn token_bucket_throttles_and_refills_deterministically() {
        let clock = Arc::new(ManualClock::new());
        let policy = ClientPolicy::new()
            .with_rate_limit(2)
            .with_clock(Arc::clone(&clock) as _);
        // A fresh bucket admits a full burst (default: one second's worth).
        policy.admit("s").unwrap();
        policy.admit("s").unwrap();
        let err = policy.admit("s").unwrap_err();
        assert!(matches!(err, EngineError::Throttled(_)), "{err}");
        // Sessions are limited independently.
        policy.admit("other").unwrap();
        // Half a second refills one request's worth at 2/s.
        clock.advance(500_000);
        policy.admit("s").unwrap();
        assert!(policy.admit("s").is_err());
        // The bucket never overfills past its burst capacity.
        clock.advance(60_000_000);
        policy.admit("s").unwrap();
        policy.admit("s").unwrap();
        assert!(policy.admit("s").is_err());
    }

    #[test]
    fn guarded_dispatch_screens_before_the_engine() {
        let engine = Engine::new();
        let policy = ClientPolicy::new().with_auth_token("secret");
        let mut conn = ConnState::default();

        // Unauthenticated requests are rejected with a kind tag.
        let outcome = guarded_dispatch(
            &engine,
            Some(&policy),
            &mut conn,
            Request::parse(r#"{"cmd":"sessions"}"#).unwrap(),
        );
        let rendered = outcome.response.render();
        assert!(rendered.contains(r#""ok":false"#), "{rendered}");
        assert!(rendered.contains(r#""kind":"unauthorized""#), "{rendered}");

        // A bad token does not flip the flag.
        let outcome = guarded_dispatch(
            &engine,
            Some(&policy),
            &mut conn,
            Request::parse(r#"{"cmd":"auth","token":"wrong"}"#).unwrap(),
        );
        assert!(outcome.response.render().contains(r#""ok":false"#));
        assert!(!conn.authenticated);

        // The right token opens the connection.
        let outcome = guarded_dispatch(
            &engine,
            Some(&policy),
            &mut conn,
            Request::parse(r#"{"cmd":"auth","token":"secret"}"#).unwrap(),
        );
        assert!(outcome
            .response
            .render()
            .contains(r#""authenticated":true"#));
        assert!(conn.authenticated);
        let outcome = guarded_dispatch(
            &engine,
            Some(&policy),
            &mut conn,
            Request::parse(r#"{"cmd":"sessions"}"#).unwrap(),
        );
        assert!(outcome.response.render().contains(r#""ok":true"#));
    }

    #[test]
    fn throttled_requests_never_reach_the_session() {
        let clock = Arc::new(ManualClock::new());
        let policy = ClientPolicy::new()
            .with_rate_limit(1)
            .with_clock(Arc::clone(&clock) as _);
        let engine = Engine::new();
        let mut conn = ConnState::default();
        let load = Request::parse(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#,
        )
        .unwrap();
        // The pool-level verb spends the "_global" bucket's burst...
        assert!(guarded_dispatch(&engine, Some(&policy), &mut conn, load)
            .response
            .render()
            .contains(r#""ok":true"#));
        // ...so session-keyed verbs still get their own budget.
        let create = Request::parse(
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"config":{"strata_count":2}}"#,
        )
        .unwrap();
        assert!(guarded_dispatch(&engine, Some(&policy), &mut conn, create)
            .response
            .render()
            .contains(r#""ok":true"#));
        let propose = || Request::parse(r#"{"cmd":"propose","session":"s"}"#).unwrap();
        // create_session spent session "s"'s burst, so the propose throttles.
        let rendered = guarded_dispatch(&engine, Some(&policy), &mut conn, propose())
            .response
            .render();
        assert!(rendered.contains(r#""kind":"throttled""#), "{rendered}");
        assert_eq!(engine.metrics().counter(Counter::Throttle), 1);
        // The throttled propose never touched the session.
        let handle = engine.session("s").unwrap();
        assert_eq!(handle.lock().pending_count(), 0);
        // Waiting out the limit admits the next request.
        clock.advance(1_000_000);
        let rendered = guarded_dispatch(&engine, Some(&policy), &mut conn, propose())
            .response
            .render();
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        assert_eq!(handle.lock().pending_count(), 1);
    }
}
