//! Transport layer for the line protocol.
//!
//! [`serve_lines`] is the whole protocol loop — line framing, dispatch and
//! the response write — over any reader/writer pair.  `oasis-serve` runs it
//! on stdin/stdout, and [`serve_listener`] runs it once per accepted TCP
//! connection, each on its own scoped thread sharing one [`Engine`].  Both
//! transports therefore answer the same bytes with the same bytes, and
//! concurrent clients drive disjoint sessions in parallel (per-session
//! locks serialise conflicting access).
//!
//! With an [`EventLog`] attached, each request emits one structured event
//! (verb, session, latency, outcome) — see [`crate::log`].  With a
//! [`ClientPolicy`], requests are screened for auth and rate limits before
//! they reach the engine.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::guard::{guarded_dispatch, ClientPolicy, ConnState};
use crate::log::EventLog;
use crate::metrics::Counter;
use crate::protocol::{error_response, Dispatch, Request};
use serde::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Largest request line the serving loop will buffer.  Checkpoint
/// documents for large pools are megabytes, so the cap is generous — but it
/// must exist: without it a client streaming bytes with no newline grows the
/// line buffer until the process OOMs, bypassing every parse-time limit.
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Most TCP connections [`serve_listener`] serves at once.  At the cap the
/// accept loop waits for a handler to exit, so new clients queue in the
/// kernel's accept backlog instead of each getting a thread.
pub const MAX_CONNECTIONS: usize = 16_384;

/// Outcome of one bounded line read.
enum LineStatus {
    /// Clean EOF at a line boundary (or empty final read).
    Eof,
    /// A full newline-terminated line is in the buffer.
    Complete,
    /// EOF arrived mid-line; the partial line is in the buffer.
    FinalPartial,
    /// The line exceeded [`MAX_LINE_BYTES`] before a newline appeared.
    TooLong,
}

/// Read up to the rest of one line into `line`, never letting the buffer
/// exceed [`MAX_LINE_BYTES`] (+1 sentinel byte to detect overflow).
fn fill_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> std::io::Result<LineStatus> {
    use std::io::Read as _;
    loop {
        let budget = (MAX_LINE_BYTES + 1).saturating_sub(line.len());
        if budget == 0 {
            return Ok(LineStatus::TooLong);
        }
        let n = reader
            .by_ref()
            .take(budget as u64)
            .read_until(b'\n', line)?;
        if line.last() == Some(&b'\n') {
            return Ok(LineStatus::Complete);
        }
        if n == 0 {
            return Ok(if line.is_empty() {
                LineStatus::Eof
            } else {
                LineStatus::FinalPartial
            });
        }
        // Budget exhausted without a newline: loop once more so the len
        // check above reports TooLong.
    }
}

/// Route an operational message through the event log when one is attached,
/// or straight to stderr in the legacy format otherwise.
fn log_message(log: Option<&EventLog>, text: &str) {
    match log {
        Some(log) => log.message(text),
        None => eprintln!("oasis-serve: {text}"),
    }
}

/// Render the response for one raw request line (`None` for blank lines),
/// emitting one structured event per request when a log is attached.  With a
/// [`ClientPolicy`], requests are screened (auth, rate limits) before they
/// reach the engine; `conn` carries this connection's authentication state.
fn handle_line(
    engine: &Engine,
    raw: &[u8],
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
    conn: &mut ConnState,
) -> Option<Dispatch> {
    let text = String::from_utf8_lossy(raw);
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return None;
    }
    let started = Instant::now();
    Some(match Request::parse(trimmed) {
        Ok(request) => {
            let verb = request.verb();
            let session = request.session_id().map(str::to_string);
            let outcome = guarded_dispatch(engine, policy, conn, request);
            if let Some(log) = log {
                let ok = matches!(outcome.response.get("ok"), Some(Json::Bool(true)));
                log.request(
                    verb,
                    session.as_deref(),
                    started.elapsed().as_micros() as u64,
                    ok,
                );
            }
            outcome
        }
        Err(error) => {
            if let Some(log) = log {
                log.request(
                    "parse_error",
                    None,
                    started.elapsed().as_micros() as u64,
                    false,
                );
            }
            Dispatch {
                response: error_response(&error),
                shutdown: false,
            }
        }
    })
}

/// Write one response line with a single `write_all`.  Writing the newline
/// separately lets Nagle's algorithm hold it back until the client's
/// delayed ACK (about 40 ms) arrives.
fn write_response<W: Write>(writer: &mut W, response: &Json) -> std::io::Result<()> {
    let mut line = response.render();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// The structured rejection for an overlong request line: `ok:false` with
/// `kind:"line_too_long"`, so clients can tell a framing overflow apart
/// from a malformed request.  Bumps the [`Counter::LineTooLong`] metric.
fn line_too_long_response(engine: &Engine) -> Json {
    engine.metrics().incr(Counter::LineTooLong);
    error_response(&EngineError::LineTooLong(MAX_LINE_BYTES))
}

/// Serve the line protocol over any reader/writer pair until EOF or a
/// `shutdown` command.  Returns `true` if the loop ended because of
/// `shutdown` (as opposed to EOF).
///
/// Blank lines are ignored; malformed lines produce an `"ok": false`
/// response and the loop continues — a broken client cannot wedge the
/// server.  A final line without a trailing newline is still answered.
/// Lines longer than [`MAX_LINE_BYTES`] are answered with a structured
/// `kind:"line_too_long"` error and discarded without being buffered whole.
/// `log` receives one event per request; `policy` screens requests for
/// auth and rate limits, each rejection a structured `ok:false` line (kind
/// `unauthorized`/`throttled`).
///
/// # Errors
/// Only I/O failures on the transport itself.
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &Engine,
    mut reader: R,
    writer: &mut W,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
) -> std::io::Result<bool> {
    let mut conn = ConnState::default();
    // Partial lines survive short reads: `fill_line` appends raw bytes, so
    // a request split across packets is completed by later reads even when
    // the split lands inside a multi-byte UTF-8 character.
    let mut line = Vec::new();
    let mut discarding = false;
    loop {
        match fill_line(&mut reader, &mut line)? {
            LineStatus::Eof => return Ok(false),
            LineStatus::Complete | LineStatus::FinalPartial => {
                let at_eof = line.last() != Some(&b'\n');
                if discarding {
                    discarding = false;
                } else if let Some(outcome) = handle_line(engine, &line, log, policy, &mut conn) {
                    write_response(writer, &outcome.response)?;
                    if outcome.shutdown {
                        return Ok(true);
                    }
                }
                line.clear();
                if at_eof {
                    return Ok(false);
                }
            }
            LineStatus::TooLong => {
                if !discarding {
                    write_response(writer, &line_too_long_response(engine))?;
                    discarding = true;
                }
                line.clear();
            }
        }
    }
}

/// The open TCP connections of one serving loop.  It bounds how many
/// handlers run at once — the accept loop waits for a free slot, so excess
/// clients queue in the kernel backlog — and lets shutdown wake every
/// blocked handler promptly by closing its socket from the accept side.
/// Idle connections therefore cost no CPU, and shutdown latency is bounded
/// by a socket close rather than a poll interval.  The registry shares
/// each socket with its handler, so a connection costs one fd.
#[derive(Default)]
struct ConnRegistry {
    inner: Mutex<RegistryInner>,
    /// Signalled when a connection leaves or the registry closes.
    changed: Condvar,
}

#[derive(Default)]
struct RegistryInner {
    /// Set once the shutdown sweep ran; late registrations are closed on
    /// the spot so no handler can slip past the sweep and block forever.
    closed: bool,
    next_id: u64,
    conns: HashMap<u64, Arc<TcpStream>>,
}

impl ConnRegistry {
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until fewer than `cap` connections are open.  Returns `false`
    /// once the registry has closed.
    fn wait_for_slot(&self, cap: usize) -> bool {
        let mut inner = self.lock();
        while !inner.closed && inner.conns.len() >= cap {
            inner = self
                .changed
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        !inner.closed
    }

    /// Track `stream`, the handler's socket.  Returns `None` — after
    /// shutting the stream down — when the registry already closed, so the
    /// connection is hung up at once.
    fn register(&self, stream: &Arc<TcpStream>) -> Option<u64> {
        let mut inner = self.lock();
        if inner.closed {
            let _ = stream.shutdown(Shutdown::Both);
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.conns.insert(id, Arc::clone(stream));
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.lock().conns.remove(&id);
        self.changed.notify_all();
    }

    /// Close every registered connection and refuse future registrations.
    fn close_all(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        for stream in inner.conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        inner.conns.clear();
        self.changed.notify_all();
    }
}

/// Bounded exponential backoff for `accept()` failures.
///
/// An `accept` that fails with EMFILE/ENFILE (fd exhaustion) fails again
/// immediately — the listener's backlog still holds the connection — so a
/// log-and-continue loop spins at 100% duty, starving the handler threads
/// of the very fds it is waiting for.  Sleeping a doubling, capped delay
/// between retries lets handlers finish and release fds.
#[derive(Debug)]
struct AcceptBackoff {
    delay: Duration,
}

/// First retry delay after an `accept()` failure.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
/// Largest delay between `accept()` retries.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

impl AcceptBackoff {
    fn new() -> Self {
        AcceptBackoff {
            delay: ACCEPT_BACKOFF_MIN,
        }
    }

    /// The delay to wait before the next accept attempt; doubles up to
    /// [`ACCEPT_BACKOFF_MAX`] on consecutive failures.
    fn next_delay(&mut self) -> Duration {
        let delay = self.delay;
        self.delay = (delay * 2).min(ACCEPT_BACKOFF_MAX);
        delay
    }

    /// A successful accept resets the ladder.
    fn reset(&mut self) {
        self.delay = ACCEPT_BACKOFF_MIN;
    }
}

/// The accept side of the serving loop, abstracted so tests can inject
/// `accept()` failures (EMFILE and friends) that are otherwise impossible
/// to provoke deterministically.
pub(crate) trait AcceptSource {
    /// Accept one connection.
    fn accept_stream(&self) -> std::io::Result<TcpStream>;
}

impl AcceptSource for TcpListener {
    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }
}

/// Serve one TCP connection with [`serve_lines`], returning `true` if this
/// client issued `shutdown`.  Reads block indefinitely: a shutdown issued
/// on another connection wakes this one by closing its socket through the
/// [`ConnRegistry`].  Writes block too, so a client that stops draining its
/// responses stops this thread from reading its next request.
fn serve_connection(
    engine: &Engine,
    stream: &TcpStream,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
) -> bool {
    // Each response is one write; with Nagle off, none of them waits for
    // the client's delayed ACK of the previous one.
    let _ = stream.set_nodelay(true);
    let mut writer = stream;
    serve_lines(engine, BufReader::new(stream), &mut writer, log, policy).unwrap_or(false)
}

/// Serve the line protocol over TCP until a client issues `shutdown`: each
/// accepted connection runs [`serve_lines`] on its own scoped thread
/// against the shared engine, up to [`MAX_CONNECTIONS`] at once.  On
/// `shutdown` the accept loop stops and every open connection is closed
/// from the accept side, so even idle clients are released at once.
///
/// # Errors
/// Only listener-setup failures; per-connection accept errors (a client
/// resetting mid-handshake, transient resource exhaustion) are logged and
/// retried after a bounded backoff, so one flaky connect cannot tear down
/// every other client's session.
pub fn serve_listener(
    engine: &Engine,
    listener: TcpListener,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    serve_accept_loop(engine, &listener, local, log, policy, MAX_CONNECTIONS)
}

/// The accept loop behind [`serve_listener`], over any [`AcceptSource`]
/// (production: [`TcpListener`]; tests: sources that inject accept
/// failures) and with the connection cap as a parameter so tests can
/// reach it cheaply.
pub(crate) fn serve_accept_loop<A: AcceptSource + Sync>(
    engine: &Engine,
    source: &A,
    local: SocketAddr,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
    max_connections: usize,
) -> std::io::Result<()> {
    let registry = ConnRegistry::default();
    let mut backoff = AcceptBackoff::new();
    crossbeam::thread::scope(|scope| {
        while registry.wait_for_slot(max_connections) {
            let stream = match source.accept_stream() {
                Ok(stream) => {
                    backoff.reset();
                    engine.metrics().incr(Counter::Connection);
                    stream
                }
                Err(error) => {
                    // EMFILE/ENFILE and friends fail again immediately, so
                    // a plain log-and-continue pegs a core while starving
                    // the handlers that would release fds.  Sleep a
                    // bounded, doubling delay instead.
                    engine.metrics().incr(Counter::AcceptRetry);
                    let delay = backoff.next_delay();
                    log_message(
                        log,
                        &format!(
                            "accept error (retrying in {}ms): {error}",
                            delay.as_millis()
                        ),
                    );
                    std::thread::sleep(delay);
                    continue;
                }
            };
            // Registered here rather than in the handler, so the cap counts
            // every accepted connection, including ones not yet running.
            let stream = Arc::new(stream);
            let Some(id) = registry.register(&stream) else {
                continue;
            };
            let registry = &registry;
            scope.spawn(move |_| {
                let shutdown = serve_connection(engine, &stream, log, policy);
                registry.deregister(id);
                if shutdown {
                    // Wake every blocked handler by closing its socket, then
                    // unblock the accept loop so it sees the closed registry.
                    registry.close_all();
                    wake_accept_loop(local, log);
                }
            });
        }
    })
    .map_err(|_| std::io::Error::other(EngineError::Protocol("worker panicked".into())))
}

/// Self-connect to the listener so a loop blocked in `accept()` returns.
/// When bound to an unspecified address (0.0.0.0 / ::), connect via the
/// loopback of the same family — connecting to 0.0.0.0 fails on some
/// platforms.
fn wake_accept_loop(mut local: SocketAddr, log: Option<&EventLog>) {
    if local.ip().is_unspecified() {
        local.set_ip(match local.ip() {
            std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    if let Err(error) = TcpStream::connect(local) {
        log_message(
            log,
            &format!(
                "shutdown wake-up connect to {local} failed ({error}); \
                 the listener will close on the next incoming connection"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::atomic::Ordering;

    fn run_script(engine: &Engine, script: &str) -> Vec<String> {
        let mut output = Vec::new();
        serve_lines(
            engine,
            Cursor::new(script.to_string()),
            &mut output,
            None,
            None,
        )
        .unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn scripted_session_end_to_end() {
        let engine = Engine::new();
        let script = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.9,0.8,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,false,false,false,false,false]}"#,
            "\n",
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":42,"config":{"strata_count":4},"truth":[true,true,false,false,false,false,false,false]}"#,
            "\n",
            r#"{"cmd":"step","session":"s","steps":60}"#,
            "\n",
            r#"{"cmd":"estimate","session":"s"}"#,
            "\n",
            r#"{"cmd":"shutdown"}"#,
            "\n",
        );
        let responses = run_script(&engine, script);
        assert_eq!(responses.len(), 5);
        for response in &responses {
            assert!(response.starts_with(r#"{"#), "line: {response}");
            assert!(response.contains(r#""ok":true"#), "line: {response}");
        }
        assert!(responses[3].contains("f_measure"), "estimate line");
        assert!(responses[4].contains("shutdown"));
    }

    #[test]
    fn suspend_resume_over_the_wire() {
        let engine = Engine::new();
        // External session: propose returns tickets; labels come back by id.
        let setup = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#,
            "\n",
            r#"{"cmd":"create_session","session":"ext","pool":"p","seed":1,"config":{"strata_count":2}}"#,
            "\n",
            r#"{"cmd":"propose","session":"ext","count":2}"#,
            "\n",
        );
        let responses = run_script(&engine, setup);
        let proposal_line = &responses[2];
        assert!(proposal_line.contains(r#""proposals":["#));
        assert!(proposal_line.contains(r#""ticket":"0""#));
        assert!(proposal_line.contains(r#""ticket":"1""#));

        // Labels for both tickets resume the session.
        let resume = concat!(
            r#"{"cmd":"label","session":"ext","labels":[{"ticket":"0","label":true},{"ticket":"1","label":false}]}"#,
            "\n",
            r#"{"cmd":"estimate","session":"ext"}"#,
            "\n",
        );
        let responses = run_script(&engine, resume);
        assert!(responses[0].contains(r#""applied":2"#), "{}", responses[0]);
        assert!(responses[1].contains(r#""pending":0"#));
    }

    #[test]
    fn checkpoint_restore_over_the_wire_is_exact() {
        let engine = Engine::new();
        let setup = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.85,0.75,0.45,0.25,0.15,0.1,0.05],"predictions":[true,true,true,false,false,false,false,false]}"#,
            "\n",
            r#"{"cmd":"create_session","session":"a","pool":"p","seed":9,"config":{"strata_count":3},"truth":[true,true,false,true,false,false,false,false]}"#,
            "\n",
            r#"{"cmd":"step","session":"a","steps":40}"#,
            "\n",
            r#"{"cmd":"checkpoint","session":"a"}"#,
            "\n",
        );
        let responses = run_script(&engine, setup);
        let checkpoint_line = &responses[3];
        let parsed = serde::json::Json::parse(checkpoint_line).unwrap();
        let checkpoint = parsed.require("checkpoint").unwrap().render();

        // Restore under a new name and continue both; estimates must agree.
        let restore_script = format!(
            "{}\n{}\n{}\n{}\n",
            format_args!(r#"{{"cmd":"restore","session":"b","checkpoint":{checkpoint}}}"#),
            r#"{"cmd":"step","session":"a","steps":40}"#,
            r#"{"cmd":"step","session":"b","steps":40}"#,
            r#"{"cmd":"sessions"}"#,
        );
        let responses = run_script(&engine, &restore_script);
        assert!(
            responses[0].contains(r#""restored":true"#),
            "{}",
            responses[0]
        );
        let estimate_a = serde::json::Json::parse(&responses[1]).unwrap();
        let estimate_b = serde::json::Json::parse(&responses[2]).unwrap();
        assert_eq!(
            estimate_a.require("estimate").unwrap().render(),
            estimate_b.require("estimate").unwrap().render(),
            "restored session must continue bit-identically"
        );
        assert!(responses[3].contains(r#""sessions":["a","b"]"#));
    }

    #[test]
    fn overlong_lines_are_rejected_without_unbounded_buffering() {
        // A line longer than MAX_LINE_BYTES gets one error response and is
        // discarded; the loop then serves the next request normally.
        let engine = Engine::new();
        let mut script = Vec::new();
        script.extend_from_slice(br#"{"cmd":"garbage-pad":""#);
        script.resize(MAX_LINE_BYTES + 1024, b'x');
        script.extend_from_slice(b"\"}\n{\"cmd\":\"sessions\"}\n");
        let mut output = Vec::new();
        serve_lines(&engine, Cursor::new(script), &mut output, None, None).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one error + one normal response: {text}");
        assert!(lines[0].contains(r#""ok":false"#));
        assert!(
            lines[0].contains(r#""kind":"line_too_long""#),
            "framing overflow must be machine-distinguishable: {}",
            lines[0]
        );
        assert!(lines[0].contains("exceeds"));
        assert!(lines[1].contains(r#""ok":true"#));
        assert_eq!(engine.metrics().counter(Counter::LineTooLong), 1);
    }

    #[test]
    fn accept_backoff_doubles_and_resets() {
        let mut backoff = AcceptBackoff::new();
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MIN);
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MIN * 2);
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MIN * 4);
        // The ladder is capped.
        for _ in 0..20 {
            backoff.next_delay();
        }
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MAX);
        // One successful accept resets it.
        backoff.reset();
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MIN);
    }

    /// An [`AcceptSource`] that fails its first N accepts with EMFILE, then
    /// delegates to a real listener — the fd-exhaustion scenario that a
    /// log-and-continue accept loop turns into a hot spin.
    struct FlakyListener {
        inner: TcpListener,
        failures: std::sync::atomic::AtomicUsize,
    }

    impl AcceptSource for FlakyListener {
        fn accept_stream(&self) -> std::io::Result<TcpStream> {
            if self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                // EMFILE: "Too many open files".
                return Err(std::io::Error::from_raw_os_error(24));
            }
            self.inner.accept_stream()
        }
    }

    #[test]
    fn accept_errors_back_off_instead_of_spinning() {
        use std::io::{BufRead as _, Write as _};

        const INJECTED_FAILURES: usize = 3;
        let engine = Engine::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flaky = FlakyListener {
            inner: listener,
            failures: std::sync::atomic::AtomicUsize::new(INJECTED_FAILURES),
        };
        crossbeam::thread::scope(|scope| {
            let engine = &engine;
            let flaky = &flaky;
            let started = Instant::now();
            let server = scope.spawn(move |_| {
                serve_accept_loop(engine, flaky, addr, None, None, MAX_CONNECTIONS)
            });

            // The client connects while the accepts are failing; the
            // listener backlog holds it until the backoff ladder admits it.
            let mut stream = loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::yield_now(),
                }
            };
            stream
                .write_all(b"{\"cmd\":\"sessions\"}\n{\"cmd\":\"shutdown\"}\n")
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""ok":true"#), "{line}");
            server.join().unwrap().unwrap();

            // Every injected failure took one bounded sleep (5+10+20ms)...
            assert!(
                started.elapsed() >= ACCEPT_BACKOFF_MIN * (INJECTED_FAILURES as u32 * 2 + 1),
                "backoff sleeps must actually elapse"
            );
            // ...and was counted.
            assert_eq!(
                engine.metrics().counter(Counter::AcceptRetry),
                INJECTED_FAILURES as u64
            );
            assert!(engine.metrics().counter(Counter::Connection) >= 1);
        })
        .unwrap();
    }

    #[test]
    fn json_log_emits_one_request_event_per_line() {
        use crate::log::LogFormat;
        use parking_lot::Mutex;
        use std::sync::Arc;

        #[derive(Clone, Default)]
        struct Buffer(Arc<Mutex<Vec<u8>>>);
        impl Write for Buffer {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let engine = Engine::new();
        let buffer = Buffer::default();
        let log = EventLog::to_writer(LogFormat::Json, Box::new(buffer.clone()));
        let script = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.1],"predictions":[true,false]}"#,
            "\n",
            "garbage\n",
            r#"{"cmd":"estimate","session":"ghost"}"#,
            "\n",
        );
        let mut output = Vec::new();
        serve_lines(
            &engine,
            Cursor::new(script.to_string()),
            &mut output,
            Some(&log),
            None,
        )
        .unwrap();

        let events = String::from_utf8(buffer.0.lock().clone()).unwrap();
        let lines: Vec<&str> = events.lines().collect();
        assert_eq!(lines.len(), 3, "{events}");
        let ok = Json::parse(lines[0]).unwrap();
        assert_eq!(ok.require("verb").unwrap().as_str().unwrap(), "load_pool");
        assert!(ok.require("ok").unwrap().as_bool().unwrap());
        assert!(matches!(ok.require("session").unwrap(), Json::Null));
        let parse_error = Json::parse(lines[1]).unwrap();
        assert_eq!(
            parse_error.require("verb").unwrap().as_str().unwrap(),
            "parse_error"
        );
        assert!(!parse_error.require("ok").unwrap().as_bool().unwrap());
        let failed = Json::parse(lines[2]).unwrap();
        assert_eq!(
            failed.require("session").unwrap().as_str().unwrap(),
            "ghost"
        );
        assert!(!failed.require("ok").unwrap().as_bool().unwrap());
    }

    #[test]
    fn guarded_serving_requires_auth_and_recovers_after_rejections() {
        let engine = Engine::new();
        let policy = ClientPolicy::new().with_auth_token("secret");
        let script = concat!(
            r#"{"cmd":"sessions"}"#,
            "\n",
            r#"{"cmd":"auth","token":"wrong"}"#,
            "\n",
            r#"{"cmd":"auth","token":"secret"}"#,
            "\n",
            r#"{"cmd":"sessions"}"#,
            "\n",
        );
        let mut output = Vec::new();
        serve_lines(
            &engine,
            Cursor::new(script.to_string()),
            &mut output,
            None,
            Some(&policy),
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(
            lines[0].contains(r#""kind":"unauthorized""#),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains(r#""ok":false"#), "{}", lines[1]);
        assert!(lines[2].contains(r#""authenticated":true"#), "{}", lines[2]);
        assert!(lines[3].contains(r#""ok":true"#), "{}", lines[3]);
    }

    #[test]
    fn guarded_tcp_auth_state_is_per_connection() {
        use std::io::{BufRead as _, Write as _};

        let engine = Engine::new();
        let policy = ClientPolicy::new().with_auth_token("secret");
        crossbeam::thread::scope(|scope| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let engine = &engine;
            let policy = &policy;
            let server = scope.spawn(move |_| serve_listener(engine, listener, None, Some(policy)));

            let mut first = loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::yield_now(),
                }
            };
            first
                .write_all(b"{\"cmd\":\"auth\",\"token\":\"secret\"}\n{\"cmd\":\"sessions\"}\n")
                .unwrap();
            let mut reader = BufReader::new(first.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""authenticated":true"#), "{line}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""ok":true"#), "{line}");

            // A second connection does NOT inherit the first's auth.
            let mut second = TcpStream::connect(addr).unwrap();
            second.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
            let mut reader2 = BufReader::new(second.try_clone().unwrap());
            line.clear();
            reader2.read_line(&mut line).unwrap();
            assert!(line.contains(r#""kind":"unauthorized""#), "{line}");

            // The authenticated connection shuts the server down.
            first.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""shutdown":true"#), "{line}");
            server.join().unwrap().unwrap();
            drop(second);
        })
        .unwrap();
    }

    #[test]
    fn malformed_lines_do_not_wedge_the_loop() {
        let engine = Engine::new();
        let script = "garbage\n{\"cmd\":\"sessions\"}\n";
        let responses = run_script(&engine, script);
        assert_eq!(responses.len(), 2);
        assert!(responses[0].contains(r#""ok":false"#));
        assert!(responses[1].contains(r#""ok":true"#));
    }

    #[test]
    fn shutdown_closes_idle_connections() {
        use std::io::{BufRead as _, Write as _};

        let engine = Engine::new();
        crossbeam::thread::scope(|scope| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let engine = &engine;
            let server = scope.spawn(move |_| serve_listener(engine, listener, None, None));

            // An idle client that connects and never sends a byte.
            let idle = loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::yield_now(),
                }
            };
            // A second client shuts the server down.
            let mut active = TcpStream::connect(addr).unwrap();
            active.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
            let mut reader = BufReader::new(active.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""shutdown":true"#));

            // The server must return even though the idle client is still
            // connected — the registry closes its socket from the accept
            // side, so shutdown is bounded by a socket close, not a poll
            // interval.
            let waited = Instant::now();
            server.join().unwrap().unwrap();
            assert!(
                waited.elapsed() < Duration::from_millis(100),
                "shutdown must not wait on idle-connection polling (took {:?})",
                waited.elapsed()
            );
            drop(idle);
        })
        .unwrap();
    }

    /// Connect with retry (the server thread may not be accepting yet) and
    /// a read timeout, so a regression fails a test instead of hanging it.
    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(_) => std::thread::yield_now(),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    fn read_response(stream: &TcpStream) -> String {
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line
    }

    #[test]
    fn connection_cap_parks_new_clients_in_the_backlog_until_a_slot_frees() {
        let engine = Engine::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        crossbeam::thread::scope(|scope| {
            let engine = &engine;
            let listener = &listener;
            let server =
                scope.spawn(move |_| serve_accept_loop(engine, listener, addr, None, None, 2));

            let first = connect(addr);
            let mut second = connect(addr);
            // Prove both slots are live.
            second.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
            assert!(read_response(&second).contains(r#""ok":true"#));

            // The third client connects (kernel backlog) but is not accepted
            // while the cap is held.
            let mut third = connect(addr);
            third
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            third.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
            let mut line = String::new();
            let parked = BufReader::new(&third).read_line(&mut line);
            assert!(parked.is_err(), "served past the cap: {line}");
            assert_eq!(engine.metrics().counter(Counter::Connection), 2);

            // Dropping a connection frees its slot and the parked client
            // gets served.
            drop(first);
            third
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            assert!(read_response(&third).contains(r#""ok":true"#));

            second.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
            assert!(read_response(&second).contains(r#""shutdown":true"#));
            server.join().unwrap().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn shutdown_at_the_connection_cap_returns_promptly() {
        let engine = Engine::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        crossbeam::thread::scope(|scope| {
            let engine = &engine;
            let listener = &listener;
            let server =
                scope.spawn(move |_| serve_accept_loop(engine, listener, addr, None, None, 2));

            // Fill both slots, park a third client in the backlog, then shut
            // down from one of the live connections.
            let idle = connect(addr);
            let mut active = connect(addr);
            active.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
            assert!(read_response(&active).contains(r#""ok":true"#));
            let parked = connect(addr);

            active.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
            assert!(read_response(&active).contains(r#""shutdown":true"#));
            // The accept loop is waiting for a slot, not in `accept()`; the
            // closing registry must wake it.
            let waited = Instant::now();
            server.join().unwrap().unwrap();
            assert!(
                waited.elapsed() < Duration::from_millis(500),
                "shutdown at the cap took {:?}",
                waited.elapsed()
            );
            drop((idle, parked));
        })
        .unwrap();
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::net::TcpStream;

        let engine = Engine::new();
        crossbeam::thread::scope(|scope| {
            // Bind on an ephemeral port, then serve from a scoped thread.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let engine = &engine;
            let server = scope.spawn(move |_| serve_listener(engine, listener, None, None));

            // Client: retry connect until the server is listening.
            let mut stream = loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::yield_now(),
                }
            };
            stream
                .write_all(b"{\"cmd\":\"sessions\"}\n{\"cmd\":\"shutdown\"}\n")
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""ok":true"#));
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""shutdown":true"#));
            server.join().unwrap().unwrap();
        })
        .unwrap();
    }
}
