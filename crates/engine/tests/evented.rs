//! Integration tests for the TCP transport (`oasis_engine::server::serve_listener`).
//!
//! The contract under test: every TCP connection runs the same
//! `serve_lines` loop that serves stdio, so TCP answers a script with
//! exactly the bytes stdio does — however the bytes are sliced across
//! reads — and a slow, hostile or non-draining client degrades only its
//! own connection.

use oasis_engine::server::{serve_lines, serve_listener, MAX_LINE_BYTES};
use oasis_engine::{ClientPolicy, Counter, Engine};
use proptest::prelude::*;
use std::io::{BufRead as _, BufReader, Cursor, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const SMOKE_SCRIPT: &str = include_str!("smoke/session.jsonl");

/// Connect with retry (the server thread may not be accepting yet) and a
/// read timeout so a regression hangs a test, not the whole suite.
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

/// Stop a server by issuing `shutdown` on a fresh connection.  The auth
/// preamble covers guarded servers (every test policy uses the token
/// `sesame`); unguarded servers answer it and carry on.
fn send_shutdown(addr: SocketAddr) {
    let mut stream = connect(addr);
    stream
        .write_all(b"{\"cmd\":\"auth\",\"token\":\"sesame\"}\n{\"cmd\":\"shutdown\"}\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let _ = reader.read_line(&mut line);
    line.clear();
    let _ = reader.read_line(&mut line);
}

/// Run `body` against a TCP server over a fresh engine, shutting the
/// server down afterwards.  Returns the engine for metric assertions.
fn with_server<F>(policy: Option<ClientPolicy>, body: F) -> Engine
where
    F: FnOnce(SocketAddr),
{
    let engine = Engine::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    crossbeam::thread::scope(|scope| {
        let engine = &engine;
        let policy = policy.as_ref();
        let server = scope.spawn(move |_| serve_listener(engine, listener, None, policy));
        // A failed assertion must still stop the server, or the scope
        // would wait on it forever.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
        send_shutdown(addr);
        server.join().unwrap().unwrap();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    })
    .unwrap();
    engine
}

/// The stdio loop's responses to a script — the parity reference.
fn blocking_reference(script: &[u8]) -> Vec<u8> {
    let engine = Engine::new();
    let mut output = Vec::new();
    serve_lines(
        &engine,
        Cursor::new(script.to_vec()),
        &mut output,
        None,
        None,
    )
    .unwrap();
    output
}

#[test]
fn smoke_script_responses_are_byte_identical_to_the_blocking_path() {
    let reference = blocking_reference(SMOKE_SCRIPT.as_bytes());

    let engine = Engine::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    crossbeam::thread::scope(|scope| {
        let engine = &engine;
        let server = scope.spawn(move |_| serve_listener(engine, listener, None, None));
        // The smoke script ends with `shutdown`, so the server exits and
        // the client reads responses until EOF.
        let mut stream = connect(addr);
        stream.write_all(SMOKE_SCRIPT.as_bytes()).unwrap();
        let mut tcp = Vec::new();
        stream.read_to_end(&mut tcp).unwrap();
        server.join().unwrap().unwrap();

        assert_eq!(
            String::from_utf8_lossy(&tcp),
            String::from_utf8_lossy(&reference),
            "TCP and stdio transports must be wire-identical"
        );
    })
    .unwrap();
}

#[test]
fn final_unterminated_line_is_answered_like_the_blocking_path() {
    // The stdio loop answers a final line with no trailing newline; TCP
    // must do the same when the peer half-closes mid-line.
    let script = b"{\"cmd\":\"sessions\"}\n{\"cmd\":\"sessions\"}";
    let reference = blocking_reference(script);
    assert_eq!(reference.iter().filter(|&&b| b == b'\n').count(), 2);

    with_server(None, |addr| {
        let mut stream = connect(addr);
        stream.write_all(script).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut tcp = Vec::new();
        stream.read_to_end(&mut tcp).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&tcp),
            String::from_utf8_lossy(&reference)
        );
    });
}

#[test]
fn sequential_round_trips_do_not_wait_for_delayed_acks() {
    // A response written in two pieces lets Nagle's algorithm hold the
    // second piece until the client's delayed ACK, about 40 ms later.  The
    // client here writes each request whole and leaves Nagle on, so any
    // such stall would come from the server.
    const ROUND_TRIPS: usize = 200;
    with_server(None, |addr| {
        let mut stream = connect(addr);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let setup = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#,
            "\n",
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":42,"truth":[true,true,false,true,false,false,false,false,false,false]}"#,
            "\n",
        );
        stream.write_all(setup.as_bytes()).unwrap();
        let mut line = String::new();
        for _ in 0..2 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""ok":true"#), "{line}");
        }

        let mut round_trips = Vec::with_capacity(ROUND_TRIPS);
        for _ in 0..ROUND_TRIPS {
            let sent = Instant::now();
            stream
                .write_all(b"{\"cmd\":\"step\",\"session\":\"s\",\"steps\":10}\n")
                .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            round_trips.push(sent.elapsed());
            assert!(line.contains(r#""ok":true"#), "{line}");
        }
        round_trips.sort_unstable();
        let median = round_trips[ROUND_TRIPS / 2];
        assert!(
            median < Duration::from_millis(10),
            "median round trip {median:?} is near the 40 ms delayed-ACK floor"
        );
    });
}

#[test]
fn slowloris_client_does_not_starve_concurrent_clients() {
    const FAN_OUT: usize = 100;
    let engine = with_server(None, |addr| {
        crossbeam::thread::scope(|scope| {
            // A slowloris client dribbles one request byte at a time, the
            // connection held open throughout.
            let slow = scope.spawn(move |_| {
                let mut stream = connect(addr);
                for &byte in b"{\"cmd\":\"sessions\"}\n" {
                    stream.write_all(&[byte]).unwrap();
                    stream.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                }
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line).unwrap();
                assert!(line.contains(r#""ok":true"#), "{line}");
            });
            // Meanwhile a fan-out of normal clients all complete round
            // trips — the slow one ties up only its own thread.
            let mut clients = Vec::new();
            for _ in 0..FAN_OUT {
                clients.push(scope.spawn(move |_| {
                    let mut stream = connect(addr);
                    stream.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
                    let mut line = String::new();
                    BufReader::new(stream).read_line(&mut line).unwrap();
                    assert!(line.contains(r#""ok":true"#), "{line}");
                }));
            }
            for client in clients {
                client.join().unwrap();
            }
            slow.join().unwrap();
        })
        .unwrap();
    });
    assert!(engine.metrics().counter(Counter::Connection) >= (FAN_OUT + 1) as u64);
}

#[test]
fn overlong_lines_get_the_structured_error_and_the_connection_survives() {
    let engine = with_server(None, |addr| {
        let mut stream = connect(addr);
        // Junk past MAX_LINE_BYTES without a newline: the error must
        // arrive *before* the newline does.
        let chunk = vec![b'x'; 64 * 1024];
        let mut sent = 0;
        while sent <= MAX_LINE_BYTES {
            stream.write_all(&chunk).unwrap();
            sent += chunk.len();
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""kind":"line_too_long""#), "{line}");
        // The rest of the overlong line is silently discarded…
        stream.write_all(&[b'y'; 100]).unwrap();
        stream.write_all(b"\n").unwrap();
        // …and the connection keeps serving.
        stream.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");
    });
    assert_eq!(engine.metrics().counter(Counter::LineTooLong), 1);
}

#[test]
fn write_backpressure_pauses_reading_without_blocking_other_clients() {
    const PIPELINED: usize = 200;
    with_server(None, |addr| {
        // Client A pipelines requests without reading any responses.
        let mut hog = connect(addr);
        let mut batch = Vec::new();
        for _ in 0..PIPELINED {
            batch.extend_from_slice(b"{\"cmd\":\"sessions\"}\n");
        }
        hog.write_all(&batch).unwrap();
        // Client B still gets prompt service while A's responses queue.
        let started = Instant::now();
        let mut other = connect(addr);
        other.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(other).read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a non-draining connection must not stall other clients"
        );
        // Once A drains, every pipelined response arrives in order.
        let mut responses = 0usize;
        let mut reader = BufReader::new(hog);
        let mut response = String::new();
        while responses < PIPELINED {
            response.clear();
            let n = reader.read_line(&mut response).unwrap();
            assert!(n > 0, "EOF after {responses} responses");
            assert!(response.contains(r#""ok":true"#), "{response}");
            responses += 1;
        }
    });
}

#[test]
fn auth_state_is_per_connection() {
    let policy = ClientPolicy::new().with_auth_token("sesame");
    with_server(Some(policy), |addr| {
        let mut authed = connect(addr);
        authed
            .write_all(b"{\"cmd\":\"auth\",\"token\":\"sesame\"}\n{\"cmd\":\"sessions\"}\n")
            .unwrap();
        let mut reader = BufReader::new(authed);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");

        // A second connection does not inherit the first one's auth.
        let mut fresh = connect(addr);
        fresh.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
        line.clear();
        BufReader::new(fresh).read_line(&mut line).unwrap();
        assert!(line.contains(r#""kind":"unauthorized""#), "{line}");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Framing is independent of packetisation: however the script's bytes
    /// are sliced across writes (including splits inside a request line and
    /// inside multi-byte UTF-8), the responses are byte-identical to the
    /// stdio loop over the same script.
    #[test]
    fn responses_are_invariant_under_arbitrary_packetisation(
        cuts in prop::collection::vec(0usize..200, 1..6),
    ) {
        let script = b"{\"cmd\":\"load_pool\",\"pool\":\"p\",\"scores\":[0.9,0.4],\"predictions\":[true,false]}\n\
                       {\"cmd\":\"create_session\",\"session\":\"s\",\"pool\":\"p\",\"seed\":7,\"truth\":[true,false]}\n\
                       {\"cmd\":\"step\",\"session\":\"s\",\"steps\":5}\n\
                       {\"cmd\":\"estimate\",\"session\":\"s\"}\n";
        let reference = blocking_reference(script);

        // Sorted, deduped cut points inside the script.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % script.len()).collect();
        cuts.sort_unstable();
        cuts.dedup();

        with_server(None, |addr| {
            let mut stream = connect(addr);
            stream.set_nodelay(true).unwrap();
            let mut start = 0;
            for cut in cuts.iter().chain(std::iter::once(&script.len())) {
                if *cut > start {
                    stream.write_all(&script[start..*cut]).unwrap();
                    stream.flush().unwrap();
                    // Give the server a chance to observe the partial
                    // chunk as its own read.
                    std::thread::sleep(Duration::from_millis(1));
                    start = *cut;
                }
            }
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut tcp = Vec::new();
            stream.read_to_end(&mut tcp).unwrap();
            assert_eq!(
                String::from_utf8_lossy(&tcp),
                String::from_utf8_lossy(&reference)
            );
        });
    }
}
