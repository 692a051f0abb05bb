//! Bench: TCP connection scaling — steps/sec and p99 request latency for a
//! fixed pool of active clients while 1k / 10k *additional* idle
//! connections are parked on `serve_listener`, plus the server's memory
//! cost of holding them.
//!
//! The fd limit may not hold both ends of 10k connections in one process,
//! so the client side runs in a child process: this binary re-executes
//! itself (`OASIS_CONNECTIONS_CLIENT=<addr>`) as a traffic generator that
//! parks the idle connections, drives `create_session` / `step` traffic
//! over the active ones, and prints one JSON line of results on stdout.
//! The parent merges the headline numbers into `BENCH_engine.json` (path
//! overridable via `BENCH_ENGINE_JSON`) next to the `engine_throughput`
//! keys, preserving whatever is already there.
//!
//! Memory: the child reads the server's `VmRSS` before and after parking
//! its idle connections (each one is a handler thread blocked in `read`),
//! and the parent adds its own `VmHWM` after each scale.  Both come from
//! `/proc` and read `null` where it does not exist.
//!
//! Scales: 1_000 idle connections always; 10_000 when the soft fd limit
//! allows — raise it first, e.g. `ulimit -n "$(ulimit -Hn)"`.

use oasis_engine::server::serve_listener;
use oasis_engine::Engine;
use serde::json::Json;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Active connections driving traffic at every idle scale.
const ACTIVE: usize = 64;
/// `step` requests issued per active connection.
const REQUESTS_PER_CONN: usize = 50;
/// Steps per `step` request.
const STEPS_PER_REQUEST: usize = 10;

const LOAD_POOL: &str = r#"{"cmd":"load_pool","pool":"demo","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#;

fn main() {
    if let Ok(addr) = std::env::var("OASIS_CONNECTIONS_CLIENT") {
        client_main(&addr);
        return;
    }
    server_main();
}

fn connect(addr: &str) -> TcpStream {
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(_) => std::thread::yield_now(),
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// One request, written whole in a single `write_all`, and its response.
fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(
        response.contains(r#""ok":true"#),
        "request failed: {line} -> {response}"
    );
    response
}

/// A `kB` field of `/proc/<pid>/status` (`VmRSS`, `VmHWM`, ...).
fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The soft open-files limit, from `/proc/self/limits`.
fn nofile_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    limits
        .lines()
        .find_map(|line| line.strip_prefix("Max open files"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn json_kb(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |kb| kb.to_string())
}

/// Child process: park the idle connections, then hammer the server over
/// the active ones and report steps/sec, p99 request latency and the
/// server's resident memory with and without the idle connections.
fn client_main(addr: &str) {
    let idle_count: usize = std::env::var("OASIS_CONNECTIONS_IDLE")
        .unwrap()
        .parse()
        .unwrap();
    let server_pid = std::os::unix::process::parent_id();
    let rss_before_idle = proc_status_kb(server_pid, "VmRSS");

    // Parked connections: connected, each served by a handler thread
    // blocked in `read`, never sending a byte.
    let mut idle = Vec::with_capacity(idle_count);
    for _ in 0..idle_count {
        idle.push(connect(addr));
    }

    // Connections are accepted in order, so once this round trip returns
    // every idle connection has its handler.
    {
        let mut setup = connect(addr);
        let mut reader = BufReader::new(setup.try_clone().unwrap());
        round_trip(&mut setup, &mut reader, LOAD_POOL);
    }
    let rss_idle = proc_status_kb(server_pid, "VmRSS");

    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(ACTIVE);
        for worker in 0..ACTIVE {
            workers.push(scope.spawn(move || {
                let mut stream = connect(addr);
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let create = format!(
                    r#"{{"cmd":"create_session","session":"c{worker}","pool":"demo","seed":{seed},"truth":[true,true,false,true,false,false,false,false,false,false]}}"#,
                    seed = 42 + worker
                );
                round_trip(&mut stream, &mut reader, &create);
                let step =
                    format!(r#"{{"cmd":"step","session":"c{worker}","steps":{STEPS_PER_REQUEST}}}"#);
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CONN);
                for _ in 0..REQUESTS_PER_CONN {
                    let sent = Instant::now();
                    round_trip(&mut stream, &mut reader, &step);
                    latencies.push(sent.elapsed().as_micros() as u64);
                }
                latencies
            }));
        }
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    drop(idle);

    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() - 1).min(latencies.len() * 99 / 100)];
    let total_steps = ACTIVE * REQUESTS_PER_CONN * STEPS_PER_REQUEST;
    let steps_per_sec = total_steps as f64 / elapsed;
    let per_idle_conn_kb = match (rss_before_idle, rss_idle) {
        (Some(before), Some(after)) if idle_count > 0 => {
            format!(
                "{:.2}",
                after.saturating_sub(before) as f64 / idle_count as f64
            )
        }
        _ => "null".to_string(),
    };
    println!(
        r#"{{"steps_per_sec":{steps_per_sec:.1},"p99_us":{p99},"requests":{},"server_rss_before_idle_kb":{},"server_rss_idle_kb":{},"server_rss_per_idle_conn_kb":{per_idle_conn_kb}}}"#,
        ACTIVE * REQUESTS_PER_CONN,
        json_kb(rss_before_idle),
        json_kb(rss_idle),
    );
}

/// Parent process: run the server, re-exec this binary as the traffic
/// generator at each idle scale, merge headlines into `BENCH_engine.json`.
fn server_main() {
    let nofile = nofile_soft_limit().unwrap_or(1024);
    let mut scales = vec![1_000usize];
    // Both processes need their side of the sockets plus headroom.
    if nofile >= 12_000 {
        scales.push(10_000);
    } else {
        println!(
            "fd limit {nofile} too low for the 10k-connection scale; skipping \
             (raise it with ulimit -n \"$(ulimit -Hn)\")"
        );
    }

    let mut headline_fields = Vec::new();
    for idle in scales {
        let engine = Engine::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let result = crossbeam::thread::scope(|scope| {
            let engine = &engine;
            let server = scope.spawn(move |_| serve_listener(engine, listener, None, None));

            let output = std::process::Command::new(std::env::current_exe().expect("current_exe"))
                .env("OASIS_CONNECTIONS_CLIENT", addr.to_string())
                .env("OASIS_CONNECTIONS_IDLE", idle.to_string())
                .output()
                .expect("spawn client process");
            assert!(
                output.status.success(),
                "client process failed:\n{}\n{}",
                String::from_utf8_lossy(&output.stdout),
                String::from_utf8_lossy(&output.stderr),
            );
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout
                .lines()
                .last()
                .expect("client result line")
                .to_string();

            let mut stop = connect(&addr.to_string());
            stop.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
            let mut ack = String::new();
            let _ = BufReader::new(stop).read_line(&mut ack);
            server.join().unwrap().unwrap();
            result
        })
        .unwrap();

        let mut result = Json::parse(&result).expect("client result must be JSON");
        let hwm = json_kb(proc_status_kb(std::process::id(), "VmHWM"));
        result.set("server_vmhwm_kb", Json::parse(&hwm).unwrap());
        let result = result.render();
        println!("connections: {idle} idle + {ACTIVE} active -> {result}");
        headline_fields.push(format!(r#""idle_{idle}":{result}"#));
    }

    let connections = format!(
        r#"{{"active":{ACTIVE},"steps_per_request":{STEPS_PER_REQUEST},{}}}"#,
        headline_fields.join(",")
    );
    merge_headline("connections", &connections);
}

/// Insert `key` into `BENCH_engine.json`, preserving the keys the
/// `engine_throughput` bench (or an earlier run) already wrote.
fn merge_headline(key: &str, raw_value: &str) {
    let path = std::env::var("BENCH_ENGINE_JSON").unwrap_or_else(|_| "BENCH_engine.json".into());
    let mut doc = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or_else(|| Json::parse("{}").unwrap());
    doc.set(key, Json::parse(raw_value).expect("headline must be JSON"));
    std::fs::write(&path, format!("{}\n", doc.render())).expect("write bench json");
    println!("bench headline numbers merged into {path}");
}
