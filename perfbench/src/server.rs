//! The `oasis-serve` child process and the client side of its wire
//! protocol.
//!
//! The server is started only with `--tcp ADDR`, `--store DIR`,
//! `--max-resident N` and `--log-json`, so whatever transport those flags
//! give by default is the one measured.  Every request leaves the client in
//! one write of the whole line plus `\n`, on a socket with `TCP_NODELAY`
//! set, so a stall the client sees comes from the server.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client waits for one response before counting it failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the server gets to exit after `shutdown` before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Build `oasis-serve` from the repository at `root` in release mode and
/// return the path of the executable.  The target directory honours
/// `CARGO_TARGET_DIR` (relative paths are taken from `root`).
pub fn build_server(root: &Path) -> io::Result<PathBuf> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "oasis-engine",
            "--bin",
            "oasis-serve",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building oasis-serve failed: {status}"
        )));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let binary = target.join("release").join("oasis-serve");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(io::Error::other(format!(
            "{} was not built",
            binary.display()
        )))
    }
}

/// Restrict every thread of process `pid` (and threads it creates later)
/// to the CPUs in `cpus` (a `taskset` list such as `1` or `0-1`).
pub fn set_affinity(pid: u32, cpus: &str) -> io::Result<()> {
    let status = Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &pid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "taskset -c {cpus} failed: {status}"
        )))
    }
}

/// How the benchmark reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The server's stdin/stdout (one client).
    Stdio,
    /// `--tcp 127.0.0.1:<free port>` with this many client connections.
    Tcp(usize),
}

/// Command-line options for one server instance.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Transport and client connection count.
    pub transport: Transport,
    /// `--store DIR` with `--max-resident N`.
    pub store: Option<(PathBuf, usize)>,
    /// `--log-json`: one structured event per request on stderr.
    pub log_json: bool,
    /// CPUs the server may run on (`None`: inherit the benchmark's).
    pub cpus: Option<String>,
}

/// A reader that counts the `read` calls made on it.
struct CountingReader {
    inner: Box<dyn Read + Send>,
    reads: u64,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        self.inner.read(buf)
    }
}

/// One client connection: a closed loop of whole-line round trips.
pub struct Conn {
    writer: Box<dyn Write + Send>,
    reader: BufReader<CountingReader>,
    outgoing: Vec<u8>,
}

impl Conn {
    fn new(writer: Box<dyn Write + Send>, reader: Box<dyn Read + Send>) -> Self {
        Conn {
            writer,
            reader: BufReader::with_capacity(
                1 << 16,
                CountingReader {
                    inner: reader,
                    reads: 0,
                },
            ),
            outgoing: Vec::new(),
        }
    }

    /// Send `request` as one write of the line plus `\n`, then read one
    /// response line.  Returns the response (without the newline), the
    /// round-trip time in nanoseconds, and how many `read` calls the
    /// response took: each piece the server wrote and the client saw arrive
    /// separately costs one.
    pub fn round_trip(&mut self, request: &str) -> io::Result<(String, u64, u64)> {
        let reads_before = self.reader.get_ref().reads;
        self.outgoing.clear();
        self.outgoing.extend_from_slice(request.as_bytes());
        self.outgoing.push(b'\n');
        let mut response = String::new();
        let started = Instant::now();
        self.writer.write_all(&self.outgoing)?;
        self.writer.flush()?;
        let read = self.reader.read_line(&mut response)?;
        let elapsed = started.elapsed().as_nanos() as u64;
        if read == 0 || !response.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        response.pop();
        Ok((
            response,
            elapsed,
            self.reader.get_ref().reads - reads_before,
        ))
    }
}

/// A running `oasis-serve` child.  Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Server {
    /// Spawn the server and open its client connections.
    pub fn start(binary: &Path, options: &ServerOptions) -> io::Result<(Server, Vec<Conn>)> {
        let mut command = Command::new(binary);
        let mut tcp_addr = None;
        if let Transport::Tcp(_) = options.transport {
            let addr = free_loopback_addr()?;
            command.arg("--tcp").arg(addr.to_string());
            tcp_addr = Some(addr);
        }
        if let Some((dir, max_resident)) = &options.store {
            command
                .arg("--store")
                .arg(dir)
                .arg("--max-resident")
                .arg(max_resident.to_string());
        }
        if options.log_json {
            command.arg("--log-json");
        }
        let stdio = options.transport == Transport::Stdio;
        command
            .stdin(if stdio { Stdio::piped() } else { Stdio::null() })
            .stdout(if stdio { Stdio::piped() } else { Stdio::null() })
            .stderr(if options.log_json {
                Stdio::piped()
            } else {
                Stdio::null()
            });
        let mut child = command.spawn()?;
        let stderr = child.stderr.take().map(|pipe| {
            std::thread::spawn(move || {
                BufReader::new(pipe)
                    .lines()
                    .map_while(Result::ok)
                    .filter(|line| line.contains(r#""event":"request""#))
                    .collect()
            })
        });
        let mut server = Server { child, stderr };
        if let Some(cpus) = &options.cpus {
            set_affinity(server.pid(), cpus)?;
        }
        let conns = match (options.transport, tcp_addr) {
            (Transport::Tcp(count), Some(addr)) => (0..count)
                .map(|_| server.connect(addr))
                .collect::<io::Result<Vec<_>>>()?,
            _ => {
                let stdin = server
                    .child
                    .stdin
                    .take()
                    .expect("stdin is piped in stdio mode");
                let stdout = server
                    .child
                    .stdout
                    .take()
                    .expect("stdout is piped in stdio mode");
                vec![Conn::new(Box::new(stdin), Box::new(stdout))]
            }
        };
        Ok((server, conns))
    }

    /// Connect to the listening server, retrying while it starts up.
    fn connect(&mut self, addr: SocketAddr) -> io::Result<Conn> {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
                    let reader = stream.try_clone()?;
                    return Ok(Conn::new(Box::new(stream), Box::new(reader)));
                }
                Err(error) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("oasis-serve exited: {status}")));
                    }
                    if Instant::now() > deadline {
                        return Err(error);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to shut down over `conn`, close every connection,
    /// wait for the process to exit, and return the request events it
    /// logged (empty without `--log-json`).
    pub fn stop(mut self, mut conns: Vec<Conn>) -> io::Result<Vec<String>> {
        let acknowledged = match conns.first_mut() {
            Some(conn) => conn.round_trip(r#"{"cmd":"shutdown"}"#).map(drop),
            None => Ok(()),
        };
        drop(conns);
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(io::Error::other("oasis-serve did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        acknowledged?;
        let events = match self.stderr.take() {
            Some(reader) => reader
                .join()
                .map_err(|_| io::Error::other("stderr reader panicked"))?,
            None => Vec::new(),
        };
        Ok(events)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// A loopback address with a port nobody is listening on right now.
fn free_loopback_addr() -> io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}
