//! `oasis-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Builds `oasis-serve` from the repository this package sits in, runs one
//! workload against it and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.

use oasis_perfbench::inputs::PoolInput;
use oasis_perfbench::{check, layers, report, server, wire, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("oasis-perfbench: {message}");
            eprintln!(
                "usage: oasis-perfbench --workload annotate|simulate|durable|mixed \
                 --seed N --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("oasis-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn repository_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn run(args: &Args) -> Result<String, String> {
    let root = repository_root();
    let binary = server::build_server(&root).map_err(|e| e.to_string())?;
    let scratch = root.join(".perfbench").join(args.workload.name());
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    // Pin this process (and so every client thread) to CPU 0 and the
    // server as `Workload::server_cpus` says, while anything is timed;
    // unpinned where that is impossible (one CPU, no `taskset`).  The
    // correctness check runs afterwards on every CPU.
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let server_cpus = (cpus >= 2 && server::set_affinity(std::process::id(), "0").is_ok())
        .then(|| args.workload.server_cpus(cpus));
    let unpin = || match server_cpus {
        Some(_) => server::set_affinity(std::process::id(), &format!("0-{}", cpus - 1))
            .map_err(|e| e.to_string()),
        None => Ok(()),
    };
    let pool = PoolInput::generate(args.workload.scale(), args.seed);
    println!(
        "workload {} seed {} pool cora@{} pairs {} sessions {} placement {}",
        args.workload.name(),
        args.seed,
        pool.scale,
        pool.pool.len(),
        args.workload.sessions(args.seed).len(),
        match &server_cpus {
            Some(list) => format!("benchmark on CPU 0, server on CPUs {list}"),
            None => "unpinned".to_string(),
        }
    );
    let io = |e: std::io::Error| e.to_string();
    let wire_run = |setups, log_json| {
        wire::run(
            &binary,
            args.workload,
            &pool,
            args.seed,
            args.seconds,
            setups,
            log_json,
            &scratch,
            server_cpus.as_deref(),
        )
        .map_err(io)
    };
    let line = if args.trace {
        let untraced = wire_run(1, false)?;
        let traced = wire_run(1, true)?;
        let budget = Duration::from_secs_f64(args.seconds / 4.0);
        let (tracer, values) = layers::ladder(args.workload, &pool, &untraced, budget, &scratch)?;
        unpin()?;
        let mut failures = check::check_run(&untraced, &pool, None);
        failures.extend(check::check_run(&traced, &pool, None));
        failures.extend(untraced.failures.iter().chain(&traced.failures).cloned());
        let trace_file = scratch.join("trace.jsonl");
        tracer.write_jsonl(&trace_file).map_err(io)?;
        println!(
            "spans {} written to {}",
            tracer.spans().len(),
            trace_file.display()
        );
        let metrics = report::per_layer(&untraced, &traced, &values);
        finish(&metrics, untraced.attempted + traced.attempted, &failures)
    } else {
        let run = wire_run(SETUPS, false)?;
        unpin()?;
        let mut failures = check::check_run(&run, &pool, None);
        failures.extend(run.failures.iter().cloned());
        finish(&report::end_to_end(&run), run.attempted, &failures)
    };
    for entry in std::fs::read_dir(&scratch).map_err(io)?.flatten() {
        if entry.path().is_dir() {
            std::fs::remove_dir_all(entry.path()).map_err(io)?;
        }
    }
    Ok(line)
}

fn finish(metrics: &[report::Metric], attempted: u64, failures: &[String]) -> String {
    for metric in metrics {
        match metric.samples {
            Some(n) => println!("{} = {} {} (n={n})", metric.name, metric.value, metric.unit),
            None => println!("{} = {} {}", metric.name, metric.value, metric.unit),
        }
    }
    for failure in failures {
        println!("FAILED: {failure}");
    }
    let failed = failures.len() as u64;
    println!("failed_share = {}", failed as f64 / attempted.max(1) as f64);
    report::result_line(failed == 0, attempted.max(1), failed, metrics)
}
