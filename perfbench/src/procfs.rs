//! Readings of the server process from outside, through `/proc/<pid>`.
//!
//! CPU comes from `/proc/<pid>/stat` (utime + stime), which keeps the time
//! of threads that already exited, but only in 10 ms clock ticks.  When the
//! server's thread set did not lose a member over the window, the per-task
//! `schedstat` run times (nanoseconds) give the same quantity exactly, and
//! are used instead.  Write bytes and syscall counts come from
//! `/proc/<pid>/io` and the peak resident set from `VmHWM` in
//! `/proc/<pid>/status`.

use std::collections::BTreeMap;
use std::fs;
use std::io;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat` on Linux.
const CLOCK_TICKS_PER_S: u64 = 100;

/// One reading of the server process.
#[derive(Debug, Clone, Default)]
pub struct ProcSample {
    cpu_ticks: u64,
    task_run_ns: BTreeMap<u32, u64>,
    wchar: u64,
    syscr: u64,
    syscw: u64,
    vm_hwm_kb: u64,
}

/// What changed between two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcDelta {
    /// Server CPU time (user + system) over the window, microseconds.
    pub cpu_us: f64,
    /// Bytes the server wrote through `write`-family calls.
    pub wchar: u64,
    /// Read syscalls.
    pub syscr: u64,
    /// Write syscalls.
    pub syscw: u64,
    /// Peak resident set at the end of the window (lifetime peak), KiB.
    pub vm_hwm_kb: u64,
}

/// Take a reading of process `pid`.
pub fn sample(pid: u32) -> io::Result<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let after_comm = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc/<pid>/stat"))?;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |index: usize| -> io::Result<u64> {
        fields
            .get(index)
            .and_then(|field| field.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc/<pid>/stat"))
    };
    let cpu_ticks = tick(11)? + tick(12)?;

    let mut task_run_ns = BTreeMap::new();
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let entry = entry?;
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        // A thread can exit between listing and reading; it is then simply
        // absent from this reading.
        if let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) {
            if let Some(run_ns) = text.split_whitespace().next().and_then(|v| v.parse().ok()) {
                task_run_ns.insert(tid, run_ns);
            }
        }
    }

    let io_text = fs::read_to_string(format!("/proc/{pid}/io"))?;
    let io_field = |name: &str| -> u64 { keyed_value(&io_text, name).unwrap_or(0) };
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    Ok(ProcSample {
        cpu_ticks,
        task_run_ns,
        wchar: io_field("wchar"),
        syscr: io_field("syscr"),
        syscw: io_field("syscw"),
        vm_hwm_kb: keyed_value(&status, "VmHWM").unwrap_or(0),
    })
}

fn keyed_value(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name.trim() == key)
            .then(|| value.split_whitespace().next()?.parse().ok())
            .flatten()
    })
}

/// The change from `before` to `after`.
pub fn delta(before: &ProcSample, after: &ProcSample) -> ProcDelta {
    let lost_a_thread = before
        .task_run_ns
        .keys()
        .any(|tid| !after.task_run_ns.contains_key(tid));
    let cpu_us = if lost_a_thread {
        after.cpu_ticks.saturating_sub(before.cpu_ticks) as f64 * 1e6 / CLOCK_TICKS_PER_S as f64
    } else {
        after
            .task_run_ns
            .iter()
            .map(|(tid, &ns)| ns.saturating_sub(before.task_run_ns.get(tid).copied().unwrap_or(0)))
            .sum::<u64>() as f64
            / 1e3
    };
    ProcDelta {
        cpu_us,
        wchar: after.wchar.saturating_sub(before.wchar),
        syscr: after.syscr.saturating_sub(before.syscr),
        syscw: after.syscw.saturating_sub(before.syscw),
        vm_hwm_kb: after.vm_hwm_kb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        let before = sample(pid).unwrap();
        let mut spin = 0u64;
        for i in 0..2_000_000u64 {
            spin = std::hint::black_box(spin.wrapping_add(i));
        }
        let after = sample(pid).unwrap();
        let change = delta(&before, &after);
        assert!(change.cpu_us > 0.0, "{change:?}");
        assert!(change.vm_hwm_kb > 0, "{change:?}");
        assert!(
            change.syscr > 0,
            "reading /proc is itself a read: {change:?}"
        );
    }
}
