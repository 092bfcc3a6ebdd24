//! Process CPU time, peak memory and the machine description, read
//! from `/proc` (std only — the benchmark adds no dependency).

use crate::json::Value;
use std::fs;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is not
/// reachable from std; it is 100 on every Linux the repo builds on.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of the whole process, threads that have
/// already exited included (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let tick = |n: usize| rest.split_whitespace().nth(n).and_then(|f| f.parse::<f64>().ok());
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after `)`.
    (tick(11).unwrap_or(0.0) + tick(12).unwrap_or(0.0)) / CLK_TCK
}

/// Reset the process's peak-RSS high-water mark so the next
/// [`peak_rss_mib`] covers one workload slice. Returns `false` where
/// `/proc/self/clear_refs` is not writable; the reading is then the
/// process-wide peak.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the program under test will use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// What the committed baseline records beside its numbers.
pub fn machine_json() -> Value {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::str(cpu_model)),
        ("kernel", Value::str(kernel)),
        ("rustc", Value::str(rustc)),
    ])
}
