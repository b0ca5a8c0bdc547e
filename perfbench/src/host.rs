//! Host descriptor and process memory probes.

use std::path::Path;
use std::process::Command;

/// What the figures were measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores the process may use (the simulator's worker pool sizes itself
    /// from this).
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Compiler that built the benchmark and the simulator.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the host.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            commit: git_commit(),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout the benchmark runs from. Only a `.git` in
/// the working directory counts, so a checkout nested inside some other
/// repository does not report that repository's commit.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands freed heap memory back to the kernel and resets the process's
/// resident-memory high-water mark, so the next [`peak_rss_mb`] covers
/// only what ran since, from a baseline that does not depend on what
/// earlier replays left in the allocator. Where the kernel offers no
/// reset, the mark also covers earlier replays.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator already holds as free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-memory high-water mark in MB (VmHWM), or 0
/// where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
