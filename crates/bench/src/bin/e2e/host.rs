//! The host record every result carries, the process's peak memory, and
//! which of the host's CPUs the rounds run on.

use std::process::Command;

use crate::json::Json;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Commit, toolchain, cores and CPU model. A checkout that is not a git
/// repository (the benchmark driver's is not) records `unknown`.
pub fn record() -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        ("commit", Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown))),
        ("rustc", Json::str(command_line("rustc", &["-V"]).unwrap_or_else(unknown))),
        ("cores", Json::Num(cores() as f64)),
        ("cpu_model", Json::str(cpu_model())),
    ])
}

/// The CPUs this process may run on, and the one a round is pinned to.
///
/// The hosts this runs on are small VMs whose vCPUs are threads of a
/// shared machine. When a neighbour loads the core under one vCPU, that
/// vCPU slows by a fifth to a half for a minute or more, the other does
/// not, and the guest's scheduler, which sees nothing of it, leaves a busy
/// single thread where it is. Rounds therefore take the CPUs in turn, a
/// few seconds each, so the fast end of a run's samples comes from
/// whichever was undisturbed.
pub struct Cpus {
    allowed: [u64; Cpus::WORDS],
    list: Vec<usize>,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl Cpus {
    const WORDS: usize = 16;

    /// The affinity mask the process was started with; empty where it
    /// cannot be read, and pinning then does nothing.
    pub fn allowed() -> Cpus {
        let mut allowed = [0u64; Cpus::WORDS];
        #[cfg(target_os = "linux")]
        // SAFETY: the mask is `size` writable bytes; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) }
            != 0
        {
            allowed = [0; Cpus::WORDS];
        }
        let list = (0..64 * Cpus::WORDS).filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
        Cpus { allowed, list }
    }

    fn set(&self, mask: &[u64; Cpus::WORDS]) {
        #[cfg(target_os = "linux")]
        if !self.list.is_empty() {
            // SAFETY: the mask is `size` readable bytes; pid 0 is this thread.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
        }
        #[cfg(not(target_os = "linux"))]
        let _ = mask;
    }

    /// Pin this thread to the `turn`-th allowed CPU, counting round and round.
    pub fn pin(&self, turn: usize) {
        if let Some(&cpu) = self.list.get(turn % self.list.len().max(1)) {
            let mut mask = [0u64; Cpus::WORDS];
            mask[cpu / 64] = 1 << (cpu % 64);
            self.set(&mask);
        }
    }

    /// Back to every allowed CPU: threads and processes started from here
    /// on inherit the mask.
    pub fn unpin(&self) {
        self.set(&self.allowed);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
