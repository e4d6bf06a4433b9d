//! What the benchmark reads about the machine and process it runs on: CPU
//! time from the kernel's CPU clocks, peak RSS from `/proc`, core count, CPU
//! model and the git revision — all without spawning a process.

use std::path::Path;

/// `struct timespec` and the two CPU-time clocks of Linux on the 64-bit
/// targets the benchmark supports.  `std` has no CPU clock and links libc
/// anyway, so the one function is declared here instead of adding a crate.
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `time` is a valid, writable `timespec` for the call's duration.
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return 0;
    }
    time.seconds as u64 * 1_000_000_000 + time.nanoseconds as u64
}

/// CPU time (user + system, all threads, including exited ones) this process
/// has consumed, in nanoseconds: what `utime + stime` of `/proc/self/stat`
/// count in 10 ms ticks.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has consumed, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) of this process in MB; 0 where
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out git revision, read from `.git/HEAD` (and the ref file it
/// names) in the working directory or the nearest parent that has one;
/// `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        if let Some(revision) = revision_in(&dir.join(".git")) {
            return revision;
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

fn revision_in(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => {
            if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
                return Some(hash.trim().to_string());
            }
            // The ref may live only in packed-refs.
            let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        }
    }
}
