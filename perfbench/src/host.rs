//! Host fingerprint and process memory: every result carries the host it
//! was measured on, so results from different host classes are labelled
//! rather than compared.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the 64-bit Linux `struct rusage`");

use std::time::Instant;

use cloudburst_sim::ShardPool;
use serde_json::json;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// work tree; a plain source tree has none.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Core count and CPU model: results compare only within one host class.
pub fn host_class() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{cores} cores, {}", cpu_model())
}

pub fn fingerprint() -> serde_json::Value {
    json!({
        "cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "cpu_model": cpu_model(),
        "auto_shard_workers": ShardPool::new(0).workers(),
        "git_commit": git_commit(),
        "host_class": host_class(),
    })
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU time so far, in clock ticks: (all states, stolen by the
/// hypervisor). Deltas over a timed section give the share of CPU the
/// host's neighbours took, which labels a noisy measurement.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU seconds (user + system) this process and every thread it has run
/// so far have used. Unlike wall time, it leaves out the time the
/// hypervisor gave the host's CPUs to other guests.
pub fn cpu_secs() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `r` is a live, writable `struct rusage` of the platform's
    // layout, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    (r.utime.sec + r.stime.sec) as f64 + (r.utime.usec + r.stime.usec) as f64 * 1e-6
}

/// Host time of one measured section: wall clock, and the process's CPU
/// time, which is what the end-to-end metrics use (see `cpu_secs`).
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub wall: f64,
    pub cpu: f64,
}

/// Started at construction; [`Stopwatch::stop`] reads both clocks.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_secs(),
        }
    }

    pub fn stop(&self) -> Timing {
        Timing {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: cpu_secs() - self.cpu,
        }
    }
}
