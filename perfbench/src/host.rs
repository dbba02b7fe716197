//! What the benchmark reads about its own process and host: CPU time
//! and context switches (`getrusage`), peak resident memory and thread
//! count (`/proc/self/status`), a fixed calibration loop for host drift,
//! and the run's provenance (nproc, rustc, commit).

use std::hint::black_box;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux (every field after the two timevals is a
/// `long`).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Whole-process resource counters at one instant. Unlike
/// `/proc/self/status`, `getrusage(RUSAGE_SELF)` also counts threads that
/// have already exited (every served connection's reader thread).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU time, ns.
    pub user_ns: u64,
    /// System CPU time, ns.
    pub sys_ns: u64,
    /// Voluntary context switches.
    pub vcsw: u64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Usage {
        let mut r = Rusage::default();
        // SAFETY: `r` is a live, writable `struct rusage` with the C
        // layout Linux defines, and RUSAGE_SELF is a valid `who`;
        // getrusage writes only inside that struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
        let ns = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
        Usage { user_ns: ns(&r.utime), sys_ns: ns(&r.stime), vcsw: r.nvcsw as u64 }
    }

    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_ns: self.user_ns - earlier.user_ns,
            sys_ns: self.sys_ns - earlier.sys_ns,
            vcsw: self.vcsw - earlier.vcsw,
        }
    }

    /// User plus system CPU time, ns.
    pub fn cpu_ns(&self) -> u64 {
        self.user_ns + self.sys_ns
    }
}

fn status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size since start or the last [`reset_peak_rss`],
/// in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Reset `VmHWM` to the current resident size, so the peak read later
/// covers only the measured window and not the set-up before it.
pub fn reset_peak_rss() {
    // Linux ≥ 4.0; on failure the peak simply also covers set-up.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// One pass of the calibration loop: fixed integer work that uses no
/// program code, so a change in its time is the host's, not the PR's.
fn calib_once() -> u64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..4_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_nanos() as u64
}

/// Host-drift probe: the fastest of three calibration passes, ns.
pub fn calib_ns() -> u64 {
    (0..3).map(|_| calib_once()).min().expect("three passes")
}

/// Provenance printed with every run.
pub struct RunInfo {
    /// Usable CPUs.
    pub nproc: usize,
    /// The compiler that built the benchmark and the program.
    pub rustc: &'static str,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl RunInfo {
    /// Gather provenance for the checkout at `root`.
    pub fn gather(root: &Path) -> RunInfo {
        RunInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_head(root).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Resolve `HEAD` by reading `.git` directly (no subprocess).
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
