//! Host and process facts: the fingerprint every result carries, CPU time
//! from `getrusage`, and peak RSS.

use std::time::Duration;

/// CPU count and the SIMD features the kernels can dispatch to.
pub fn cpus_and_simd() -> (usize, Vec<&'static str>) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[allow(unused_mut)]
    let mut simd = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    simd.push($f);
                }
            )*};
        }
        probe!(
            "sse4.2",
            "avx",
            "avx2",
            "fma",
            "avx512f",
            "avx512vnni",
            "avxvnni"
        );
    }
    (cpus, simd)
}

/// The commit the checkout was made from, when a `.git` directory is
/// present; otherwise `"unknown"`.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Cumulative `(steal, total)` CPU ticks of the whole machine from
/// `/proc/stat`: time the hypervisor gave this VM's CPUs to someone else.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time this process has used. Time the hypervisor
/// stole from the VM is not in it, which is what keeps CPU-cost metrics
/// steady on a shared host.
pub fn cpu_time() -> Duration {
    rusage(0)
}

/// User plus system CPU time the calling thread has used.
pub fn thread_cpu_time() -> Duration {
    rusage(1)
}

/// `getrusage(who)`: 0 is `RUSAGE_SELF`, 1 is Linux's `RUSAGE_THREAD`.
fn rusage(who: i32) -> Duration {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` laid out as the
    // C library declares it on 64-bit Linux (two `timeval`s then 14
    // `long`s), and `getrusage` writes only within it.
    let rc = unsafe { getrusage(who, &mut ru) };
    if rc != 0 {
        return Duration::ZERO;
    }
    let us = |t: &Timeval| t.sec.max(0) as u64 * 1_000_000 + t.usec.max(0) as u64;
    Duration::from_micros(us(&ru.utime) + us(&ru.stime))
}
