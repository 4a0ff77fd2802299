//! Dependency-free resource probes read from `/proc/self`.
//!
//! * peak resident set (`VmHWM` in `/proc/self/status`), reset by writing `5` to
//!   `/proc/self/clear_refs` so each phase reports its own peak;
//! * user and system CPU time and minor page faults (`/proc/self/stat`).

use std::time::Duration;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times.  Linux reports these in
/// `USER_HZ`, which is 100 on every architecture the workspace builds for.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// CPU and fault counters of this process at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl Usage {
    pub fn now() -> Usage {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }

    pub fn cpu_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parses `/proc/<pid>/stat`.  The command name (field 2) may hold spaces and parentheses,
/// so fields are counted from the last `)`: after it come `state` (field 3) onwards, which
/// puts `minflt` (field 10), `utime` (14) and `stime` (15) at offsets 7, 11 and 12.
pub fn parse_stat(stat: &str) -> Option<Usage> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some(Usage {
        minor_faults: field(7)?,
        user_s: field(11)? as f64 / CLOCK_TICKS_PER_SEC,
        sys_s: field(12)? as f64 / CLOCK_TICKS_PER_SEC,
    })
}

/// Parses a `kB` line such as `VmHWM:  123456 kB` out of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size in MiB since start or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") as f64 / 1024.0
}

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .unwrap_or(0)
}

/// Resets the peak resident set to the current one, so the next [`peak_rss_mb`] covers only
/// what follows.  Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc's `malloc_trim`: returns the heap memory no allocation uses to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the memory the allocator holds but no live allocation uses to the kernel, so that
/// a [`reset_peak_rss`] after it starts from what is live, not from what an earlier phase
/// left behind.  A no-op where the allocator is not glibc's.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no pointers.
    unsafe {
        malloc_trim(0);
    }
}

/// Wall time as fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (urm bench (x)) R 1 4242 4242 0 -1 4194560 183726 0 3 0 \
                        1234 567 0 0 20 0 3 0 99 123 456 18446744073709551615";

    const STATUS: &str = "Name:\turm-benchmark\nVmPeak:\t 2000000 kB\nVmSize:\t 1900000 kB\n\
                          VmHWM:\t 1536000 kB\nVmRSS:\t  512000 kB\nThreads:\t3\n";

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let usage = parse_stat(STAT).unwrap();
        assert_eq!(usage.minor_faults, 183_726);
        assert!((usage.user_s - 12.34).abs() < 1e-9);
        assert!((usage.sys_s - 5.67).abs() < 1e-9);
        assert!((usage.cpu_s() - 18.01).abs() < 1e-9);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn status_kb_lines() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(1_536_000));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(512_000));
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
    }

    #[test]
    fn usage_deltas() {
        let a = Usage {
            user_s: 1.0,
            sys_s: 0.5,
            minor_faults: 10,
        };
        let b = Usage {
            user_s: 1.5,
            sys_s: 0.75,
            minor_faults: 25,
        };
        let d = b.since(a);
        assert!((d.cpu_s() - 0.75).abs() < 1e-9);
        assert_eq!(d.minor_faults, 15);
    }

    #[test]
    fn live_probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(Usage::now().minor_faults > 0);
    }
}
