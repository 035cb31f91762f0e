//! Facts about the host the benchmark runs on: CPU count, peak memory,
//! and a fixed calibration kernel that tracks how fast the host is right
//! now.
//!
//! Shared hosts have slow phases (1.4–1.7× for a few seconds, several
//! times a minute). The calibration kernel runs between samples; its
//! p50/p90 are reported next to the results so a reader can tell a slow
//! host from a slow change. They are metadata, never a gated metric.

use std::hint::black_box;
use std::time::Instant;

/// Worker threads the benchmark may use: the host's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The value of field `key` in `/proc/self/status`, if the platform
/// reports it.
fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim().to_string())
}

/// Peak resident set (`VmHWM`) of this process in MiB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = status_field("VmHWM:")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Parses a CPU list such as `0-3,8,10-11`; `None` if malformed.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
        if lo > hi || hi - lo > 4096 {
            return None;
        }
        cpus.extend(lo..=hi);
    }
    Some(cpus)
}

/// The CPUs this process may run on (`Cpus_allowed_list`), in order;
/// empty where the platform does not say.
pub fn allowed_cpus() -> Vec<usize> {
    status_field("Cpus_allowed_list:")
        .and_then(|l| parse_cpu_list(&l))
        .unwrap_or_default()
}

/// Restricts every thread of this process to `cpus`, with util-linux
/// `taskset` (threads started later inherit the restriction). Returns
/// false, changing nothing, where that is not possible.
pub fn pin(cpus: &[usize]) -> bool {
    let list: Vec<String> = cpus.iter().map(usize::to_string).collect();
    std::process::Command::new("taskset")
        .args(["-a", "-p", "-c", &list.join(",")])
        .arg(std::process::id().to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Iterations of the calibration kernel: about half a millisecond on a
/// 2020s x86 core.
const CALIB_ITERS: u32 = 200_000;

/// Runs the fixed calibration kernel once and returns its host time in
/// milliseconds. The kernel is a dependent chain of integer multiply,
/// xor and shift — no memory traffic — so it tracks CPU speed only.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..black_box(CALIB_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x = x
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(u64::from(i));
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Calibration p90 over p50 above which a run is flagged `unstable`.
pub const UNSTABLE_RATIO: f64 = 1.2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_takes_measurable_time() {
        let t = calibrate();
        assert!(t > 0.0 && t < 1000.0, "{t} ms");
    }

    #[test]
    fn host_facts_are_plausible() {
        assert!(nproc() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(!allowed_cpus().is_empty());
        }
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-2,5,7-8"), Some(vec![0, 1, 2, 5, 7, 8]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("2-1"), None);
        assert_eq!(parse_cpu_list("a"), None);
    }
}
