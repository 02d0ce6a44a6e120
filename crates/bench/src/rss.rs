//! Peak-RSS probing for the memory-budget benchmarks (Linux `/proc`).
//!
//! The streaming freeze's whole point is bounding resident memory, so the
//! kg-scaling bench measures it directly: run the freeze in a fresh child
//! process and read that process's `VmHWM`. This lives in
//! cosmo-bench (not the library crates) deliberately — the deterministic
//! crates ban wall-clock/procfs access (audit lint A04), and the probe is
//! measurement, not semantics.

/// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`)
/// since process start. `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_and_grows_monotonically() {
        let Some(before) = peak_rss_bytes() else {
            return; // non-Linux: probe degrades to None, nothing to check
        };
        assert!(before > 0);
        // touch ~32 MiB so the high-water mark must move past any prior peak
        // only if it was below that; either way a second read still parses
        let buf = vec![1u8; 32 << 20];
        std::hint::black_box(&buf);
        let after = peak_rss_bytes().expect("probe worked a moment ago");
        assert!(after >= before, "peak RSS cannot shrink without a reset");
    }
}
