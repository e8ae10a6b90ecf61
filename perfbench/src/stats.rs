//! Small numeric helpers: medians, tail percentiles, seed mixing, output
//! fingerprints and the process's peak resident set.

use std::time::Duration;

/// Median of `values` (mean of the two middle values for an even count;
/// 0 for an empty slice). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest whole percentile of `n` samples that still has at least
/// ten samples beyond it (`n × (100 − p) / 100 ≥ 10`), clamped to
/// `[50, 99]`.
pub fn tail_percentile(n: usize) -> u32 {
    let mut p = 99u32;
    while p > 50 && (n as f64) * f64::from(100 - p) / 100.0 < 10.0 {
        p -= 1;
    }
    p
}

/// Nearest-rank percentile `p` of `values` (sorts in place).
pub fn percentile(values: &mut [f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((f64::from(p) / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// SplitMix64 of `seed` salted with `salt`: one independent input seed
/// per (benchmark seed, input) pair.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit fingerprint of `text`: outputs are checked byte for byte
/// against a reference without keeping every output in memory.
pub fn fingerprint(text: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set in MB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(256), 96);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(12), 50);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 90), 90.0);
        assert_eq!(percentile(&mut v, 50), 50.0);
    }
}
