//! Host-side helpers: process memory, the machine fingerprint, order
//! statistics and the digest hash.

use std::fmt::Write as _;

/// Reads a `kB` field (`VmHWM`, `VmRSS`) of `/proc/self/status`, in MB.
/// Returns 0 where the file does not exist.
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads for the campaign workloads: the host's parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine fingerprint printed with every result. Results taken on
/// hosts with different fingerprints are never compared.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={} cpu={:?} rustc={:?} profile={}",
        threads(),
        cpu,
        env!("BTBENCH_RUSTC"),
        env!("BTBENCH_PROFILE"),
    )
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics. Returns NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over `text`: the digest of simulated statistics.
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Folds an ordered list of digests into one.
pub fn fold_digests(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut text = String::new();
    for d in parts {
        let _ = write!(text, "{d:016x}");
    }
    fnv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digests_depend_on_order() {
        assert_ne!(fold_digests([1, 2]), fold_digests([2, 1]));
        assert_eq!(fnv("abc"), fnv("abc"));
    }
}
