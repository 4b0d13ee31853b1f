//! Sample statistics and `/proc` readers shared by both run modes.

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending slice; `NaN`
/// when the slice is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median; sorts a copy.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The values in ascending order (`NaN`s last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The highest of the usual percentiles that still has at least ten of `n`
/// samples beyond it, or `None` when even the median has not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille, so the comparison is exact in integers.
    [999u64, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| n as u64 * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Kernel clock ticks per second behind the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux ABI Rust targets).
const USER_HZ: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in milliseconds. The
/// command name (field 2) may itself contain spaces and parentheses, so the
/// numbered fields are counted from the last `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / USER_HZ)
}

/// The `VmHWM` line of a `/proc/<pid>/status` document, in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib as f64 / 1024.0)
}

/// CPU time this process has used so far, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ms(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set size of this process so far, in MiB.
pub fn process_peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status carries a VmHWM line on Linux")
}

/// SplitMix64: the seeded generator behind submission order (the bench
/// package cannot add the vendored `rand` as a dependency).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0, "even counts take the lower middle");
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (bench) report) R 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    321 45 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(3660.0));
        assert_eq!(parse_stat_cpu_ms("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ms("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status =
            "Name:\tbench_report\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_proc_readers_work_here() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(process_peak_rss_mib() > 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix64(7).shuffle(&mut a);
        SplitMix64(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        SplitMix64(8).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
