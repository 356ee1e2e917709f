//! Order statistics for timings: medians, quartiles and the tail rule.
//!
//! Percentiles are given in permille (tenths of a percent) so ranks are
//! exact integer arithmetic: p90 is `900`, p99.9 is `999`.

/// Percentiles the tail rule may report, in permille, highest first.
pub const TAIL_PERMILLE: [u64; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// 1-based nearest rank of permille `pm` among `n` samples.
fn rank(n: usize, pm: u64) -> usize {
    ((pm * n as u64).div_ceil(1000) as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `pm` (permille) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], pm: u64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(s.len(), pm) - 1])
}

/// Median (nearest rank, so it is always one of the samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 500)
}

/// Samples ranked above the nearest-rank percentile `pm` of `n` samples.
pub fn beyond(n: usize, pm: u64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pm)
}

/// The highest percentile of [`TAIL_PERMILLE`] that leaves at least
/// [`MIN_BEYOND_TAIL`] of `n` samples beyond it — the most extreme tail a
/// run of `n` samples can state honestly. `None` below 2 × that count.
pub fn tail_permille(n: usize) -> Option<u64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND_TAIL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(101, 900), 10);
        assert_eq!(beyond(120, 900), 12);
        assert_eq!(beyond(99, 900), 9);
        assert_eq!(beyond(0, 900), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), Some(50.0));
        assert_eq!(percentile(&s, 900), Some(90.0));
        assert_eq!(percentile(&s, 999), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
