//! Order statistics and failure accounting shared by every workload.
//!
//! Percentiles are exact: they are read from the sorted samples the
//! benchmark itself collected, never from the program's power-of-two
//! histogram buckets.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The least number of samples that must lie beyond a reported tail
/// percentile.
const TAIL_BEYOND: usize = 10;

/// The `q`-th percentile (0–100) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` percent of all samples at or
/// below it. `None` when there are no samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// strictly above its nearest rank, or `None` when even the median has
/// fewer. Returned as `(percentile, value)`.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&q| {
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| (q, sorted[rank - 1]))
    })
}

/// The median of unsorted values (mean of the two middle values for an
/// even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A sorted copy (NaN-free input assumed; `total_cmp` keeps it total).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Latency samples of one measured window, with failures kept apart so
/// that a failed request counts as missing every latency limit.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ok_ms: Vec<f64>,
    failed: usize,
}

impl Latencies {
    /// Records one successful operation's latency.
    pub fn ok(&mut self, ms: f64) {
        self.ok_ms.push(ms);
    }

    /// Records one failed operation: an error reply, a refusal, a
    /// missing reply or a non-equivalent verdict.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Adds another window's samples and failures to this one.
    pub fn merge(&mut self, other: &Latencies) {
        self.ok_ms.extend_from_slice(&other.ok_ms);
        self.failed += other.failed;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.ok_ms.len() + self.failed
    }

    /// Operations failed.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Failed share of attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed as f64 / n as f64,
        }
    }

    /// Every sample sorted, failures last as `+inf`, so a percentile
    /// that lands on a failure reads as unbounded.
    pub fn sorted_with_failures(&self) -> Vec<f64> {
        let mut s = sorted(&self.ok_ms);
        s.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        s
    }

    /// The `q`-th percentile counting failures as unbounded.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        percentile(&self.sorted_with_failures(), q)
    }

    /// The tail rule of [`tail`], counting failures as unbounded.
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail(&self.sorted_with_failures())
    }

    /// Mean of the successful samples.
    pub fn mean_ok(&self) -> Option<f64> {
        (!self.ok_ms.is_empty()).then(|| self.ok_ms.iter().sum::<f64>() / self.ok_ms.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2500 samples: p99.9 has 2 beyond, p99 has 25.
        assert_eq!(tail(&ramp(2500)), Some((99.0, 2475.0)));
        // 1000 samples: p99 has exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 has 9 beyond, p95 has 49.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
        // 30 samples: only the median keeps ten beyond.
        assert_eq!(tail(&ramp(30)), Some((50.0, 15.0)));
        // 19 samples: not even the median does.
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_count_against_attempted_and_the_limit() {
        let mut l = Latencies::default();
        for i in 1..=98 {
            l.ok(i as f64);
        }
        l.fail();
        l.fail();
        assert_eq!((l.attempted(), l.failed()), (100, 2));
        assert!((l.fail_ratio() - 0.02).abs() < 1e-12);
        // Two failures sit beyond p98: p99 reads as unbounded.
        assert_eq!(l.percentile(98.0), Some(98.0));
        assert_eq!(l.percentile(99.0), Some(f64::INFINITY));
        assert_eq!(l.mean_ok(), Some(49.5));
        assert_eq!(Latencies::default().fail_ratio(), 0.0);
    }
}
