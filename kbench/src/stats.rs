//! Order statistics over raw samples: no histogram buckets, so every
//! reported value is a measured sample with all its digits. Percentiles
//! are in per mille (990 = p99) so ranks are exact integer arithmetic.

/// Percentiles a tail may be reported at, highest first, in per mille.
/// The tail of a sample is the highest of these with at least
/// [`MIN_BEYOND`] samples beyond it; with fewer than 20 samples none
/// qualifies and the tail is the maximum (per mille 1000). The ladder
/// stops at p99: a `_p99` metric is p99 from 1,000 samples on.
pub const TAIL_LADDER: [u32; 3] = [990, 900, 500];

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of per-mille percentile `q` among `n` samples.
fn rank(q: u32, n: usize) -> usize {
    (q as usize * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[u64], q: u32) -> u64 {
    sorted[rank(q, sorted.len()) - 1]
}

/// The tail rule: the per-mille percentile reported as the tail of `n`
/// samples, and how many samples lie beyond its rank.
pub fn tail_percentile(n: usize) -> (u32, usize) {
    TAIL_LADDER
        .iter()
        .map(|&q| (q, n - rank(q, n)))
        .find(|&(_, beyond)| beyond >= MIN_BEYOND)
        .unwrap_or((1000, 0))
}

/// Median and tail of one set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: u64,
    /// The value at percentile [`Summary::tail_q`].
    pub tail: u64,
    /// Per mille.
    pub tail_q: u32,
    /// Samples beyond the tail value's rank.
    pub beyond: usize,
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples` (reordered in place); `None` when empty.
    pub fn of(samples: &mut [u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        let (tail_q, beyond) = tail_percentile(n);
        let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
        Some(Summary {
            n,
            p50: percentile(samples, 500),
            tail: percentile(samples, tail_q),
            tail_q,
            beyond,
            mean: sum as f64 / n as f64,
        })
    }

    /// `p50=… p99=… (n=…, 10 beyond)`, values scaled by `1/div`.
    pub fn describe(&self, div: f64) -> String {
        format!(
            "p50={:.1} p{}={:.1} (n={}, {} beyond) mean={:.1}",
            self.p50 as f64 / div,
            f64::from(self.tail_q) / 10.0,
            self.tail as f64 / div,
            self.n,
            self.beyond,
            self.mean / div
        )
    }
}

/// Median of a few floats (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The median of the slices' own medians, with those medians in slice
/// order (empty slices are skipped); `None` when every slice is empty.
/// A burst of host noise that covers fewer than half of the slices
/// leaves it where the quiet slices put it, while a slower program moves
/// every slice.
pub fn median_of_medians(slices: &mut [Vec<u64>]) -> Option<(f64, Vec<u64>)> {
    let medians: Vec<u64> =
        slices.iter_mut().filter_map(|slice| Summary::of(slice)).map(|s| s.p50).collect();
    let values: Vec<f64> = medians.iter().map(|&m| m as f64).collect();
    (!values.is_empty()).then(|| (median(&values), medians))
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), (990, 1_000));
        assert_eq!(tail_percentile(1_000), (990, 10));
        assert_eq!(tail_percentile(999), (900, 99));
        assert_eq!(tail_percentile(100), (900, 10));
        assert_eq!(tail_percentile(99), (500, 49));
        assert_eq!(tail_percentile(20), (500, 10));
        assert_eq!(tail_percentile(19), (1000, 0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&samples, 500), 500);
        assert_eq!(percentile(&samples, 990), 990);
        assert_eq!(percentile(&samples, 1000), 1_000);
        assert_eq!(percentile(&[7], 990), 7);
    }

    #[test]
    fn summary_reports_counts_with_values() {
        let mut samples: Vec<u64> = (1..=1_000).rev().collect();
        let s = Summary::of(&mut samples).unwrap();
        assert_eq!((s.n, s.p50, s.tail, s.tail_q, s.beyond), (1_000, 500, 990, 990, 10));
        assert_eq!(s.mean, 500.5);
        assert_eq!(s.describe(1.0), "p50=500.0 p99=990.0 (n=1000, 10 beyond) mean=500.5");
        let mut few: Vec<u64> = vec![3, 1, 2];
        let s = Summary::of(&mut few).unwrap();
        assert_eq!((s.p50, s.tail, s.tail_q, s.beyond), (2, 3, 1000, 0));
        assert!(Summary::of(&mut []).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_burst_in_fewer_than_half_the_slices_leaves_the_median_of_medians() {
        // Slices 1, 3, 5, 7 and 9 of 11 ran ten times slower.
        let mut slices: Vec<Vec<u64>> = (0..11)
            .map(|i| if i % 2 == 1 { vec![900, 1_000, 1_100] } else { vec![90, 100, 110] })
            .collect();
        let (value, medians) = median_of_medians(&mut slices).unwrap();
        assert_eq!(value, 100.0);
        assert_eq!(medians, [100, 1_000, 100, 1_000, 100, 1_000, 100, 1_000, 100, 1_000, 100]);
        assert!(median_of_medians(&mut [Vec::new(), Vec::new()]).is_none());
    }
}
