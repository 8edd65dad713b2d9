//! Order statistics the benchmark reports: nearest-rank percentiles,
//! the highest percentile a sample supports, Python-compatible
//! quartiles, and the best-slice summary every timing uses.

/// Percentiles the harness will quote, lowest to highest, in
/// hundredths of a percent so the ten-samples rule is exact arithmetic.
const QUOTABLE: [u64; 5] = [5000, 9000, 9900, 9990, 9999];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
/// Empty input reads 0 so callers need no special case for an idle
/// slice; they report the sample count beside it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest quotable percentile that still has at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    QUOTABLE
        .iter()
        .copied()
        .rfind(|p| samples as u64 * (10_000 - p) >= 10 * 10_000)
        .map(|p| p as f64 / 100.0)
}

/// Median of unsorted values; the mean of the middle pair when even.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so a spread
/// computed here equals the one the driver computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A value taken over the slices of a window (or the repetitions of a
/// measurement): the best of them is what is reported, the median and
/// the range are printed beside it.
///
/// Why the best: noise on the shared sandbox is one-sided and comes in
/// sub-second bursts — something else on the host takes CPU away, never
/// gives extra — so the best slice is what the code does when it has
/// the machine. It is also the only statistic that holds still there;
/// see README.md, "Steadiness on this box".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    fn of(values: &[f64], pick: impl Fn(f64, f64) -> f64) -> Summary {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            value: pick(min, max),
            median: median(values),
            min,
            max,
        }
    }

    /// Best is highest: rates.
    pub fn highest(values: &[f64]) -> Summary {
        Summary::of(values, |_, max| max)
    }

    /// Best is lowest: durations.
    pub fn lowest(values: &[f64]) -> Summary {
        Summary::of(values, |min, _| min)
    }

    /// A single measurement with no slices behind it.
    pub fn point(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            min: value,
            max: value,
        }
    }

    pub fn scaled(self, by: f64) -> Summary {
        Summary {
            value: self.value * by,
            median: self.median * by,
            min: self.min * by,
            max: self.max * by,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(99_999), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_reports_the_best_slice_beside_median_and_range() {
        let rates = Summary::highest(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!(
            (rates.value, rates.median, rates.min, rates.max),
            (9.0, 5.0, 1.0, 9.0)
        );
        let times = Summary::lowest(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!(
            (times.value, times.median, times.min, times.max),
            (1.0, 5.0, 1.0, 9.0)
        );
        assert_eq!(times.scaled(2.0).value, 2.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }
}
