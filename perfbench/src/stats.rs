//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so figures printed here can be checked
//! against the same computation over the run records.

/// Sorts a copy of `samples` (NaNs are not expected; they sort last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles as `statistics.quantiles(data, n=4)` gives
/// them. Needs at least two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        return None;
    }
    // Exclusive method: m = len + 1, positions i·m/4 clamped to [1, len-1].
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `p`-th percentile (nearest rank), but only where at least ten
/// samples lie strictly beyond it — a tail figure backed by fewer
/// samples is noise, so it is not reported.
#[must_use]
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let value = v[rank - 1];
    let beyond = v.iter().filter(|&&x| x > value).count();
    (beyond >= 10).then_some(value)
}

/// Summary of one sample set: count, median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile (equals the median below two samples).
    pub q1: f64,
    /// Third quartile (equals the median below two samples).
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let median = median(samples)?;
        let (q1, q3) = quartiles(samples).unwrap_or((median, median));
        Some(Summary {
            n: samples.len(),
            median,
            q1,
            q3,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 distinct samples: p99 is the 990th value, with 10 beyond.
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&data, 99.0), Some(990.0));
        // 999 samples leave only 9 beyond the p99 rank: unsupported.
        assert_eq!(supported_percentile(&data[..999], 99.0), None);
        // The median of 21 samples has exactly 10 beyond it.
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(supported_percentile(&small, 50.0), Some(11.0));
        assert_eq!(supported_percentile(&small[..20], 50.0), Some(10.0));
        assert_eq!(supported_percentile(&small[..19], 50.0), None);
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let mut data = vec![1.0; 990];
        data.extend(std::iter::repeat_n(5.0, 10));
        assert_eq!(supported_percentile(&data, 99.0), Some(1.0));
        data[989] = 5.0;
        assert_eq!(supported_percentile(&data, 99.0), None);
    }

    #[test]
    fn summary_of_a_single_sample_collapses_quartiles() {
        let s = Summary::of(&[4.0]).expect("one sample");
        assert_eq!((s.n, s.median, s.q1, s.q3), (1, 4.0, 4.0, 4.0));
        assert!(Summary::of(&[]).is_none());
    }
}
