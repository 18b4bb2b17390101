//! Order statistics shared by the run reports and `compare`.

/// Samples beyond the reported tail percentile: a tail read from fewer
/// than ten samples is one unlucky sample, not a percentile.
const TAIL_SAMPLES_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count), as
/// Python's `statistics.median` computes it. Zero for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest nearest-rank percentile that still has
/// [`TAIL_SAMPLES_BEYOND`] samples above it, returned as `(value,
/// percentile)`. With 1000 samples that is p99. With 22 samples or fewer
/// that rank is one the median already uses: there is no tail to read,
/// and the result is `None`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    let rank = n.checked_sub(TAIL_SAMPLES_BEYOND)?;
    (rank > n / 2 + 1).then(|| (v[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// The first and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"
/// method). With fewer than two samples both quartiles are the sample
/// itself.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// The quartile spread as a share of the median: `(q3 - q1) / median`.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nearest-rank percentile: the smallest sample with at least `p`
    /// percent of the samples at or below it. Zero for no samples.
    fn nearest_rank(samples: &[f64], p: f64) -> f64 {
        let v = sorted(samples);
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 5.0);
        assert_eq!(nearest_rank(&xs, 51.0), 6.0);
        assert_eq!(nearest_rank(&xs, 90.0), 9.0);
        assert_eq!(nearest_rank(&xs, 100.0), 10.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, and ten samples lie above it.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (value, pct) = tail(&xs).expect("1000 samples have a tail");
        assert_eq!(value, 990.0);
        assert_eq!(pct, 99.0);
        assert_eq!(value, nearest_rank(&xs, 99.0));
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
        // 100 samples: p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        // 23 samples: rank 13, the first rank above the median's.
        let xs: Vec<f64> = (1..=23).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(13.0));
        assert_eq!(median(&xs), 12.0);
        // Too few samples: the rank would be one the median uses.
        for n in [0, 1, 3, 4, 10, 11, 21, 22] {
            let xs: Vec<f64> = (1..=n).map(f64::from).collect();
            assert_eq!(tail(&xs), None, "{n} samples");
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (1.5, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
