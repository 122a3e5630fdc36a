//! Sample statistics: median, quartile spread, and the tail-percentile rule.

/// Median of `xs` (mean of the two middle values for an even count; NaN
/// when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (exclusive method) so the spreads
/// printed here are the ones the acceptance check computes. 0 for fewer
/// than two values.
pub fn iqr(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: usize| {
        // Exclusive method: position k(n+1)/4 (1-based), linear interpolation,
        // clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    q(3) - q(1)
}

/// IQR as a share of the median.
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 || !m.is_finite() {
        0.0
    } else {
        iqr(xs) / m.abs()
    }
}

/// Expected run-to-run IQR of the median of `trials`, as a share of it:
/// the standard error of a median is 1.2533 σ/√n, and an IQR is 1.349 σ
/// for the trials and for their median alike.
pub fn median_rel_iqr(trials: &[f64]) -> f64 {
    1.2533 * rel_iqr(trials) / (trials.len().max(1) as f64).sqrt()
}

/// Percentile levels a tail may be reported at, in per mille (integer, so
/// that ranks are exact).
const TAIL_LEVELS: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile level with at least ten samples beyond it, and
/// its nearest-rank value. `None` with fewer than 20 samples (not even the
/// median has ten samples beyond it).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_LEVELS.iter().rev().find_map(|&per_mille| {
        let rank = (per_mille * n).div_ceil(1000); // nearest rank, 1-based
        (rank >= 1 && n - rank >= 10).then(|| (per_mille as f64 / 10.0, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_level_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // p95 of 199 leaves 9 samples beyond (rank 190): stays at p90.
        assert_eq!(tail(&ramp(199)).unwrap().0, 90.0);
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn median_and_iqr_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert!((iqr(&ramp(10)) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert!((iqr(&ramp(5)) - 3.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr(&ramp(2)) - 1.5).abs() < 1e-12);
        assert_eq!(iqr(&[7.0]), 0.0);
    }
}
