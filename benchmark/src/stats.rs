//! Order statistics over timing samples.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Ascending copy of `values` (timings are finite, so total order holds).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of `values` in any order.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values))
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() * p as usize)
        .div_ceil(100)
        .clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail percentile to report for `n` samples: p95 once it has
/// [`TAIL_SAMPLES`] samples beyond it (n >= 200), p90 below that.
pub fn tail_percentile(n: usize) -> u32 {
    if n * 5 / 100 >= TAIL_SAMPLES {
        95
    } else {
        90
    }
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 of 199 samples leaves 9 beyond it; of 200, ten.
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(5), 90);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
