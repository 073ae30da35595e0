//! The few statistics the harness reports: medians, the quartiles `compare`
//! judges a set's own spread by, and the tail-percentile rule.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    sorted
}

/// Median (mean of the middle two when even); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => None,
        n if n % 2 == 1 => Some(sorted[mid]),
        _ => Some((sorted[mid - 1] + sorted[mid]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let quantile = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((quantile(1), quantile(3)))
}

/// The highest percentile that still has at least ten samples beyond it, and
/// the sample at it: `(percentile, value)`. `None` below eleven samples,
/// where no percentile has ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // 11 samples: only the minimum has ten samples beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        // 1000 samples: the 99th percentile.
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        // 54 sweep units: p81.5, the 44th smallest.
        let units: Vec<f64> = (1..=54).map(f64::from).collect();
        let (pct, value) = tail(&units).unwrap();
        assert_eq!(value, 44.0);
        assert!((pct - 81.48).abs() < 0.01);
    }
}
